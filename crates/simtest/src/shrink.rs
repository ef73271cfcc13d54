//! Greedy scenario shrinking: minimize a failing `(seed, schedule)` to
//! the shortest scenario that still violates an oracle.
//!
//! The shrinker never invents new behavior — every candidate is the
//! original scenario with things *removed* (a truncated op tail, a
//! single op dropped, a fault event dropped), so any candidate that
//! still fails is a strictly simpler reproduction of the same bug. The
//! predicate is re-evaluated by actually re-running the candidate
//! through the harness, which is cheap because runs are virtual-time.

use crate::scenario::Scenario;

/// Shrink `scenario` while `fails` keeps returning true, greedily and
/// to a fixpoint. `fails(&scenario)` must be true on entry (otherwise
/// the input is returned unchanged). Returns the smallest failing
/// scenario found and the number of candidate runs spent.
pub fn shrink<F>(scenario: &Scenario, fails: F) -> (Scenario, usize)
where
    F: Fn(&Scenario) -> bool,
{
    let mut runs = 0usize;
    let mut check = |s: &Scenario| {
        runs += 1;
        fails(s)
    };
    if !check(scenario) {
        return (scenario.clone(), runs);
    }
    let mut best = scenario.clone();
    loop {
        let mut improved = false;

        // Pass 1: shortest failing op prefix (smallest first, so one
        // success per round cuts the most).
        for keep in 0..best.ops.len() {
            let mut cand = best.clone();
            cand.ops.truncate(keep);
            if check(&cand) {
                best = cand;
                improved = true;
                break;
            }
        }

        // Pass 2: drop single ops.
        if !improved {
            for i in 0..best.ops.len() {
                let mut cand = best.clone();
                cand.ops.remove(i);
                if check(&cand) {
                    best = cand;
                    improved = true;
                    break;
                }
            }
        }

        // Pass 3: drop single fault events.
        if !improved {
            for i in 0..best.events.len() {
                let mut cand = best.clone();
                cand.events.remove(i);
                if check(&cand) {
                    best = cand;
                    improved = true;
                    break;
                }
            }
        }

        // Pass 4: turn off the background fault rate if it isn't needed.
        if !improved && best.fault_rate > 0.0 {
            let mut cand = best.clone();
            cand.fault_rate = 0.0;
            if check(&cand) {
                best = cand;
                improved = true;
            }
        }

        if !improved {
            return (best, runs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{JobDef, Op};
    use std::time::Duration;

    /// Predicate: "the scenario submits at least one job with seed 3".
    fn fails(s: &Scenario) -> bool {
        s.ops.iter().any(|op| matches!(op, Op::Submit(d) if d.seed == 3))
    }

    #[test]
    fn shrinks_to_the_single_triggering_op() {
        let poison = JobDef { seed: 3, ..JobDef::bell() };
        let mut scenario = Scenario::empty(9);
        for i in 0..6 {
            scenario = scenario
                .op(Op::Advance(Duration::from_micros(10 + i)))
                .op(Op::Submit(JobDef { seed: i, ..JobDef::bell() }));
        }
        scenario = scenario.op(Op::Submit(poison)).op(Op::Advance(Duration::from_micros(99)));
        scenario.fault_rate = 0.3;
        assert!(fails(&scenario));

        let (minimal, runs) = shrink(&scenario, fails);
        assert!(fails(&minimal));
        assert_eq!(minimal.ops.len(), 1, "minimal repro is the poison submit: {minimal:?}");
        assert!(matches!(&minimal.ops[0], Op::Submit(d) if d.seed == 3));
        assert_eq!(minimal.fault_rate, 0.0, "rate plan shed as irrelevant");
        assert!(runs > 1);
    }

    #[test]
    fn non_failing_input_is_returned_unchanged() {
        let scenario = Scenario::empty(1).op(Op::Submit(JobDef::bell()));
        let (out, runs) = shrink(&scenario, |_| false);
        assert_eq!(out, scenario);
        assert_eq!(runs, 1);
    }
}
