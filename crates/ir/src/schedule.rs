//! Commutation-aware kernel scheduling into *sweeps*.
//!
//! Fusion (the §2.2 kernel transformation) shrinks the number of
//! state-vector passes from one-per-gate to one-per-kernel, but each fused
//! kernel still walks the full `2^n` state, so on wide registers memory
//! bandwidth — not arithmetic — dominates (the cuQuantum/Aer profiling
//! story). This pass goes one level further: it legally reorders and
//! groups the fused kernels into **sweeps** — runs of kernels that the
//! engine can apply in a *single* pass over the state, touching each
//! amplitude tile once while it is cache-hot.
//!
//! Two kernels may be reordered past each other when they commute. We use
//! a sound structural test instead of multiplying matrices: kernels `A`
//! and `B` commute whenever **no shared qubit is mixed by either kernel**
//! (`FusedBlock::mixed_support_mask`). Disjoint supports are the vacuous
//! case; diagonal kernels (which mix nothing) commute with anything they
//! only share controls/phases with. The proof: if neither kernel mixes
//! any shared qubit, both are block-diagonal over the shared bits —
//! `A = Σ_s |s⟩⟨s| ⊗ A_s`, `B = Σ_s |s⟩⟨s| ⊗ B_s` — and `A_s`, `B_s` act
//! on disjoint private qubit sets, so every summand commutes.
//!
//! The scheduler is greedy list scheduling: each kernel moves to the
//! earliest sweep it can legally reach (it must commute with every kernel
//! in every sweep it hops over) and fit into. A sweep of several kernels
//! that is not all-diagonal holds only kernels whose qubits all lie below
//! [`SweepOptions::max_width`], so the executor's tile is always a
//! contiguous, cache-sized slice of the state (the low qubits), run in
//! place with no gather or scatter; any other dense kernel is a sweep of
//! its own, the full-state kernel pass. Sweeps whose kernels are *all
//! diagonal* are exempt from the cap — diagonal kernels apply
//! element-wise, so a single pass can carry any number of them at any
//! width.
//!
//! Execution order *within* a sweep preserves the original program order,
//! so a schedule that performed no cross-sweep motion
//! ([`SweepSchedule::moved_kernels`] is 0) is bit-for-bit identical to
//! unscheduled execution; reordered schedules are equal up to fp
//! round-off (verified against the dense reference in the differential
//! suite).

use crate::fusion::FusedProgram;

/// Default cap on a dense sweep: its kernels act on qubits `0..12`, so a
/// tile is a contiguous slice of `2^12` amplitudes of the state itself
/// (64 KiB at fp64), which stays resident in L2 while every kernel of the
/// sweep is applied to it in place.
pub const DEFAULT_SWEEP_WIDTH: usize = 12;

/// Hard ceiling on [`SweepOptions::max_width`]: a `2^20`-amplitude tile
/// (16 MiB fp64) is already far past any cache; wider requests are
/// clamped.
const MAX_SWEEP_WIDTH: usize = 20;

/// Knobs for the sweep scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOptions {
    /// A dense sweep of several kernels holds only kernels on qubits
    /// `0..max_width`; diagonal-only sweeps ignore the cap. Clamped to
    /// `1..=MAX_SWEEP_WIDTH`.
    pub max_width: usize,
    /// Allow moving kernels into *earlier* sweeps past commuting
    /// neighbours. With `false` the scheduler only groups **adjacent**
    /// kernels, which preserves execution order exactly (bit-for-bit
    /// reproducible against unscheduled execution).
    pub reorder: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions { max_width: DEFAULT_SWEEP_WIDTH, reorder: true }
    }
}

/// One sweep: a set of kernels applied in a single pass over the state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sweep {
    /// Indices into `FusedProgram::blocks`, in execution order (ascending
    /// original index, so in-sweep order never deviates from the program).
    pub kernels: Vec<usize>,
    /// Sorted union of the member kernels' global qubits.
    pub qubits: Vec<u32>,
    /// Every member kernel is diagonal (element-wise execution, no width
    /// cap).
    pub diagonal: bool,
}

impl Sweep {
    /// Union support width in qubits.
    pub fn width(&self) -> usize {
        self.qubits.len()
    }
}

/// The scheduler's output: a partition of the program's kernels into
/// sweeps, in execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSchedule {
    /// Sweeps in execution order.
    pub sweeps: Vec<Sweep>,
    /// Kernels that were moved into an earlier sweep (past at least one
    /// commuting kernel). `0` means the schedule is a pure grouping of
    /// adjacent kernels and execution is bit-identical to the unscheduled
    /// program.
    pub moved_kernels: usize,
    /// Register width of the scheduled program.
    pub num_qubits: u32,
}

impl SweepSchedule {
    /// Total kernels scheduled (equals the program's block count).
    pub fn num_kernels(&self) -> usize {
        self.sweeps.iter().map(|s| s.kernels.len()).sum()
    }

    /// Flattened kernel execution order (indices into the source
    /// program's `blocks`).
    pub fn order(&self) -> Vec<usize> {
        self.sweeps.iter().flat_map(|s| s.kernels.iter().copied()).collect()
    }

    /// A new program with the blocks permuted into schedule order —
    /// used by engines (the distributed cluster path) that execute
    /// kernel-by-kernel but still profit from commutation-aware locality.
    pub fn reorder_program(&self, program: &FusedProgram) -> FusedProgram {
        FusedProgram {
            num_qubits: program.num_qubits,
            blocks: self.order().iter().map(|&i| program.blocks[i].clone()).collect(),
            fusion_width: program.fusion_width,
        }
    }

    /// Check the schedule against its source program: every kernel
    /// appears exactly once, a dense sweep of several kernels touches no
    /// qubit at or above the cap, and the reorder is legal (a kernel only
    /// ever hops over kernels it commutes with). Returns a description of
    /// the first violation. Intended for tests and the differential
    /// suite; `O(kernels²)`.
    pub fn validate(&self, program: &FusedProgram, opts: &SweepOptions) -> Result<(), String> {
        let n = program.blocks.len();
        let max_width = opts.max_width.clamp(1, MAX_SWEEP_WIDTH);
        let mut seen = vec![false; n];
        for s in &self.sweeps {
            // A lone kernel runs on the whole state wherever it sits; only
            // a multi-kernel dense sweep is a tile of the low qubits.
            let top = s.qubits.last().map_or(0, |&q| q as usize + 1);
            if !s.diagonal && s.kernels.len() > 1 && top > max_width {
                return Err(format!(
                    "dense sweep of {} kernels reaches qubit {} (cap {max_width})",
                    s.kernels.len(),
                    top - 1
                ));
            }
            for &k in &s.kernels {
                if k >= n || seen[k] {
                    return Err(format!("kernel {k} missing from program or scheduled twice"));
                }
                seen[k] = true;
            }
        }
        if seen.iter().any(|&s| !s) {
            return Err("schedule drops kernels".to_owned());
        }
        // Legality: in the flattened order, whenever kernel `a` executes
        // before kernel `b` but had a larger original index, they must
        // commute (same test the scheduler uses, so this catches
        // bookkeeping bugs, not analysis bugs — the analysis itself is
        // covered by the unitary-equality property tests).
        let order = self.order();
        let masks: Vec<(u128, u128)> = program
            .blocks
            .iter()
            .map(|b| (b.support_mask(), b.mixed_support_mask()))
            .collect();
        for (pos_a, &a) in order.iter().enumerate() {
            for &b in &order[pos_a + 1..] {
                if a > b {
                    let (sa, ma) = masks[a];
                    let (sb, mb) = masks[b];
                    if (sa & sb) & (ma | mb) != 0 {
                        return Err(format!(
                            "kernel {a} was moved past non-commuting kernel {b}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Per-sweep accumulator used during scheduling.
struct SweepBuild {
    kernels: Vec<usize>,
    support: u128,
    mixed: u128,
    diagonal: bool,
}

/// Schedule a fused program into sweeps. See the module docs for the
/// commutation rule and the greedy placement policy.
pub fn sweeps(program: &FusedProgram, opts: &SweepOptions) -> SweepSchedule {
    let max_width = opts.max_width.clamp(1, MAX_SWEEP_WIDTH);
    assert!(
        program.num_qubits <= 128,
        "support masks hold at most 128 qubits, got {}",
        program.num_qubits
    );
    let mut builds: Vec<SweepBuild> = Vec::new();
    let mut moved = 0usize;

    for (i, block) in program.blocks.iter().enumerate() {
        let support = block.support_mask();
        let mixed = block.mixed_support_mask();
        let diagonal = block.mixed() == 0;

        // A kernel fits a sweep when the merged pass is still one
        // traversal: all-diagonal sweeps have no bound, any other sweep
        // must stay on qubits below the cap, where a tile is a contiguous
        // slice of the state.
        let fits = |s: &SweepBuild| -> bool {
            (s.diagonal && diagonal) || (s.support | support) >> max_width == 0
        };
        // The kernel may hop over a sweep only if it commutes with every
        // member. Aggregated masks give a sound (conservative) test: any
        // qubit shared with some member and mixed by either side blocks
        // the hop.
        let commutes_past = |s: &SweepBuild| -> bool {
            (s.support & support) & (s.mixed | mixed) == 0
        };

        let chosen = if opts.reorder {
            let mut chosen = None;
            for j in (0..builds.len()).rev() {
                if fits(&builds[j]) {
                    chosen = Some(j);
                }
                if !commutes_past(&builds[j]) {
                    break;
                }
            }
            chosen
        } else {
            // Adjacent grouping only: join the trailing sweep or start a
            // new one. Never moves a kernel, so order is preserved.
            builds.last().map(|s| (builds.len() - 1, s)).filter(|(_, s)| fits(s)).map(|(j, _)| j)
        };

        match chosen {
            Some(j) => {
                if j + 1 < builds.len() {
                    moved += 1;
                }
                let s = &mut builds[j];
                s.kernels.push(i);
                s.support |= support;
                s.mixed |= mixed;
                s.diagonal &= diagonal;
            }
            None => builds.push(SweepBuild {
                kernels: vec![i],
                support,
                mixed,
                diagonal,
            }),
        }
    }

    let sweeps = builds
        .into_iter()
        .map(|s| Sweep {
            kernels: s.kernels,
            qubits: (0..128u32).filter(|&q| s.support & (1u128 << q) != 0).collect(),
            diagonal: s.diagonal,
        })
        .collect();
    let schedule = SweepSchedule { sweeps, moved_kernels: moved, num_qubits: program.num_qubits };

    if qgear_telemetry::is_enabled() {
        use qgear_telemetry::names;
        qgear_telemetry::counter_add(names::SWEEPS_SCHEDULED, schedule.sweeps.len() as u128);
        qgear_telemetry::counter_add(names::SWEEP_MOVED_KERNELS, schedule.moved_kernels as u128);
        for s in &schedule.sweeps {
            qgear_telemetry::histogram_record(names::SWEEP_KERNELS, s.kernels.len() as f64);
            qgear_telemetry::histogram_record(names::SWEEP_WIDTH, s.width() as f64);
        }
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::fusion::fuse;
    use crate::reference;
    use qgear_num::approx::max_deviation;
    use qgear_num::C64;

    /// Apply the program's kernels to a state in the given order — the
    /// dense reference the property tests compare against.
    fn apply_in_order(program: &FusedProgram, order: &[usize], state: &mut [C64]) {
        for &i in order {
            let b = &program.blocks[i];
            b.apply_to_state(state);
        }
    }

    fn random_circuit(n: u32, gates: usize, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        let mut s = seed | 1;
        let mut rnd = move |m: u64| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) % m
        };
        for _ in 0..gates {
            match rnd(6) {
                0 => {
                    c.h(rnd(n as u64) as u32);
                }
                1 => {
                    c.ry(rnd(628) as f64 / 100.0, rnd(n as u64) as u32);
                }
                2 => {
                    c.rz(rnd(628) as f64 / 100.0, rnd(n as u64) as u32);
                }
                3 => {
                    let a = rnd(n as u64) as u32;
                    let b = (a + 1 + rnd(n as u64 - 1) as u32) % n;
                    c.cr1(rnd(628) as f64 / 100.0, a, b);
                }
                _ => {
                    let a = rnd(n as u64) as u32;
                    let b = (a + 1 + rnd(n as u64 - 1) as u32) % n;
                    c.cx(a, b);
                }
            }
        }
        c
    }

    #[test]
    fn scheduled_order_is_a_legal_reorder_on_random_circuits() {
        // The satellite property: the composed unitary of the scheduled
        // program equals the original fused program, checked by applying
        // both orders to random 8-qubit states.
        for seed in 0..12u64 {
            let c = random_circuit(8, 50, 1000 + seed);
            let program = fuse(&c, 5);
            let schedule = sweeps(&program, &SweepOptions::default());
            schedule.validate(&program, &SweepOptions::default()).unwrap();
            let mut scheduled = reference::random_state(8, seed);
            let mut original = scheduled.clone();
            apply_in_order(&program, &schedule.order(), &mut scheduled);
            apply_in_order(&program, &(0..program.blocks.len()).collect::<Vec<_>>(), &mut original);
            assert!(
                max_deviation(&scheduled, &original) < 1e-12,
                "seed {seed}: reorder changed the composed unitary"
            );
        }
    }

    #[test]
    fn schedule_partitions_all_kernels_exactly_once() {
        let c = random_circuit(7, 60, 3);
        let program = fuse(&c, 4);
        let schedule = sweeps(&program, &SweepOptions::default());
        assert_eq!(schedule.num_kernels(), program.blocks.len());
        let mut order = schedule.order();
        order.sort_unstable();
        assert_eq!(order, (0..program.blocks.len()).collect::<Vec<_>>());
    }

    #[test]
    fn disjoint_kernels_share_one_sweep() {
        // Gates on disjoint qubit pairs commute trivially; with a wide
        // enough cap they all collapse into a single pass.
        let mut c = Circuit::new(8);
        c.ry(0.3, 0).cx(0, 1).ry(0.7, 2).cx(2, 3).ry(0.1, 4).cx(4, 5).ry(0.9, 6).cx(6, 7);
        let program = fuse(&c, 2);
        assert!(program.blocks.len() >= 4);
        let schedule = sweeps(&program, &SweepOptions { max_width: 8, reorder: true });
        assert_eq!(schedule.sweeps.len(), 1, "disjoint kernels fuse into one sweep");
        assert_eq!(schedule.sweeps[0].width(), 8);
    }

    #[test]
    fn width_cap_splits_dense_sweeps() {
        let mut c = Circuit::new(8);
        c.ry(0.3, 0).cx(0, 1).ry(0.7, 2).cx(2, 3).ry(0.1, 4).cx(4, 5).ry(0.9, 6).cx(6, 7);
        let program = fuse(&c, 2);
        let schedule = sweeps(&program, &SweepOptions { max_width: 4, reorder: true });
        assert!(schedule.sweeps.len() >= 2);
        for s in &schedule.sweeps {
            assert!(s.width() <= 4);
        }
    }

    #[test]
    fn high_dense_kernels_never_share_a_sweep() {
        // Two commuting dense kernels on qubits 14–18 of 20: their union
        // is four qubits, well inside the cap, but a tile holding them
        // would not be a contiguous slice of the state, so each runs as a
        // full-state pass of its own.
        let mut c = Circuit::new(20);
        c.ry(0.3, 14).cx(14, 15).ry(0.7, 17).cx(17, 18);
        let program = fuse(&c, 2);
        assert_eq!(program.blocks.len(), 2);
        let opts = SweepOptions::default();
        let schedule = sweeps(&program, &opts);
        schedule.validate(&program, &opts).unwrap();
        assert_eq!(schedule.sweeps.len(), 2, "one sweep per high dense kernel");
        assert!(schedule.sweeps.iter().all(|s| s.kernels.len() == 1));
        // The merged schedule the old union-width rule built is refused.
        let merged = SweepSchedule {
            sweeps: vec![Sweep { kernels: vec![0, 1], qubits: vec![14, 15, 17, 18], diagonal: false }],
            moved_kernels: 0,
            num_qubits: 20,
        };
        assert!(merged.validate(&program, &opts).is_err());
    }

    #[test]
    fn diagonal_ladder_ignores_width_cap() {
        // cr1/rz chains are diagonal: all of them ride one element-wise
        // sweep no matter how many qubits they span.
        let mut c = Circuit::new(12);
        for q in 0..11u32 {
            c.cr1(0.2 + q as f64 * 0.1, q, q + 1);
            c.rz(0.05 * q as f64, q);
        }
        let program = fuse(&c, 2);
        let schedule = sweeps(&program, &SweepOptions { max_width: 4, reorder: true });
        assert_eq!(schedule.sweeps.len(), 1);
        assert!(schedule.sweeps[0].diagonal);
        assert!(schedule.sweeps[0].width() > 4, "diagonal sweeps are width-exempt");
    }

    #[test]
    fn mixing_chain_stays_sequential() {
        // h(0) three times with interleaved everything-on-qubit-0: no two
        // kernels commute, so sweeps degrade to singletons.
        let mut c = Circuit::new(1);
        c.h(0).ry(0.4, 0).h(0).ry(0.2, 0).h(0);
        let program = fuse(&c, 1);
        // Width-1 fusion already merges the run into one block; force
        // separate blocks with barriers instead.
        let mut c = Circuit::new(2);
        c.h(0).barrier().h(0).barrier().h(0);
        let program2 = fuse(&c, 2);
        assert_eq!(program2.blocks.len(), 3);
        let schedule = sweeps(&program2, &SweepOptions::default());
        assert_eq!(schedule.sweeps.len(), 1, "same-support kernels group (no motion needed)");
        assert_eq!(schedule.moved_kernels, 0);
        let _ = program;
    }

    #[test]
    fn no_reorder_mode_preserves_order() {
        for seed in 0..6u64 {
            let c = random_circuit(8, 60, 50 + seed);
            let program = fuse(&c, 5);
            let opts = SweepOptions { max_width: 10, reorder: false };
            let schedule = sweeps(&program, &opts);
            assert_eq!(schedule.moved_kernels, 0);
            assert_eq!(schedule.order(), (0..program.blocks.len()).collect::<Vec<_>>());
            schedule.validate(&program, &opts).unwrap();
        }
    }

    #[test]
    fn qft_like_ladder_compresses_passes() {
        // The QFT shape: h + controlled-phase ladders. The scheduler must
        // cut the pass count well below the fused block count.
        let n = 16u32;
        let mut c = Circuit::new(n);
        for i in (0..n).rev() {
            c.h(i);
            for j in (0..i).rev() {
                c.cr1(std::f64::consts::TAU / f64::powi(2.0, (i - j + 1) as i32), j, i);
            }
        }
        let program = fuse(&c, 5);
        let schedule = sweeps(&program, &SweepOptions::default());
        schedule.validate(&program, &SweepOptions::default()).unwrap();
        assert!(
            program.blocks.len() as f64 / schedule.sweeps.len() as f64 >= 1.5,
            "QFT sweeps {} vs blocks {}: expected ≥1.5x pass compression",
            schedule.sweeps.len(),
            program.blocks.len()
        );
    }

    #[test]
    fn empty_program_schedules_to_no_sweeps() {
        let program = fuse(&Circuit::new(4), 5);
        let schedule = sweeps(&program, &SweepOptions::default());
        assert!(schedule.sweeps.is_empty());
        assert_eq!(schedule.moved_kernels, 0);
    }

    #[test]
    fn reorder_program_permutes_blocks() {
        let mut c = Circuit::new(6);
        c.h(0).cr1(0.3, 4, 5).h(1).cr1(0.2, 4, 5);
        let program = fuse(&c, 2);
        let schedule = sweeps(&program, &SweepOptions::default());
        let reordered = schedule.reorder_program(&program);
        assert_eq!(reordered.blocks.len(), program.blocks.len());
        assert_eq!(reordered.num_qubits, program.num_qubits);
        let mut a = reference::random_state(6, 9);
        let mut b = a.clone();
        program.apply_to_state(&mut a);
        reordered.apply_to_state(&mut b);
        assert!(max_deviation(&a, &b) < 1e-13);
    }
}
