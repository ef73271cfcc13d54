//! Declarative failure scenarios: what the harness feeds the service.
//!
//! A [`Scenario`] is a list of [`Op`]s (submit / cancel / advance
//! virtual time) plus a [`FaultEvent`] script and an optional rate-based
//! fault plan. Scenarios are either authored explicitly (the named
//! regression tests) or generated as a pure function of a 64-bit seed
//! ([`Scenario::generate`]) — the property-test and shrinking entry
//! point.
//!
//! Job coordinates in a scenario are *scenario indices*: the `k`-th
//! `Submit` op is job `k`. The harness owns the translation to admission
//! ids (it inserts a pinned blocker job at admission id 0, so scenario
//! job `k` becomes admission id `k + 1`).

use crate::rng::SimRng;
use qgear_ir::Circuit;
use qgear_serve::{FaultEvent, FaultKind, JobSpec, Priority};
use std::time::Duration;

/// Tenant names scenarios draw from.
pub const TENANTS: [&str; 3] = ["alice", "bob", "carol"];

/// One job's full request, as scenario data. Two equal `JobDef`s submit
/// byte-identical specs and therefore share the service's cache key —
/// the bit-identity oracle groups completions by this equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobDef {
    /// Circuit-family selector (see [`JobDef::circuit`]).
    pub shape: u8,
    /// Register width, kept small so scenarios run in milliseconds.
    pub qubits: u32,
    /// Shots requested.
    pub shots: u64,
    /// Sampling seed.
    pub seed: u64,
    /// Index into [`TENANTS`].
    pub tenant: u8,
    /// Index into [`Priority::ALL`].
    pub priority: u8,
    /// Queue-wait deadline in virtual microseconds (`None` = none).
    pub deadline_us: Option<u64>,
    /// Per-job retry-budget override.
    pub max_retries: Option<u32>,
}

impl JobDef {
    /// A plain 2-qubit Bell job — the simplest valid definition.
    pub fn bell() -> Self {
        JobDef {
            shape: 0,
            qubits: 2,
            shots: 64,
            seed: 1,
            tenant: 0,
            priority: 1,
            deadline_us: None,
            max_retries: None,
        }
    }

    /// The deterministic circuit this definition runs.
    pub fn circuit(&self) -> Circuit {
        let n = self.qubits.clamp(2, 4);
        let mut c = Circuit::new(n);
        match self.shape % 3 {
            0 => {
                // Bell-chain: H then a CX ladder.
                c.h(0);
                for q in 0..n - 1 {
                    c.cx(q, q + 1);
                }
            }
            1 => {
                // Rotation ladder, parametrized by the shape byte.
                for q in 0..n {
                    c.h(q);
                    c.ry(0.1 + 0.37 * f64::from(q + u32::from(self.shape)), q);
                }
                c.cx(0, n - 1);
            }
            _ => {
                // Phase kickback pattern.
                for q in 0..n {
                    c.h(q);
                }
                for q in 0..n - 1 {
                    c.cx(q, q + 1);
                    c.rz(0.25 * f64::from(q + 1), q + 1);
                }
            }
        }
        c.measure_all();
        c
    }

    /// The [`JobSpec`] the harness submits for this definition.
    pub fn spec(&self) -> JobSpec {
        let mut spec = JobSpec::new(self.circuit())
            .shots(self.shots.clamp(1, 512))
            .seed(self.seed)
            .tenant(TENANTS[self.tenant as usize % TENANTS.len()])
            .priority(Priority::ALL[self.priority as usize % Priority::ALL.len()]);
        if let Some(us) = self.deadline_us {
            spec = spec.deadline(Duration::from_micros(us));
        }
        if let Some(r) = self.max_retries {
            spec = spec.max_retries(r);
        }
        spec
    }
}

/// One harness action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Advance virtual time by this much.
    Advance(Duration),
    /// Submit a job (its scenario index is its position among submits).
    Submit(JobDef),
    /// Cancel scenario job `job` (a forward reference — an index that
    /// has not been submitted yet — is a deterministic no-op).
    Cancel {
        /// Scenario job index.
        job: u64,
    },
}

/// Sharding knobs a scenario may switch on (in [`Scenario`]'s `shard`
/// field). Setting this shrinks the service device to `worker_bytes` and
/// attaches a `ShardConfig`, so 4-qubit jobs overflow a single worker
/// and admission routes them to a shard group; 2–3-qubit jobs stay
/// dense. `None` keeps the legacy single-device behavior byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardParams {
    /// Per-worker device memory in bytes. The harness default (192)
    /// makes a 4-qubit fp64 state (256 B) infeasible dense but
    /// feasible on 2 shards of 128 B each.
    pub worker_bytes: u128,
    /// Cap on the shard-group width admission may plan.
    pub max_shards: u32,
}

impl Default for ShardParams {
    fn default() -> Self {
        ShardParams { worker_bytes: 192, max_shards: 8 }
    }
}

/// A complete, replayable failure scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The seed this scenario was generated from (0 for hand-authored
    /// scenarios); carried along so failures print a replay command.
    pub seed: u64,
    /// Actions, executed in order against a pinned worker.
    pub ops: Vec<Op>,
    /// Fault script in *scenario* job coordinates.
    pub events: Vec<FaultEvent>,
    /// Background transient-strike rate
    /// ([`qgear_serve::FaultSchedule::with_rate`], seeded by `seed`); 0
    /// disables it.
    pub fault_rate: f64,
    /// Sharded-serving configuration; `None` (the legacy default) keeps
    /// the full-size single device, under which every scenario job is
    /// dense-feasible and no shard machinery engages.
    pub shard: Option<ShardParams>,
}

impl Scenario {
    /// An empty scenario to build on.
    pub fn empty(seed: u64) -> Self {
        Scenario {
            seed,
            ops: Vec::new(),
            events: Vec::new(),
            fault_rate: 0.0,
            shard: None,
        }
    }

    /// Builder: switch on sharded serving with the default tiny device.
    pub fn sharded(mut self) -> Self {
        self.shard = Some(ShardParams::default());
        self
    }

    /// Builder: append an op.
    pub fn op(mut self, op: Op) -> Self {
        self.ops.push(op);
        self
    }

    /// Builder: append a fault event (scenario job coordinates).
    pub fn event(mut self, job: u64, attempt: u32, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { job, attempt, kind });
        self
    }

    /// Number of `Submit` ops.
    pub fn job_count(&self) -> usize {
        self.ops.iter().filter(|op| matches!(op, Op::Submit(_))).count()
    }

    /// Total virtual time the `Advance` ops add up to.
    pub fn total_advance(&self) -> Duration {
        self.ops
            .iter()
            .filter_map(|op| match op {
                Op::Advance(d) => Some(*d),
                _ => None,
            })
            .fold(Duration::ZERO, |acc, d| acc.saturating_add(d))
    }

    /// Generate a random scenario as a pure function of `seed`:
    /// 2–6 jobs (with deliberate duplicates to exercise the cache),
    /// interleaved advances and cancels, and a fault script mixing
    /// transient strikes, worker deaths, and cache corruption.
    pub fn generate(seed: u64) -> Self {
        let mut rng = SimRng::new(seed);
        let n_jobs = 2 + rng.below(5);
        let mut ops = Vec::new();
        let mut defs: Vec<JobDef> = Vec::new();
        while (defs.len() as u64) < n_jobs {
            match rng.below(10) {
                // Submit (60%): either a fresh definition or a repeat of
                // an earlier one (cache-path coverage).
                0..=5 => {
                    let def = if !defs.is_empty() && rng.chance(1, 3) {
                        defs[rng.below(defs.len() as u64) as usize]
                    } else {
                        JobDef {
                            shape: rng.below(6) as u8,
                            qubits: 2 + rng.below(3) as u32,
                            shots: 16 + rng.below(200),
                            seed: rng.below(4),
                            tenant: rng.below(3) as u8,
                            priority: rng.below(3) as u8,
                            deadline_us: if rng.chance(1, 5) {
                                // Either instantly expired or comfortably
                                // large relative to generated advances.
                                Some(if rng.chance(1, 2) { 0 } else { 1_000_000 })
                            } else {
                                None
                            },
                            max_retries: if rng.chance(1, 4) {
                                Some(rng.below(4) as u32)
                            } else {
                                None
                            },
                        }
                    };
                    defs.push(def);
                    ops.push(Op::Submit(def));
                }
                // Advance (30%): 1 µs – 2 ms.
                6..=8 => {
                    ops.push(Op::Advance(Duration::from_micros(1 + rng.below(2000))));
                }
                // Cancel (10%) of some already-submitted job.
                _ => {
                    if !defs.is_empty() {
                        ops.push(Op::Cancel { job: rng.below(defs.len() as u64) });
                    }
                }
            }
        }
        // Tail ops so scenarios don't always end on a submit.
        for _ in 0..rng.below(4) {
            if rng.chance(1, 2) {
                ops.push(Op::Advance(Duration::from_micros(1 + rng.below(2000))));
            } else {
                ops.push(Op::Cancel { job: rng.below(n_jobs) });
            }
        }
        // Fault script: each job gets 0–2 scheduled events.
        let mut events = Vec::new();
        for job in 0..n_jobs {
            for _ in 0..rng.below(3) {
                let kind = match rng.below(6) {
                    0 => FaultKind::WorkerDeath,
                    1 => FaultKind::CorruptCache,
                    2 | 3 => FaultKind::Transient,
                    4 => FaultKind::WorkerDeathMidRun {
                        after_segments: 1 + rng.below(2) as u32,
                    },
                    _ => FaultKind::CorruptCheckpoint {
                        generation: rng.below(2) as u32,
                    },
                };
                events.push(FaultEvent { job, attempt: rng.below(3) as u32, kind });
            }
        }
        let fault_rate = if rng.chance(1, 4) { 0.3 } else { 0.0 };
        Scenario { seed, ops, events, fault_rate, shard: None }
    }

    /// Generate a random *struck* scenario: [`Scenario::generate`]'s
    /// job/op mix, with the fault script extended by deaths (at the
    /// attempt boundary and mid-run) and panics — the one fault kind
    /// `generate` never draws. Deterministic in `seed`, and a distinct
    /// function from `generate` so the legacy seed corpus keeps its
    /// meaning.
    pub fn generate_struck(seed: u64) -> Self {
        let mut scenario = Scenario::generate(seed);
        let mut rng = SimRng::new(seed ^ 0xBA7C_4ED0_5EED_0001);
        let jobs = scenario.job_count() as u64;
        // The stream's first two draws once sized batch knobs; they are
        // still taken, so a seed strikes the jobs it always struck.
        rng.next_u64();
        rng.next_u64();
        // 1–2 deaths or panics aimed at random jobs' first attempts.
        for _ in 0..1 + rng.below(2) {
            let job = rng.below(jobs);
            let attempt = rng.below(2) as u32;
            let kind = match rng.below(3) {
                0 => FaultKind::WorkerDeath,
                1 => FaultKind::WorkerDeathMidRun { after_segments: 1 + rng.below(2) as u32 },
                _ => FaultKind::Panic,
            };
            scenario.events.push(FaultEvent { job, attempt, kind });
        }
        scenario
    }

    /// Generate a random *sharded* scenario: a tiny per-worker device so
    /// 4-qubit jobs overflow a single worker and route to a shard group,
    /// with a fault script aimed at the shard machinery — worker deaths
    /// mid-group, link faults mid-exchange, and background transients on
    /// the dense jobs. A distinct generator (not a decorator over
    /// [`Scenario::generate`]) because sharded coverage needs a
    /// guaranteed quota of 4-qubit jobs.
    pub fn generate_sharded(seed: u64) -> Self {
        let mut rng = SimRng::new(seed ^ 0x5AAD_ED00_5EED_0002);
        let n_jobs = 3 + rng.below(3);
        let mut ops = Vec::new();
        let mut defs: Vec<JobDef> = Vec::new();
        while (defs.len() as u64) < n_jobs {
            // The first two jobs are always 4-qubit (sharded); the rest
            // mix widths so dense and sharded dispatches interleave.
            let qubits = if defs.len() < 2 { 4 } else { 2 + rng.below(3) as u32 };
            let def = JobDef {
                shape: rng.below(6) as u8,
                qubits,
                shots: 16 + rng.below(200),
                seed: rng.below(4),
                tenant: rng.below(3) as u8,
                priority: rng.below(3) as u8,
                deadline_us: None,
                max_retries: None,
            };
            defs.push(def);
            ops.push(Op::Submit(def));
            if rng.chance(1, 3) {
                ops.push(Op::Advance(Duration::from_micros(1 + rng.below(1000))));
            }
        }
        // Fault script: every sharded job gets a shard fault on its
        // first dispatch; some get a second on the replacement dispatch
        // (death-then-death and death-then-link-fault compositions).
        let mut events = Vec::new();
        for (job, def) in defs.iter().enumerate() {
            let job = job as u64;
            if def.qubits >= 4 {
                let kind = if rng.chance(1, 2) {
                    FaultKind::ShardWorkerDeath {
                        shard: rng.below(2) as u32,
                        after_segments: 1 + rng.below(2) as u32,
                    }
                } else {
                    FaultKind::LinkFault {
                        exchange: rng.below(4) as u32,
                        corrupt: rng.chance(1, 2),
                    }
                };
                events.push(FaultEvent { job, attempt: 0, kind });
                if rng.chance(1, 3) {
                    let kind = if rng.chance(1, 2) {
                        FaultKind::ShardWorkerDeath { shard: 0, after_segments: 1 }
                    } else {
                        FaultKind::LinkFault { exchange: rng.below(2) as u32, corrupt: false }
                    };
                    events.push(FaultEvent { job, attempt: 1, kind });
                }
            } else if rng.chance(1, 3) {
                events.push(FaultEvent { job, attempt: 0, kind: FaultKind::Transient });
            }
        }
        Scenario {
            seed,
            ops,
            events,
            fault_rate: 0.0,
            shard: Some(ShardParams::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            assert_eq!(Scenario::generate(seed), Scenario::generate(seed));
        }
        assert_ne!(Scenario::generate(1).ops, Scenario::generate(2).ops);
    }

    #[test]
    fn generated_scenarios_are_well_formed() {
        for seed in 0..50u64 {
            let s = Scenario::generate(seed);
            let jobs = s.job_count() as u64;
            assert!((2..=6).contains(&jobs), "seed {seed}: {jobs} jobs");
            for e in &s.events {
                assert!(e.job < jobs, "event targets a real job");
            }
            for op in &s.ops {
                if let Op::Cancel { job } = op {
                    assert!(*job < jobs);
                }
            }
        }
    }

    #[test]
    fn job_defs_build_runnable_specs() {
        for shape in 0..6u8 {
            let def = JobDef { shape, ..JobDef::bell() };
            let spec = def.spec();
            assert!(spec.circuit.num_qubits() >= 2);
            assert!(spec.shots >= 1);
        }
    }

    #[test]
    fn equal_defs_make_equal_circuits() {
        let a = JobDef { shape: 4, qubits: 3, seed: 9, ..JobDef::bell() };
        let b = a;
        assert_eq!(format!("{:?}", a.circuit()), format!("{:?}", b.circuit()));
    }
}
