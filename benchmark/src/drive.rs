//! Load generation against the real `Service` through its stable
//! surface only (`start / submit / wait / drain / outcome_time /
//! shutdown`, the `JobSpec` builder, `Admission`, `JobOutcome`,
//! `JobResult`), plus the correctness gate over what comes back.

use crate::rng::Fnv;
use crate::roster::{Family, Meta, Pool, Workload};
use qgear_ir::Circuit;
use qgear_serve::{
    Admission, BackendKind, BatchConfig, JobId, JobOutcome, JobResult, JobSpec, ServeConfig,
    Service, ShardConfig,
};
use qgear_statevec::{
    marginal_probs, AerCpuBackend, Counts, GpuDevice, RunOptions, RunOutput, Simulator,
};
use qgear_telemetry::clock::SharedClock;
use std::time::Duration;

/// The service each workload runs against. Only the fields named in
/// `BENCHMARK.json`'s stable surface are set.
pub fn serve_config(workload: Workload, smoke: bool, clock: SharedClock) -> ServeConfig {
    let base = ServeConfig {
        clock,
        ..Default::default()
    };
    match workload {
        Workload::ServeSmall => ServeConfig {
            workers: 2,
            queue_capacity: 1024,
            batch: BatchConfig {
                max_size: 16,
                window: Duration::from_micros(200),
            },
            ..base
        },
        Workload::ServeMixed => ServeConfig {
            workers: 2,
            queue_capacity: 1024,
            ..base
        },
        Workload::DenseLarge => ServeConfig { workers: 1, ..base },
        Workload::ShardedCkpt => {
            // One worker holds 2^16 fp64 amplitudes, so n=17 needs two
            // shards and n=18 four (smoke: four qubits less all round).
            let amps = 1u128 << if smoke { 12 } else { 16 };
            ServeConfig {
                workers: 1,
                backend: BackendKind::Gpu(GpuDevice {
                    memory_bytes: amps * 16,
                    ..GpuDevice::a100_40gb()
                }),
                shard: Some(ShardConfig::default()),
                checkpoint_interval: 8,
                checkpoint_generations: 2,
                ..base
            }
        }
    }
}

/// One submission as the generator saw it. Times are readings of the
/// clock shared with the service, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sub {
    pub job: usize,
    pub id: Option<JobId>,
    /// Latency origin: when the job was due (paced), else when `submit`
    /// was called.
    pub origin: f64,
    pub submit_start: f64,
    /// Read only in the traced run.
    pub submit_end: f64,
}

pub struct Phase {
    pub subs: Vec<Sub>,
    pub start: f64,
    /// When the generator stopped submitting.
    pub end: f64,
    pub queue_full: u64,
    pub late_max: f64,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Open loop, as fast as admission allows: a `QueueFull` answer is
/// retried after 200 µs. Cycles through the pool and stops after `jobs`
/// submissions or `seconds`.
pub fn capacity_phase(
    service: &Service,
    clock: &SharedClock,
    specs: &[JobSpec],
    jobs: usize,
    seconds: f64,
) -> Phase {
    let start = secs(clock.now());
    let mut subs = Vec::with_capacity(specs.len());
    let mut queue_full = 0;
    'jobs: for job in (0..specs.len()).cycle().take(jobs) {
        loop {
            // `submit` consumes the spec and a refusal does not hand it back.
            let attempt = specs[job].clone();
            let now = secs(clock.now());
            if now - start >= seconds {
                break 'jobs;
            }
            match service.submit(attempt) {
                Admission::Accepted(id) => {
                    subs.push(Sub {
                        job,
                        id: Some(id),
                        origin: now,
                        submit_start: now,
                        submit_end: now,
                    });
                    break;
                }
                Admission::QueueFull { .. } => {
                    queue_full += 1;
                    std::thread::sleep(Duration::from_micros(200));
                }
                other => panic!("job {job} not admitted: {other:?}"),
            }
        }
    }
    let end = secs(clock.now());
    service.drain();
    Phase {
        subs,
        start,
        end,
        queue_full,
        late_max: 0.0,
    }
}

/// Open loop on a schedule: job `i` is due `due[i]` seconds after the
/// phase starts and is timed from then, however late the generator
/// runs. A refused job is not retried.
pub fn paced_phase(
    service: &Service,
    clock: &SharedClock,
    specs: &[JobSpec],
    due: &[f64],
) -> Phase {
    let start = clock.now();
    let mut subs = Vec::with_capacity(due.len());
    let (mut queue_full, mut late_max) = (0, 0.0f64);
    for (job, (spec, &offset)) in specs.iter().zip(due).enumerate() {
        let spec = spec.clone();
        let at = start + Duration::from_secs_f64(offset);
        clock.sleep_until(at);
        let now = secs(clock.now());
        let origin = secs(at);
        late_max = late_max.max(now - origin);
        let id = match service.submit(spec) {
            Admission::Accepted(id) => Some(id),
            Admission::QueueFull { .. } => {
                queue_full += 1;
                None
            }
            other => panic!("job {job} not admitted: {other:?}"),
        };
        let submit_end = secs(clock.now());
        subs.push(Sub {
            job,
            id,
            origin,
            submit_start: now,
            submit_end,
        });
    }
    let end = secs(clock.now());
    service.drain();
    Phase {
        subs,
        start: secs(start),
        end,
        queue_full,
        late_max,
    }
}

/// Closed loop, one outstanding job: submit, wait, repeat. Cycles
/// through the pool and stops after `jobs` submissions or `seconds`.
pub fn closed_loop(
    service: &Service,
    clock: &SharedClock,
    specs: &[JobSpec],
    jobs: usize,
    seconds: f64,
    trace: bool,
) -> Phase {
    let start = secs(clock.now());
    let mut subs = Vec::new();
    for job in (0..specs.len()).cycle().take(jobs) {
        let spec = specs[job].clone();
        let now = secs(clock.now());
        if now - start >= seconds {
            break;
        }
        let id = match service.submit(spec) {
            Admission::Accepted(id) => id,
            other => panic!("job {job} not admitted: {other:?}"),
        };
        let submit_end = if trace { secs(clock.now()) } else { now };
        service.wait(id);
        subs.push(Sub {
            job,
            id: Some(id),
            origin: now,
            submit_start: now,
            submit_end,
        });
    }
    let end = secs(clock.now());
    Phase {
        subs,
        start,
        end,
        queue_full: 0,
        late_max: 0.0,
    }
}

/// What the benchmark keeps of a finished job. Durations in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Done {
    pub sub: Sub,
    pub family: Family,
    /// `outcome_time`; `None` when the job was refused or did not complete.
    pub outcome: Option<f64>,
    pub from_cache: bool,
    pub from_state_cache: bool,
    pub attempts: u32,
    pub queue_wait: f64,
    pub service_time: f64,
    pub evolve: f64,
    pub sample: f64,
    pub gates: u64,
    pub kernels: u64,
    pub sweeps: u64,
    pub bytes: u128,
    pub comm_bytes: u128,
    pub comm_msgs: u64,
    pub num_qubits: u32,
    pub counts_digest: u64,
}

impl Done {
    pub fn latency(&self) -> Option<f64> {
        self.outcome.map(|t| t - self.sub.origin)
    }

    /// Served without a device run.
    pub fn cached(&self) -> bool {
        self.from_cache || self.from_state_cache
    }

    pub fn exec(&self) -> f64 {
        self.service_time - self.queue_wait
    }
}

/// Order-independent digest of a counts table (no sort on 60 000 jobs).
fn counts_digest(counts: &Counts) -> u64 {
    let mut sum = counts.qubits.len() as u64;
    for (&key, &n) in &counts.map {
        let mut h = Fnv::new();
        h.word(key);
        h.word(n);
        sum = sum.wrapping_add(h.0);
    }
    sum
}

/// Outcomes are binned on their low bits before the total-variation
/// check: 10 000 shots say nothing about 2^20 separate outcomes.
const TV_BINS: usize = 32;

fn binned(probs: impl Iterator<Item = (u64, f64)>) -> Vec<f64> {
    let mut bins = vec![0.0; TV_BINS];
    for (key, p) in probs {
        bins[key as usize % TV_BINS] += p;
    }
    bins
}

/// Exact fp64 outcome probabilities of `circuit` from the unfused
/// reference engine, binned.
pub fn reference_bins(circuit: &Circuit) -> Vec<f64> {
    let opts = RunOptions {
        shots: 0,
        keep_state: true,
        ..Default::default()
    };
    let out: RunOutput<f64> = AerCpuBackend.run(circuit, &opts).expect("reference run");
    let probs = marginal_probs(&out.state.expect("state kept"), &circuit.measured_qubits());
    binned(probs.into_iter().enumerate().map(|(k, p)| (k as u64, p)))
}

/// The correctness gate: collects violations; any one fails the run.
#[derive(Default)]
pub struct Gate {
    pub violations: Vec<String>,
    pub checked_references: usize,
    pub checked_repeats: usize,
}

impl Gate {
    fn fail(&mut self, msg: String) {
        if self.violations.len() < 20 {
            self.violations.push(msg);
        }
    }

    /// Total-variation distance between the sampled and the exact binned
    /// distribution must stay under `sqrt(bins / shots)`, about 2.5 times
    /// what sampling noise alone gives.
    fn check_reference(&mut self, what: &str, counts: &Counts, shots: u64, exact: &[f64]) {
        let sampled = binned(
            counts
                .map
                .iter()
                .map(|(&k, &n)| (k, n as f64 / shots as f64)),
        );
        let tv: f64 = sampled
            .iter()
            .zip(exact)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / 2.0;
        let bound = (TV_BINS as f64 / shots as f64).sqrt();
        self.checked_references += 1;
        if tv.is_nan() || tv > bound {
            self.fail(format!(
                "{what}: total variation {tv:.4} from exact exceeds {bound:.4}"
            ));
        }
    }
}

/// Fetch every submission's outcome and run the gate over it.
/// `references` pairs pool indices with their exact binned probabilities.
pub fn collect(
    service: &Service,
    workload: Workload,
    phase: &Phase,
    meta: &[Meta],
    references: &[(usize, Vec<f64>)],
    gate: &mut Gate,
) -> Vec<Done> {
    let shots = workload.shots();
    let mut done: Vec<Done> = Vec::with_capacity(phase.subs.len());
    for sub in &phase.subs {
        let m = meta[sub.job];
        let mut d = Done {
            sub: *sub,
            family: m.family,
            num_qubits: m.num_qubits,
            ..Default::default()
        };
        let Some(id) = sub.id else {
            done.push(d);
            continue;
        };
        let result: Box<JobResult> = match service.wait(id) {
            Some(JobOutcome::Completed(r)) => r,
            other => {
                gate.fail(format!("job {} did not complete: {other:?}", sub.job));
                done.push(d);
                continue;
            }
        };
        let what = format!("{} job {}", workload.name(), sub.job);
        match &result.counts {
            Some(counts) => {
                if counts.total() != shots {
                    gate.fail(format!(
                        "{what}: counts sum to {} not {shots}",
                        counts.total()
                    ));
                }
                d.counts_digest = counts_digest(counts);
                if let Some((_, exact)) = references.iter().find(|(job, _)| *job == sub.job) {
                    gate.check_reference(&what, counts, shots, exact);
                }
            }
            None => gate.fail(format!("{what}: no counts")),
        }
        if let Some(orig) = m.repeat_of {
            // Pools are submitted in order from job 0, every submission
            // is in `done`, and a pass of the pool is `sub.job` long so
            // far: the original sits `sub.job - orig` places back.
            gate.checked_repeats += 1;
            match done.get(done.len() - sub.job + orig) {
                Some(o) if o.counts_digest == d.counts_digest => {}
                _ => gate.fail(format!(
                    "{what}: counts differ from its original, job {orig}"
                )),
            }
        }
        let s = &result.stats;
        if workload == Workload::ShardedCkpt && s.comm_messages == 0 {
            gate.fail(format!("{what}: no shard exchange, the job did not shard"));
        }
        d.outcome = service.outcome_time(id).map(secs);
        d.from_cache = result.from_cache;
        d.from_state_cache = result.from_state_cache;
        d.attempts = result.attempts;
        d.queue_wait = secs(result.queue_wait);
        d.service_time = secs(result.service_time);
        d.evolve = secs(s.elapsed);
        d.sample = secs(s.sampling_elapsed);
        d.gates = s.gates_applied;
        d.kernels = s.kernels_launched;
        d.sweeps = s.sweeps_executed;
        d.bytes = s.bytes_touched;
        d.comm_bytes = s.comm_bytes.iter().sum();
        d.comm_msgs = s.comm_messages;
        done.push(d);
    }
    done
}

/// The first job of each family in `pool`, with its exact probabilities.
pub fn references(pool: &Pool) -> Vec<(usize, Vec<f64>)> {
    let mut seen: Vec<Family> = Vec::new();
    let mut refs = Vec::new();
    for (job, m) in pool.meta.iter().enumerate() {
        if !seen.contains(&m.family) {
            seen.push(m.family);
            refs.push((job, reference_bins(&pool.specs[job].circuit)));
        }
    }
    refs
}
