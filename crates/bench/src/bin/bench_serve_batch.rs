//! Batched-serving benchmark: shape-coalesced dispatch vs
//! one-job-per-dispatch on a parameter-sweep flood.
//!
//! Serving traffic at scale is many *small* same-shape circuits — the
//! same ansatz resubmitted with different angles. This bench floods the
//! service with exactly that workload twice, on identical worker pools:
//! once with batching disabled (every dispatch solo, the pre-batching
//! behavior) and once with shape-aware coalescing enabled.
//!
//! Both passes run through the **real** service — real coalescer, real
//! scheduler, the one set of solo kernels — and every completed counts
//! table is checked bit-identical across the two modes (the
//! batch-invariance contract, end to end), along with the usual
//! conservation invariants. On the host a batch is its members run one
//! after another, and measured host wall is batch-neutral; it is
//! reported per pass for scale.
//!
//! Throughput and latency are then priced on the **paper testbed**
//! (`qgear_perfmodel::CostModel`, the repo-wide methodology: measured
//! operation counts → projected seconds on the modeled A100), because
//! that is where batching's economics live: a 10-qubit state is
//! launch-bound solo, and `CostModel::gpu_unitary_batched` prices one
//! A100 launch per kernel for the whole batch. Each mode's *actual*
//! dispatch schedule — which jobs ran solo, which batches formed at
//! what occupancy, in what order — is replayed through a greedy
//! worker-packing model to get open-loop completion times, so the
//! headline ratio is a modeled figure computed from the **recorded
//! batch occupancies**.
//!
//! Emits `BENCH_serve_batch.json` at the repo root. Usage:
//! `cargo run --release -p qgear-bench --bin bench_serve_batch` for the
//! full 10k-job open-loop grid (the >= 5x jobs/sec target at <= solo
//! p95), `--smoke` for the seconds-long CI gate run by
//! `scripts/check.sh` (>= 2x enforced; writes the suffixed
//! `BENCH_serve_batch_smoke.json` so it never clobbers the full-grid
//! acceptance artifact).

use qgear_ir::Circuit;
use qgear_num::scalar::Precision;
use qgear_perfmodel::CostModel;
use qgear_serve::{
    Admission, BatchConfig, BatchRecord, JobOutcome, JobSpec, ServeConfig, Service,
};
use qgear_telemetry::{names, JsonSink};
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Complex-f32 amplitude footprint (the sweep runs `Precision::Fp32`).
const AMP_BYTES: u64 = 8;

fn arg_value(name: &str) -> Option<u64> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// One job of the parameter sweep: the shared rotation-ladder ansatz
/// with per-job angles. Same shape digest for every job (gate kinds and
/// operands are angle-independent), distinct parameters and seeds, so
/// nothing repeats and the result cache never short-circuits the
/// comparison.
fn sweep_job(i: usize, qubits: u32, layers: usize, shots: u64) -> JobSpec {
    let tenants = ["alice", "bob", "carol"];
    let mut c = Circuit::new(qubits);
    for l in 0..layers {
        for q in 0..qubits {
            let theta = 0.17 + 0.000_31 * (i as f64) + 0.41 * (l as f64) + 0.09 * f64::from(q);
            c.h(q).ry(theta, q);
        }
        for q in 0..qubits - 1 {
            c.cx(q, q + 1);
        }
    }
    c.measure_all();
    JobSpec::new(c)
        .shots(shots)
        .seed(0xBA7C + i as u64)
        .precision(Precision::Fp32)
        .tenant(tenants[i % tenants.len()])
}

/// FNV-1a over the sorted counts table — enough to compare two tables
/// for bit-identity without retaining them.
fn counts_digest(counts: &qgear_statevec::Counts) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (key, n) in counts.sorted() {
        mix(key);
        mix(n);
    }
    h
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx]
}

/// One mode's measurements.
#[derive(Debug, Serialize)]
struct ModeReport {
    mode: String,
    jobs: usize,
    /// Host wall clock for the real service pass (for scale; the host
    /// "GPU" is a CPU simulation whose kernels have no launch cost, so
    /// batching is roughly wall-neutral here).
    host_wall_seconds: f64,
    /// Modeled open-loop makespan on the paper testbed.
    modeled_seconds: f64,
    /// `jobs / modeled_seconds` — the headline metric.
    modeled_jobs_per_sec: f64,
    /// Modeled open-loop completion-latency percentiles (burst arrival
    /// at t=0, greedy worker packing in real dispatch order).
    p50_ms: f64,
    p95_ms: f64,
    batches_formed: u128,
    mean_occupancy: f64,
}

/// What one real service pass produced.
struct PassOutput {
    wall: Duration,
    counts: BTreeMap<usize, u64>,
    kernels_per_job: u64,
    batch_log: Vec<BatchRecord>,
    batches_formed: u128,
}

fn run_pass(
    mode: &str,
    jobs: usize,
    workers: usize,
    qubits: u32,
    layers: usize,
    shots: u64,
    batch: BatchConfig,
) -> PassOutput {
    qgear_telemetry::reset();
    qgear_telemetry::enable();
    let service = Service::start(ServeConfig {
        workers,
        queue_capacity: jobs + 8,
        // Checkpointing off: segmented execution and batching are
        // mutually exclusive, so both modes run the plain dense path.
        checkpoint_interval: 0,
        // Nothing repeats, so caches only add probe noise to the
        // comparison; keep both modes cache-free.
        cache_capacity: 0,
        state_cache_capacity: 0,
        batch,
        ..Default::default()
    });

    let wall_start = Instant::now();
    let mut ids = Vec::with_capacity(jobs);
    for i in 0..jobs {
        match service.submit(sweep_job(i, qubits, layers, shots)) {
            Admission::Accepted(id) => ids.push((i, id)),
            other => panic!("{mode}: job {i} rejected: {other:?}"),
        }
    }
    let mut counts = BTreeMap::new();
    let mut kernels_per_job = 0;
    for &(i, id) in &ids {
        match service.wait(id).expect("accepted job must reach an outcome") {
            JobOutcome::Completed(result) => {
                let table = result.counts.as_ref().expect("measured circuit yields counts");
                counts.insert(i, counts_digest(table));
                kernels_per_job = result.stats.kernels_launched;
            }
            other => panic!("{mode}: job {i} did not complete: {other:?}"),
        }
    }
    let wall = wall_start.elapsed();
    // Shutdown joins the workers, so the batch log is complete (the
    // final record is appended after its members' outcomes publish).
    service.shutdown();
    let batch_log = service.batch_log();

    let snapshot = qgear_telemetry::snapshot();
    // Exactly one dispatch per job: the completion counter is uncapped,
    // so it holds at any grid size; the span check is exact only while
    // the storage cap has not dropped detail (the full 10k-job grid
    // overflows `MAX_STORED_SPANS`).
    assert_eq!(
        snapshot.counter(names::SERVE_JOBS_COMPLETED),
        ids.len() as u128,
        "{mode}: every job completes exactly once"
    );
    if snapshot.dropped_spans == 0 {
        let spans = snapshot
            .spans
            .iter()
            .filter(|s| s.name == names::spans::SERVE_JOB)
            .count();
        assert_eq!(spans, ids.len(), "{mode}: one serve_job span per job");
    }

    PassOutput {
        wall,
        counts,
        kernels_per_job,
        batch_log,
        batches_formed: snapshot.counter(names::SERVE_BATCHES_FORMED),
    }
}

/// Price one mode's actual dispatch schedule on the paper testbed and
/// pack it onto `workers` modeled devices, greedily, in dispatch order
/// (open-loop: the whole burst is queued at t=0). Returns the makespan
/// and per-job completion times.
///
/// Unit costs: a solo job is one `gpu_unitary` pass (compute + launch;
/// the worker's device context is persistent, so per-job init is not
/// charged) plus serial GPU sampling; a batch is one
/// `gpu_unitary_batched` launch sequence plus per-member sampling.
fn replay_on_model(
    model: &CostModel,
    units: &[usize], // occupancy per dispatch unit, in dispatch order
    workers: usize,
    qubits: u32,
    kernels: u64,
    shots: u64,
) -> (f64, Vec<f64>) {
    let empty = qgear_cluster::TrafficStats::default();
    let sample = model.gpu_sampling(shots);
    let mut loads = vec![0.0f64; workers.max(1)];
    let mut completions = Vec::new();
    for &occ in units {
        let pass = model.gpu_unitary_batched(qubits, AMP_BYTES, 1, kernels, occ, &empty);
        let unit = pass.compute + pass.launch + occ as f64 * sample;
        let w = (0..loads.len())
            .min_by(|&a, &b| loads[a].total_cmp(&loads[b]))
            .expect("at least one worker");
        loads[w] += unit;
        for _ in 0..occ {
            completions.push(loads[w]);
        }
    }
    let makespan = loads.iter().cloned().fold(0.0, f64::max);
    (makespan, completions)
}

fn report(
    mode: &str,
    jobs: usize,
    workers: usize,
    qubits: u32,
    shots: u64,
    model: &CostModel,
    pass: &PassOutput,
) -> ModeReport {
    // Dispatch units in order: every job solo when the batch log is
    // empty, else the recorded flushes (occupancy-1 flushes included —
    // with batching on, every dense dispatch is logged).
    let units: Vec<usize> = if pass.batch_log.is_empty() {
        vec![1; jobs]
    } else {
        let logged: usize = pass.batch_log.iter().map(|r| r.members.len()).sum();
        assert_eq!(logged, jobs, "{mode}: batch log must account for every job");
        pass.batch_log.iter().map(|r| r.members.len()).collect()
    };
    let (makespan, completions) =
        replay_on_model(model, &units, workers, qubits, pass.kernels_per_job, shots);
    let mut latencies_ms: Vec<f64> = completions.iter().map(|s| s * 1e3).collect();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    ModeReport {
        mode: mode.to_owned(),
        jobs,
        host_wall_seconds: pass.wall.as_secs_f64(),
        modeled_seconds: makespan,
        modeled_jobs_per_sec: jobs as f64 / makespan.max(1e-12),
        p50_ms: percentile(&latencies_ms, 0.50),
        p95_ms: percentile(&latencies_ms, 0.95),
        batches_formed: pass.batches_formed,
        mean_occupancy: units.iter().sum::<usize>() as f64 / units.len() as f64,
    }
}

/// The `BENCH_serve_batch.json` document.
#[derive(Debug, Serialize)]
struct Summary {
    bench: String,
    grid: String,
    workers: usize,
    qubits: u32,
    layers: usize,
    shots: u64,
    kernels_per_job: u64,
    solo: ModeReport,
    batched: ModeReport,
    speedup: f64,
    p95_ratio: f64,
    smoke_floor: f64,
    full_target: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let grid = if smoke { "smoke" } else { "full" };
    let jobs = arg_value("--jobs").unwrap_or(if smoke { 1200 } else { 10_000 }) as usize;
    let workers = arg_value("--workers").unwrap_or(2) as usize;
    let (qubits, layers) = (10u32, 6usize);
    let shots = 32u64;
    // Smoke coalesces shallower batches (smaller cap, less traffic), so
    // its floor is lower than the full grid's target.
    let max_size = if smoke { 8 } else { 32 };
    let smoke_floor = 2.0;
    let full_target = 5.0;

    println!(
        "bench_serve_batch ({grid}): {jobs} same-shape sweep jobs ({qubits} qubits x {layers} layers) on {workers} workers"
    );

    let solo_pass =
        run_pass("solo", jobs, workers, qubits, layers, shots, BatchConfig::disabled());
    let batched_pass = run_pass(
        "batched",
        jobs,
        workers,
        qubits,
        layers,
        shots,
        BatchConfig { max_size, window: Duration::from_micros(500) },
    );

    // Batch invariance, end to end: every job's counts table is
    // bit-identical whichever mode served it.
    assert_eq!(solo_pass.counts.len(), batched_pass.counts.len());
    for (i, digest) in &solo_pass.counts {
        assert_eq!(
            batched_pass.counts.get(i),
            Some(digest),
            "job {i}: batched counts differ from solo"
        );
    }
    assert_eq!(solo_pass.kernels_per_job, batched_pass.kernels_per_job);

    let model = CostModel::paper_testbed();
    let solo = report("solo", jobs, workers, qubits, shots, &model, &solo_pass);
    let batched = report("batched", jobs, workers, qubits, shots, &model, &batched_pass);
    println!(
        "  solo    : {:>9.0} jobs/s (modeled)  p50 {:.4}ms  p95 {:.4}ms  host wall {:.2}s",
        solo.modeled_jobs_per_sec, solo.p50_ms, solo.p95_ms, solo.host_wall_seconds
    );
    println!(
        "  batched : {:>9.0} jobs/s (modeled)  p50 {:.4}ms  p95 {:.4}ms  host wall {:.2}s  ({} batches, mean occupancy {:.1})",
        batched.modeled_jobs_per_sec,
        batched.p50_ms,
        batched.p95_ms,
        batched.host_wall_seconds,
        batched.batches_formed,
        batched.mean_occupancy
    );
    println!("  invariance: all {jobs} counts tables bit-identical across modes");

    let speedup = batched.modeled_jobs_per_sec / solo.modeled_jobs_per_sec;
    let p95_ratio = batched.p95_ms / solo.p95_ms;
    println!("  speedup : {speedup:.2}x batched over one-job-per-worker (p95 ratio {p95_ratio:.2})");

    let summary = Summary {
        bench: "serve_batch".to_owned(),
        grid: grid.to_owned(),
        workers,
        qubits,
        layers,
        shots,
        kernels_per_job: solo_pass.kernels_per_job,
        solo,
        batched,
        speedup,
        p95_ratio,
        smoke_floor,
        full_target,
    };
    let json = serde_json::to_value(&summary).expect("summary serializes");
    let root = match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => std::path::PathBuf::from(dir).join("../.."),
        Err(_) => std::path::PathBuf::from("."),
    };
    // Only the full grid owns the acceptance artifact; a CI smoke run
    // writes a suffixed file so it never clobbers the committed numbers.
    let (artifact, export) = if smoke {
        ("BENCH_serve_batch_smoke.json", "serve_batch_smoke")
    } else {
        ("BENCH_serve_batch.json", "serve_batch")
    };
    let path = root.join(artifact);
    std::fs::write(&path, format!("{json}\n")).unwrap_or_else(|e| panic!("write {artifact}: {e}"));
    println!("→ summary written to {}", path.display());

    let sink = JsonSink::workspace_default();
    if let Ok(Some(p)) = qgear_telemetry::export_with(export, &sink) {
        println!("→ telemetry JSON written to {}", p.display());
    }

    let floor = if smoke { smoke_floor } else { full_target };
    assert!(
        speedup >= floor,
        "batched throughput {speedup:.2}x is below the {grid}-grid floor {floor}x"
    );
    assert!(
        p95_ratio <= 1.0,
        "batched p95 {p95_ratio:.2}x must not regress past solo under open-loop load"
    );
}
