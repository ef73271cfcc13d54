//! Integration tests for the `qgear-telemetry` observability layer:
//! span nesting and counter totals on a real 10-qubit QFT, bitwise
//! non-interference of the instrumentation, and the documented JSON
//! schema (docs/TELEMETRY.md) round-tripping through `serde_json`.
//!
//! Telemetry state is process-global, so every test takes `LOCK` and
//! resets the registry around its recording window.

use qgear_statevec::{
    AerCpuBackend, GpuDevice, PlannerCosts, RunOptions, RunOutput, SegmentMode, Simulator,
};
use qgear_telemetry::names::{self, spans};
use qgear_telemetry::{JsonSink, TelemetrySnapshot};
use qgear_workloads::qft::{qft_circuit, QftOptions};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn qft10() -> qgear_ir::Circuit {
    let mut c = qft_circuit(10, &QftOptions::default());
    c.measure_all();
    c
}

/// Record one engine run and return (output, snapshot).
fn instrumented_run<S: Simulator<f64>>(
    engine: &S,
    opts: &RunOptions,
) -> (RunOutput<f64>, TelemetrySnapshot) {
    qgear_telemetry::reset();
    qgear_telemetry::enable();
    let out = engine.run(&qft10(), opts).expect("run");
    qgear_telemetry::disable();
    let snap = qgear_telemetry::snapshot();
    qgear_telemetry::reset();
    (out, snap)
}

/// Planner telemetry reports what ran. Every plan counts its executed
/// segments by mode; only a *priced* segment has a prediction, so only a
/// priced run records `planner.predicted_us` / `planner.cost_ratio.*` —
/// a pinned run (the default) never feeds `PlannerCosts::calibrated`.
#[test]
fn pinned_plans_count_modes_but_record_no_cost_ratio() {
    let _l = LOCK.lock().unwrap();
    let priced_only = [
        names::PLANNER_RATIO_UNFUSED,
        names::PLANNER_RATIO_SWEEP,
        names::PLANNER_PREDICTED_US,
        names::PLANNER_ACTUAL_US,
    ];
    let samples = |snap: &TelemetrySnapshot, name: &str| {
        snap.histograms.get(name).map_or(0, |h| h.count)
    };

    let pins = [
        (RunOptions::default(), names::PLANNER_MODE_SWEEP),
        (
            RunOptions { planner_costs: PlannerCosts::pinned(SegmentMode::Unfused), ..Default::default() },
            names::PLANNER_MODE_UNFUSED,
        ),
    ];
    for (opts, mode_counter) in pins {
        let (out, snap) = instrumented_run(&GpuDevice::a100_40gb(), &opts);
        let segments = snap.counter(names::PLANNER_SEGMENTS);
        assert!(segments >= 1);
        assert_eq!(snap.counter(mode_counter), segments, "{mode_counter}");
        if mode_counter == names::PLANNER_MODE_SWEEP {
            assert_eq!(segments, u128::from(out.stats.sweeps_executed));
        }
        for name in priced_only {
            assert_eq!(samples(&snap, name), 0, "a pinned run recorded {name}");
        }
        // So a refit from a pinned run's telemetry changes nothing.
        let base = PlannerCosts::host_reference();
        assert_eq!(base.calibrated(&snap), base);
    }

    let priced = RunOptions { planner_costs: PlannerCosts::host_reference(), ..Default::default() };
    let (_, snap) = instrumented_run(&GpuDevice::a100_40gb(), &priced);
    let segments = snap.counter(names::PLANNER_SEGMENTS);
    let by_mode = snap.counter(names::PLANNER_MODE_UNFUSED) + snap.counter(names::PLANNER_MODE_SWEEP);
    assert_eq!(by_mode, segments);
    assert_eq!(u128::from(samples(&snap, names::PLANNER_PREDICTED_US)), segments);
    let ratios: u64 = priced_only[..2].iter().map(|name| samples(&snap, name)).sum();
    assert_eq!(u128::from(ratios), segments, "one ratio per priced segment");
}

#[test]
fn gpu_qft_spans_nest_and_counters_match_exec_stats() {
    use qgear_cluster::ClusterEngine;
    use qgear_num::scalar::Precision;
    use qgear_serve::{BackendKind, JobSpec, ServeConfig, Service, ShardConfig};
    let _l = LOCK.lock().unwrap();
    let opts = RunOptions { shots: 1000, ..Default::default() };
    let (out, snap) = instrumented_run(&GpuDevice::a100_40gb(), &opts);
    let (cluster, cluster_snap) = instrumented_run(&ClusterEngine::a100_cluster(4), &opts);
    // A clean served job on 4 KiB workers: the fp64 state goes over four shards.
    qgear_telemetry::reset();
    qgear_telemetry::enable();
    let service = Service::start(ServeConfig {
        workers: 1,
        backend: BackendKind::Gpu(GpuDevice { memory_bytes: 1 << 12, ..GpuDevice::a100_40gb() }),
        shard: Some(ShardConfig::default()),
        ..Default::default()
    });
    let spec = JobSpec::new(qft10()).shots(1000).precision(Precision::Fp64);
    let id = service.submit(spec).job_id().expect("admitted sharded");
    let served = service.wait(id).expect("outcome").result().expect("completed").stats.clone();
    service.shutdown();
    qgear_telemetry::disable();
    let served_snap = qgear_telemetry::snapshot();
    qgear_telemetry::reset();

    // Counter totals agree with the engine's own ExecStats: gates.applied
    // is the post-fusion source-gate count, one kernel per fused block —
    // on the dense walker, and on the shard walker straight through and
    // served alike.
    let runs = [
        ("gpu", &out.stats, &snap),
        ("cluster", &cluster.stats, &cluster_snap),
        ("served sharded", &served, &served_snap),
    ];
    for (what, stats, snap) in runs {
        assert!(stats.kernels_launched > 0, "{what}");
        assert_eq!(snap.counter(names::GATES_APPLIED), u128::from(stats.gates_applied), "{what}");
        let kernels = snap.counter(names::KERNELS_LAUNCHED);
        assert_eq!(kernels, u128::from(stats.kernels_launched), "{what}");
    }
    assert_eq!(snap.counter(names::SHOTS_SAMPLED), 1000);
    // Fusion consumed every applied gate and produced one block per kernel.
    assert_eq!(snap.counter(names::FUSION_SOURCE_GATES), u128::from(out.stats.gates_applied));
    assert_eq!(snap.counter(names::FUSED_BLOCKS), u128::from(out.stats.kernels_launched));
    // Sweep scheduling groups kernels into full-state passes: the state
    // is read and written once per *sweep*, not once per kernel — that
    // is the whole point of the cache-blocked executor.
    assert!(out.stats.sweeps_executed >= 1);
    assert!(out.stats.sweeps_executed < out.stats.kernels_launched);
    assert_eq!(
        snap.counter(names::AMPLITUDES_TOUCHED),
        2 * 1024 * u128::from(out.stats.sweeps_executed)
    );

    // Span nesting: fuse and the sweep/block applications sit inside
    // simulate; sample is a sibling top-level phase; one application
    // span per executed sweep (singleton sweeps fall back to
    // apply_block, multi-kernel sweeps record apply_sweep).
    let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
    assert!(paths.contains(&spans::SIMULATE));
    assert!(paths.contains(&"simulate/fuse"));
    assert!(paths.contains(&spans::SAMPLE));
    assert_eq!(
        snap.spans
            .iter()
            .filter(|s| s.path == "simulate/apply_sweep" || s.path == "simulate/apply_block")
            .count() as u64,
        out.stats.sweeps_executed
    );
    // Children start and end within their parent.
    let sim = snap.spans.iter().find(|s| s.path == "simulate").unwrap();
    let fuse = snap.spans.iter().find(|s| s.path == "simulate/fuse").unwrap();
    assert_eq!(sim.depth, 0);
    assert_eq!(fuse.depth, 1);
    assert!(fuse.start_ns >= sim.start_ns);
    assert!(fuse.start_ns + fuse.duration_ns <= sim.start_ns + sim.duration_ns);
    // Fused-block widths were observed, one per block. A block's table
    // holds at most 4^5 entries, so it spans at most 10 qubits; the QFT's
    // `cr1` phases join as controls, so its blocks span more than 5.
    let widths = &snap.histograms[names::FUSION_BLOCK_WIDTH];
    assert_eq!(u128::from(widths.count), snap.counter(names::FUSED_BLOCKS));
    let window = 2.0 * qgear_ir::fusion::DEFAULT_FUSION_WIDTH as f64;
    assert!(widths.min >= 1.0 && widths.max <= window && widths.max > 5.0, "{widths:?}");
}

#[test]
fn aer_qft_counters_match_exec_stats() {
    let _l = LOCK.lock().unwrap();
    let opts = RunOptions { shots: 500, ..Default::default() };
    let (out, snap) = instrumented_run(&AerCpuBackend, &opts);

    assert_eq!(snap.counter(names::GATES_APPLIED), u128::from(out.stats.gates_applied));
    assert_eq!(snap.counter(names::KERNELS_LAUNCHED), u128::from(out.stats.kernels_launched));
    assert_eq!(snap.counter(names::SHOTS_SAMPLED), 500);
    // The unfused baseline never runs the fusion pass.
    assert_eq!(snap.counter(names::FUSED_BLOCKS), 0);
    // Per-kind dispatch counters partition the applied gates.
    let dispatched: u128 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("aer.dispatch."))
        .map(|(_, &v)| v)
        .sum();
    assert_eq!(dispatched, u128::from(out.stats.gates_applied));
    // A QFT is h + cr1 (+ swap reversal): all three kinds show up.
    assert!(snap.counter("aer.dispatch.h") > 0);
    assert!(snap.counter("aer.dispatch.cr1") > 0);
    let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
    assert!(paths.contains(&spans::SIMULATE));
    assert!(paths.contains(&spans::SAMPLE));
}

#[test]
fn full_pipeline_records_run_transpile_encode_fuse_chain() {
    use qgear::{QGear, QGearConfig, Target};
    use qgear_num::scalar::Precision;
    let _l = LOCK.lock().unwrap();
    qgear_telemetry::reset();
    qgear_telemetry::enable();
    let qgear = QGear::new(QGearConfig {
        target: Target::Nvidia,
        precision: Precision::Fp64,
        shots: 100,
        ..Default::default()
    });
    qgear.run(&qft10()).expect("pipeline run");
    qgear_telemetry::disable();
    let snap = qgear_telemetry::snapshot();
    qgear_telemetry::reset();

    let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
    for expected in [
        "run",
        "run/transpile",
        "run/encode",
        "run/fuse",
        "run/simulate",
        "run/simulate/fuse",
        "run/simulate/apply_sweep",
        "run/sample",
    ] {
        assert!(paths.contains(&expected), "missing span path {expected}; got {paths:?}");
    }
}

#[test]
fn instrumented_run_is_bitwise_identical_to_uninstrumented() {
    let _l = LOCK.lock().unwrap();
    let opts = RunOptions { shots: 1000, ..Default::default() };

    qgear_telemetry::reset();
    qgear_telemetry::disable();
    let plain: RunOutput<f64> = GpuDevice::a100_40gb().run(&qft10(), &opts).expect("run");

    let (instrumented, snap) = instrumented_run(&GpuDevice::a100_40gb(), &opts);
    assert!(!snap.spans.is_empty(), "second run really was recorded");

    let a = plain.state.expect("state kept");
    let b = instrumented.state.expect("state kept");
    assert_eq!(a.amplitudes().len(), b.amplitudes().len());
    for (x, y) in a.amplitudes().iter().zip(b.amplitudes().iter()) {
        assert_eq!(x.re.to_bits(), y.re.to_bits());
        assert_eq!(x.im.to_bits(), y.im.to_bits());
    }
    assert_eq!(plain.counts.unwrap().map, instrumented.counts.unwrap().map);
}

/// Checkpointed-recovery telemetry: a worker death with the newest
/// generation corrupted produces `checkpoint.write` and
/// `checkpoint.verify_fail` counter traffic, a `job.resumed_from`
/// histogram sample (the cursor execution resumed at), checkpoint spans
/// inside the serving span tree — and all three names survive the JSON
/// export round trip by their documented keys.
#[test]
fn checkpoint_recovery_metrics_flow_into_the_json_export() {
    use qgear_serve::{FaultKind, FaultSchedule, JobSpec, ServeConfig, Service};
    let _l = LOCK.lock().unwrap();
    qgear_telemetry::reset();
    qgear_telemetry::enable();
    let service = Service::start(ServeConfig {
        workers: 1,
        fusion_width: 1,
        sweep_width: 0,
        checkpoint_interval: 1,
        checkpoint_generations: 3,
        schedule: FaultSchedule::none()
            .with_event(0, 0, FaultKind::WorkerDeathMidRun { after_segments: 2 })
            .with_event(0, 0, FaultKind::CorruptCheckpoint { generation: 1 }),
        ..Default::default()
    });
    let mut c = qgear_ir::Circuit::new(3);
    c.h(0).cx(0, 1).cx(1, 2).measure_all();
    let id = service.submit(JobSpec::new(c).shots(100).seed(3)).job_id().expect("accepted");
    assert!(service.wait(id).expect("outcome").is_completed());
    service.shutdown();
    qgear_telemetry::disable();
    let snap = qgear_telemetry::snapshot();
    qgear_telemetry::reset();

    assert!(
        snap.counter(names::CHECKPOINT_WRITES) >= 2,
        "two generations written before the death, got {}",
        snap.counter(names::CHECKPOINT_WRITES)
    );
    assert!(
        snap.counter(names::CHECKPOINT_VERIFY_FAILS) >= 1,
        "the corrupted newest generation must fail verification"
    );
    let resumed = snap
        .histograms
        .get(names::JOB_RESUMED_FROM)
        .expect("resume-cursor histogram recorded");
    assert!(resumed.count >= 1);
    assert!(resumed.min >= 1.0, "resume from the surviving generation is past cursor 0");

    let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
    assert!(
        paths.iter().any(|p| p.ends_with(spans::CHECKPOINT_WRITE)),
        "no checkpoint_write span in {paths:?}"
    );
    assert!(
        paths.iter().any(|p| p.ends_with(spans::CHECKPOINT_RESTORE)),
        "no checkpoint_restore span in {paths:?}"
    );

    let dir = std::env::temp_dir().join(format!("qgear-telemetry-ck-{}", std::process::id()));
    let sink = JsonSink::new(&dir);
    let path = sink.export("checkpoint recovery", &snap).expect("export");
    let text = std::fs::read_to_string(&path).expect("read back");
    let value: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let counters = value["counters"].as_object().expect("counters object");
    for key in [names::CHECKPOINT_WRITES, names::CHECKPOINT_VERIFY_FAILS] {
        assert!(counters.iter().any(|(k, _)| k == key), "counter {key} missing from export");
    }
    let histograms = value["histograms"].as_object().expect("histograms object");
    assert!(
        histograms.iter().any(|(k, _)| k == names::JOB_RESUMED_FROM),
        "histogram {} missing from export",
        names::JOB_RESUMED_FROM
    );
    let (_, back) = TelemetrySnapshot::from_value(&value).expect("schema decode");
    assert_eq!(back, snap, "export round trip preserves the checkpoint metrics");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every job runs alone on the stepper, one dispatch at a time. The device
/// holds exactly one 3-qubit fp64 state, so four queued jobs fit only
/// because one is resident at a time; the second case alternates
/// `ry(0.0)` (a diagonal kernel) with `ry(0.3)` (a dense one) — same
/// shape, different kernel classes. Either way each dispatch is
/// prologued once (one queue-wait sample, one result-cache miss, one
/// marginal-cache miss, one `serve_job` span) and each job carries its
/// own stepper time in `stats.elapsed`.
#[test]
fn each_job_is_one_dispatch_with_its_own_stepper_time() {
    use qgear_serve::{BackendKind, JobResult, JobSpec, ServeConfig, Service};
    use std::time::Duration;
    let _l = LOCK.lock().unwrap();
    const JOBS: usize = 4;
    let device = GpuDevice { memory_bytes: 8 * 16, ..GpuDevice::a100_40gb() };
    type Build = fn(&mut qgear_ir::Circuit, f64);
    let cases: [(&str, usize, Build, [f64; JOBS]); 2] = [
        (
            "one-state device",
            qgear_ir::fusion::DEFAULT_FUSION_WIDTH,
            |c, theta| {
                c.h(0).ry(theta, 1).cx(0, 1).cx(1, 2);
            },
            [0.2, 0.5, 0.8, 1.1],
        ),
        // Unfused, `ry(0.0)` leaves an all-diagonal (element-wise) sweep
        // where `ry(0.3)` forces a gather/scatter one.
        (
            "kernels classify differently",
            1,
            |c, theta| {
                c.ry(theta, 1).rz(0.4, 1).rz(0.7, 0).rz(0.3, 2);
            },
            [0.0, 0.3, 0.0, 0.3],
        ),
    ];
    for (what, fusion_width, build, thetas) in cases {
        qgear_telemetry::reset();
        qgear_telemetry::enable();
        let service = Service::start(ServeConfig {
            workers: 1,
            backend: BackendKind::Gpu(device.clone()),
            fusion_width,
            // The second case repeats circuits under new seeds; with the
            // marginal cache off every job still runs the stepper.
            state_cache_capacity: 0,
            ..Default::default()
        });
        let ids: Vec<_> = thetas
            .iter()
            .enumerate()
            .map(|(i, &theta)| {
                let mut c = qgear_ir::Circuit::new(3);
                build(&mut c, theta);
                c.measure_all();
                let spec = JobSpec::new(c).shots(300).seed(i as u64);
                service.submit(spec).job_id().expect("accepted")
            })
            .collect();
        let results: Vec<JobResult> = ids
            .iter()
            .map(|&id| service.wait(id).expect("outcome").result().expect("done").clone())
            .collect();
        service.shutdown();
        qgear_telemetry::disable();
        let snap = qgear_telemetry::snapshot();
        qgear_telemetry::reset();

        assert_eq!(snap.histograms[names::SERVE_QUEUE_WAIT_MS].count as usize, JOBS, "{what}");
        assert_eq!(snap.counter(names::SERVE_CACHE_MISSES), JOBS as u128, "{what}");
        assert_eq!(snap.counter(names::SERVE_STATE_CACHE_MISSES), JOBS as u128, "{what}");
        assert_eq!(snap.span_count(spans::SERVE_JOB), JOBS, "{what}: one span per dispatch");
        assert_eq!(snap.counter(names::SERVE_JOBS_COMPLETED), JOBS as u128, "{what}");

        // `stats.elapsed` is each job's own stepper time: the four runs do
        // not share one reading, and each fits inside its own
        // dispatch-to-publish wall.
        let elapsed: Vec<Duration> = results.iter().map(|r| r.stats.elapsed).collect();
        assert!(elapsed.iter().any(|e| *e != elapsed[0]), "{what}: one shared value {elapsed:?}");
        for r in &results {
            let wall = r.service_time - r.queue_wait;
            assert!(r.stats.elapsed <= wall, "{what}: {:?} exceeds {wall:?}", r.stats.elapsed);
        }
    }
}

#[test]
fn json_sink_roundtrips_against_documented_schema() {
    let _l = LOCK.lock().unwrap();
    let opts = RunOptions { shots: 200, ..Default::default() };
    let (_, snap) = instrumented_run(&GpuDevice::a100_40gb(), &opts);

    let dir = std::env::temp_dir().join(format!("qgear-telemetry-it-{}", std::process::id()));
    let sink = JsonSink::new(&dir);
    let path = sink.export("qft n=10", &snap).expect("export");
    let text = std::fs::read_to_string(&path).expect("read back");

    // The document parses as JSON and carries the schema documented in
    // docs/TELEMETRY.md: version marker, label, spans, counters,
    // histograms.
    let value: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    assert_eq!(value["schema_version"].as_u64(), Some(qgear_telemetry::SCHEMA_VERSION));
    assert_eq!(value["label"].as_str(), Some("qft n=10"));
    assert!(value["spans"].as_array().is_some_and(|s| !s.is_empty()));
    assert!(value["counters"].as_object().is_some());
    assert!(value["histograms"].as_object().is_some());

    // And it round-trips into an identical snapshot.
    let (label, back) = TelemetrySnapshot::from_value(&value).expect("schema decode");
    assert_eq!(label, "qft n=10");
    assert_eq!(back, snap);

    std::fs::remove_dir_all(&dir).ok();
}

/// Backend-selection telemetry: one admitted job per engine increments
/// its `admission.backend_chosen.<engine>` counter, and every such name
/// survives the JSON export round trip.
#[test]
fn backend_selection_metrics_flow_into_the_json_export() {
    use qgear_serve::{BackendKind, JobSpec, ServeConfig, Service, ShardConfig};
    let ghz = |n: u32| {
        let mut c = qgear_ir::Circuit::new(n);
        c.h(0);
        for q in 1..n {
            c.cx(q - 1, q);
        }
        c.measure_all();
        c
    };
    let _l = LOCK.lock().unwrap();
    qgear_telemetry::reset();
    qgear_telemetry::enable();
    // A 192-byte worker holds a 2-qubit fp64 state (64 B) but not a
    // 4-qubit one (256 B), which a 2-shard group takes instead.
    let mut tiny = GpuDevice::a100_40gb();
    tiny.memory_bytes = 192;
    let service = Service::start(ServeConfig {
        workers: 1,
        backend: BackendKind::Gpu(tiny),
        shard: Some(ShardConfig::default()),
        fusion_width: 1,
        ..Default::default()
    });
    let dense = service.submit(JobSpec::new(ghz(2)).shots(50).seed(2)).job_id().unwrap();
    let sharded = service.submit(JobSpec::new(ghz(4)).shots(100).seed(1)).job_id().unwrap();
    for id in [dense, sharded] {
        assert!(service.wait(id).expect("outcome").is_completed());
    }
    service.shutdown();
    qgear_telemetry::disable();
    let snap = qgear_telemetry::snapshot();
    qgear_telemetry::reset();

    assert_eq!(snap.counter(&names::admission_backend_chosen("dense")), 1);
    assert_eq!(snap.counter(&names::admission_backend_chosen("sharded")), 1);

    let dir = std::env::temp_dir().join(format!("qgear-telemetry-bk-{}", std::process::id()));
    let sink = JsonSink::new(&dir);
    let path = sink.export("backend selection", &snap).expect("export");
    let text = std::fs::read_to_string(&path).expect("read back");
    let value: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let counters = value["counters"].as_object().expect("counters object");
    for key in [
        names::admission_backend_chosen("dense"),
        names::admission_backend_chosen("sharded"),
    ] {
        assert!(counters.iter().any(|(k, _)| k == &key), "counter {key} missing from export");
    }
    let (_, back) = TelemetrySnapshot::from_value(&value).expect("schema decode");
    assert_eq!(back, snap, "export round trip preserves the backend metrics");
    std::fs::remove_dir_all(&dir).ok();
}

/// SIMD-dispatch and sweep-tile telemetry: a sweep-scheduled run over
/// lane-eligible kernels records lane dispatches (`kernel.simd.f64x4`),
/// a scalar-forced run records only fallback dispatches
/// (`kernel.simd.scalar`), the zero-copy sweep pass counts its tiles,
/// and every new name survives the JSON export round trip — keeping the
/// documented schema exhaustive.
#[test]
fn simd_and_scratch_metrics_flow_into_the_json_export() {
    let _l = LOCK.lock().unwrap();

    // A 10-qubit QFT under narrow fusion: every kernel of a width-2
    // table (an `h` and up to two `cr1` controls, three qubits) has
    // spectator bits to run on lanes wherever its qubits sit — a sweep's
    // tile is always wide enough for it. The scalar fallback is what a
    // 3-qubit state gets: one bit to spare, and `f64x4` needs two.
    let opts = RunOptions { fusion_width: 2, sweep_width: 4, ..Default::default() };
    let run = |simd_on: bool| {
        qgear_statevec::set_simd_enabled(simd_on);
        let (_, snap) = instrumented_run(&GpuDevice::a100_40gb(), &opts);
        qgear_statevec::set_simd_enabled(true);
        snap
    };

    let lanes_snap = run(true);
    assert!(
        lanes_snap.counter(names::KERNEL_SIMD_F64X4) > 0,
        "lane-eligible kernels should record f64x4 dispatches"
    );
    assert_eq!(
        lanes_snap.counter(names::KERNEL_SIMD_SCALAR),
        0,
        "a 10-qubit state leaves no group kernel without lane bits"
    );

    let scalar_snap = run(false);
    assert_eq!(
        scalar_snap.counter(names::KERNEL_SIMD_F64X4),
        0,
        "SIMD disabled must not record lane dispatches"
    );
    assert!(scalar_snap.counter(names::KERNEL_SIMD_SCALAR) > 0);

    // One snapshot with both dispatch kinds in it, for the export below.
    let mut tiny = qgear_ir::Circuit::new(3);
    tiny.h(0).cx(0, 1).ry(0.3, 2).cx(1, 2);
    qgear_telemetry::reset();
    qgear_telemetry::enable();
    let _: RunOutput<f64> = GpuDevice::a100_40gb().run(&qft10(), &opts).expect("run");
    let _: RunOutput<f64> = GpuDevice::a100_40gb().run(&tiny, &opts).expect("run");
    qgear_telemetry::disable();
    let snap = qgear_telemetry::snapshot();
    assert!(
        snap.counter(names::KERNEL_SIMD_SCALAR) > 0,
        "a span with no spare bits should record scalar fallback dispatches"
    );

    // A contiguous-prefix sweep takes the zero-copy tile path and says so.
    let mut low = qgear_ir::Circuit::new(8);
    for q in 0..6 {
        low.h(q).ry(0.2 + 0.3 * f64::from(q), q);
    }
    for q in 0..5 {
        low.cx(q, q + 1);
    }
    qgear_telemetry::reset();
    qgear_telemetry::enable();
    let _: RunOutput<f64> = GpuDevice::a100_40gb()
        .run(&low, &RunOptions { fusion_width: 2, sweep_width: 6, ..Default::default() })
        .expect("run");
    qgear_telemetry::disable();
    let zc_snap = qgear_telemetry::snapshot();
    qgear_telemetry::reset();
    assert!(
        zc_snap.counter(names::SWEEP_ZERO_COPY_TILES) > 0,
        "contiguous-prefix sweep should count zero-copy tiles"
    );

    // Export round trip carries every new counter name.
    let dir = std::env::temp_dir().join(format!("qgear-telemetry-simd-{}", std::process::id()));
    let sink = JsonSink::new(&dir);
    let path = sink.export("simd dispatch", &snap).expect("export");
    let text = std::fs::read_to_string(&path).expect("read back");
    let value: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let counters = value["counters"].as_object().expect("counters object");
    for key in [names::KERNEL_SIMD_F64X4, names::KERNEL_SIMD_SCALAR] {
        assert!(counters.iter().any(|(k, _)| k == key), "counter {key} missing from export");
    }
    assert_eq!(names::KERNEL_SIMD_F64X4, "kernel.simd.f64x4");
    assert_eq!(names::KERNEL_SIMD_F32X8, "kernel.simd.f32x8");
    let (_, back) = TelemetrySnapshot::from_value(&value).expect("schema decode");
    assert_eq!(back, snap, "export round trip preserves the SIMD metrics");
    std::fs::remove_dir_all(&dir).ok();
}

/// Per-class interconnect counters: every pairwise exchange the real
/// distributed engine performs lands in `comm.bytes.<class>` /
/// `comm.messages.<class>`, and the global totals agree exactly with
/// the engine's own `TrafficStats` — the byte-level accounting the
/// sharded serving path exports per job.
#[test]
fn distributed_exchange_traffic_flows_into_per_class_comm_counters() {
    let _l = LOCK.lock().unwrap();
    use qgear_cluster::{ClusterTopology, DistributedState, LinkClass};
    use qgear_ir::fusion::fuse;

    // 4 qubits on 4 devices (local width 2): the CX ladder and the
    // final H touch global qubits, forcing layout remaps and exchanges.
    let mut c = qgear_ir::Circuit::new(4);
    c.h(0).cx(0, 1).cx(1, 2).cx(2, 3).h(3);
    let program = fuse(&c, 2);

    qgear_telemetry::reset();
    qgear_telemetry::enable();
    let mut dist = DistributedState::<f64>::zero(4, 4, ClusterTopology::default());
    for block in &program.blocks {
        dist.apply_block(block).expect("no faults armed");
    }
    qgear_telemetry::disable();
    let snap = qgear_telemetry::snapshot();
    qgear_telemetry::reset();

    let traffic = dist.traffic();
    assert!(dist.exchanges() > 0, "the ladder must cross shard boundaries");
    assert_eq!(traffic.total_messages(), 2 * dist.exchanges(), "two messages per exchange");
    let mut bytes_total = 0u128;
    let mut messages_total = 0u128;
    for class in LinkClass::ALL {
        let (bytes_counter, messages_counter) = class.counters();
        let bytes = snap.counter(bytes_counter);
        let messages = snap.counter(messages_counter);
        assert_eq!(bytes, traffic.bytes_over(class), "{bytes_counter}");
        assert_eq!(messages, u128::from(traffic.messages[class as usize]), "{messages_counter}");
        bytes_total += bytes;
        messages_total += messages;
    }
    assert_eq!(bytes_total, traffic.total_bytes(), "per-class counters cover all traffic");
    assert_eq!(messages_total, u128::from(traffic.total_messages()));
    assert!(bytes_total > 0, "amplitude halves actually moved");

    // A 4-device group under the default topology spans more than one
    // link class, so the per-class split is non-trivial.
    let classes_hit = LinkClass::ALL
        .iter()
        .filter(|&&cl| traffic.messages[cl as usize] > 0)
        .count();
    assert!(classes_hit >= 1, "at least one link class carried traffic");
}

/// The lane path's perf gate, as a count that repeats exactly: the four
/// circuit shapes `benchmark/` serves (`serve_small`'s ladder,
/// `serve_mixed`'s QFT / random / QCrank image) at fp32 through a default
/// `Service`, and `sharded_ckpt`'s fp64 QFT over four shards, dispatch no
/// group kernel on the scalar path. Scalar is what a span with no
/// spectator bits gets, and no span here is that small — if this fails,
/// lane eligibility has silently narrowed again and `dense_large` is
/// about to lose its factor of two and more (docs/PIPELINE.md § 5, "Lanes
/// over spectator bits").
#[test]
fn no_benchmark_circuit_shape_dispatches_a_scalar_kernel() {
    use qgear_num::scalar::Precision;
    use qgear_serve::{BackendKind, JobSpec, ServeConfig, Service, ShardConfig};
    use qgear_workloads::random::generate_random_gate_list;
    use qgear_workloads::{images, QcrankCodec, QcrankConfig, RandomCircuitSpec};
    let _l = LOCK.lock().unwrap();

    let qft_after_input = |n: u32| {
        let mut c = qgear_ir::Circuit::new(n);
        for q in 0..n {
            c.ry(0.1 + 0.37 * f64::from(q), q);
        }
        c.compose(&qft_circuit(n, &QftOptions { measure: true, ..Default::default() }))
            .expect("same register width");
        c
    };
    let mut ladder = qgear_ir::Circuit::new(10);
    for layer in 0..4 {
        for q in 0..10 {
            ladder.h(q).ry(0.2 + 0.3 * f64::from(q + layer), q);
        }
        for q in 0..9 {
            ladder.cx(q, q + 1);
        }
    }
    ladder.measure_all();
    let random = generate_random_gate_list(&RandomCircuitSpec {
        num_qubits: 14,
        num_blocks: 60,
        seed: 7,
        measure: true,
    });
    let qcrank = QcrankCodec::new(QcrankConfig { addr_qubits: 8, data_qubits: 4 })
        .encode_image(&images::synthetic(32, 32, 7));
    // One worker holds 2^14 fp64 amplitudes: n = 16 runs over four shards.
    let four_shards = ServeConfig {
        workers: 1,
        backend: BackendKind::Gpu(GpuDevice { memory_bytes: (1 << 14) * 16, ..GpuDevice::a100_40gb() }),
        shard: Some(ShardConfig::default()),
        ..Default::default()
    };
    let cases = [
        ("ladder-10x4", ladder, Precision::Fp32, ServeConfig::default()),
        ("qft-13", qft_after_input(13), Precision::Fp32, ServeConfig::default()),
        ("random-14x60", random, Precision::Fp32, ServeConfig::default()),
        ("qcrank 8+4", qcrank, Precision::Fp32, ServeConfig::default()),
        ("qft-16 over 4 shards", qft_after_input(16), Precision::Fp64, four_shards),
    ];
    for (what, circuit, precision, config) in cases {
        qgear_telemetry::reset();
        qgear_telemetry::enable();
        let service = Service::start(config);
        let spec = JobSpec::new(circuit).shots(100).precision(precision);
        let id = service.submit(spec).job_id().expect("accepted");
        let done = service.wait(id).expect("outcome").is_completed();
        service.shutdown();
        qgear_telemetry::disable();
        let snap = qgear_telemetry::snapshot();
        qgear_telemetry::reset();
        assert!(done, "{what}: completed");
        let lanes = snap.counter(match precision {
            Precision::Fp32 => names::KERNEL_SIMD_F32X8,
            Precision::Fp64 => names::KERNEL_SIMD_F64X4,
        });
        assert!(lanes > 0, "{what}: kernels dispatched on lanes");
        assert_eq!(snap.counter(names::KERNEL_SIMD_SCALAR), 0, "{what}: scalar dispatches");
    }
}
