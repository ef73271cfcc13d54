//! End-to-end differential tests for fault-tolerant sharded serving.
//!
//! The contract under test: a job whose state vector exceeds one
//! worker's device memory is admitted as `Engine::Sharded`, executed on
//! a `DistributedState`-partitioned worker group, and produces counts
//! **bitwise identical** to the same spec served dense on a big device.
//! That identity is what makes every other sharding feature safe — the
//! dense clean-mirror in the simulation harness and checkpoint migration
//! across group widths both lean on it. (The marginal cache needs no
//! such identity: inside one service the engine is a function of width,
//! precision and fusion width, which the state key digests, so two
//! engines never share an entry.)
//!
//! The admission side is pinned too: without a `ShardConfig` the same
//! job bounces as `RejectedInfeasible`, and with a config whose group
//! cap is too small the rejection carries an explicit `Sharded` verdict
//! naming the cap, so clients can see sharding was considered.

use qgear_cluster::{ClusterEngine, ShardedRun};
use qgear_ir::transpile::decompose_to_native;
use qgear_ir::Circuit;
use qgear_serve::{
    Admission, BackendKind, CheckpointRecord, Engine, EventKind, JobSpec, ServeConfig, Service,
    ServiceEvent, ShardConfig, ShardRecord,
};
use qgear_statevec::backend::{marginal_probs, sample_from_probs};
use qgear_statevec::{
    decode_checkpoint, encode_checkpoint, ExecStats, GpuDevice, RunOptions, RunOutput,
    SegmentedRun, Simulator, Stepper,
};
use qgear_workloads::qft::{qft_circuit, QftOptions};
use std::time::Duration;

/// A 4-qubit circuit whose fp64 state (256 B) overflows the 192-byte
/// test worker but fits a 2-shard group (128 B per slice). Mixes
/// local-qubit and global-qubit gates so exchanges actually happen.
fn beyond_one_worker() -> Circuit {
    let mut c = Circuit::new(4);
    c.h(0)
        .cx(0, 1)
        .ry(0.3, 2)
        .cx(1, 2)
        .rz(0.7, 3)
        .cx(2, 3)
        .h(3)
        .measure_all();
    c
}

/// A 192-byte GPU worker: 2–3 qubit jobs run dense, 4 qubits must shard.
fn tiny_device() -> GpuDevice {
    let mut dev = GpuDevice::a100_40gb();
    dev.memory_bytes = 192;
    dev
}

fn sharded_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        backend: BackendKind::Gpu(tiny_device()),
        shard: Some(ShardConfig::default()),
        fusion_width: 1,
        sweep_width: 0,
        checkpoint_interval: 1,
        checkpoint_generations: 3,
        ..Default::default()
    }
}

/// One word per event, for asserting the order of a job's life.
fn step(event: &ServiceEvent) -> &'static str {
    match &event.kind {
        EventKind::Dispatch(_) => "dispatch",
        EventKind::Checkpoint(CheckpointRecord::Wrote { .. }) => "wrote",
        EventKind::Checkpoint(CheckpointRecord::VerifyFailed { .. }) => "verify-failed",
        EventKind::Checkpoint(CheckpointRecord::Resumed { .. }) => "resumed",
        EventKind::Checkpoint(CheckpointRecord::ColdRestart { .. }) => "cold-restart",
        EventKind::Shard(ShardRecord::Started { .. }) => "started",
        EventKind::Shard(ShardRecord::WorkerLost { .. }) => "lost",
        EventKind::Shard(ShardRecord::LinkFault { .. }) => "link-fault",
        EventKind::Shard(ShardRecord::Completed { .. }) => "completed",
    }
}

/// The tentpole acceptance path: the tiny-device service admits the
/// beyond-one-worker job, runs it sharded (the shard events prove a group
/// of the planned width formed and completed), and its counts are
/// bitwise identical to the same spec served dense on a 40 GB device
/// with the same fusion/sweep configuration and sampling knobs — on a
/// clean run, through a worker death (checkpoint migration onto a
/// replacement group) and through a corrupted exchange (in-place
/// recovery). Measuring every qubit makes each outcome one amplitude;
/// measuring a permuted subset makes the marginal, read from the slices
/// in place, sum several per outcome.
#[test]
fn a_sharded_job_matches_the_dense_service_bit_for_bit() {
    use qgear_serve::{FaultKind, FaultSchedule};
    let (mut subset, _) = beyond_one_worker().split_measurements();
    subset.measure(3).measure(0).measure(2);
    for (measures, circuit) in [("all", beyond_one_worker()), ("3, 0, 2", subset)] {
        let spec = || JobSpec::new(circuit.clone()).shots(300).seed(17);

        let dense = Service::start(ServeConfig {
            workers: 1,
            fusion_width: 1,
            sweep_width: 0,
            ..Default::default()
        });
        let id = dense.submit(spec()).job_id().expect("dense admits");
        let reference = dense.wait(id).unwrap();
        let reference = reference.result().expect("dense completes");
        dense.shutdown();

        let runs = [
            ("clean", None),
            ("worker death", Some(FaultKind::ShardWorkerDeath { shard: 1, after_segments: 1 })),
            ("corrupted exchange", Some(FaultKind::LinkFault { exchange: 0, corrupt: true })),
        ];
        for (what, fault) in runs {
            let what = format!("measuring {measures}, {what}");
            let schedule = fault
                .map_or(FaultSchedule::none(), |kind| FaultSchedule::none().with_event(0, 0, kind));
            let sharded = Service::start(ServeConfig { schedule, ..sharded_config() });
            let id = sharded
                .submit(spec())
                .job_id()
                .expect("the shard planner must admit what one worker cannot hold");
            let outcome = sharded.wait(id).unwrap();
            let result = outcome.result().expect("the sharded run completes");
            sharded.shutdown();

            assert_eq!(
                result.counts, reference.counts,
                "{what}: sharded counts must be bitwise identical to the dense service"
            );
            let log = sharded.events_for(id);
            assert!(
                log.iter().any(|e| e.kind == EventKind::Shard(ShardRecord::Started { job: 0, shards: 2 })),
                "{what}: a 2-shard group must have formed; log: {log:?}"
            );
            assert!(
                log.iter().any(|e| matches!(
                    e.kind,
                    EventKind::Shard(ShardRecord::Completed { job: 0, shards: 2, .. })
                )),
                "{what}: the planned 2-shard group must have completed; log: {log:?}"
            );
            let struck = match fault {
                None => true,
                // What only one stream can say: the whole life in order,
                // across kinds — the generation is written before the worker
                // is lost, the replacement dispatch resumes it before it
                // writes or completes anything — on one non-decreasing clock.
                Some(FaultKind::ShardWorkerDeath { .. }) => {
                    let mut life: Vec<_> = log.iter().map(step).collect();
                    life.dedup(); // one "wrote" per run of interior boundaries
                    assert_eq!(
                        life,
                        [
                            "dispatch", "started", "wrote", "lost", //
                            "dispatch", "started", "resumed", "wrote", "completed",
                        ],
                        "{what}: log: {log:?}"
                    );
                    assert!(log.windows(2).all(|w| w[0].at <= w[1].at), "{what}: stamps: {log:?}");
                    true
                }
                Some(_) => log
                    .iter()
                    .any(|e| matches!(e.kind, EventKind::Shard(ShardRecord::LinkFault { job: 0, .. }))),
            };
            assert!(struck, "{what}: the fault must actually have struck; log: {log:?}");
            assert!(
                result.stats.comm_bytes.iter().sum::<u128>() > 0,
                "{what}: a sharded run moves amplitude traffic: {:?}",
                result.stats.comm_bytes
            );
        }
    }
}

/// Sharded `ExecStats` tell the truth. A served sharded job reports real
/// evolve time and the schedule's byte/flop cost by the same closed forms
/// `ClusterEngine::run` charges for the same fused program; and because
/// those counters derive from the cursor alone, a run that migrated onto
/// a replacement group mid-schedule reports exactly what an unfaulted
/// one does.
#[test]
fn sharded_stats_match_the_cluster_closed_form_and_survive_migration() {
    use qgear_cluster::ClusterEngine;
    use qgear_serve::{FaultKind, FaultSchedule};

    let serve = |schedule: FaultSchedule| {
        let service = Service::start(ServeConfig { schedule, ..sharded_config() });
        let id = service
            .submit(JobSpec::new(beyond_one_worker()).shots(300).seed(17))
            .job_id()
            .expect("admitted sharded");
        let outcome = service.wait(id).unwrap();
        let result = outcome.result().expect("the sharded run completes").clone();
        service.shutdown();
        (result, service.events_for(id))
    };

    let (clean, _) = serve(FaultSchedule::none());
    assert!(clean.stats.elapsed > std::time::Duration::ZERO, "evolve time must be measured");

    let (native, _) = decompose_to_native(&beyond_one_worker());
    let opts = RunOptions { shots: 0, fusion_width: 1, sweep_width: 0, ..Default::default() };
    let cluster: RunOutput<f64> = ClusterEngine::a100_cluster(2).run(&native, &opts).unwrap();
    assert!(cluster.stats.bytes_touched > 0 && cluster.stats.flops > 0);
    assert_eq!(clean.stats.bytes_touched, cluster.stats.bytes_touched);
    assert_eq!(clean.stats.flops, cluster.stats.flops);
    assert_eq!(clean.stats.kernels_launched, cluster.stats.kernels_launched);
    assert_eq!(clean.stats.gates_applied, cluster.stats.gates_applied);

    let death = FaultKind::ShardWorkerDeath { shard: 1, after_segments: 2 };
    let (migrated, log) = serve(FaultSchedule::none().with_event(0, 0, death));
    assert!(
        log.iter().any(|e| matches!(
            e.kind,
            EventKind::Checkpoint(CheckpointRecord::Resumed { job: 0, cursor: 2, .. })
        )),
        "the run must actually have migrated; log: {log:?}"
    );
    assert_eq!(migrated.counts, clean.counts);
    assert_eq!(migrated.stats.bytes_touched, clean.stats.bytes_touched);
    assert_eq!(migrated.stats.flops, clean.stats.flops);
    assert_eq!(migrated.stats.kernels_launched, clean.stats.kernels_launched);
}

/// Admission control: the same job on the same tiny device is rejected
/// without a shard config; with a config capped below the needed group
/// width it is rejected *with a `Sharded` verdict* naming the cap. A
/// 2-qubit job stays dense-admissible either way. Admission is a width
/// test: a QFT of the same width, a different gate stream, gets exactly
/// the same verdicts.
#[test]
fn admission_rejects_or_explains_when_sharding_cannot_help() {
    let qft = qft_circuit(beyond_one_worker().num_qubits(), &QftOptions::default());
    let verdicts = |service: &Service, circuit: Circuit| {
        match service.submit(JobSpec::new(circuit)) {
            Admission::RejectedInfeasible { required_bytes, device_bytes, considered } => {
                (required_bytes, device_bytes, considered)
            }
            other => panic!("expected RejectedInfeasible, got {other:?}"),
        }
    };
    // No shard config: a lone dense verdict.
    let service = Service::start(ServeConfig {
        workers: 1,
        backend: BackendKind::Gpu(tiny_device()),
        fusion_width: 1,
        ..Default::default()
    });
    let (required_bytes, device_bytes, considered) = verdicts(&service, beyond_one_worker());
    assert_eq!(required_bytes, 256);
    assert_eq!(device_bytes, 192);
    assert_eq!(
        considered.iter().map(|v| v.engine).collect::<Vec<_>>(),
        [Engine::Dense],
        "no shard config ⇒ sharding is never considered: {considered:?}"
    );
    assert_eq!(verdicts(&service, qft.clone()), (required_bytes, device_bytes, considered));
    // A small job still fits dense.
    let mut bell = Circuit::new(2);
    bell.h(0).cx(0, 1).measure_all();
    let id = service.submit(JobSpec::new(bell).shots(50)).job_id().expect("2 qubits fit dense");
    assert!(service.wait(id).unwrap().is_completed());
    service.shutdown();

    // Shard config present but the group cap is below the 2 shards the
    // job needs: rejected, and the verdict list says sharding was
    // priced and why it lost.
    let capped = Service::start(ServeConfig {
        shard: Some(ShardConfig { max_shards: 1 }),
        ..sharded_config()
    });
    let rejected = verdicts(&capped, beyond_one_worker());
    let considered = &rejected.2;
    assert_eq!(
        considered.iter().map(|v| v.engine).collect::<Vec<_>>(),
        [Engine::Dense, Engine::Sharded],
        "sharding must appear among the considered engines"
    );
    let verdict = &considered[1];
    assert!(verdict.reason.contains("1-worker cap"), "the verdict names the cap: {verdict:?}");
    assert_eq!(verdicts(&capped, qft), rejected, "the gate stream never changes admission");
    capped.shutdown();
}

/// The engine-level identity underneath the service path: evolving the
/// schedule through `ShardedRun` (2 and 4 shards) gathers amplitudes
/// bitwise equal to straight dense execution of the same fused
/// schedule — not approximately, *exactly*, which is what licenses the
/// harness's dense clean-hash mirror for sharded jobs.
#[test]
fn sharded_evolution_gathers_bitwise_dense_amplitudes() {
    let circuit = beyond_one_worker();
    let (native, _) = decompose_to_native(&circuit);
    for fusion_width in [1usize, 2, 3] {
        let opts = RunOptions {
            shots: 0,
            fusion_width,
            sweep_width: 0,
            keep_state: true,
            ..Default::default()
        };
        let dense: RunOutput<f64> = GpuDevice::a100_40gb().run(&native, &opts).unwrap();
        let dense = dense.state.expect("state kept");
        for shards in [2u32, 4] {
            // The planner's admissibility rule: every shard's local
            // slice must hold the widest fused block (and ≥ 2 qubits).
            if (4 - shards.trailing_zeros()) < fusion_width.max(2) as u32 {
                continue;
            }
            let group = ClusterEngine::a100_cluster(shards as usize);
            let mut run = ShardedRun::<f64>::new(&group, &native, &opts).expect("admissible");
            while !run.is_done() {
                run.advance(1).expect("no faults armed");
            }
            let gathered = run.state();
            assert_eq!(
                gathered.amplitudes(),
                dense.amplitudes(),
                "gather() must be bit-identical to dense (fusion {fusion_width}, \
                 {shards} shards)"
            );
            let dist = run.dist();
            assert_eq!(
                dist.traffic().total_messages(),
                2 * dist.exchanges(),
                "pairwise message conservation"
            );
        }
    }
}

/// Both identities again at a width where an exchange moves real runs
/// of memory: at n = 16 a slice is 2^15 or 2^14 amplitudes and the
/// planner's highest-free-local-bit remaps swap runs of up to 2^14, the
/// shape the `sharded_ckpt` benchmark workload exchanges — the 4-qubit
/// cases above never swap more than two amplitudes at a time. Served
/// counts and gathered amplitudes over 2 and 4 shards are bitwise the
/// dense run's.
#[test]
fn a_sixteen_qubit_job_is_bitwise_dense_over_two_and_four_shards() {
    let n = 16u32;
    let mut circuit = qft_circuit(n, &QftOptions::default());
    circuit.measure_all();
    let (native, _) = decompose_to_native(&circuit);
    let config = || ServeConfig { workers: 1, sweep_width: 0, ..Default::default() };
    let served = |config: ServeConfig| {
        let service = Service::start(config);
        let id = service
            .submit(JobSpec::new(circuit.clone()).shots(4000).seed(29))
            .job_id()
            .expect("admitted");
        let outcome = service.wait(id).unwrap();
        let result = outcome.result().expect("completes").clone();
        service.shutdown();
        (result, service.events_for(id))
    };
    let (reference, _) = served(config());
    let opts = RunOptions {
        shots: 0,
        fusion_width: config().fusion_width,
        sweep_width: 0,
        keep_state: true,
        ..Default::default()
    };
    let dense: RunOutput<f64> = GpuDevice::a100_40gb().run(&native, &opts).unwrap();
    let dense = dense.state.expect("state kept");

    for shards in [2u32, 4] {
        // Served on workers that hold exactly one slice of the state.
        let mut slice_device = GpuDevice::a100_40gb();
        slice_device.memory_bytes = (16u128 << n) / u128::from(shards);
        let (result, log) = served(ServeConfig {
            backend: BackendKind::Gpu(slice_device),
            shard: Some(ShardConfig::default()),
            ..config()
        });
        assert_eq!(result.counts, reference.counts, "{shards} shards: served counts");
        assert!(
            log.iter().any(|e| e.kind == EventKind::Shard(ShardRecord::Started { job: 0, shards })),
            "{shards} shards: the smallest sufficient group; log: {log:?}"
        );
        assert!(result.stats.comm_messages > 0, "{shards} shards: the QFT mixes global qubits");

        let group = ClusterEngine::a100_cluster(shards as usize);
        let mut run = ShardedRun::<f64>::new(&group, &native, &opts).expect("admissible");
        run.advance(usize::MAX).expect("no faults armed");
        assert_eq!(run.state().amplitudes(), dense.amplitudes(), "{shards} shards: gathered");
        assert!(run.dist().exchanges() > 0);
    }
}

/// The same identities at the benchmark's own size, outside tier-1
/// (`scripts/check.sh` runs it by name, `--release -- --ignored`): at
/// n = 18 over four shards a slice is 2^16 amplitudes — 1 MiB, past
/// where the kernel pool starts splitting a slice pass — and a QCKP
/// generation is 64 container chunks written from the slices where they
/// lie. Served counts under `checkpoint_interval: 8` (the
/// `sharded_ckpt` workload's shape), gathered amplitudes, and a run
/// resumed from the generation at cursor 24 are all bitwise the dense
/// run's.
#[test]
#[ignore = "minutes in a debug build; scripts/check.sh runs it by name with --release"]
fn an_eighteen_qubit_job_is_bitwise_dense_over_four_shards() {
    let (n, shards) = (18u32, 4u32);
    let mut circuit = qft_circuit(n, &QftOptions::default());
    circuit.measure_all();
    let (native, _) = decompose_to_native(&circuit);
    let config = || ServeConfig { workers: 1, sweep_width: 0, ..Default::default() };
    let served = |config: ServeConfig| {
        let service = Service::start(config);
        let id = service
            .submit(JobSpec::new(circuit.clone()).shots(4000).seed(31))
            .job_id()
            .expect("admitted");
        let outcome = service.wait(id).unwrap();
        let result = outcome.result().expect("completes").clone();
        service.shutdown();
        (result, service.events_for(id))
    };
    let (reference, _) = served(config());
    let mut slice_device = GpuDevice::a100_40gb();
    slice_device.memory_bytes = (16u128 << n) / u128::from(shards);
    let (result, log) = served(ServeConfig {
        backend: BackendKind::Gpu(slice_device),
        shard: Some(ShardConfig::default()),
        checkpoint_interval: 8,
        checkpoint_generations: 8,
        ..config()
    });
    assert_eq!(result.counts, reference.counts, "served counts");
    let started = EventKind::Shard(ShardRecord::Started { job: 0, shards });
    assert!(log.iter().any(|e| e.kind == started), "the smallest sufficient group; log: {log:?}");
    let wrote = |at: u64| {
        log.iter().any(|e| match e.kind {
            EventKind::Checkpoint(CheckpointRecord::Wrote { cursor, .. }) => cursor == at,
            _ => false,
        })
    };
    assert!(wrote(8) && wrote(24), "a generation every eight steps; log: {log:?}");

    let opts = RunOptions {
        shots: 0,
        fusion_width: config().fusion_width,
        sweep_width: 0,
        keep_state: true,
        ..Default::default()
    };
    let dense: RunOutput<f64> = GpuDevice::a100_40gb().run(&native, &opts).unwrap();
    let dense = dense.state.expect("state kept");
    let group = ClusterEngine::a100_cluster(shards as usize);
    let mut run = ShardedRun::<f64>::new(&group, &native, &opts).expect("admissible");
    run.advance(24).expect("no faults armed");
    let generation = run.encode_checkpoint();
    assert_eq!(generation, encode_checkpoint(&run.checkpoint()), "written without gathering");
    run.advance(usize::MAX).expect("no faults armed");
    assert_eq!(run.state().amplitudes(), dense.amplitudes(), "gathered");
    assert!(run.dist().exchanges() > 0);

    let ck = decode_checkpoint::<f64>(&generation).expect("verifies");
    let mut resumed = ShardedRun::resume(&group, &native, &opts, ck).expect("same plan");
    assert_eq!(resumed.cursor(), 24);
    resumed.advance(usize::MAX).expect("no faults armed");
    assert_eq!(resumed.state().amplitudes(), dense.amplitudes(), "resumed from cursor 24");
}

/// `ClusterEngine::run` is the shard walker driven straight through:
/// stepping the same walker one block at a time lands on the same
/// amplitudes, the same counts and the same `ExecStats` counters, bit
/// for bit — in program order and in sweep-reordered order, over 2 and
/// 4 devices, measuring every qubit or a permuted subset.
#[test]
fn cluster_engine_run_is_the_shard_walker_driven_straight_through() {
    let counters = |stats: &ExecStats| ExecStats {
        elapsed: Duration::ZERO,
        sampling_elapsed: Duration::ZERO,
        ..stats.clone()
    };
    let (native, _) = decompose_to_native(&beyond_one_worker());
    let mut wide = Circuit::new(7);
    for q in 0..7 {
        wide.h(q).ry(0.1 + 0.2 * f64::from(q), q);
    }
    for q in 0..6 {
        wide.cx(q, q + 1).cr1(0.3, q, (q + 3) % 7);
    }
    let (mut partial, _) = wide.split_measurements();
    partial.measure(6).measure(2).measure(4).measure(0);
    wide.measure_all();
    let circuits = [(&native, 1usize), (&native, 2), (&wide, 3), (&partial, 2)];
    for (circuit, fusion_width) in circuits {
        for sweep_width in [0usize, 3, 12] {
            for devices in [2usize, 4] {
                let label = format!(
                    "n={} fusion {fusion_width} sweep {sweep_width} {devices} devices",
                    circuit.num_qubits()
                );
                let opts = RunOptions {
                    shots: 500,
                    seed: 41,
                    fusion_width,
                    sweep_width,
                    sweep_reorder: true,
                    ..Default::default()
                };
                let engine = ClusterEngine::a100_cluster(devices);
                let whole: RunOutput<f64> = engine.run(circuit, &opts).expect("mgpu run");

                let mut run = ShardedRun::<f64>::new(&engine, circuit, &opts).expect("admissible");
                let mut steps = 0;
                while !run.is_done() {
                    run.advance(1).expect("no faults armed");
                    steps += 1;
                }
                assert_eq!(steps, run.steps_total(), "{label}");
                let state = run.state();
                assert_eq!(
                    whole.state.as_ref().expect("state kept").amplitudes(),
                    state.amplitudes(),
                    "amplitudes ({label})"
                );
                let measured = circuit.measured_qubits();
                let probs = marginal_probs(&state, &measured);
                let counts = sample_from_probs(&probs, &measured, &opts.sampling());
                assert_eq!(whole.counts, counts, "counts ({label})");
                assert_eq!(counters(&whole.stats), counters(&run.stats()), "counters ({label})");
                assert!(whole.stats.comm_messages > 0, "{label}");
            }
        }
    }
}

/// One stepper contract, checked once over both walkers through the
/// trait alone: `advance(0)` applies one step rather than stalling,
/// `advance(usize::MAX)` from a mid-run cursor saturates and finishes the
/// schedule rather than wrapping to "apply nothing", a finished run
/// advances no further, and `into_state` hands back the amplitudes the
/// engine's straight-through run keeps.
#[test]
fn both_walkers_keep_the_one_stepper_contract() {
    fn check<S: Stepper<f64>>(what: &str, fresh: impl Fn() -> S, straight: RunOutput<f64>)
    where
        S::Fault: std::fmt::Debug,
    {
        let mut whole = fresh();
        whole.advance(usize::MAX).expect("healthy");
        let total = whole.cursor();
        assert!(whole.is_done() && total > 2, "{what}: {total} steps");
        whole.advance(1).expect("healthy");
        assert_eq!(whole.cursor(), total, "{what}: past the end");

        let mut run = fresh();
        run.advance(0).expect("healthy");
        assert_eq!(run.cursor(), 1, "{what}: advance(0)");
        run.advance(usize::MAX).expect("healthy");
        assert!(run.is_done(), "{what}: advance(usize::MAX) from cursor 1");
        assert_eq!(run.cursor(), total, "{what}");
        let kept = straight.state.expect("state kept");
        assert_eq!(run.into_state().amplitudes(), kept.amplitudes(), "{what}: into_state");
    }
    let (native, _) = decompose_to_native(&beyond_one_worker());
    let opts = RunOptions { fusion_width: 1, sweep_width: 0, ..Default::default() };
    let device = GpuDevice::a100_40gb();
    let dense = || SegmentedRun::<f64>::new(&device, &native, &opts).expect("plan");
    check("dense", dense, device.run(&native, &opts).expect("dense run"));
    let group = ClusterEngine::a100_cluster(2);
    let sharded = || ShardedRun::<f64>::new(&group, &native, &opts).expect("admissible");
    check("sharded", sharded, group.run(&native, &opts).expect("mgpu run"));
}
