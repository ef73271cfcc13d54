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

use qgear_cluster::ClusterEngine;
use qgear_ir::transpile::decompose_to_native;
use qgear_ir::Circuit;
use qgear_num::{Complex, Scalar};
use qgear_serve::{
    Admission, BackendKind, CheckpointRecord, Engine, EventKind, JobSpec, ServeConfig, Service,
    ServiceEvent, ShardConfig, ShardRecord,
};
use qgear_statevec::backend::{marginal_probs, sample_from_probs};
use qgear_statevec::{
    decode_checkpoint, encode_checkpoint, plan, ExecStats, GpuDevice, PlannerCosts, RunOptions,
    RunOutput, SegmentMode, SegmentedRun, Simulator, Stepper,
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

/// The `sharded_ckpt` benchmark shape: an `ry` layer, then the QFT,
/// every qubit measured.
fn qft_after_ry_layer(n: u32) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.ry(0.3 + 0.37 * f64::from(q), q);
    }
    c.compose(&qft_circuit(n, &QftOptions::default())).expect("same register width");
    c.measure_all();
    c
}

/// A worker that holds exactly one slice of an `n`-qubit fp64 state
/// split `shards` ways.
fn slice_device(n: u32, shards: u32) -> GpuDevice {
    let mut device = GpuDevice::a100_40gb();
    device.memory_bytes = (16u128 << n) / u128::from(shards);
    device
}

/// What the service runs a job with at its default widths: fusion
/// width 5, sweep width 12, priced.
fn served_options() -> RunOptions {
    let cfg = ServeConfig::default();
    RunOptions {
        shots: 0,
        fusion_width: cfg.fusion_width,
        sweep_width: cfg.sweep_width,
        keep_state: true,
        planner_costs: PlannerCosts::host_reference(),
        ..Default::default()
    }
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

/// What a walker charges for its passes: kernels, sweeps, bytes and
/// arithmetic.
fn pass_counters(stats: &ExecStats) -> (u64, u64, u128, u128) {
    (stats.kernels_launched, stats.sweeps_executed, stats.bytes_touched, stats.flops)
}

/// A native circuit of `gates` seeded `h` / `ry` / `rz` / `cx` gates.
fn random_native(n: u32, gates: usize, seed: u64) -> Circuit {
    let mut c = Circuit::new(n);
    let mut s = seed | 1;
    let mut rnd = move |m: u64| {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (s >> 33) % m
    };
    for _ in 0..gates {
        match rnd(4) {
            0 => c.h(rnd(u64::from(n)) as u32),
            1 => c.ry(rnd(628) as f64 / 100.0, rnd(u64::from(n)) as u32),
            2 => c.rz(rnd(628) as f64 / 100.0, rnd(u64::from(n)) as u32),
            _ => {
                let a = rnd(u64::from(n)) as u32;
                c.cx(a, (a + 1 + rnd(u64::from(n) - 1) as u32) % n)
            }
        };
    }
    c
}

/// Every amplitude's bits.
fn bits<T: Scalar>(amps: &[Complex<T>]) -> Vec<u64> {
    amps.iter().flat_map(|a| [a.re.to_f64().to_bits(), a.im.to_f64().to_bits()]).collect()
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

    // The served configuration: the service's default fusion width 5 and
    // sweep width 12, priced, on a 16-qubit fp64 register above the
    // crossover, where the priced plan re-fuses kernels narrower than the
    // pin's and sweeps group them. The group walks that plan, one segment
    // a step, and lands on the dense service's counts bit for bit.
    let served = qft_after_ry_layer(16);
    let (native, _) = decompose_to_native(&served);
    let digest = |costs: &PlannerCosts| plan(&native, 5, 12, true, costs, 16).unwrap().digest;
    assert_ne!(
        digest(&PlannerCosts::host_reference()),
        digest(&PlannerCosts::pinned(SegmentMode::Sweep)),
        "the priced plan must differ from the pin's, or this case shows nothing"
    );
    let spec = || JobSpec::new(served.clone()).shots(4000).seed(17);
    let dense = Service::start(ServeConfig { workers: 1, ..Default::default() });
    let id = dense.submit(spec()).job_id().expect("dense admits");
    let reference = dense.wait(id).unwrap().result().expect("dense completes").clone();
    dense.shutdown();
    let runs = [
        ("clean", None),
        ("worker death", Some(FaultKind::ShardWorkerDeath { shard: 1, after_segments: 1 })),
        ("corrupted exchange", Some(FaultKind::LinkFault { exchange: 0, corrupt: true })),
    ];
    for (what, fault) in runs {
        let schedule = fault
            .map_or(FaultSchedule::none(), |kind| FaultSchedule::none().with_event(0, 0, kind));
        let sharded = Service::start(ServeConfig {
            workers: 1,
            backend: BackendKind::Gpu(slice_device(16, 2)),
            shard: Some(ShardConfig::default()),
            checkpoint_interval: 4,
            schedule,
            ..Default::default()
        });
        let id = sharded.submit(spec()).job_id().expect("admitted sharded");
        let result = sharded.wait(id).unwrap().result().expect("the sharded run completes").clone();
        sharded.shutdown();
        let what = format!("served configuration, {what}");
        assert_eq!(result.counts, reference.counts, "{what}: counts");
        assert_eq!(result.stats.kernels_launched, reference.stats.kernels_launched, "{what}");
        let log = sharded.events_for(id);
        let started = EventKind::Shard(ShardRecord::Started { job: 0, shards: 2 });
        assert!(log.iter().any(|e| e.kind == started), "{what}: log: {log:?}");
        let struck = log.iter().any(|e| match (fault, &e.kind) {
            (None, EventKind::Shard(ShardRecord::Completed { .. })) => true,
            (Some(FaultKind::ShardWorkerDeath { .. }), EventKind::Checkpoint(r)) => {
                matches!(r, CheckpointRecord::Resumed { cursor: 4, .. })
            }
            (Some(_), EventKind::Shard(ShardRecord::LinkFault { .. })) => true,
            _ => false,
        });
        assert!(struck, "{what}: the fault must actually have struck; log: {log:?}");
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
/// schedule through a shard group's walker (2 and 4 shards) gathers
/// amplitudes bitwise equal to straight dense execution of the same fused
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
            let mut run = group.stepper::<f64>(&native, &opts).expect("admissible");
            while !run.is_done() {
                run.advance(1).expect("no faults armed");
            }
            let gathered = run.state().gather();
            assert_eq!(
                gathered.amplitudes(),
                dense.amplitudes(),
                "gather() must be bit-identical to dense (fusion {fusion_width}, \
                 {shards} shards)"
            );
            let dist = run.state();
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
        let mut run = group.stepper::<f64>(&native, &opts).expect("admissible");
        run.advance(usize::MAX).expect("no faults armed");
        assert_eq!(run.state().gather().amplitudes(), dense.amplitudes(), "{shards} shards: gathered");
        assert!(run.state().exchanges() > 0);
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
    let mut run = group.stepper::<f64>(&native, &opts).expect("admissible");
    run.advance(24).expect("no faults armed");
    let mut generation = Vec::new();
    run.encode_checkpoint(&mut generation);
    assert_eq!(generation, encode_checkpoint(&run.checkpoint()), "written without gathering");
    let mut recycled = vec![0xAA; 2 * generation.len()];
    run.encode_checkpoint(&mut recycled);
    assert_eq!(recycled, generation, "written into a recycled buffer");
    run.advance(usize::MAX).expect("no faults armed");
    assert_eq!(run.state().gather().amplitudes(), dense.amplitudes(), "gathered");
    assert!(run.state().exchanges() > 0);

    let ck = decode_checkpoint::<f64>(&generation).expect("verifies");
    let mut resumed = group.resume(&native, &opts, ck).expect("same plan");
    assert_eq!(resumed.cursor(), 24);
    resumed.advance(usize::MAX).expect("no faults armed");
    assert_eq!(resumed.state().gather().amplitudes(), dense.amplitudes(), "resumed from cursor 24");
}

/// The served configuration's tier at the benchmark's own size, outside
/// tier-1 beside its sweep-0 sibling above: the `sharded_ckpt` shape (an
/// `ry` layer, then the QFT, fp64) at n = 18 over four shards, at the
/// service's default widths — fusion 5, sweep 12, priced — and
/// `checkpoint_interval: 8`. The group walks the dense service's plan,
/// so its served counts and kernel count are the dense service's, and a
/// run resumed from the generation at cursor 8 gathers the dense
/// amplitudes bit for bit.
#[test]
#[ignore = "minutes in a debug build; scripts/check.sh runs it by name with --release"]
fn an_eighteen_qubit_job_at_the_served_configuration_is_bitwise_dense_over_four_shards() {
    let (n, shards) = (18u32, 4u32);
    let circuit = qft_after_ry_layer(n);
    let (native, _) = decompose_to_native(&circuit);
    let served = |config: ServeConfig| {
        let service = Service::start(ServeConfig { workers: 1, ..config });
        let id = service
            .submit(JobSpec::new(circuit.clone()).shots(4000).seed(31))
            .job_id()
            .expect("admitted");
        let result = service.wait(id).unwrap().result().expect("completes").clone();
        service.shutdown();
        (result, service.events_for(id))
    };
    let (reference, _) = served(ServeConfig::default());
    let (result, log) = served(ServeConfig {
        backend: BackendKind::Gpu(slice_device(n, shards)),
        shard: Some(ShardConfig::default()),
        checkpoint_interval: 8,
        checkpoint_generations: 8,
        ..Default::default()
    });
    assert_eq!(result.counts, reference.counts, "served counts");
    assert_eq!(result.stats.kernels_launched, reference.stats.kernels_launched, "kernels");
    assert_eq!(pass_counters(&result.stats), pass_counters(&reference.stats), "passes charged");
    let started = EventKind::Shard(ShardRecord::Started { job: 0, shards });
    assert!(log.iter().any(|e| e.kind == started), "the smallest sufficient group; log: {log:?}");
    let wrote_at_8 = log.iter().any(|e| {
        matches!(e.kind, EventKind::Checkpoint(CheckpointRecord::Wrote { cursor: 8, .. }))
    });
    assert!(wrote_at_8, "a generation at cursor 8; log: {log:?}");

    let opts = served_options();
    let dense: RunOutput<f64> = GpuDevice::a100_40gb().run(&native, &opts).unwrap();
    let dense = dense.state.expect("state kept");
    let group = ClusterEngine::a100_cluster(shards as usize);
    let mut run = group.stepper::<f64>(&native, &opts).expect("admissible");
    run.advance(8).expect("no faults armed");
    let mut generation = Vec::new();
    run.encode_checkpoint(&mut generation);
    run.advance(usize::MAX).expect("no faults armed");
    assert_eq!(run.state().gather().amplitudes(), dense.amplitudes(), "gathered");

    let ck = decode_checkpoint::<f64>(&generation).expect("verifies");
    let mut resumed = group.resume(&native, &opts, ck).expect("same plan");
    assert_eq!(resumed.cursor(), 8);
    resumed.advance(usize::MAX).expect("no faults armed");
    assert_eq!(resumed.state().gather().amplitudes(), dense.amplitudes(), "resumed from cursor 8");
}

/// The walker's two placements share one plan, one fingerprint and one
/// cursor, so a generation either one writes resumes on the other. At
/// the served configuration (fusion width 5, sweep width 12, priced) on
/// a 16-qubit fp64 register above the crossover, a resident
/// `SegmentedRun` generation finishes on a 2-shard group
/// (`ClusterEngine::resume`), and a group's generation finishes
/// resident, both bit for bit on the dense straight-through state and
/// with its kernel and gate counts.
#[test]
fn a_generation_resumes_across_engines_at_the_served_configuration() {
    let circuit = qft_after_ry_layer(16);
    let (native, _) = decompose_to_native(&circuit);
    let opts = served_options();
    let device = GpuDevice::a100_40gb();
    let group = ClusterEngine::a100_cluster(2);
    let straight: RunOutput<f64> = device.run(&native, &opts).unwrap();
    let expect = straight.state.as_ref().expect("state kept").amplitudes();

    let mut dense = SegmentedRun::<f64>::new(&device, &native, &opts).expect("plan");
    let mut sharded = group.stepper::<f64>(&native, &opts).expect("admissible");
    assert_eq!(dense.steps_total(), sharded.steps_total(), "one plan");
    assert_eq!(dense.fingerprint(), sharded.fingerprint(), "one fingerprint");
    let k = dense.steps_total() / 2;
    assert!(k > 1 && k < dense.steps_total());
    let Ok(()) = dense.advance(k);
    sharded.advance(k).expect("no faults armed");
    let (mut from_dense, mut from_sharded) = (Vec::new(), Vec::new());
    dense.encode_checkpoint(&mut from_dense);
    sharded.encode_checkpoint(&mut from_sharded);

    let ck = decode_checkpoint::<f64>(&from_dense).expect("verifies");
    let mut onto_group = group.resume(&native, &opts, ck).expect("dense → sharded");
    assert_eq!(onto_group.cursor(), k);
    onto_group.advance(usize::MAX).expect("no faults armed");
    assert_eq!(onto_group.state().gather().amplitudes(), expect, "dense generation, finished sharded");

    let ck = decode_checkpoint::<f64>(&from_sharded).expect("verifies");
    let onto_device = SegmentedRun::resume(&device, &native, &opts, ck);
    let mut onto_device = onto_device.expect("sharded → dense");
    assert_eq!(onto_device.cursor(), k);
    let Ok(()) = onto_device.advance(usize::MAX);
    assert_eq!(onto_device.state().amplitudes(), expect, "sharded generation, finished dense");
    sharded.advance(usize::MAX).expect("no faults armed");

    for (what, stats) in [
        ("sharded", onto_group.stats()),
        ("dense", onto_device.stats()),
        ("sharded straight through", sharded.stats()),
    ] {
        assert_eq!(stats.kernels_launched, straight.stats.kernels_launched, "{what}: kernels");
        assert_eq!(stats.gates_applied, straight.stats.gates_applied, "{what}: gates");
        assert_eq!(stats.flops, straight.stats.flops, "{what}: arithmetic");
    }
    // A pass is charged as the resident walker charges a sweep: one
    // sweep, one pass of bytes. At this width a group's remap sends a
    // qubit global that a later kernel of its segment mixes, so the
    // segment is two passes — each charged as one.
    let (group, dense) = (sharded.stats(), &straight.stats);
    let extra = group.sweeps_executed - dense.sweeps_executed;
    let pass_bytes = dense.bytes_touched / u128::from(dense.sweeps_executed);
    assert_eq!(group.bytes_touched, dense.bytes_touched + u128::from(extra) * pass_bytes, "{extra} extra passes");
}

/// `ClusterEngine::run` is the shard walker driven straight through:
/// stepping the same walker one segment at a time lands on the same
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

                let mut run = engine.stepper::<f64>(circuit, &opts).expect("admissible");
                let mut steps = 0;
                while !run.is_done() {
                    run.advance(1).expect("no faults armed");
                    steps += 1;
                }
                assert_eq!(steps, run.steps_total(), "{label}");
                let state = run.state().gather();
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

/// One stepper contract, checked once over both placements of the one
/// walker through the trait alone: `advance(0)` applies one step rather than stalling,
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
    let sharded = || group.stepper::<f64>(&native, &opts).expect("admissible");
    check("sharded", sharded, group.run(&native, &opts).expect("mgpu run"));
}

/// A group runs the resident walker's chains at every fusion and sweep
/// width. A kernel whose global operands stay unmixed runs, on each
/// slice, the sub-table that slice's rank bits select, and that
/// selection keeps the block's mixed bits: a selection that crosses none
/// of them still runs the block's `mul_add` chain, never a phase table
/// whose rounding differs. Random 12-qubit circuits at fusion widths 2
/// and 3 and sweep widths 0 and 8, over 2, 4 and 16 shards, gather the
/// dense walker's amplitudes bit for bit.
#[test]
fn a_group_is_bitwise_dense_at_every_fusion_and_sweep_width() {
    for seed in [5u64, 6] {
        let circuit = random_native(12, 480, seed);
        for fusion_width in [2usize, 3] {
            for sweep_width in [0usize, 8] {
                let opts =
                    RunOptions { shots: 0, fusion_width, sweep_width, keep_state: true, ..Default::default() };
                let dense: RunOutput<f64> = GpuDevice::a100_40gb().run(&circuit, &opts).unwrap();
                let dense = bits(dense.state.expect("state kept").amplitudes());
                for shards in [2usize, 4, 16] {
                    let group: RunOutput<f64> = ClusterEngine::a100_cluster(shards).run(&circuit, &opts).unwrap();
                    let gathered = bits(group.state.expect("state kept").amplitudes());
                    let label = format!("seed {seed}, fusion {fusion_width}, sweep {sweep_width}, {shards} shards");
                    assert!(gathered == dense, "{label}: gathered amplitudes differ from the dense walker's");
                }
            }
        }
    }
}

/// Segments an exchange splits: when a later kernel of a plan segment
/// mixes a qubit an earlier remap sent global, the group runs the
/// kernels before that exchange as one pass and the rest as another.
/// Random circuits at n = 14 over 4 shards (fusion 5, sweep 12) and at
/// n = 10 over 16 shards (fusion 3, sweep 6), at both precisions: the
/// group charges the dense walker's kernels and arithmetic and one sweep
/// per pass, more passes than segments; it gathers the dense walker's
/// amplitudes bit for bit; and a generation written at every segment
/// boundary finishes on a fresh group bit for bit too.
#[test]
fn segments_split_at_an_exchange_stay_bitwise_dense_and_resume_at_every_boundary() {
    fn check<T: Scalar>(n: u32, shards: usize, fusion_width: usize, sweep_width: usize, seed: u64) {
        let circuit = random_native(n, 30 * n as usize, seed);
        let opts = RunOptions { shots: 0, fusion_width, sweep_width, keep_state: true, ..Default::default() };
        let label = format!("n={n} over {shards} shards, fusion {fusion_width}, sweep {sweep_width}, {}", T::PRECISION_NAME);
        let dense: RunOutput<T> = GpuDevice::a100_40gb().run(&circuit, &opts).unwrap();
        let expect = bits(dense.state.as_ref().expect("state kept").amplitudes());
        let group = ClusterEngine::a100_cluster(shards);
        let mut run = group.stepper::<T>(&circuit, &opts).expect("admissible");
        let (mut extra, mut generations) = (0, Vec::new());
        while !run.is_done() {
            let mut generation = Vec::new();
            run.encode_checkpoint(&mut generation);
            generations.push(generation);
            let before = run.stats().sweeps_executed;
            run.advance(1).expect("no faults armed");
            extra += run.stats().sweeps_executed - before - 1;
        }
        assert!(extra > 0, "{label}: no segment split");
        let stats = run.stats();
        assert_eq!(stats.sweeps_executed, dense.stats.sweeps_executed + extra, "{label}: {extra} extra passes");
        assert_eq!((stats.kernels_launched, stats.flops), (dense.stats.kernels_launched, dense.stats.flops), "{label}");
        assert!(bits(run.state().gather().amplitudes()) == expect, "{label}: gathered");
        for (cursor, generation) in generations.iter().enumerate() {
            let ck = decode_checkpoint::<T>(generation).expect("verifies");
            let mut resumed = group.resume(&circuit, &opts, ck).expect("same plan");
            resumed.advance(usize::MAX).expect("no faults armed");
            assert!(bits(resumed.state().gather().amplitudes()) == expect, "{label}: resumed at {cursor}");
            // A fresh group starts from the identity layout, so where
            // its segments split is its own: only the work is the same.
            let resumed = resumed.stats();
            assert_eq!((resumed.kernels_launched, resumed.flops), (stats.kernels_launched, stats.flops), "{label}");
        }
    }
    check::<f64>(14, 4, 5, 12, 1);
    check::<f32>(14, 4, 5, 12, 1);
    check::<f64>(10, 16, 3, 6, 14);
    check::<f32>(10, 16, 3, 6, 14);
}
