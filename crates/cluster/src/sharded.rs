//! A shard group's walker: admission, then the one walker,
//! [`qgear_statevec::SegmentedRun`], over a [`DistributedState`].
//!
//! There is one walker and two placements of the amplitudes. A state
//! pooled over a device group differs from one resident on one device
//! only in where a kernel runs, which is its
//! [`Placement`](qgear_statevec::Placement) impl
//! (`distributed.rs`); the cursor, the plan, the fingerprint, the
//! checkpoint, resume-and-verify, the counters, the telemetry and the
//! [`qgear_statevec::Stepper`] contract are the walker's, the same code
//! on either. What lives here is what only a group has: admission (a
//! power-of-two group, fused kernels, a local width that holds them, a
//! slice that fits one device), the fusion width clamped to the local
//! width, and the engine's clock. [`ClusterEngine::stepper`] builds the
//! walker at step zero; [`ClusterEngine::resume`] rebuilds it and
//! installs a checkpoint. [`ClusterEngine::run`](crate::ClusterEngine)
//! hands the first to the one straight-through tail,
//! [`qgear_statevec::straight_through`]; `qgear-serve` drives both in
//! segments, snapshots them at segment boundaries, and migrates the
//! snapshots between shard groups.
//!
//! A group asks the plan builder, with the caller's selector, for the
//! plan a resident walker would run, and runs each of its segments as
//! the resident walker does, one tile pass, here per slice (two where an
//! exchange falls between its kernels). So the gathered state is the
//! resident walker's bit for bit at every fusion width and sweep width
//! of the fused plans, and a cursor — a count of plan segments on either
//! placement — resumes on either. The per-gate plan has no fused kernels
//! to place on slices, so a group refuses it.
//!
//! Everything here is deterministic, so equal `(circuit, options,
//! precision)` rebuild byte-identical schedules and a cursor is portable
//! across runs — and across group widths, since gathered amplitudes are
//! width-independent.

use crate::comm::ClusterTopology;
use crate::distributed::DistributedState;
use crate::engine::ClusterEngine;
use qgear_ir::{fusion, Circuit};
use qgear_num::Scalar;
use qgear_statevec::checkpoint::{CheckpointError, StateCheckpoint};
use qgear_statevec::planner::SegmentMode;
use qgear_statevec::{RunOptions, SegmentedRun, SimError};

/// Admission checks for `circuit` pooled over `engine`'s devices, and
/// the fusion width its plan is built at: the group must be a power of
/// two, the plan must fuse, every kernel must be remappable onto local
/// bits, and one slice must fit one device. The width is the one `opts`
/// selects for a resident walker, clamped to the local width.
fn admitted_width<T: Scalar>(
    engine: &ClusterEngine,
    circuit: &Circuit,
    opts: &RunOptions,
) -> Result<usize, SimError> {
    let n = circuit.num_qubits();
    if !engine.num_devices.is_power_of_two() {
        return Err(SimError::UnsupportedGate(format!(
            "mgpu requires a power-of-two device count, got {}",
            engine.num_devices
        )));
    }
    if opts.planner_costs.force_mode == Some(SegmentMode::Unfused) {
        return Err(SimError::UnsupportedGate(
            "a shard group runs fused kernels; the per-gate plan has none".to_owned(),
        ));
    }
    let p = engine.num_devices.trailing_zeros();
    // Kernels execute on local bits after remapping, so the fusion
    // window cannot exceed the local width; two local bits are the
    // floor (a CX kernel needs both operands resident).
    if p > n || n - p < 2 {
        return Err(SimError::TooManyQubits(n));
    }
    let local_bytes = (1u128 << (n - p)) * (2 * T::BYTES) as u128;
    let limit = opts.memory_limit.unwrap_or(engine.device.memory_bytes);
    if local_bytes > limit {
        return Err(SimError::OutOfMemory { required: local_bytes, limit });
    }
    Ok(opts.fusion_width.clamp(1, fusion::MAX_FUSION_WIDTH).min((n - p) as usize))
}

impl ClusterEngine {
    /// The walker over `|0…0⟩` pooled over this group, at step zero of
    /// the plan the options select, once the group is found able to hold
    /// `circuit`. Its plan build and its steps are timed on the engine's
    /// clock.
    pub fn stepper<T: Scalar>(
        &self,
        circuit: &Circuit,
        opts: &RunOptions,
    ) -> Result<SegmentedRun<T, DistributedState<T>>, SimError> {
        let width = admitted_width::<T>(self, circuit, opts)?;
        let n = circuit.num_qubits();
        let state = DistributedState::zero(n, self.num_devices, ClusterTopology::default());
        SegmentedRun::start(state, circuit, opts, width, &opts.planner_costs, self.clock.clone())
    }

    /// Rebuild the walker for `(circuit, opts)` on this group and install
    /// a checkpoint into it ([`SegmentedRun::restore`]): refused unless it
    /// matches the plan exactly, then re-scattered onto the group.
    pub fn resume<T: Scalar>(
        &self,
        circuit: &Circuit,
        opts: &RunOptions,
        ck: StateCheckpoint<T>,
    ) -> Result<SegmentedRun<T, DistributedState<T>>, CheckpointError> {
        let run = self.stepper(circuit, opts);
        run.map_err(|e| CheckpointError::Rebuild(e.to_string()))?.restore(ck)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommError;
    use qgear_statevec::checkpoint::{decode, encode};
    use qgear_statevec::Stepper;

    fn job_circuit() -> Circuit {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).ry(0.3, 2).cx(1, 2).cr1(0.7, 2, 3).cx(2, 3).measure_all();
        c
    }

    /// Program order, one gate per kernel.
    fn opts() -> RunOptions {
        RunOptions { shots: 100, seed: 7, fusion_width: 1, sweep_width: 0, ..Default::default() }
    }

    fn group(shards: usize) -> ClusterEngine {
        ClusterEngine::a100_cluster(shards)
    }

    #[test]
    fn checkpoint_roundtrip_resumes_bit_identically() {
        let c = job_circuit();
        let mut whole = group(2).stepper::<f64>(&c, &opts()).unwrap();
        while !whole.is_done() {
            whole.advance(1).expect("healthy fabric");
        }

        let mut front = group(2).stepper::<f64>(&c, &opts()).unwrap();
        front.advance(3).expect("healthy fabric");
        let bytes = encode(&front.checkpoint());
        let ck = decode::<f64>(&bytes).expect("decodes");
        // Resume onto a *wider* group: amplitudes are width-independent.
        let mut back = group(4).resume(&c, &opts(), ck).expect("resumes");
        assert_eq!(back.cursor(), 3);
        while !back.is_done() {
            back.advance(1).expect("healthy fabric");
        }
        assert_eq!(
            whole.state().gather().amplitudes(),
            back.state().gather().amplitudes(),
            "resumed run must be bit-identical"
        );
        assert_eq!(whole.stats().gates_applied, back.stats().gates_applied);
    }

    #[test]
    fn the_gather_free_writer_emits_the_gathering_writers_bytes_at_every_cursor() {
        // Thirteen qubits over four shards (two container chunks of
        // fp64), mixing both global qubits: the identity layout, whole
        // slices in a new order, and local bits displaced so that a chunk
        // is many short runs all come by.
        let mut c = Circuit::new(13);
        c.h(0).h(12).cx(12, 0).ry(0.4, 11).cx(0, 11).h(3).cr1(0.3, 12, 2).cx(11, 12);
        c.ry(1.1, 0).h(10).cx(10, 12).measure_all();
        fn check<T: Scalar>(run: &SegmentedRun<T, DistributedState<T>>) {
            let gathered = encode(&run.checkpoint());
            let mut fresh = Vec::new();
            run.encode_checkpoint(&mut fresh);
            assert_eq!(fresh, gathered, "cursor {}", run.cursor());
            // A recycled buffer: longer than the write, full of 0xAA.
            let mut recycled = vec![0xAA; gathered.len() + 4096];
            run.encode_checkpoint(&mut recycled);
            assert_eq!(recycled, gathered, "recycled, cursor {}", run.cursor());
        }
        let mut run = group(4).stepper::<f64>(&c, &opts()).unwrap();
        let mut layouts = std::collections::BTreeSet::new();
        check(&run);
        while !run.is_done() {
            run.advance(1).expect("healthy fabric");
            check(&run);
            layouts.insert((0..13).map(|q| run.state().physical(q)).collect::<Vec<_>>());
        }
        assert!(layouts.len() >= 3, "the layout was remapped: {layouts:?}");
        assert!(layouts.iter().any(|l| l[10] != 10), "a local bit displaced: {layouts:?}");
        // fp32, whose chunks hold twice the amplitudes: |0…0⟩, which
        // compresses, and a state that does not.
        let mut run = group(4).stepper::<f32>(&c, &opts()).unwrap();
        check(&run);
        run.advance(7).expect("healthy fabric");
        check(&run);
    }

    #[test]
    fn resume_refuses_a_mismatched_plan() {
        let c = job_circuit();
        let mut run = group(2).stepper::<f64>(&c, &opts()).unwrap();
        run.advance(2).expect("healthy fabric");
        let ck = run.checkpoint();
        // A different fusion width rebuilds a different schedule.
        let wider = RunOptions { fusion_width: 2, ..opts() };
        match group(2).resume(&c, &wider, ck) {
            Err(CheckpointError::PlanMismatch { .. }) => {}
            Err(other) => panic!("wrong rejection: {other:?}"),
            Ok(_) => panic!("a mismatched plan must not resume"),
        }
    }

    #[test]
    fn resume_reports_the_rebuilt_schedule_on_a_step_count_mismatch() {
        let c = job_circuit();
        let run = group(2).stepper::<f64>(&c, &opts()).unwrap();
        let rebuilt = run.steps_total() as u64;
        let mut ck = run.checkpoint();
        ck.steps_total = rebuilt + 5;
        ck.cursor = rebuilt + 2;
        // The same verdict, field for field, as `SegmentedRun::resume`.
        match group(2).resume(&c, &opts(), ck) {
            Err(CheckpointError::CursorOutOfRange { cursor, steps_total }) => {
                assert_eq!((cursor, steps_total), (rebuilt + 2, rebuilt));
            }
            other => panic!("wrong verdict: {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn link_fault_surfaces_and_leaves_the_cursor_at_the_last_good_block() {
        let mut run = group(4).stepper::<f64>(&job_circuit(), &opts()).unwrap();
        run.state_mut().inject_link_fault(0, CommError::Dropped);
        let mut failed_at = None;
        while !run.is_done() {
            if let Err(e) = run.advance(1) {
                failed_at = Some((e, run.cursor()));
                break;
            }
        }
        let (err, cursor) = failed_at.expect("the armed fault must fire");
        assert_eq!(err, CommError::Dropped);
        assert!(cursor < run.steps_total());
    }

    /// A native circuit of `gates` random `ry` / `rz` / `cx` triples.
    fn random_circuit(n: u32, gates: usize, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        let mut s = seed | 1;
        let mut rnd = move |m: u64| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) % m
        };
        for q in 0..n {
            c.h(q);
        }
        for _ in 0..gates {
            let a = rnd(u64::from(n)) as u32;
            let b = (a + 1 + rnd(u64::from(n) - 1) as u32) % n;
            c.ry(rnd(628) as f64 / 100.0, a).rz(rnd(628) as f64 / 100.0, b).cx(a, b);
        }
        c
    }

    /// A fault between two kernels of one segment: the kernels before it
    /// ran, but a segment is charged only once it completes, so the
    /// cursor and the counters both name the last completed segment, and
    /// the generation written there finishes on a fresh group bitwise on
    /// the resident walker's state. Fourteen qubits over four shards at
    /// sweep width 12: a kernel on qubit 12 or 13 is a segment of its
    /// own, its remap sends a low qubit global, and a later sweep's
    /// kernel on that qubit exchanges mid-sweep.
    #[test]
    fn a_link_fault_inside_a_segment_charges_only_the_completed_segments() {
        use qgear_statevec::{plan, plan_fingerprint, GpuDevice, RunOutput, Simulator};
        let c = random_circuit(14, 40, 3);
        let opts = RunOptions { fusion_width: 2, sweep_width: 12, ..Default::default() };
        let fresh = || group(4).stepper::<f64>(&c, &opts).unwrap();
        // The walker's plan, rebuilt from the same inputs: same digest.
        let plan = plan(&c, 2, 12, opts.sweep_reorder, &opts.planner_costs, 16).unwrap();
        assert_eq!(fresh().fingerprint(), plan_fingerprint(&c, 8, plan.digest));
        // Replay the plan kernel by kernel on a bare group to find an
        // exchange that a later segment's second or later kernel makes.
        let mut probe = DistributedState::<f64>::zero(14, 4, ClusterTopology::default());
        let mut armed = None;
        'segments: for (segment, seg) in plan.segments.iter().enumerate() {
            for (kernel, &ki) in seg.sweep.kernels.iter().enumerate() {
                let before = probe.exchanges();
                probe.apply_block(&plan.blocks[ki]).expect("healthy fabric");
                if segment > 0 && kernel > 0 && probe.exchanges() > before {
                    armed = Some((segment, kernel, before));
                    break 'segments;
                }
            }
        }
        let (segment, kernel, exchange) =
            armed.expect("a sweep whose later kernel mixes a global bit");

        let mut run = fresh();
        run.state_mut().inject_link_fault(exchange, CommError::Dropped);
        let mut generation = Vec::new();
        let err = loop {
            run.encode_checkpoint(&mut generation);
            match run.advance(1) {
                Err(err) => break err,
                Ok(()) => assert!(!run.is_done(), "the armed fault must fire"),
            }
        };
        assert_eq!(err, CommError::Dropped);
        assert_eq!(run.cursor(), segment, "the cursor names the last completed segment");
        let completed: usize = plan.segments[..segment].iter().map(|s| s.sweep.kernels.len()).sum();
        assert_eq!(
            run.stats().kernels_launched,
            completed as u64,
            "kernels 0..{kernel} of segment {segment} ran but are not charged"
        );

        let ck = decode::<f64>(&generation).expect("decodes");
        assert_eq!(ck.cursor, segment as u64);
        let mut resumed = group(4).resume(&c, &opts, ck).expect("same plan");
        resumed.advance(usize::MAX).expect("a fresh group runs clean");
        let dense: RunOutput<f64> = GpuDevice::a100_40gb().run(&c, &opts).unwrap();
        assert_eq!(resumed.stats().kernels_launched, dense.stats.kernels_launched);
        let dense = dense.state.expect("state kept");
        assert_eq!(resumed.into_state().amplitudes(), dense.amplitudes(), "resumed at the fault");
    }

    #[test]
    fn conservation_messages_are_twice_exchanges() {
        let mut run = group(4).stepper::<f64>(&job_circuit(), &opts()).unwrap();
        while !run.is_done() {
            run.advance(2).expect("healthy fabric");
        }
        let traffic = run.state().traffic();
        assert_eq!(traffic.total_messages(), 2 * run.state().exchanges());
        assert!(traffic.total_bytes() > 0, "4 qubits over 4 devices must exchange");
    }
}
