//! Cross-backend differential suite for the sweep-scheduled hot path.
//!
//! Four ways to produce the same physics, compared pairwise on arbitrary
//! circuits:
//!
//! 1. the sequential reference simulator (`qgear_ir::reference`),
//! 2. the unfused Aer-like CPU baseline (`AerCpuBackend`, the planner's
//!    per-gate plan),
//! 3. the fused GPU engine with sweep scheduling off (`sweep_width: 0`),
//! 4. the fused GPU engine with sweep scheduling on (the default).
//!
//! Beyond tolerance agreement, order-preserving sweep schedules
//! (`sweep_reorder: false`) must be **bit-identical** to plain fused
//! execution: sweeps then only group adjacent kernels into one state
//! pass without changing the arithmetic or its order. The suite also
//! pins seed determinism of batched sampling and keeps the cluster and
//! serving layers in the comparison so sweep scheduling stays honest
//! everywhere it is enabled.
//!
//! Every GPU run walks one `qgear_statevec::planner::ExecutionPlan`,
//! and its selector (`PlannerCosts::force_mode`) joins the comparison
//! on the same terms: priced execution agrees at tolerance on any
//! circuit, a plan pinned to one mode is bit-identical to that mode's
//! kernels applied by hand outside the planner, checkpoint/resume
//! through `SegmentedRun` is bit-identical at every segment boundary of
//! pinned and priced plans alike, and the engine's one kernel
//! (`GpuDevice::apply_block`: a diagonal table, or a mul-add chain that
//! skips the entries that are exactly zero) matches the IR's dense
//! reference on random gates of each structure class
//! (diagonal/permutation/controlled).
//!
//! # SIMD differential tier
//!
//! Every kernel also has a lane-vectorized implementation
//! (`qgear_statevec::simd`), toggled by the process-global
//! `set_simd_enabled` switch. The lane kernels replicate the scalar
//! complex arithmetic operation-for-operation, so the contract is
//! **fp64 AND fp32 bitwise identity** — strictly stronger than the
//! ≤4-ULP bar a tolerance-based tier would set; no ULP allowance is
//! needed anywhere. The tier diffs SIMD-on vs SIMD-off executions of
//! whole runs (fused, sweep, planned, served, checkpoint-resume) and of
//! individual kernels of each structure class, including remainder/tail shapes
//! (states too small to fill one lane vector, kernels whose target bits
//! sit below the lane width) where the scalar fallback must engage.

use proptest::prelude::*;
use qgear_cluster::ClusterEngine;
use qgear_ir::schedule::{self, SweepOptions};
use qgear_ir::{fusion, reference, transpile, Circuit};
use qgear_num::approx::{approx_eq_up_to_phase, max_deviation};
use qgear_num::complex::Complex;
use qgear_num::Scalar;
use qgear_serve::{JobSpec, ServeConfig, Service};
use qgear_statevec::backend::{marginal_probs, sample_from_probs};
use qgear_statevec::{
    decode_checkpoint, encode_checkpoint, straight_through, AerCpuBackend, GpuDevice, PlannerCosts,
    RunOptions, RunOutput, SamplingConfig, SegmentMode, SegmentedRun, SimError, Simulator, Stepper,
};
use qgear_telemetry::clock::WallClock;
use qgear_statevec::{set_simd_enabled, simd_enabled};
use qgear_workloads::qft::{qft_circuit, QftOptions};
use qgear_workloads::random::{generate_random_gate_list, RandomCircuitSpec};
use std::sync::Mutex;

/// Strategy: an arbitrary circuit over 2..=`max_qubits` qubits drawn
/// from the full user-facing gate set (transpiled to native before use).
fn arb_circuit(max_qubits: u32, max_gates: usize) -> impl Strategy<Value = Circuit> {
    (2..=max_qubits, 0..=max_gates)
        .prop_flat_map(|(n, len)| {
            let gate = (0u8..12, 0..n, 1..n, -6.3..6.3f64);
            (Just(n), proptest::collection::vec(gate, len))
        })
        .prop_map(|(n, gates)| {
            let mut c = Circuit::new(n);
            for (kind, a, boff, theta) in gates {
                let b = (a + boff) % n;
                match kind {
                    0 => {
                        c.h(a);
                    }
                    1 => {
                        c.x(a);
                    }
                    2 => {
                        c.rx(theta, a);
                    }
                    3 => {
                        c.ry(theta, a);
                    }
                    4 => {
                        c.rz(theta, a);
                    }
                    5 => {
                        c.p(theta, a);
                    }
                    6 => {
                        c.t(a);
                    }
                    7 => {
                        c.u(theta, theta * 0.5, -theta, a);
                    }
                    8 => {
                        c.cx(a, b);
                    }
                    9 => {
                        c.cz(a, b);
                    }
                    10 => {
                        c.cr1(theta, a, b);
                    }
                    _ => {
                        c.swap(a, b);
                    }
                }
            }
            c
        })
}

/// Default knobs under an explicit selector: a pin, or the priced plan.
fn selected(planner_costs: PlannerCosts) -> RunOptions {
    RunOptions { keep_state: true, planner_costs, ..Default::default() }
}

/// Run a circuit on the GPU engine at f64 with explicit sweep knobs.
fn gpu_state(circ: &Circuit, sweep_width: usize, sweep_reorder: bool) -> Vec<Complex<f64>> {
    let opts = RunOptions { keep_state: true, sweep_width, sweep_reorder, ..Default::default() };
    let out: RunOutput<f64> = GpuDevice::a100_40gb().run(circ, &opts).expect("gpu run");
    out.state.expect("state kept").amplitudes().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Reference, Aer, plain-fused GPU, and sweep-fused GPU agree on any
    /// circuit; the order-preserving sweep mode is bit-identical to
    /// plain fused execution.
    #[test]
    fn four_paths_agree_on_any_circuit(circ in arb_circuit(5, 30)) {
        let (native, _) = transpile::decompose_to_native(&circ);
        let expect = reference::run(&native);

        let aer: RunOutput<f64> = AerCpuBackend
            .run(&native, &RunOptions { keep_state: true, ..Default::default() })
            .expect("aer run");
        let aer = aer.state.expect("state kept");
        prop_assert!(approx_eq_up_to_phase(aer.amplitudes(), &expect, 1e-9));

        let fused = gpu_state(&native, 0, false);
        prop_assert!(approx_eq_up_to_phase(&fused, &expect, 1e-9));

        let swept = gpu_state(&native, schedule::DEFAULT_SWEEP_WIDTH, true);
        prop_assert!(approx_eq_up_to_phase(&swept, &expect, 1e-9));

        // Order-preserving sweeps replay the exact same arithmetic in
        // the exact same order: equality is bitwise, not approximate.
        let grouped = gpu_state(&native, schedule::DEFAULT_SWEEP_WIDTH, false);
        for (a, b) in fused.iter().zip(grouped.iter()) {
            prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
            prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
        }

        // The priced plan joins the agreement on any circuit, no matter
        // which per-segment modes the cost model picks.
        let planned_opts = selected(PlannerCosts::host_reference());
        let planned: RunOutput<f64> =
            GpuDevice::a100_40gb().run(&native, &planned_opts).expect("planned run");
        let planned = planned.state.expect("state kept");
        prop_assert!(approx_eq_up_to_phase(planned.amplitudes(), &expect, 1e-9));
    }

    /// The per-gate plan — `AerCpuBackend`, and the `Unfused` pin on the
    /// simulated GPU — executes exactly the baseline's loops: one
    /// `AerCpuBackend::apply_gate` per unitary gate in source order,
    /// replayed here by hand outside the planner, bit for bit.
    #[test]
    fn per_gate_plan_is_apply_gate_replayed_in_source_order(circ in arb_circuit(5, 40)) {
        let (native, _) = transpile::decompose_to_native(&circ);
        let mut by_hand = vec![Complex::<f64>::ZERO; 1 << native.num_qubits()];
        by_hand[0] = Complex::ONE;
        for g in native.gates().iter().filter(|g| g.is_unitary_op()) {
            AerCpuBackend::apply_gate(&mut by_hand, g);
        }

        // Aer reads no planner option: a priced selector changes nothing.
        let aer: RunOutput<f64> = AerCpuBackend.run(&native, &selected(PlannerCosts::host_reference()))
            .expect("aer run");
        let pinned: RunOutput<f64> = GpuDevice::a100_40gb()
            .run(&native, &selected(PlannerCosts::pinned(SegmentMode::Unfused)))
            .expect("pinned run");
        for out in [aer, pinned] {
            let state = out.state.expect("state kept");
            for (a, b) in by_hand.iter().zip(state.amplitudes().iter()) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    /// A plan pinned to sweep mode — which the default options are —
    /// executes exactly the fixed sweep path: fuse, schedule, one
    /// `apply_sweep` per scheduled sweep, replayed here by hand outside
    /// the planner, bit for bit.
    #[test]
    fn planner_forced_sweep_is_bit_identical_to_fixed_sweep_mode(circ in arb_circuit(5, 40)) {
        let (native, _) = transpile::decompose_to_native(&circ);
        let (unitary, _) = native.split_measurements();
        let program = fusion::try_fuse(&unitary, fusion::DEFAULT_FUSION_WIDTH).expect("fusable");
        let mut fixed = vec![Complex::<f64>::ZERO; 1 << native.num_qubits()];
        fixed[0] = Complex::ONE;
        for sweep in &schedule::sweeps(&program, &SweepOptions::default()).sweeps {
            let kernels: Vec<_> =
                sweep.kernels.iter().map(|&ki| (&program.blocks[ki], program.blocks[ki].qubits.as_slice())).collect();
            GpuDevice::apply_sweep(&mut [fixed.as_mut_slice()], &kernels);
        }

        let default = RunOptions { keep_state: true, ..Default::default() };
        for opts in [selected(PlannerCosts::pinned(SegmentMode::Sweep)), default] {
            let planned: RunOutput<f64> =
                GpuDevice::a100_40gb().run(&native, &opts).expect("planned run");
            let planned = planned.state.expect("state kept");
            for (a, b) in fixed.iter().zip(planned.amplitudes().iter()) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    /// `schedule::sweeps` is a legal reorder on arbitrary 8-qubit
    /// circuits: the plan validates (partition, width caps, pairwise
    /// commutation across sweep boundaries) and executing the reordered
    /// program reproduces the original state.
    #[test]
    fn sweep_schedule_is_a_legal_reorder(circ in arb_circuit(8, 60)) {
        let (native, _) = transpile::decompose_to_native(&circ);
        let (unitary, _) = native.split_measurements();
        let program = fusion::try_fuse(&unitary, 5).expect("fusable");
        let opts = SweepOptions::default();
        let plan = schedule::sweeps(&program, &opts);
        prop_assert!(plan.validate(&program, &opts).is_ok(), "illegal schedule");
        prop_assert_eq!(plan.num_kernels(), program.blocks.len());

        let reordered = plan.reorder_program(&program);
        let mut original = reference::zero_state(native.num_qubits());
        program.apply_to_state(&mut original);
        let mut permuted = reference::zero_state(native.num_qubits());
        reordered.apply_to_state(&mut permuted);
        prop_assert!(
            max_deviation(&original, &permuted) < 1e-9,
            "reorder changed the unitary by {}",
            max_deviation(&original, &permuted)
        );
    }
}

/// A dense, normalized, deterministic pseudo-random state so kernel
/// comparisons exercise every amplitude (|0…0⟩ would leave most of the
/// state zero and hide scatter/gather bugs).
fn rich_state(num_qubits: u32, seed: u64) -> Vec<Complex<f64>> {
    let dim = 1usize << num_qubits;
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((s >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
    };
    let mut amps: Vec<Complex<f64>> =
        (0..dim).map(|_| Complex::new(next(), next())).collect();
    let norm = amps.iter().map(|c| c.re * c.re + c.im * c.im).sum::<f64>().sqrt();
    for a in &mut amps {
        a.re /= norm;
        a.im /= norm;
    }
    amps
}

/// Fuse a circuit and check the engine's kernel for every block — a
/// diagonal table, or a mul-add chain over the entries that are not
/// exactly zero — against the IR's reference application of the block's
/// whole table on a rich state; `admissible` pins which matrix shapes
/// the gate pool may legally produce.
fn assert_kernel_matches_dense(
    circ: &Circuit,
    seed: u64,
    admissible: impl Fn(&fusion::FusedBlock) -> bool,
) {
    let (native, _) = transpile::decompose_to_native(circ);
    let (unitary, _) = native.split_measurements();
    let program = fusion::try_fuse(&unitary, 5).expect("fusable");
    for block in &program.blocks {
        assert!(admissible(block), "gate pool produced an unexpected block on {:?}", block.qubits);
        let mut dense = rich_state(native.num_qubits(), seed);
        let mut kernel = dense.clone();
        block.apply_to_state(&mut dense);
        GpuDevice::apply_block(&mut kernel, block);
        assert!(
            max_deviation(&dense, &kernel) < 1e-12,
            "kernel on {:?} deviates {} from dense apply",
            block.qubits,
            max_deviation(&dense, &kernel)
        );
    }
}

/// True when every column of the block's matrix has one entry above
/// round-off (a transpiled `x` is `rx(π)`, whose zeros are `6e-17`): a
/// (phased) permutation.
fn is_permutation(block: &fusion::FusedBlock) -> bool {
    let dim = 1usize << block.qubits.len();
    (0..dim).all(|c| (0..dim).filter(|&r| block.entry(r, c).norm() > 1e-15).count() == 1)
}

/// Strategy: circuits drawn only from diagonal gates.
fn diagonal_circuit(max_qubits: u32, max_gates: usize) -> impl Strategy<Value = Circuit> {
    (2..=max_qubits, 1..=max_gates)
        .prop_flat_map(|(n, len)| {
            let gate = (0u8..5, 0..n, 1..n, -6.3..6.3f64);
            (Just(n), proptest::collection::vec(gate, len))
        })
        .prop_map(|(n, gates)| {
            let mut c = Circuit::new(n);
            for (kind, a, boff, theta) in gates {
                let b = (a + boff) % n;
                match kind {
                    0 => {
                        c.rz(theta, a);
                    }
                    1 => {
                        c.p(theta, a);
                    }
                    2 => {
                        c.t(a);
                    }
                    3 => {
                        c.cz(a, b);
                    }
                    _ => {
                        c.cr1(theta, a, b);
                    }
                }
            }
            c
        })
}

/// Strategy: circuits drawn only from classical permutation gates.
fn permutation_circuit(max_qubits: u32, max_gates: usize) -> impl Strategy<Value = Circuit> {
    (2..=max_qubits, 1..=max_gates)
        .prop_flat_map(|(n, len)| {
            let gate = (0u8..3, 0..n, 1..n);
            (Just(n), proptest::collection::vec(gate, len))
        })
        .prop_map(|(n, gates)| {
            let mut c = Circuit::new(n);
            for (kind, a, boff) in gates {
                let b = (a + boff) % n;
                match kind {
                    0 => {
                        c.x(a);
                    }
                    1 => {
                        c.cx(a, b);
                    }
                    _ => {
                        c.swap(a, b);
                    }
                }
            }
            c
        })
}

/// Strategy: circuits that only ever mix qubit 0 (rotations on it,
/// controls elsewhere), so multi-qubit fused blocks carry unmixed
/// control qubits — the shape the controlled kernel specializes.
fn controlled_circuit(max_qubits: u32, max_gates: usize) -> impl Strategy<Value = Circuit> {
    (3..=max_qubits, 2..=max_gates)
        .prop_flat_map(|(n, len)| {
            let gate = (0u8..3, 1..n, -6.3..6.3f64);
            (Just(n), proptest::collection::vec(gate, len))
        })
        .prop_map(|(n, gates)| {
            let mut c = Circuit::new(n);
            for (kind, b, theta) in gates {
                match kind {
                    0 => {
                        c.ry(theta, 0);
                    }
                    1 => {
                        c.cx(b, 0);
                    }
                    _ => {
                        c.cr1(theta, b, 0);
                    }
                }
            }
            c
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Diagonal gate pools fuse into diagonal kernels, and the
    /// phase-multiply table matches the dense reference.
    #[test]
    fn diagonal_kernels_match_dense_apply(
        circ in diagonal_circuit(5, 24),
        seed in 0u64..1_000,
    ) {
        assert_kernel_matches_dense(&circ, seed, |b| b.mixed() == 0);
    }

    /// Permutation gate pools fuse into permutation matrices (one of
    /// which may be the identity), and the zero-skipping group kernel
    /// they run as matches the dense reference.
    #[test]
    fn permutation_kernels_match_dense_apply(
        circ in permutation_circuit(5, 24),
        seed in 0u64..1_000,
    ) {
        assert_kernel_matches_dense(&circ, seed, is_permutation);
    }

    /// Pools that only mix one qubit produce controlled (or narrower)
    /// kernels, and the factored group kernel matches the dense
    /// reference.
    #[test]
    fn controlled_kernels_match_dense_apply(
        circ in controlled_circuit(5, 24),
        seed in 0u64..1_000,
    ) {
        assert_kernel_matches_dense(&circ, seed, |b| b.mixed_support_mask() & !1 == 0);
    }
}

/// The factored kernel on a deterministic known-controlled block —
/// guarantees it is exercised even if a proptest draw happens to
/// produce nothing but narrower shapes.
#[test]
fn controlled_kernel_matches_dense_on_a_known_block() {
    let mut c = Circuit::new(3);
    c.ry(0.4, 0).cx(1, 0).cr1(0.7, 2, 0);
    let (native, _) = transpile::decompose_to_native(&c);
    let (unitary, _) = native.split_measurements();
    let program = fusion::try_fuse(&unitary, 3).expect("fusable");
    assert_eq!(program.blocks.len(), 1, "expected one 3-qubit block");
    let block = &program.blocks[0];
    assert!(block.mixed() != 0 && !is_permutation(block));
    assert_eq!(
        block.mixed().count_ones(),
        1,
        "two exact controls: the kernel factors into four 2x2 sub-unitaries"
    );
    let mut dense = rich_state(3, 9);
    let mut kernel = dense.clone();
    block.apply_to_state(&mut dense);
    GpuDevice::apply_block(&mut kernel, block);
    assert!(max_deviation(&dense, &kernel) < 1e-12);
}

/// A served QFT is lowered first: each `cr1` becomes `rz·rz·cx·rz·cx`,
/// whose `cx` pair mixes the target while a block grows and cancels to
/// a phase by the time it closes. Every closed block's mask is the exact
/// one — the bits some nonzero entry of its dense matrix crosses — so
/// the phase-only blocks run as diagonal tables.
#[test]
fn lowered_qft_blocks_mix_exactly_the_bits_their_entries_cross() {
    let n = 13;
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.ry(0.3 + 0.17 * f64::from(q), q);
    }
    for i in (0..n).rev() {
        c.h(i);
        for j in (0..i).rev() {
            c.cr1(std::f64::consts::TAU / f64::powi(2.0, (i - j + 1) as i32), j, i);
        }
    }
    for q in 0..n / 2 {
        c.swap(q, n - 1 - q);
    }
    let (native, _) = transpile::decompose_to_native(&c);
    let program = fusion::try_fuse(&native, 5).expect("fusable");
    assert_eq!(program.blocks.len(), 15);
    for (i, b) in program.blocks.iter().enumerate() {
        let dim = 1usize << b.qubits.len();
        let mut crossed = 0;
        for r in 0..dim {
            for col in 0..dim {
                let e = b.entry(r, col);
                if e.re != 0.0 || e.im != 0.0 {
                    crossed |= r ^ col;
                }
            }
        }
        assert_eq!(b.mixed(), crossed, "block {i} on {:?}", b.qubits);
    }
    assert_eq!(program.blocks.iter().filter(|b| b.mixed() == 0).count(), 2, "diagonal kernels");
}

/// The per-gate plan fuses nothing, so it runs what fusion refuses: a
/// `ccx` circuit under the `Unfused` pin matches the reference, while
/// the `Sweep` pin still asks for a transpile first.
#[test]
fn a_toffoli_circuit_runs_under_the_unfused_pin() {
    let mut c = Circuit::new(4);
    c.h(0).h(1).ry(0.7, 3).ccx(0, 1, 2).cx(2, 3).ccx(3, 2, 0).rz(-0.4, 1);
    let expect = reference::run(&c);
    let pinned: RunOutput<f64> = GpuDevice::a100_40gb()
        .run(&c, &selected(PlannerCosts::pinned(SegmentMode::Unfused)))
        .expect("the per-gate plan runs ccx");
    let worst = max_deviation(pinned.state.expect("state kept").amplitudes(), &expect);
    assert!(worst < 1e-12, "{worst}");
    let swept = GpuDevice::a100_40gb().run(&c, &selected(PlannerCosts::pinned(SegmentMode::Sweep)));
    assert!(matches!(swept, Err::<RunOutput<f64>, _>(SimError::UnsupportedGate(_))));
}

/// fp32 execution of the sweep-fused hot path tracks fp64 within single
/// precision accumulation error; fp64 tracks the reference far tighter.
/// The gap between the two tolerances is what makes the precision knob a
/// real trade-off rather than a no-op.
#[test]
fn fp32_tracks_fp64_within_single_precision_tolerance() {
    let circ = qft_circuit(10, &QftOptions::default());
    let opts = RunOptions { keep_state: true, ..Default::default() };

    let f64_out: RunOutput<f64> = GpuDevice::a100_40gb().run(&circ, &opts).expect("fp64");
    let f64_amps = f64_out.state.expect("state").amplitudes().to_vec();
    let expect = reference::run(&circ);
    assert!(approx_eq_up_to_phase(&f64_amps, &expect, 1e-12), "fp64 off the reference");

    let f32_out: RunOutput<f32> = GpuDevice::a100_40gb().run(&circ, &opts).expect("fp32");
    let widened: Vec<Complex<f64>> = f32_out
        .state
        .expect("state")
        .amplitudes()
        .iter()
        .map(|c| Complex::new(f64::from(c.re), f64::from(c.im)))
        .collect();
    assert!(
        approx_eq_up_to_phase(&widened, &expect, 1e-4),
        "fp32 deviation {} exceeds single-precision tolerance",
        max_deviation(&widened, &expect)
    );
    assert!(
        !approx_eq_up_to_phase(&widened, &expect, 1e-13),
        "fp32 matching at 1e-13 means the precision knob is a no-op"
    );
}

/// The multi-GPU cluster engine runs the same sweep-scheduled defaults
/// and must land on the single-device state.
#[test]
fn cluster_matches_single_device_with_sweeps_enabled() {
    let circ = generate_random_gate_list(&RandomCircuitSpec {
        num_qubits: 9,
        num_blocks: 80,
        seed: 11,
        measure: false,
    });
    let opts = RunOptions { keep_state: true, ..Default::default() };
    let single: RunOutput<f64> = GpuDevice::a100_40gb().run(&circ, &opts).expect("gpu");
    let multi: RunOutput<f64> =
        ClusterEngine::a100_cluster(4).run(&circ, &opts).expect("cluster");
    let single = single.state.expect("state");
    let multi = multi.state.expect("state");
    assert!(
        approx_eq_up_to_phase(multi.amplitudes(), single.amplitudes(), 1e-10),
        "cluster diverged from single device"
    );
}

/// Run `circ` segmented, interrupting at schedule step `k`: snapshot,
/// serialize through the full checkpoint codec (the same wire bytes a
/// crashed worker leaves behind), decode, resume a *fresh* plan from the
/// verified checkpoint, and finish in segments of `interval` steps.
fn interrupted_at<T: Scalar>(
    circ: &Circuit,
    opts: &RunOptions,
    k: usize,
    interval: usize,
) -> RunOutput<T> {
    let device = GpuDevice::a100_40gb();
    let mut run = SegmentedRun::<T>::new(&device, circ, opts).expect("plan");
    for _ in 0..k {
        let Ok(()) = run.advance(1);
    }
    assert_eq!(run.cursor(), k, "interruption point off the boundary");
    let bytes = encode_checkpoint(&run.checkpoint());
    drop(run); // the "crash": only the wire bytes survive
    let ck = decode_checkpoint::<T>(&bytes).expect("intact checkpoint verifies");
    let mut resumed = SegmentedRun::resume(&device, circ, opts, ck).expect("resume");
    while !resumed.is_done() {
        let Ok(()) = resumed.advance(interval);
    }
    let Ok(out) = straight_through(resumed, circ, opts, &WallClock::new());
    out
}

/// Checkpoint/restore is invisible to the physics: interrupting at
/// *every* schedule boundary — including cursor 0 and the final step —
/// and resuming through the codec reproduces the straight-through run
/// bit for bit (amplitudes and sampled counts), across the plain-fused
/// schedule, both sweep modes, and the adaptive planner (natural and
/// pinned to each forced mode), at fp64. The straight-through run is the
/// same stepper at one unbounded segment, so this pins
/// interval-invariance: the resumed half finishes both in short segments
/// and in a single `usize::MAX` one.
#[test]
fn resume_at_every_segment_boundary_is_bit_identical_to_straight_through() {
    let circ = qft_circuit(6, &QftOptions::default());
    let mut circ = circ;
    circ.measure_all();

    // Sweep width 3 (vs the default 12) keeps several sweeps in the
    // schedule, so there are genuine mid-run boundaries to interrupt at.
    let fixed = |sweep_width, sweep_reorder| RunOptions {
        shots: 512,
        seed: 23,
        fusion_width: 2,
        sweep_width,
        sweep_reorder,
        keep_state: true,
        ..Default::default()
    };
    let with = |planner_costs, opts| RunOptions { planner_costs, ..opts };
    let configs = [
        ("fused", fixed(0, false)),
        ("ordered sweeps", fixed(3, false)),
        ("reordered sweeps", fixed(3, true)),
        ("planned", with(PlannerCosts::host_reference(), fixed(3, true))),
        ("planned per block", with(PlannerCosts::host_reference(), fixed(0, true))),
        ("planned forced unfused", with(PlannerCosts::pinned(SegmentMode::Unfused), fixed(3, false))),
        ("planned forced sweep", with(PlannerCosts::pinned(SegmentMode::Sweep), fixed(3, true))),
    ];

    for (label, opts) in configs {
        let straight: RunOutput<f64> =
            GpuDevice::a100_40gb().run(&circ, &opts).expect("straight run");
        let straight_amps = straight.state.as_ref().expect("state").amplitudes();
        let steps = SegmentedRun::<f64>::new(&GpuDevice::a100_40gb(), &circ, &opts)
            .expect("plan")
            .steps_total();
        assert!(steps >= 2, "{label}: schedule too short to interrupt meaningfully");

        for (k, interval) in (0..=steps).flat_map(|k| [(k, 2), (k, usize::MAX)]) {
            let resumed = interrupted_at::<f64>(&circ, &opts, k, interval);
            let resumed_amps = resumed.state.as_ref().expect("state").amplitudes();
            for (a, b) in straight_amps.iter().zip(resumed_amps.iter()) {
                assert_eq!(
                    a.re.to_bits(),
                    b.re.to_bits(),
                    "amplitude divergence at boundary {k} ({label})"
                );
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
            assert_eq!(
                straight.counts.as_ref().unwrap().map,
                resumed.counts.unwrap().map,
                "counts divergence at boundary {k} ({label})"
            );
            assert_eq!(straight.stats.gates_applied, resumed.stats.gates_applied);
            assert_eq!(straight.stats.kernels_launched, resumed.stats.kernels_launched);
        }
    }
}

/// The fp32 segmented path behaves the same way: resume is bit-identical
/// to its own straight-through fp32 run at every boundary, and the
/// resumed fp32 state tracks the fp64 reference within single-precision
/// tolerance — interruption never amplifies the precision gap.
#[test]
fn fp32_resume_is_self_consistent_and_tracks_fp64_within_tolerance() {
    let mut circ = qft_circuit(6, &QftOptions::default());
    circ.measure_all();
    let opts = RunOptions {
        shots: 256,
        seed: 5,
        fusion_width: 2,
        keep_state: true,
        ..Default::default()
    };

    let straight32: RunOutput<f32> = GpuDevice::a100_40gb().run(&circ, &opts).expect("fp32");
    let straight32_amps = straight32.state.as_ref().expect("state").amplitudes();
    let straight64: RunOutput<f64> = GpuDevice::a100_40gb().run(&circ, &opts).expect("fp64");
    let f64_amps: Vec<Complex<f64>> =
        straight64.state.as_ref().expect("state").amplitudes().to_vec();

    let steps = SegmentedRun::<f32>::new(&GpuDevice::a100_40gb(), &circ, &opts)
        .expect("plan")
        .steps_total();
    for k in 0..=steps {
        let resumed = interrupted_at::<f32>(&circ, &opts, k, 2);
        let resumed_amps = resumed.state.as_ref().expect("state").amplitudes();
        for (a, b) in straight32_amps.iter().zip(resumed_amps.iter()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits(), "fp32 divergence at boundary {k}");
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        assert_eq!(straight32.counts.as_ref().unwrap().map, resumed.counts.unwrap().map);

        let widened: Vec<Complex<f64>> = resumed_amps
            .iter()
            .map(|c| Complex::new(f64::from(c.re), f64::from(c.im)))
            .collect();
        assert!(
            approx_eq_up_to_phase(&widened, &f64_amps, 1e-4),
            "fp32 resumed at boundary {k} deviates {} from fp64",
            max_deviation(&widened, &f64_amps)
        );
    }
}

/// A served job's counts are bit-identical to evolving and sampling the
/// canonical circuit directly with the same knobs — the service's
/// evolve-once/sample-many split shares the one probability-conversion
/// point with the engines.
#[test]
fn serve_counts_match_direct_evolve_and_sample() {
    let mut circ = qft_circuit(6, &QftOptions::default());
    circ.measure_all();

    let service = Service::start(ServeConfig { workers: 1, ..Default::default() });
    let spec = JobSpec::new(circ.clone()).shots(2048).seed(77);
    let id = service.submit(spec).job_id().expect("accepted");
    let served = service.wait(id).expect("completes");
    let served = served.result().expect("success").counts.clone().expect("counts");
    service.shutdown();

    // Mirror the worker: canonicalize, evolve once, sample the marginal.
    let canonical =
        if circ.is_native() { circ.clone() } else { transpile::decompose_to_native(&circ).0 };
    let out: RunOutput<f64> = GpuDevice::a100_40gb()
        .run(&canonical, &RunOptions { shots: 0, keep_state: true, ..Default::default() })
        .expect("gpu run");
    let (_, measured) = canonical.split_measurements();
    let probs = marginal_probs(&out.state.expect("state"), &measured);
    let cfg = SamplingConfig::single(2048, 77);
    let direct = sample_from_probs(&probs, &measured, &cfg).expect("counts");
    assert_eq!(served.map, direct.map, "served counts must replay bit-identically");
}

/// A served job's counts are bit-identical to directly evolving and
/// sampling the canonical circuit with the same knobs, on a rotation
/// ladder (the QFT case is `serve_counts_match_direct_evolve_and_sample`).
#[test]
fn a_served_rotation_ladder_matches_direct_evolve_and_sample() {
    let mut circ = Circuit::new(5);
    for q in 0..5 {
        circ.h(q).ry(0.23 + 0.31 * f64::from(q), q);
    }
    for q in 0..4 {
        circ.cx(q, q + 1);
    }
    circ.measure_all();

    let service = Service::start(ServeConfig { workers: 1, ..Default::default() });
    let id = service.submit(JobSpec::new(circ.clone()).shots(1024).seed(99)).job_id();
    let served = service.wait(id.expect("accepted")).expect("completes");
    let served = served.result().expect("success").counts.clone().expect("counts");
    service.shutdown();

    // Directly: one `GpuDevice::run`, then the shared sampling pipeline.
    let canonical =
        if circ.is_native() { circ.clone() } else { transpile::decompose_to_native(&circ).0 };
    let evolve = RunOptions { shots: 0, keep_state: true, ..Default::default() };
    let direct: RunOutput<f64> =
        GpuDevice::a100_40gb().run(&canonical, &evolve).expect("gpu run");
    let (_, measured) = canonical.split_measurements();
    let probs = marginal_probs(&direct.state.expect("state"), &measured);
    let cfg = SamplingConfig::single(1024, 99);
    let replayed = sample_from_probs(&probs, &measured, &cfg).expect("counts");
    assert_eq!(served.map, replayed.map, "served counts must replay direct execution");
}

// ─────────────────────── SIMD differential tier ───────────────────────

/// Serializes tests that flip the process-global SIMD toggle, so each
/// comparison deterministically runs one side on the lane path and the
/// other on the scalar path. (A race would not corrupt results — the two
/// paths are bitwise identical — but it would silently weaken coverage.)
static SIMD_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with the SIMD toggle pinned to `on`, restoring it after.
fn with_simd<R>(on: bool, f: impl FnOnce() -> R) -> R {
    let prev = simd_enabled();
    set_simd_enabled(on);
    let out = f();
    set_simd_enabled(prev);
    out
}

fn assert_bits_eq_f64(a: &[Complex<f64>], b: &[Complex<f64>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.re.to_bits(), y.re.to_bits(), "{what}: re divergence at amp {i}");
        assert_eq!(x.im.to_bits(), y.im.to_bits(), "{what}: im divergence at amp {i}");
    }
}

fn assert_bits_eq_f32(a: &[Complex<f32>], b: &[Complex<f32>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.re.to_bits(), y.re.to_bits(), "{what}: re divergence at amp {i}");
        assert_eq!(x.im.to_bits(), y.im.to_bits(), "{what}: im divergence at amp {i}");
    }
}

/// Fuse `circ` and diff every block's SIMD-on vs SIMD-off application,
/// fp64 and fp32, bitwise on a rich state. High-qubit blocks take the
/// lane path; low-qubit and narrow blocks exercise the scalar remainder
/// fallback.
fn assert_simd_toggle_invisible_on_blocks(circ: &Circuit, seed: u64) {
    let _g = SIMD_LOCK.lock().unwrap();
    let (native, _) = transpile::decompose_to_native(circ);
    let (unitary, _) = native.split_measurements();
    let program = fusion::try_fuse(&unitary, 5).expect("fusable");
    let base64 = rich_state(native.num_qubits(), seed);
    let base32: Vec<Complex<f32>> =
        base64.iter().map(|c| Complex::new(c.re as f32, c.im as f32)).collect();
    for block in &program.blocks {
        let what = format!("block on {:?}", block.qubits);

        let (mut on, mut off) = (base64.clone(), base64.clone());
        with_simd(true, || GpuDevice::apply_block(&mut on, block));
        with_simd(false, || GpuDevice::apply_block(&mut off, block));
        assert_bits_eq_f64(&on, &off, &format!("{what} (fp64)"));

        let (mut on, mut off) = (base32.clone(), base32.clone());
        with_simd(true, || GpuDevice::apply_block(&mut on, block));
        with_simd(false, || GpuDevice::apply_block(&mut off, block));
        assert_bits_eq_f32(&on, &off, &format!("{what} (fp32)"));
    }
}

/// Move a circuit's gates onto the top qubits of a wider register, so
/// every inserted group bit clears the lane width and the lane kernels
/// are guaranteed to engage (f64x4 needs bits ≥ 2, f32x8 bits ≥ 3).
fn lifted(circ: &Circuit, total: u32) -> Circuit {
    let shift = total - circ.num_qubits();
    let mut out = Circuit::new(total);
    for gate in circ.gates() {
        let mut g = *gate;
        for q in g.qubits.iter_mut().take(g.kind.arity()) {
            *q += shift;
        }
        out.push(g).expect("lifted gate stays in range");
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Whole-run toggle invariance on arbitrary circuits: fused, sweep,
    /// and planned execution each produce bit-identical fp64 states with
    /// SIMD on and off. Drawing up to 10 qubits mixes lane-eligible
    /// kernels (high-qubit blocks) with scalar-fallback kernels
    /// (low-qubit blocks, narrow states) in one run.
    #[test]
    fn simd_toggle_is_bitwise_invisible_on_any_circuit(circ in arb_circuit(10, 40)) {
        let _g = SIMD_LOCK.lock().unwrap();
        let (native, _) = transpile::decompose_to_native(&circ);
        for (label, width, reorder) in [
            ("fused", 0usize, false),
            ("sweeps", schedule::DEFAULT_SWEEP_WIDTH, true),
        ] {
            let on = with_simd(true, || gpu_state(&native, width, reorder));
            let off = with_simd(false, || gpu_state(&native, width, reorder));
            assert_bits_eq_f64(&on, &off, label);
        }
        let planned = selected(PlannerCosts::host_reference());
        let on: RunOutput<f64> = with_simd(true, || {
            GpuDevice::a100_40gb().run(&native, &planned).expect("planned")
        });
        let off: RunOutput<f64> = with_simd(false, || {
            GpuDevice::a100_40gb().run(&native, &planned).expect("planned")
        });
        assert_bits_eq_f64(
            on.state.expect("state").amplitudes(),
            off.state.expect("state").amplitudes(),
            "planned",
        );
    }

    /// The same whole-run invariance at fp32, where the lane width is 8
    /// and the remainder condition (target bits < 3) is easier to hit.
    #[test]
    fn simd_toggle_is_bitwise_invisible_at_fp32(circ in arb_circuit(9, 30)) {
        let _g = SIMD_LOCK.lock().unwrap();
        let (native, _) = transpile::decompose_to_native(&circ);
        let opts = RunOptions { keep_state: true, ..Default::default() };
        let on: RunOutput<f32> =
            with_simd(true, || GpuDevice::a100_40gb().run(&native, &opts).expect("fp32"));
        let off: RunOutput<f32> =
            with_simd(false, || GpuDevice::a100_40gb().run(&native, &opts).expect("fp32"));
        assert_bits_eq_f32(
            on.state.expect("state").amplitudes(),
            off.state.expect("state").amplitudes(),
            "fp32 sweeps",
        );
    }

    /// Per-block toggle invariance over diagonal gate pools (the
    /// DiagTable kernel, which vectorizes even over low target bits).
    #[test]
    fn simd_diagonal_kernels_match_scalar_bitwise(
        circ in diagonal_circuit(10, 24),
        seed in 0u64..1_000,
    ) {
        assert_simd_toggle_invisible_on_blocks(&circ, seed);
    }

    /// Per-block toggle invariance over permutation gate pools (group
    /// kernels with one entry per row).
    #[test]
    fn simd_permutation_kernels_match_scalar_bitwise(
        circ in permutation_circuit(10, 24),
        seed in 0u64..1_000,
    ) {
        assert_simd_toggle_invisible_on_blocks(&circ, seed);
    }

    /// Per-block toggle invariance over single-mixed-qubit pools (the
    /// factored/controlled lane kernel with its lane-uniform sub-unitary
    /// extraction).
    #[test]
    fn simd_controlled_kernels_match_scalar_bitwise(
        circ in controlled_circuit(10, 24),
        seed in 0u64..1_000,
    ) {
        assert_simd_toggle_invisible_on_blocks(&circ, seed);
    }

    /// Per-block toggle invariance over the full gate pool (dense
    /// kernels, plus whatever narrower classes the draw produces).
    #[test]
    fn simd_dense_kernels_match_scalar_bitwise(
        circ in arb_circuit(10, 24),
        seed in 0u64..1_000,
    ) {
        assert_simd_toggle_invisible_on_blocks(&circ, seed);
    }
}

/// Tail/remainder shapes, deterministically: states too small to fill
/// one lane vector (n = 1, 2 at fp64; n ≤ 3 at fp32) and blocks whose
/// target bits sit below the lane width must fall back to the scalar
/// path and still agree bitwise under the toggle.
#[test]
fn simd_tail_shapes_fall_back_bitwise_identically() {
    // Small registers: every group count 2^(n-k) < LANES.
    for n in 1..=3u32 {
        let mut c = Circuit::new(n);
        c.h(0);
        if n > 1 {
            c.cx(0, 1).p(0.37, n - 1);
        }
        assert_simd_toggle_invisible_on_blocks(&c, 7 + u64::from(n));
    }
    // Low target bits on a wide register: enough groups, but inserted
    // bits below the lane width keep the group kernels scalar — while
    // the diagonal table still vectorizes over the same bits.
    let mut low = Circuit::new(10);
    low.h(0).ry(0.21, 1).cx(0, 1).p(0.53, 0).cr1(0.71, 0, 1).x(1).swap(0, 1);
    assert_simd_toggle_invisible_on_blocks(&low, 41);
}

/// Lane-guaranteed coverage of all four structure classes: each pool is
/// lifted onto the top qubits of a 12-qubit register, so every inserted
/// bit clears both lane widths and the vector kernels demonstrably
/// engage (not just trivially agree via the shared scalar path). The
/// width-5 pools — one dense block, one controlled block mixing a single
/// qubit, one mixing three — are the blocks `gpu.rs` pins the full-state
/// and tile drivers to each other with; they also run on the low qubits,
/// below the lane width, where the same body takes its scalar form.
#[test]
fn simd_lane_path_engages_on_all_structure_classes() {
    type PoolBuilder = fn(&mut Circuit);
    // (width, mixed qubits of the one block a width-5 pool must fuse to)
    let pools: [(u32, Option<usize>, PoolBuilder); 7] = [
        (3, None, |c| {
            c.p(0.3, 0).cr1(0.7, 1, 2).t(1).rz(-0.9, 2);
        }),
        (3, None, |c| {
            c.x(0).cx(1, 2).swap(0, 2);
        }),
        (3, None, |c| {
            c.ry(0.4, 0).cx(1, 0).cr1(0.7, 2, 0);
        }),
        (3, None, |c| {
            c.h(0).ry(0.3, 1).h(2).cx(0, 1).u(0.2, 0.1, -0.3, 2);
        }),
        (5, Some(5), |c| {
            for q in 0..5 {
                c.u(0.3 + 0.2 * f64::from(q), 0.1, -0.4, q).cx(q, (q + 1) % 5);
            }
        }),
        (5, Some(1), |c| {
            for ctl in 1..5 {
                c.ry(0.2 * f64::from(ctl), 0).cx(ctl, 0).cr1(0.5, ctl, 0);
            }
        }),
        (5, Some(3), |c| {
            for q in 0..3 {
                c.u(0.7, 0.2 * f64::from(q), 0.9, q).cx(q, (q + 1) % 3);
            }
            c.cx(3, 0).cr1(0.6, 4, 1).cx(4, 2).rz(0.3, 3);
        }),
    ];
    for (width, mixed, build) in pools {
        let mut small = Circuit::new(width);
        build(&mut small);
        if let Some(mu) = mixed {
            let blocks = fusion::try_fuse(&small, 5).expect("fusable").blocks;
            assert_eq!(blocks.len(), 1, "width-5 pool fuses to one block");
            assert_eq!(blocks[0].mixing_mask().iter().filter(|&&m| m).count(), mu);
            let mut low = Circuit::new(12);
            build(&mut low);
            assert_simd_toggle_invisible_on_blocks(&low, 13);
        }
        assert_simd_toggle_invisible_on_blocks(&lifted(&small, 12), 13);
    }
}

/// Serving under the toggle: three same-shape jobs ride a one-worker
/// `Service` once on the lane path and once on the scalar path, and every
/// published counts table is identical — dispatch sits inside the same
/// bit-identity contract as the engine.
#[test]
fn simd_toggle_is_bitwise_invisible_on_served_jobs() {
    let _g = SIMD_LOCK.lock().unwrap();
    let specs: Vec<JobSpec> = (0..3u32)
        .map(|i| {
            let mut c = Circuit::new(10);
            for q in 0..10 {
                c.h(q).ry(0.2 + 0.31 * f64::from(q) + 0.7 * f64::from(i), q);
            }
            for q in 0..9 {
                c.cx(q, q + 1).p(0.11 * f64::from(q + 1), q + 1);
            }
            c.measure_all();
            JobSpec::new(c).shots(4096).seed(17 + u64::from(i))
        })
        .collect();
    let serve = || {
        let service = Service::start(ServeConfig { workers: 1, ..Default::default() });
        let ids: Vec<_> =
            specs.iter().map(|s| service.submit(s.clone()).job_id().expect("accepted")).collect();
        let counts: Vec<_> = ids
            .iter()
            .map(|&id| {
                let outcome = service.wait(id).expect("completes");
                outcome.result().expect("success").counts.clone().expect("counts").map
            })
            .collect();
        service.shutdown();
        counts
    };
    let on = with_simd(true, serve);
    let off = with_simd(false, serve);
    assert_eq!(on, off, "served jobs must not see the SIMD toggle");
}

/// The zero-copy sweep tile pass: a dense sweep of several kernels acts
/// on low qubits only, so its tiles are contiguous state slices the
/// executor runs in place (observable via the `sweep.tiles.zero_copy`
/// counter) while staying bit-identical to both plain fused execution
/// and the scalar path.
#[test]
fn zero_copy_sweep_tiles_engage_and_stay_bit_identical() {
    let _g = SIMD_LOCK.lock().unwrap();
    // Gates over qubits 0..6 of an 8-qubit register: the sweep union is
    // the contiguous prefix [0, 1, 2, 3, 4, 5], so tiles are in-place.
    let mut c = Circuit::new(8);
    for q in 0..6 {
        c.h(q).ry(0.17 + 0.29 * f64::from(q), q);
    }
    for q in 0..5 {
        c.cx(q, q + 1);
    }
    for q in 0..6 {
        c.p(0.41 * f64::from(q + 1), q);
    }
    let opts = |w| RunOptions {
        keep_state: true,
        fusion_width: 2,
        sweep_width: w,
        sweep_reorder: false,
        ..Default::default()
    };

    qgear_telemetry::reset();
    qgear_telemetry::enable();
    let swept: RunOutput<f64> = GpuDevice::a100_40gb().run(&c, &opts(6)).expect("sweep");
    qgear_telemetry::disable();
    let snap = qgear_telemetry::snapshot();
    qgear_telemetry::reset();
    assert!(
        snap.counter(qgear_telemetry::names::SWEEP_ZERO_COPY_TILES) > 0,
        "contiguous-prefix sweep did not take the zero-copy tile path"
    );

    let fused: RunOutput<f64> = GpuDevice::a100_40gb().run(&c, &opts(0)).expect("fused");
    assert_bits_eq_f64(
        swept.state.as_ref().expect("state").amplitudes(),
        fused.state.expect("state").amplitudes(),
        "zero-copy sweep vs plain fused",
    );
    let scalar: RunOutput<f64> =
        with_simd(false, || GpuDevice::a100_40gb().run(&c, &opts(6)).expect("sweep"));
    assert_bits_eq_f64(
        swept.state.expect("state").amplitudes(),
        scalar.state.expect("state").amplitudes(),
        "zero-copy sweep vs scalar path",
    );
}

/// Checkpoint-resume into SIMD kernels: a 10-qubit run whose blocks sit
/// high enough for the lane path, interrupted at every schedule
/// boundary, resumes bit-identical to the straight-through run — and the
/// straight-through run itself is toggle-invariant, closing the loop
/// between the resume contract and the SIMD contract.
#[test]
fn resume_through_checkpoint_into_simd_kernels_is_bit_identical() {
    let _g = SIMD_LOCK.lock().unwrap();
    let mut circ = qft_circuit(10, &QftOptions::default());
    circ.measure_all();
    let opts = RunOptions {
        shots: 256,
        seed: 31,
        fusion_width: 2,
        sweep_width: 3,
        keep_state: true,
        ..Default::default()
    };

    let straight: RunOutput<f64> = GpuDevice::a100_40gb().run(&circ, &opts).expect("straight");
    let straight_amps = straight.state.as_ref().expect("state").amplitudes();
    let scalar: RunOutput<f64> =
        with_simd(false, || GpuDevice::a100_40gb().run(&circ, &opts).expect("straight"));
    assert_bits_eq_f64(
        straight_amps,
        scalar.state.expect("state").amplitudes(),
        "straight run toggle invariance",
    );

    let steps = SegmentedRun::<f64>::new(&GpuDevice::a100_40gb(), &circ, &opts)
        .expect("plan")
        .steps_total();
    assert!(steps >= 2, "schedule too short to interrupt meaningfully");
    for k in 0..=steps {
        let resumed = interrupted_at::<f64>(&circ, &opts, k, 2);
        assert_bits_eq_f64(
            straight_amps,
            resumed.state.as_ref().expect("state").amplitudes(),
            &format!("resume at boundary {k}"),
        );
        assert_eq!(straight.counts.as_ref().unwrap().map, resumed.counts.unwrap().map);
    }
}

/// Amplitude storage is cache-line aligned in both precisions, before
/// and after a run — the invariant the aligned lane loads rely on.
#[test]
fn amplitude_storage_is_cache_line_aligned_in_both_precisions() {
    use qgear_statevec::StateVector;
    let align = |p: *const u8| p as usize % qgear_num::CACHE_LINE_BYTES;
    assert_eq!(align(StateVector::<f64>::zero(10).amplitudes().as_ptr().cast()), 0);
    assert_eq!(align(StateVector::<f32>::zero(10).amplitudes().as_ptr().cast()), 0);

    let circ = qft_circuit(8, &QftOptions::default());
    let opts = RunOptions { keep_state: true, ..Default::default() };
    let out: RunOutput<f64> = GpuDevice::a100_40gb().run(&circ, &opts).expect("run");
    assert_eq!(align(out.state.expect("state").amplitudes().as_ptr().cast()), 0);
    let out: RunOutput<f32> = GpuDevice::a100_40gb().run(&circ, &opts).expect("run");
    assert_eq!(align(out.state.expect("state").amplitudes().as_ptr().cast()), 0);
}

/// Seeded values in `[-1, 1]` filling a QCrank register of `addr`
/// address and `data` data qubits, the benchmark's `qcrank` shape.
fn qcrank_values(addr: u32, data: u32, seed: u64) -> Vec<f64> {
    let mut s = seed | 1;
    (0..(data as usize) << addr)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        })
        .collect()
}

/// The QCrank encoding of [`qcrank_values`].
fn qcrank(addr: u32, data: u32, seed: u64) -> Circuit {
    use qgear_workloads::qcrank::{QcrankCodec, QcrankConfig};
    QcrankCodec::new(QcrankConfig { addr_qubits: addr, data_qubits: data }).encode(&qcrank_values(addr, data, seed))
}

/// The state QCrank encodes `values` into, in closed form: the address
/// register uniform, and data qubit `d` at address `a` in
/// `ry(θ)|0⟩ = cos(θ/2)|0⟩ + sin(θ/2)|1⟩` with `θ = acos(v)` of value
/// `d·2^addr + a`, so `ψ(a, b) = 2^(-addr/2) Π_d (cos or sin)(θ_{a,d}/2)`.
/// `O(2^n · data)`, which lets the grid reach 20 qubits at every split.
fn qcrank_state(addr: u32, values: &[f64]) -> Vec<Complex<f64>> {
    let per = 1usize << addr;
    let data = values.len() / per;
    let norm = f64::from(1u32 << addr).sqrt().recip();
    let halves: Vec<(f64, f64)> = values.iter().map(|v| (v.acos() / 2.0).sin_cos()).collect();
    (0..per << data)
        .map(|i| {
            let a = i & (per - 1);
            let amp = (0..data).fold(norm, |acc, d| {
                let (sin, cos) = halves[d * per + a];
                acc * if i >> (addr as usize + d) & 1 == 1 { sin } else { cos }
            });
            Complex::new(amp, 0.0)
        })
        .collect()
}

/// QCrank at every `(addr, data)` split of `n` qubits for `n` up to
/// `max_qubits`, run through the engine at both precisions under the
/// served plan (sweeps of up to twelve qubits, reordering), against the
/// closed-form state — itself held to `ir::reference` wherever the dense
/// reference is cheap (up to 14 qubits).
fn assert_qcrank_grid_tracks_the_reference(max_qubits: u32) {
    for n in 2..=max_qubits {
        for addr in 1..n {
            let values = qcrank_values(addr, n - addr, u64::from(n * 31 + addr));
            let c = qcrank(addr, n - addr, u64::from(n * 31 + addr));
            let expect = qcrank_state(addr, &values);
            let what = format!("qcrank {addr}+{}", n - addr);
            if n <= 14 {
                let dev = max_deviation(&reference::run(&c), &expect);
                assert!(dev < 1e-12, "{what} closed form vs ir::reference: {dev:e}");
            }
            let run64: RunOutput<f64> = GpuDevice::a100_40gb().run(&c, &RunOptions::default()).expect("fp64");
            let dev = max_deviation(run64.state.expect("state").amplitudes(), &expect);
            assert!(dev < 1e-12, "{what} fp64: {dev:e}");
            let run32: RunOutput<f32> = GpuDevice::a100_40gb().run(&c, &RunOptions::default()).expect("fp32");
            let got: Vec<Complex<f64>> = run32.state.expect("state").amplitudes().iter().map(|a| a.cast()).collect();
            let dev = max_deviation(&got, &expect);
            assert!(dev < 1e-5, "{what} fp32: {dev:e}");
        }
    }
}

/// QCrank's uniformly controlled rotations run as multiplexed kernels
/// (one table of `2×2` sub-unitaries per data qubit) and track the
/// reference at every split up to 14 qubits.
#[test]
fn qcrank_tracks_the_reference_at_every_split() {
    assert_qcrank_grid_tracks_the_reference(14);
}

/// The grid at every split up to 20 qubits — a 19-qubit address ladder
/// splits into 2048 tables of 256 — too slow for a debug build, a few
/// minutes in release (`scripts/check.sh` runs it with `--release --
/// --ignored`).
#[test]
#[ignore]
fn qcrank_tracks_the_reference_at_every_split_up_to_twenty_qubits() {
    assert_qcrank_grid_tracks_the_reference(20);
}

/// The fused shape of the benchmark's QCrank jobs: the address
/// superposition, then one `(u, μ) = (8, 1)` kernel per data qubit — a
/// uniformly controlled `ry` is one table of 256 `2×2` sub-unitaries —
/// except where the last `h` kernel takes the head of the first ladder.
#[test]
fn qcrank_fuses_into_one_multiplexed_kernel_per_data_qubit() {
    for (data, blocks, shapes) in [
        (10, 12, vec![((0, 5), 1), ((2, 4), 1), ((8, 1), 10)]),
        (4, 6, vec![((0, 5), 1), ((2, 4), 1), ((8, 1), 4)]),
    ] {
        let c = qcrank(8, data, 7);
        let program = fusion::try_fuse(&c.split_measurements().0, fusion::DEFAULT_FUSION_WIDTH).expect("fusable");
        let mut histogram: Vec<((usize, usize), usize)> = Vec::new();
        for b in &program.blocks {
            let mu = b.mixed().count_ones() as usize;
            let shape = (b.qubits.len() - mu, mu);
            match histogram.iter_mut().find(|(s, _)| *s == shape) {
                Some((_, count)) => *count += 1,
                None => histogram.push((shape, 1)),
            }
        }
        histogram.sort_unstable();
        assert_eq!(program.blocks.len(), blocks, "8+{data}");
        assert_eq!(histogram, shapes, "8+{data}");
    }
}

/// The benchmark's circuit shapes at fixed seeds, transpiled to the
/// native set as the service runs them: an `ry` layer and QFT at 13 and
/// 20 qubits, random CX blocks (14 × 60 and 20 × 100) and QCrank (8 + 4
/// and 8 + 10).
fn benchmark_shapes() -> Vec<(&'static str, Circuit)> {
    use qgear_workloads::qcrank::{QcrankCodec, QcrankConfig};
    use qgear_workloads::images;
    let qft = |n: u32| {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.ry(0.3 + 0.17 * f64::from(q), q);
        }
        c.compose(&qft_circuit(n, &QftOptions { measure: true, ..Default::default() })).expect("same width");
        c
    };
    let random = |n: u32, blocks: usize| {
        generate_random_gate_list(&RandomCircuitSpec { num_qubits: n, num_blocks: blocks, seed: 11, measure: true })
    };
    let image = QcrankCodec::new(QcrankConfig { addr_qubits: 8, data_qubits: 4 })
        .encode_image(&images::synthetic(32, 32, 5));
    vec![
        ("qft-13", qft(13)),
        ("qft-20", qft(20)),
        ("random-14", random(14, 60)),
        ("random-20", random(20, 100)),
        ("qcrank-12", image),
        ("qcrank-18", qcrank(8, 10, 7)),
    ]
}

/// The fused structure of the benchmark's shapes — kernel count, the
/// `(u, μ)` histogram and every block's `source_gates` in order — is a
/// function of the gate stream alone: a change to how the fuser builds
/// a table moves none of it.
#[test]
fn the_benchmark_circuits_keep_their_kernel_shapes() {
    type Pin = (&'static str, usize, &'static [((usize, usize), usize)], &'static [usize]);
    const PINS: [Pin; 6] = [
        (
            "qft-13",
            15,
            &[((0, 4), 3), ((0, 5), 2), ((2, 4), 1), ((4, 3), 1), ((7, 1), 5), ((8, 0), 1), ((8, 1), 1), ((9, 0), 1)],
            &[5, 5, 34, 31, 40, 31, 35, 41, 31, 31, 51, 74, 13, 6, 6],
        ),
        (
            "qft-20",
            33,
            &[((0, 4), 5), ((0, 5), 4), ((2, 4), 1), ((6, 2), 1), ((7, 1), 7), ((8, 0), 4), ((8, 1), 4), ((9, 0), 7)],
            &[
                5, 5, 5, 26, 40, 35, 41, 40, 31, 40, 31, 40, 35, 41, 35, 41, 31, 40, 31, 40, 31, 40, 41, 31, 31, 35, 67,
                74, 13, 6, 6, 6, 6,
            ],
        ),
        (
            "random-14",
            23,
            &[((0, 4), 1), ((0, 5), 8), ((1, 4), 3), ((2, 4), 11)],
            &[10, 9, 10, 9, 6, 6, 7, 10, 7, 6, 6, 7, 10, 7, 6, 10, 7, 7, 8, 7, 7, 9, 9],
        ),
        (
            "random-20",
            38,
            &[((0, 2), 1), ((0, 5), 24), ((1, 4), 5), ((2, 4), 8)],
            &[
                7, 9, 8, 9, 7, 7, 10, 9, 10, 10, 6, 6, 8, 8, 9, 9, 7, 9, 8, 7, 7, 7, 7, 8, 7, 8, 9, 10, 7, 6, 7, 9, 9, 9, 7,
                10, 7, 3,
            ],
        ),
        ("qcrank-12", 6, &[((0, 5), 1), ((2, 4), 1), ((8, 1), 4)], &[5, 10, 505, 512, 512, 512]),
        (
            "qcrank-18",
            12,
            &[((0, 5), 1), ((2, 4), 1), ((8, 1), 10)],
            &[5, 10, 505, 512, 512, 512, 512, 512, 512, 512, 512, 512],
        ),
    ];
    for ((name, c), (pin, kernels, shapes, gates)) in benchmark_shapes().into_iter().zip(PINS) {
        assert_eq!(name, pin);
        let (native, _) = transpile::decompose_to_native(&c);
        let program = fusion::try_fuse(&native.split_measurements().0, fusion::DEFAULT_FUSION_WIDTH).expect("fusable");
        let mut histogram: Vec<((usize, usize), usize)> = Vec::new();
        for b in &program.blocks {
            let mu = b.mixed().count_ones() as usize;
            let shape = (b.qubits.len() - mu, mu);
            match histogram.iter_mut().find(|(s, _)| *s == shape) {
                Some((_, count)) => *count += 1,
                None => histogram.push((shape, 1)),
            }
        }
        histogram.sort_unstable();
        assert_eq!(program.blocks.len(), kernels, "{name}");
        assert_eq!(histogram, shapes, "{name}");
        assert_eq!(program.blocks.iter().map(|b| b.source_gates).collect::<Vec<_>>(), gates, "{name}");
    }
}

/// The serving shapes sit below the crossover: `serve_small`'s 10-qubit
/// rotation ladder and `serve_mixed`'s qft-13, random-14 and QCrank
/// 8 + 4, transpiled as the service runs them, plan under the priced
/// selector exactly as under the `Sweep` pin — the same blocks,
/// segments and digest, at both precisions — so their kernel counts,
/// counts and checkpoint fingerprints stay where the pin put them.
#[test]
fn below_the_crossover_the_priced_plan_is_the_sweep_pin() {
    let mut ladder = Circuit::new(10);
    for layer in 0..4 {
        for q in 0..10 {
            ladder.h(q).ry(0.2 + 0.1 * f64::from(q + layer), q);
        }
        for q in 0..9 {
            ladder.cx(q, q + 1);
        }
    }
    ladder.measure_all();
    let mut shapes = vec![("ladder-10", ladder)];
    shapes.extend(benchmark_shapes().into_iter().filter(|(_, c)| c.num_qubits() <= 14));
    assert_eq!(shapes.len(), 4);
    let pin = PlannerCosts::pinned(SegmentMode::Sweep);
    for (name, c) in shapes {
        let (native, _) = transpile::decompose_to_native(&c);
        for amp_bytes in [8, 16] {
            let plan = |costs: &PlannerCosts| {
                qgear_statevec::plan(&native, fusion::DEFAULT_FUSION_WIDTH, schedule::DEFAULT_SWEEP_WIDTH, true, costs, amp_bytes)
                    .expect("plannable")
            };
            let (priced, pinned) = (plan(&PlannerCosts::host_reference()), plan(&pin));
            assert_eq!(priced.blocks, pinned.blocks, "{name}, {amp_bytes} B");
            assert_eq!(priced.segments, pinned.segments, "{name}, {amp_bytes} B");
            assert_eq!(priced.digest, pinned.digest, "{name}, {amp_bytes} B");
        }
    }
}

/// Above the crossover the priced plan re-fuses compute-bound kernels
/// narrower, and what it runs is still the circuit: random, QFT and
/// QCrank at 16 to 18 qubits track the reference within round-off at
/// both precisions; resume at every segment boundary of a narrowed plan
/// is bit-identical to its straight-through run; a generation written
/// under the width-5 pin refuses to resume under it; and planning is a
/// function of its inputs.
#[test]
fn narrowed_plans_are_sound() {
    let random = |n: u32, blocks: usize| {
        generate_random_gate_list(&RandomCircuitSpec { num_qubits: n, num_blocks: blocks, seed: 3, measure: false })
    };
    let qft = |n: u32| {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.ry(0.3 + 0.17 * f64::from(q), q);
        }
        c.compose(&qft_circuit(n, &QftOptions::default())).expect("same width");
        transpile::decompose_to_native(&c).0
    };
    let priced = selected(PlannerCosts::host_reference());
    let pin = selected(PlannerCosts::pinned(SegmentMode::Sweep));
    let narrowed = |c: &Circuit, amp_bytes: usize| {
        let plan = |o: &RunOptions| {
            qgear_statevec::plan(c, o.fusion_width, o.sweep_width, o.sweep_reorder, &o.planner_costs, amp_bytes)
                .expect("plannable")
        };
        let (a, b) = (plan(&priced), plan(&priced));
        assert_eq!((&a.blocks, &a.segments, a.digest), (&b.blocks, &b.segments, b.digest), "deterministic");
        a.digest != plan(&pin).digest
    };

    let mut cases: Vec<(String, Circuit, Vec<Complex<f64>>)> = Vec::new();
    for n in [16, 18] {
        let c = random(n, 40);
        let expect = reference::run(&c);
        cases.push((format!("random-{n}"), c, expect));
    }
    for n in [16, 17] {
        let c = qft(n);
        let expect = reference::run(&c);
        cases.push((format!("qft-{n}"), c, expect));
    }
    for data in [8, 10] {
        let c = qcrank(8, data, 5).split_measurements().0;
        cases.push((format!("qcrank-8+{data}"), c, qcrank_state(8, &qcrank_values(8, data, 5))));
    }
    for (name, c, expect) in &cases {
        for amp_bytes in [8, 16] {
            assert!(narrowed(c, amp_bytes), "{name}, {amp_bytes} B: nothing narrowed");
        }
        let run64: RunOutput<f64> = GpuDevice::a100_40gb().run(c, &priced).expect("fp64");
        let dev = max_deviation(run64.state.expect("state").amplitudes(), expect);
        assert!(dev < 1e-10, "{name} fp64: {dev:e}");
        let run32: RunOutput<f32> = GpuDevice::a100_40gb().run(c, &priced).expect("fp32");
        let got: Vec<Complex<f64>> = run32.state.expect("state").amplitudes().iter().map(|a| a.cast()).collect();
        let dev = max_deviation(&got, expect);
        assert!(dev < 1e-4, "{name} fp32: {dev:e}");
    }

    // Resume at every boundary of a narrowed plan, through the codec.
    let mut c = random(16, 12);
    c.measure_all();
    let opts = RunOptions { shots: 256, seed: 41, ..priced.clone() };
    assert!(narrowed(&c.split_measurements().0, 16));
    let straight: RunOutput<f64> = GpuDevice::a100_40gb().run(&c, &opts).expect("straight run");
    let steps = SegmentedRun::<f64>::new(&GpuDevice::a100_40gb(), &c, &opts).expect("plan").steps_total();
    assert!(steps >= 3, "{steps} steps");
    for k in 0..=steps {
        let resumed = interrupted_at::<f64>(&c, &opts, k, usize::MAX);
        assert_bits_eq_f64(
            straight.state.as_ref().expect("state").amplitudes(),
            resumed.state.as_ref().expect("state").amplitudes(),
            &format!("resumed at {k}"),
        );
        assert_eq!(straight.counts.as_ref().unwrap().map, resumed.counts.unwrap().map, "counts at {k}");
    }

    // A generation written under the width-5 pin is another plan's.
    let mut pinned = SegmentedRun::<f64>::new(&GpuDevice::a100_40gb(), &c, &pin).expect("plan");
    let Ok(()) = pinned.advance(1);
    let refused = SegmentedRun::<f64>::resume(&GpuDevice::a100_40gb(), &c, &opts, pinned.checkpoint());
    assert!(matches!(refused, Err(qgear_statevec::CheckpointError::PlanMismatch { .. })));
}
