//! Workspace-level property tests (proptest): invariants that must hold
//! for *arbitrary* circuits, not just the fixtures unit tests pick.

use proptest::prelude::*;
use qgear::{QGear, QGearConfig, Target};
use qgear_ir::{qpy, reference, Circuit, GateKind, TensorEncoding};
use qgear_num::approx::approx_eq_up_to_phase;
use qgear_num::scalar::Precision;

/// Strategy: an arbitrary circuit over `n` qubits with `len` gates drawn
/// from the full user-facing gate set (including non-native gates).
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

// The properties every generated circuit must hold, one function each,
// so the proptest block below and the recorded regression case run the
// same assertions.

fn norm_is_preserved(circ: &Circuit) {
    let state = reference::run(circ);
    let norm = reference::norm_sqr(&state);
    assert!((norm - 1.0).abs() < 1e-9, "norm {norm}");
}

fn qpy_roundtrips(circ: &Circuit) {
    let bytes = qpy::write(std::slice::from_ref(circ));
    let back = qpy::read(&bytes).unwrap();
    assert_eq!(back.len(), 1);
    assert_eq!(&back[0], circ);
}

fn tensor_encoding_roundtrips(circ: &Circuit) {
    // Encoding requires arity <= 2 (always true for this gate set).
    let (native, _) = qgear_ir::transpile::decompose_to_native(circ);
    let enc = TensorEncoding::encode(std::slice::from_ref(&native), None).unwrap();
    assert_eq!(enc.decode_one(0).unwrap(), native);
}

fn transpile_is_exact(circ: &Circuit) {
    let (native, phase) = qgear_ir::transpile::decompose_to_native(circ);
    let mut got = reference::run(&native);
    reference::apply_global_phase(&mut got, phase);
    let expect = reference::run(circ);
    let deviation = qgear_num::approx::max_deviation(&got, &expect);
    assert!(deviation < 1e-9, "deviation {deviation}");
}

fn fusion_is_equivalent(circ: &Circuit, width: usize) {
    let (native, _) = qgear_ir::transpile::decompose_to_native(circ);
    let (unitary, _) = native.split_measurements();
    let program = qgear_ir::fusion::fuse(&unitary, width);
    let mut fused = reference::zero_state(circ.num_qubits());
    program.apply_to_state(&mut fused);
    let expect = reference::run(&unitary);
    assert!(qgear_num::approx::max_deviation(&fused, &expect) < 1e-9);
}

fn pipeline_targets_agree(circ: &Circuit) {
    let expect = reference::run(circ);
    for target in [Target::Nvidia, Target::NvidiaMgpu { devices: 2 }] {
        if matches!(target, Target::NvidiaMgpu { .. }) && circ.num_qubits() < 3 {
            // mgpu needs at least a 2-qubit local slice per device.
            continue;
        }
        let config = QGearConfig { target, precision: Precision::Fp64, ..Default::default() };
        let result = QGear::new(config).run(circ).unwrap();
        assert!(approx_eq_up_to_phase(result.state.unwrap().amplitudes(), &expect, 1e-8));
    }
}

fn merge_pass_is_exact(circ: &Circuit) {
    let merged = qgear_ir::transpile::merge_adjacent(circ);
    assert!(merged.len() <= circ.len());
    let a = reference::run(circ);
    let b = reference::run(&merged);
    assert!(qgear_num::approx::max_deviation(&a, &b) < 1e-9);
}

fn counts_total_the_shots(circ: &Circuit, shots: u64, seed: u64) {
    let mut measured = circ.clone();
    measured.measure_all();
    let qgear = QGear::new(QGearConfig {
        shots,
        seed,
        precision: Precision::Fp64,
        keep_state: false,
        ..Default::default()
    });
    let counts = qgear.run(&measured).unwrap().counts.unwrap();
    assert_eq!(counts.total(), shots);
    // Keys are within range.
    for (&k, _) in counts.map.iter() {
        assert!(k < (1 << measured.num_qubits()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn norm_preserved_by_any_circuit(circ in arb_circuit(6, 40)) {
        norm_is_preserved(&circ);
    }

    #[test]
    fn qpy_roundtrip_any_circuit(circ in arb_circuit(8, 60)) {
        qpy_roundtrips(&circ);
    }

    #[test]
    fn tensor_encoding_roundtrip_any_native_circuit(circ in arb_circuit(8, 60)) {
        tensor_encoding_roundtrips(&circ);
    }

    #[test]
    fn transpile_preserves_unitary_exactly(circ in arb_circuit(5, 25)) {
        transpile_is_exact(&circ);
    }

    #[test]
    fn fusion_equivalent_at_any_width(
        circ in arb_circuit(5, 30),
        width in 1usize..=5,
    ) {
        fusion_is_equivalent(&circ, width);
    }

    #[test]
    fn pipeline_targets_agree_on_any_circuit(circ in arb_circuit(5, 20)) {
        pipeline_targets_agree(&circ);
    }

    #[test]
    fn merge_pass_preserves_semantics(circ in arb_circuit(5, 30)) {
        merge_pass_is_exact(&circ);
    }

    #[test]
    fn counts_total_matches_shots(
        circ in arb_circuit(4, 12),
        shots in 1u64..5000,
        seed in any::<u64>(),
    ) {
        counts_total_the_shots(&circ, shots, seed);
    }

    #[test]
    fn hdf5_container_roundtrip_any_payload(
        values in proptest::collection::vec(any::<f64>().prop_filter("finite", |v| v.is_finite()), 0..500),
    ) {
        use qgear_hdf5lite::{Compression, Dataset, H5File};
        let mut f = H5File::new();
        let n = values.len() as u64;
        f.write_dataset("grp/data", Dataset::from_f64(&values, &[n])).unwrap();
        for codec in [Compression::None, Compression::Rle, Compression::ShuffleRle] {
            let back = H5File::from_bytes(&f.to_bytes(codec)).unwrap();
            prop_assert_eq!(back.dataset("grp/data").unwrap().as_f64().unwrap(), values.clone());
        }
    }

    #[test]
    fn ucry_angles_invert(theta in proptest::collection::vec(-3.1..3.1f64, 1..=4).prop_map(|v| {
        // Pad to the next power of two.
        let mut v = v;
        while !v.len().is_power_of_two() { v.push(0.0); }
        v
    })) {
        // The Walsh/Gray transform used by QCrank must be invertible:
        // applying it twice (with the right normalization) recovers the
        // input — the matrix is orthogonal up to 2^k.
        use qgear_workloads::qcrank::ucry_angles;
        let phi = ucry_angles(&theta);
        // θ_a = Σ_j (−1)^{⟨a, g(j)⟩} φ_j — invert manually.
        for (a, &t) in theta.iter().enumerate() {
            let mut acc = 0.0;
            for (j, &p) in phi.iter().enumerate() {
                let g = qgear_workloads::qcrank::gray(j);
                let sign = if (a & g).count_ones().is_multiple_of(2) { 1.0 } else { -1.0 };
                acc += sign * p;
            }
            prop_assert!((acc - t).abs() < 1e-9);
        }
    }

    /// The sharded engine's layout bookkeeping: after *any* sequence of
    /// physical-position swaps, `physical` and `logical_at` stay mutual
    /// inverses — the invariant that lets `DistributedState` and the
    /// `TrafficPlanner` agree on where every amplitude lives.
    #[test]
    fn qubit_layout_maps_stay_mutual_inverses_under_any_swaps(
        case in (2u32..=8).prop_flat_map(|n| {
            let swap = (0..n, 0..n);
            (Just(n), proptest::collection::vec(swap, 0..48))
        })
    ) {
        use qgear_cluster::QubitLayout;
        let (n, swaps) = case;
        let lw = n / 2;
        let mut layout = QubitLayout::identity(n, lw);
        let mut applied = Vec::new();
        for (a, b) in swaps {
            layout.note_swap(a, b);
            applied.push((a, b));
            prop_assert_eq!(layout.local_width(), lw);
            // Mutual inverses after every single step, not just at the end.
            for q in 0..n {
                prop_assert_eq!(layout.logical_at(layout.physical(q)), q);
                prop_assert_eq!(layout.physical(layout.logical_at(q)), q);
            }
        }
        // `is_identity` ⇔ the permutation really is the identity.
        let identity = (0..n).all(|q| layout.physical(q) == q);
        prop_assert_eq!(layout.is_identity(), identity);
        // Undoing the swaps in reverse order restores the identity layout.
        for (a, b) in applied.into_iter().rev() {
            layout.note_swap(a, b);
        }
        prop_assert!(layout.is_identity());
        prop_assert_eq!(layout, QubitLayout::identity(n, lw));
    }

    /// A single swap of distinct positions must break identity; swapping a
    /// position with itself must not.
    #[test]
    fn qubit_layout_identity_flag_tracks_the_permutation(
        n in 2u32..=8, a in 0u32..8, b in 0u32..8,
    ) {
        use qgear_cluster::QubitLayout;
        let (a, b) = (a % n, b % n);
        let mut layout = QubitLayout::identity(n, n);
        prop_assert!(layout.is_identity());
        layout.note_swap(a, b);
        prop_assert_eq!(layout.is_identity(), a == b);
        layout.note_swap(a, b);
        prop_assert!(layout.is_identity());
    }
}

/// The one failure proptest ever recorded for these properties: the
/// empty circuit on two qubits, run through every property that takes a
/// generated circuit.
#[test]
fn an_empty_two_qubit_circuit_holds_every_circuit_property() {
    let circ = Circuit::new(2);
    norm_is_preserved(&circ);
    qpy_roundtrips(&circ);
    tensor_encoding_roundtrips(&circ);
    transpile_is_exact(&circ);
    for width in 1..=5 {
        fusion_is_equivalent(&circ, width);
    }
    pipeline_targets_agree(&circ);
    merge_pass_is_exact(&circ);
    counts_total_the_shots(&circ, 1000, 7);
}

// A deterministic regression companion: the proptest strategies above
// shrink to minimal cases, but keep one fixed mixed circuit exercising
// every gate kind in a single pipeline pass.
#[test]
fn kitchen_sink_circuit_through_pipeline() {
    let mut c = Circuit::new(6);
    c.h(0)
        .x(1)
        .y(2)
        .z(3)
        .s(4)
        .sdg(5)
        .t(0)
        .tdg(1)
        .rx(0.3, 2)
        .ry(-0.8, 3)
        .rz(1.1, 4)
        .p(0.5, 5)
        .u(0.2, 0.4, 0.6, 0)
        .cx(0, 1)
        .cz(1, 2)
        .cr1(0.9, 2, 3)
        .cry(-0.7, 3, 4)
        .swap(4, 5)
        .ccx(0, 1, 2)
        .barrier()
        .measure_all();
    assert!(c.gates().iter().map(|g| g.kind).collect::<std::collections::HashSet<_>>().len() >= GateKind::ALL.len() - 1);
    let qgear = QGear::new(QGearConfig { precision: Precision::Fp64, shots: 1000, ..Default::default() });
    let result = qgear.run(&c).unwrap();
    let expect = reference::run(&c);
    assert!(approx_eq_up_to_phase(
        result.state.unwrap().amplitudes(),
        &expect,
        1e-9
    ));
    assert_eq!(result.counts.unwrap().total(), 1000);
}
