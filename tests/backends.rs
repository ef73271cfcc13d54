//! Cross-engine differential and property tests for the stabilizer
//! backend, a standalone `Simulator` engine (docs/BACKENDS.md).
//!
//! Three layers:
//!
//! * **Differential** — every Clifford workload small enough for the
//!   dense engine runs on both engines with the same `(shots, seed)`;
//!   both sample through the shared multinomial path, and the sampled
//!   distributions must agree on measured set, support and rates.
//! * **Property** — proptest drives random Clifford words onto the raw
//!   tableau: algebraic identities (`H² = 1`, `S⁴ = 1`, `CX² = 1`),
//!   the stabilizer/destabilizer anticommutation invariant, and
//!   measurement idempotence; random Clifford words run on the engine,
//!   and any T gate makes it refuse.
//! * **Wide** — widths no state vector reaches (64–128 qubits) run on
//!   the tableau with every shot kept.

use proptest::prelude::*;
use qgear_ir::Circuit;
use qgear_stabilizer::{StabilizerBackend, Tableau};
use qgear_statevec::{AerCpuBackend, Counts, RunOptions, RunOutput, SimError, Simulator};
use qgear_workloads::clifford::{ghz, random_clifford, teleportation};

// ---------------------------------------------------------------------
// Differential: stabilizer vs dense on small Clifford circuits
// ---------------------------------------------------------------------

fn counts_on<S: Simulator<f64>>(engine: &S, c: &Circuit, shots: u64, seed: u64) -> Counts {
    let opts = RunOptions { shots, seed, ..Default::default() };
    let out: RunOutput<f64> = engine.run(c, &opts).expect("engine runs the circuit");
    out.counts.expect("measured circuit yields counts")
}

/// Run `c` on both engines with identical sampling knobs and insist the
/// sampled *distributions* agree: identical measured sets, identical
/// outcome supports, and every key within 6σ of the uniform-on-support
/// law a stabilizer state's marginal obeys. Bit-exact histogram equality
/// is deliberately not demanded — Clifford marginals are *exactly*
/// equiprobable over their support, and the conditional-binomial
/// sampler's allocation among equal-probability keys is sensitive to
/// the float dust the dense marginal carries and the tableau does not.
fn assert_engines_agree(c: &Circuit, shots: u64, seed: u64) {
    let dense = counts_on(&AerCpuBackend, c, shots, seed);
    let stab = counts_on(&StabilizerBackend::default(), c, shots, seed);
    assert_eq!(dense.qubits, stab.qubits, "{}: measured sets differ", c.name);
    assert_eq!(dense.total(), shots, "{}: dense lost shots", c.name);
    assert_eq!(stab.total(), shots, "{}: stabilizer lost shots", c.name);
    let support: std::collections::BTreeSet<u64> = dense.map.keys().copied().collect();
    let stab_support: std::collections::BTreeSet<u64> = stab.map.keys().copied().collect();
    assert_eq!(support, stab_support, "{}: outcome supports diverge", c.name);
    // A stabilizer state's measurement marginal is uniform over an
    // affine subspace: P(key) = 1/m on the support, for both engines.
    let m = support.len() as f64;
    let p = 1.0 / m;
    let expected = shots as f64 * p;
    let tol = 6.0 * (shots as f64 * p * (1.0 - p)).sqrt() + 1.0;
    for &key in &support {
        for (engine, counts) in [("dense", &dense), ("stabilizer", &stab)] {
            let got = counts.get(key) as f64;
            assert!(
                (got - expected).abs() <= tol,
                "{}: {engine} key {key:#x} drew {got}, expected {expected} ± {tol}",
                c.name
            );
        }
    }
}

#[test]
fn stabilizer_matches_dense_on_ghz_at_every_small_width() {
    for n in 2..=10u32 {
        assert_engines_agree(&ghz(n, n), 2000, 0xD1FF + u64::from(n));
    }
}

#[test]
fn stabilizer_matches_dense_on_teleportation() {
    let c = teleportation();
    assert_engines_agree(&c, 1000, 3);
    // Teleporting |0⟩ must always land 0 on the receiver.
    let counts = counts_on(&StabilizerBackend::default(), &c, 1000, 3);
    assert_eq!(counts.get(0), 1000, "teleported |0> read as 1");
}

#[test]
fn stabilizer_matches_dense_on_seeded_random_cliffords() {
    for seed in 0..8u64 {
        // Widths 2..=6: support ≤ 64 keys, so at 4000 shots every
        // support key is overwhelmingly likely to be drawn by both
        // engines (and the fixed seeds make the check reproducible).
        let n = 2 + (seed % 5) as u32;
        let c = random_clifford(n, 12, 0xC11F_0000 + seed);
        assert_engines_agree(&c, 4000, 0x5EED + seed);
    }
}

// ---------------------------------------------------------------------
// Property tests: tableau algebra and the engine's gate set
// ---------------------------------------------------------------------

/// A random Clifford word as raw tableau updates: `(kind, a, boff)` with
/// `b = (a + boff) % n` distinct from `a`.
fn arb_clifford_word(n: u32, max_len: usize) -> impl Strategy<Value = Vec<(u8, u32, u32)>> {
    proptest::collection::vec((0u8..9, 0..n, 1..n), 0..=max_len)
}

fn apply_word(t: &mut Tableau, n: u32, word: &[(u8, u32, u32)]) {
    for &(kind, a, boff) in word {
        let b = (a + boff) % n;
        match kind {
            0 => t.h(a),
            1 => t.s(a),
            2 => t.sdg(a),
            3 => t.x_gate(a),
            4 => t.y_gate(a),
            5 => t.z_gate(a),
            6 => t.cx(a, b),
            7 => t.cz(a, b),
            _ => t.swap(a, b),
        }
    }
}

const N: u32 = 7;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The symplectic anticommutation invariant (destabilizer `i`
    /// anticommutes with stabilizer `i`, commutes with every other row)
    /// survives arbitrary Clifford words and arbitrary measurements.
    #[test]
    fn tableau_invariants_hold_under_any_clifford_word(
        word in arb_clifford_word(N, 48),
        measured in proptest::collection::vec((0..N, any::<bool>()), 0..4),
    ) {
        let mut t = Tableau::new(N as usize);
        apply_word(&mut t, N, &word);
        prop_assert_eq!(t.check_invariants(), None);
        for (q, coin) in measured {
            t.measure(q, || coin);
            prop_assert_eq!(t.check_invariants(), None);
        }
    }

    /// `H·H = 1` from any reachable tableau.
    #[test]
    fn h_is_self_inverse(word in arb_clifford_word(N, 32), q in 0..N) {
        let mut t = Tableau::new(N as usize);
        apply_word(&mut t, N, &word);
        let before = t.clone();
        t.h(q);
        t.h(q);
        prop_assert_eq!(t, before);
    }

    /// `S⁴ = 1` and `S·S† = 1` from any reachable tableau.
    #[test]
    fn s_has_order_four(word in arb_clifford_word(N, 32), q in 0..N) {
        let mut t = Tableau::new(N as usize);
        apply_word(&mut t, N, &word);
        let before = t.clone();
        for _ in 0..4 {
            t.s(q);
        }
        prop_assert_eq!(&t, &before);
        t.s(q);
        t.sdg(q);
        prop_assert_eq!(t, before);
    }

    /// `CX·CX = 1` from any reachable tableau.
    #[test]
    fn cx_is_self_inverse(word in arb_clifford_word(N, 32), a in 0..N, boff in 1..N) {
        let b = (a + boff) % N;
        let mut t = Tableau::new(N as usize);
        apply_word(&mut t, N, &word);
        let before = t.clone();
        t.cx(a, b);
        t.cx(a, b);
        prop_assert_eq!(t, before);
    }

    /// Measuring a qubit twice gives the same value, and the second
    /// measurement is always deterministic (the state has collapsed).
    #[test]
    fn measurement_is_idempotent(
        word in arb_clifford_word(N, 48),
        q in 0..N,
        coin in any::<bool>(),
    ) {
        let mut t = Tableau::new(N as usize);
        apply_word(&mut t, N, &word);
        let first = t.measure(q, || coin);
        let second = t.measure(q, || unreachable!("collapsed qubit re-rolled"));
        prop_assert!(second.deterministic);
        prop_assert_eq!(second.value, first.value);
    }

    /// Every Clifford word lowers onto the tableau, and a single T gate
    /// makes the engine refuse the circuit.
    #[test]
    fn the_engine_runs_every_clifford_word_and_rejects_t_gates(
        word in arb_clifford_word(4, 24),
        t_gates in 0usize..3,
    ) {
        let mut c = Circuit::new(4);
        for &(kind, a, boff) in &word {
            let b = (a + boff) % 4;
            match kind {
                0 => c.h(a),
                1 => c.s(a),
                2 => c.sdg(a),
                3 => c.x(a),
                4 => c.y(a),
                5 => c.z(a),
                6 => c.cx(a, b),
                7 => c.cz(a, b),
                _ => c.swap(a, b),
            };
        }
        for k in 0..t_gates {
            c.t(k as u32);
        }
        let out: Result<RunOutput<f64>, SimError> =
            StabilizerBackend::default().run(&c, &RunOptions::default());
        if t_gates == 0 {
            prop_assert!(out.is_ok(), "Clifford word rejected: {:?}", out.err());
        } else {
            prop_assert!(
                matches!(out, Err(SimError::UnsupportedGate(_))),
                "engine accepted a circuit with {} T gates",
                t_gates
            );
        }
    }
}

// ---------------------------------------------------------------------
// Wide: widths no state vector reaches
// ---------------------------------------------------------------------

#[test]
fn wide_clifford_runs_conserve_every_shot_on_the_tableau() {
    // 100 dense qubits would need 2^100 amplitudes; the tableau needs a
    // few kilobytes. The widths either side (64 = the outcome-key limit,
    // 128 = two tableau words past it) and a fully measured 64-qubit
    // random Clifford ride along: no shot may be lost at any of them.
    let shots = 512;
    // (name, circuit, whether it is a GHZ state: all zeros or all ones)
    let jobs = [
        ("ghz-64", ghz(64, 64), true),
        ("ghz-100", ghz(100, 64), true),
        ("ghz-128", ghz(128, 64), true),
        ("random-clifford-64", random_clifford(64, 8, 0xC11F + 64), false),
    ];
    for (what, circuit, is_ghz) in jobs {
        let counts = counts_on(&StabilizerBackend::default(), &circuit, shots, 29);
        assert_eq!(counts.total(), shots, "{what} lost shots");
        if is_ghz {
            for &key in counts.map.keys() {
                assert!(
                    key == 0 || key == u64::MAX,
                    "{what}: non-GHZ outcome {key:#x} on the 64-qubit prefix"
                );
            }
        }
    }
}
