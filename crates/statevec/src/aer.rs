//! The Qiskit-Aer-like CPU baseline engine.
//!
//! Reproduces the algorithmic profile of the paper's baseline (§3,
//! Fig. 4a dashed curves): **sequential** gate-by-gate dense application
//! with **no fusion** — every gate pays a full `O(2^n)` sweep over the
//! state vector plus a fixed per-gate dispatch cost. Diagonal and
//! permutation gates get the same specialized inner loops a real Aer build
//! has, so the baseline is honest rather than strawmanned; what it lacks,
//! by design, is kernel fusion and data parallelism.

use crate::backend::{
    check_capacity, marginal_probs, sample_from_probs, ExecStats, RunOptions, RunOutput, SimError,
    Simulator,
};
use crate::state::StateVector;
use qgear_ir::{Circuit, Gate, GateKind};
use qgear_num::{Complex, Mat2, Mat4, Scalar};
use std::time::Instant;

/// The sequential, unfused CPU engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct AerCpuBackend;

impl AerCpuBackend {
    /// Apply a single gate to the state, sequentially. Exposed for tests
    /// and for the distributed engine's local-gate path.
    ///
    /// Kept out of line: every gate is a full pass over the state, so the
    /// call is free, while inlined into the stepper these loops' codegen
    /// follows whatever else that function holds — the forced-unfused
    /// cells moved +14 % to +35 % (qft-16 16.7 → 22.3 ms) when an
    /// unrelated kernel refactor changed the caller, and back with this.
    #[inline(never)]
    pub fn apply_gate<T: Scalar>(state: &mut [Complex<T>], g: &Gate) -> Result<(), SimError> {
        match g.kind {
            GateKind::Measure | GateKind::Barrier => Ok(()),
            GateKind::Ccx => {
                apply_ccx(state, g.qubits[0], g.qubits[1], g.qubits[2]);
                Ok(())
            }
            GateKind::Cx => {
                apply_cx(state, g.qubits[0], g.qubits[1]);
                Ok(())
            }
            GateKind::Rz => {
                apply_rz(state, g.qubits[0], T::from_f64(g.params[0]));
                Ok(())
            }
            GateKind::P => {
                apply_phase(state, g.qubits[0], T::from_f64(g.params[0]));
                Ok(())
            }
            _ => {
                if let Some(m) = g.matrix2::<T>() {
                    apply_mat2(state, g.qubits[0], &m);
                    Ok(())
                } else if let Some(m) = g.matrix4::<T>() {
                    apply_mat4(state, g.qubits[0], g.qubits[1], &m);
                    Ok(())
                } else {
                    Err(SimError::UnsupportedGate(g.kind.name().to_owned()))
                }
            }
        }
    }
}

/// Dense 2×2 application to qubit `q`.
pub fn apply_mat2<T: Scalar>(state: &mut [Complex<T>], q: u32, m: &Mat2<T>) {
    let stride = 1usize << q;
    let len = state.len();
    let mut base = 0usize;
    while base < len {
        for i in base..base + stride {
            let a0 = state[i];
            let a1 = state[i + stride];
            let (b0, b1) = m.apply(a0, a1);
            state[i] = b0;
            state[i + stride] = b1;
        }
        base += stride << 1;
    }
}

/// Dense 4×4 application; operand `a` on the high sub-index bit.
pub fn apply_mat4<T: Scalar>(state: &mut [Complex<T>], a: u32, b: u32, m: &Mat4<T>) {
    debug_assert_ne!(a, b);
    let ma = 1usize << a;
    let mb = 1usize << b;
    for i in 0..state.len() {
        if i & ma != 0 || i & mb != 0 {
            continue;
        }
        let v = [state[i], state[i | mb], state[i | ma], state[i | ma | mb]];
        let w = m.apply(v);
        state[i] = w[0];
        state[i | mb] = w[1];
        state[i | ma] = w[2];
        state[i | ma | mb] = w[3];
    }
}

/// CX specialization: swap amplitude pairs where the control bit is set.
/// This is the Appendix A example — "noncontiguous memory access because
/// the amplitudes to be swapped are scattered across the state vector".
fn apply_cx<T: Scalar>(state: &mut [Complex<T>], control: u32, target: u32) {
    let mc = 1usize << control;
    let mt = 1usize << target;
    for i in 0..state.len() {
        if i & mc != 0 && i & mt == 0 {
            state.swap(i, i | mt);
        }
    }
}

/// Toffoli specialization.
pub fn apply_ccx<T: Scalar>(state: &mut [Complex<T>], c0: u32, c1: u32, t: u32) {
    let m0 = 1usize << c0;
    let m1 = 1usize << c1;
    let mt = 1usize << t;
    for i in 0..state.len() {
        if i & m0 != 0 && i & m1 != 0 && i & mt == 0 {
            state.swap(i, i | mt);
        }
    }
}

/// Rz specialization: pure diagonal phase rotation.
fn apply_rz<T: Scalar>(state: &mut [Complex<T>], q: u32, theta: T) {
    let neg = Complex::cis(-(theta * T::HALF));
    let pos = Complex::cis(theta * T::HALF);
    let mask = 1usize << q;
    for (i, amp) in state.iter_mut().enumerate() {
        *amp *= if i & mask == 0 { neg } else { pos };
    }
}

/// Phase-gate specialization: `diag(1, e^{iλ})` on one qubit.
fn apply_phase<T: Scalar>(state: &mut [Complex<T>], q: u32, lambda: T) {
    let ph = Complex::cis(lambda);
    let mask = 1usize << q;
    for (i, amp) in state.iter_mut().enumerate() {
        if i & mask != 0 {
            *amp *= ph;
        }
    }
}

impl<T: Scalar> Simulator<T> for AerCpuBackend {
    fn name(&self) -> &'static str {
        "qiskit-aer-cpu"
    }

    fn run(&self, circuit: &Circuit, opts: &RunOptions) -> Result<RunOutput<T>, SimError> {
        check_capacity::<T>(circuit.num_qubits(), opts.memory_limit)?;
        let (unitary, measured) = circuit.split_measurements();
        let mut state: StateVector<T> = StateVector::zero(circuit.num_qubits());
        let amp_bytes = (2 * T::BYTES) as u128;
        let n_amps = state.len() as u128;

        let mut stats = ExecStats::default();
        let start = Instant::now();
        let sim_span = qgear_telemetry::span!(qgear_telemetry::names::spans::SIMULATE);
        let telemetry_on = qgear_telemetry::is_enabled();
        for g in unitary.gates() {
            if g.kind == GateKind::Barrier {
                continue;
            }
            Self::apply_gate(state.amplitudes_mut(), g)?;
            stats.gates_applied += 1;
            stats.kernels_launched += 1; // unfused: one sweep per gate
            stats.bytes_touched += 2 * n_amps * amp_bytes; // read + write
            stats.flops += n_amps * (1 << g.operands().len()) as u128;
            if telemetry_on {
                // Per-kind dispatch counters; the format! only runs while
                // telemetry is recording.
                qgear_telemetry::counter_inc(&format!("aer.dispatch.{}", g.kind.name()));
            }
        }
        if telemetry_on {
            use qgear_telemetry::names;
            qgear_telemetry::counter_add(names::GATES_APPLIED, stats.gates_applied as u128);
            qgear_telemetry::counter_add(names::KERNELS_LAUNCHED, stats.kernels_launched as u128);
            qgear_telemetry::counter_add(
                names::AMPLITUDES_TOUCHED,
                2 * n_amps * stats.kernels_launched as u128,
            );
        }
        drop(sim_span);
        stats.elapsed = start.elapsed();

        let sample_start = Instant::now();
        let sample_span = qgear_telemetry::span!(qgear_telemetry::names::spans::SAMPLE);
        let counts = if opts.shots > 0 && !measured.is_empty() {
            sample_from_probs(&marginal_probs(&state, &measured), &measured, &opts.sampling())
        } else {
            None
        };
        drop(sample_span);
        stats.sampling_elapsed = sample_start.elapsed();

        Ok(RunOutput { state: opts.keep_state.then_some(state), counts, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgear_ir::reference;
    use qgear_num::approx::max_deviation;
    use qgear_num::C64;

    fn run_f64(circ: &Circuit, opts: &RunOptions) -> RunOutput<f64> {
        AerCpuBackend.run(circ, opts).unwrap()
    }

    fn rich_circuit(n: u32, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        let mut s = seed | 1;
        let mut rnd = move |m: u64| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) % m
        };
        for _ in 0..60 {
            match rnd(6) {
                0 => {
                    c.h(rnd(n as u64) as u32);
                }
                1 => {
                    c.ry(rnd(628) as f64 / 100.0, rnd(n as u64) as u32);
                }
                2 => {
                    c.rz(rnd(628) as f64 / 100.0, rnd(n as u64) as u32);
                }
                3 => {
                    c.p(rnd(628) as f64 / 100.0, rnd(n as u64) as u32);
                }
                4 => {
                    let a = rnd(n as u64) as u32;
                    let b = (a + 1 + rnd(n as u64 - 1) as u32) % n;
                    c.cx(a, b);
                }
                _ => {
                    let a = rnd(n as u64) as u32;
                    let b = (a + 1 + rnd(n as u64 - 1) as u32) % n;
                    c.cr1(rnd(628) as f64 / 100.0, a, b);
                }
            }
        }
        c
    }

    #[test]
    fn matches_reference_simulator() {
        for seed in [1u64, 2, 3] {
            let c = rich_circuit(6, seed);
            let out = run_f64(&c, &RunOptions::default());
            let got = out.state.unwrap();
            let expect = reference::run(&c);
            assert!(
                max_deviation(got.amplitudes(), &expect) < 1e-11,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn specializations_match_general_path() {
        // cx / rz / p fast paths equal their dense-matrix application.
        let n = 5u32;
        let base: Vec<C64> = reference::random_state(n, 77);
        // cx
        let mut fast = base.clone();
        apply_cx(&mut fast, 3, 1);
        let mut slow = base.clone();
        apply_mat4(&mut slow, 3, 1, &qgear_num::gates::cx());
        assert!(max_deviation(&fast, &slow) < 1e-15);
        // rz
        let mut fast = base.clone();
        apply_rz(&mut fast, 2, 0.9);
        let mut slow = base.clone();
        apply_mat2(&mut slow, 2, &qgear_num::gates::rz(0.9));
        assert!(max_deviation(&fast, &slow) < 1e-15);
        // p
        let mut fast = base.clone();
        apply_phase(&mut fast, 0, -1.3);
        let mut slow = base;
        apply_mat2(&mut slow, 0, &qgear_num::gates::p(-1.3));
        assert!(max_deviation(&fast, &slow) < 1e-15);
    }

    #[test]
    fn stats_count_sweeps_per_gate() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).ry(0.5, 2).barrier().rz(0.1, 3);
        let out = run_f64(&c, &RunOptions::default());
        assert_eq!(out.stats.gates_applied, 4);
        assert_eq!(out.stats.kernels_launched, 4, "one sweep per gate, barrier free");
        // 4 gates × 2 × 16 amps × 16 B.
        assert_eq!(out.stats.bytes_touched, 4 * 2 * 16 * 16);
    }

    #[test]
    fn memory_limit_enforced() {
        let mut c = Circuit::new(20);
        c.h(0);
        let opts = RunOptions { memory_limit: Some(1 << 20), ..Default::default() };
        // 2^20 amps × 16 B = 16 MiB > 1 MiB.
        let err = AerCpuBackend.run(&c, &opts);
        assert!(matches!(err, Err::<RunOutput<f64>, _>(SimError::OutOfMemory { .. })));
    }

    #[test]
    fn bell_state_counts_are_balanced() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let opts = RunOptions { shots: 100_000, ..Default::default() };
        let out = run_f64(&c, &opts);
        let counts = out.counts.unwrap();
        assert_eq!(counts.total(), 100_000);
        assert_eq!(counts.get(1) + counts.get(2), 0, "odd-parity outcomes impossible");
        let p00 = counts.probability(0);
        assert!((p00 - 0.5).abs() < 0.01, "p00 = {p00}");
    }

    #[test]
    fn no_measure_no_counts() {
        let mut c = Circuit::new(2);
        c.h(0);
        let opts = RunOptions { shots: 100, ..Default::default() };
        let out = run_f64(&c, &opts);
        assert!(out.counts.is_none());
    }

    #[test]
    fn keep_state_false_drops_state() {
        let mut c = Circuit::new(2);
        c.h(0);
        let opts = RunOptions { keep_state: false, ..Default::default() };
        let out = run_f64(&c, &opts);
        assert!(out.state.is_none());
    }

    #[test]
    fn fp32_close_to_fp64() {
        let c = rich_circuit(5, 9);
        let o64: RunOutput<f64> = AerCpuBackend.run(&c, &RunOptions::default()).unwrap();
        let o32: RunOutput<f32> = AerCpuBackend.run(&c, &RunOptions::default()).unwrap();
        let s64 = o64.state.unwrap();
        let s32: StateVector<f64> = o32.state.unwrap().cast();
        assert!(s64.fidelity(&s32) > 0.999_99);
    }
}
