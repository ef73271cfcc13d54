//! State-vector storage and basic linear-algebra queries.

use crate::gpu::{is_low_prefix, min_items};
use qgear_num::{AlignedVec, Complex, Scalar};
use rayon::prelude::*;

/// A `2^n`-amplitude quantum state (Eq. 1), generic over precision.
///
/// Amplitudes live in cache-line-aligned storage ([`AlignedVec`]): the base
/// address is always 64-byte aligned, so the SIMD lane kernels in
/// [`crate::gpu`] stream over the array without ever straddling a cache
/// line at the start of a lane vector.
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector<T: Scalar> {
    num_qubits: u32,
    amps: AlignedVec<Complex<T>>,
}

impl<T: Scalar> StateVector<T> {
    /// `|0…0⟩` over `n` qubits. Allocates `2^n` amplitudes; callers are
    /// responsible for memory-capacity checks (see `RunOptions`).
    pub fn zero(num_qubits: u32) -> Self {
        assert!(num_qubits < usize::BITS, "qubit count overflows the address space");
        let mut amps = AlignedVec::from_elem(Complex::ZERO, 1usize << num_qubits);
        amps[0] = Complex::ONE;
        StateVector { num_qubits, amps }
    }

    /// Copy existing amplitudes into aligned storage (length must be a
    /// power of two).
    pub fn from_amplitudes(amps: Vec<Complex<T>>) -> Self {
        assert!(amps.len().is_power_of_two(), "amplitude count must be 2^n");
        let num_qubits = amps.len().trailing_zeros();
        StateVector { num_qubits, amps: AlignedVec::from_slice(&amps) }
    }

    /// Register width.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Number of amplitudes (`2^n`).
    pub fn len(&self) -> usize {
        self.amps.len()
    }

    /// True only for the (unrepresentable) zero-qubit edge case guard.
    pub fn is_empty(&self) -> bool {
        self.amps.is_empty()
    }

    /// Immutable amplitude access. The base pointer is 64-byte aligned.
    pub fn amplitudes(&self) -> &[Complex<T>] {
        self.amps.as_slice()
    }

    /// Mutable amplitude access (engines' working surface).
    pub fn amplitudes_mut(&mut self) -> &mut [Complex<T>] {
        self.amps.as_mut_slice()
    }

    /// Copy out into a plain amplitude vector.
    pub fn into_amplitudes(self) -> Vec<Complex<T>> {
        self.amps.to_vec()
    }

    /// Memory footprint in bytes (2 reals per amplitude).
    pub fn byte_len(&self) -> usize {
        self.amps.len() * 2 * T::BYTES
    }

    /// Total squared norm; 1 for a valid state.
    pub fn norm_sqr(&self) -> T {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Born-rule probability of each basis state.
    pub fn probabilities(&self) -> Vec<T> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Marginal probability distribution over an ordered subset of qubits.
    /// `qubits[j]` maps to bit `j` of the returned distribution's index.
    /// Runs in one pass over the full state.
    pub fn marginal(&self, qubits: &[u32]) -> Vec<T> {
        self.marginal_as(qubits, T::ZERO, |p| p)
    }

    /// [`Self::marginal`] with every probability passed through `cast` —
    /// the sampler's `f64` conversion, made while the value is in hand
    /// instead of in a second state-sized pass and buffer.
    pub(crate) fn marginal_as<U: Clone + Send>(
        &self,
        qubits: &[u32],
        zero: U,
        cast: impl Fn(T) -> U + Sync,
    ) -> Vec<U> {
        let m = qubits.len();
        assert!(m <= 30, "marginal over too many qubits");
        if m != self.num_qubits as usize || !is_low_prefix(qubits) {
            return self.marginal_by_key(qubits).into_iter().map(cast).collect();
        }
        // Every qubit, in order (`measure_all`): the key is the index and
        // each slot gets exactly one term, so the pass is an element-wise
        // fill split across the kernel pool — the bits of the general
        // loop, whose `+0.0 + x` is `x` for every `x ≥ +0.0`.
        const CHUNK: usize = 4096;
        let amps = self.amps.as_slice();
        let mut out = vec![zero; amps.len()];
        out.par_chunks_mut(CHUNK).with_min_len(min_items::<T>(CHUNK)).enumerate().for_each(|(ci, probs)| {
            for (p, a) in probs.iter_mut().zip(&amps[ci * CHUNK..]) {
                *p = cast(a.norm_sqr());
            }
        });
        out
    }

    /// The general marginal: every amplitude's key assembled bit by bit.
    fn marginal_by_key(&self, qubits: &[u32]) -> Vec<T> {
        let mut out = vec![T::ZERO; 1usize << qubits.len()];
        for (i, a) in self.amps.iter().enumerate() {
            let mut key = 0usize;
            for (j, &q) in qubits.iter().enumerate() {
                key |= ((i >> q) & 1) << j;
            }
            out[key] += a.norm_sqr();
        }
        out
    }

    /// Inner product `⟨self|other⟩`.
    pub fn inner(&self, other: &Self) -> Complex<T> {
        assert_eq!(self.len(), other.len());
        self.amps
            .iter()
            .zip(&other.amps)
            .map(|(&a, &b)| a.conj() * b)
            .sum()
    }

    /// Fidelity `|⟨self|other⟩|²` (global-phase insensitive).
    pub fn fidelity(&self, other: &Self) -> T {
        self.inner(other).norm_sqr()
    }

    /// Convert precision (e.g. compare an fp32 run against the fp64 oracle).
    pub fn cast<U: Scalar>(&self) -> StateVector<U> {
        let amps: Vec<Complex<U>> = self.amps.iter().map(|a| a.cast()).collect();
        StateVector { num_qubits: self.num_qubits, amps: AlignedVec::from_slice(&amps) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgear_num::C64;

    #[test]
    fn zero_state_basics() {
        let s: StateVector<f64> = StateVector::zero(3);
        assert_eq!(s.num_qubits(), 3);
        assert_eq!(s.len(), 8);
        assert_eq!(s.byte_len(), 8 * 16);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-15);
        assert_eq!(s.amplitudes()[0], C64::ONE);
    }

    #[test]
    fn fp32_byte_len() {
        let s: StateVector<f32> = StateVector::zero(10);
        assert_eq!(s.byte_len(), 1024 * 8); // the paper's fp32: 8 B/amplitude
    }

    #[test]
    fn from_amplitudes_infers_width() {
        let amps = vec![C64::ZERO; 16];
        let s = StateVector::from_amplitudes(amps);
        assert_eq!(s.num_qubits(), 4);
    }

    #[test]
    #[should_panic(expected = "must be 2^n")]
    fn non_power_of_two_rejected() {
        StateVector::from_amplitudes(vec![C64::ZERO; 3]);
    }

    #[test]
    fn marginal_distribution() {
        // Uniform 2-qubit state: marginal over qubit 1 alone = [0.5, 0.5].
        let amps = vec![C64::from_re(0.5); 4];
        let s = StateVector::from_amplitudes(amps);
        let m = s.marginal(&[1]);
        assert!((m[0] - 0.5).abs() < 1e-15);
        assert!((m[1] - 0.5).abs() < 1e-15);
        // Marginal over both, reversed order: index bit 0 = qubit 1.
        let m2 = s.marginal(&[1, 0]);
        assert_eq!(m2.len(), 4);
        for p in m2 {
            assert!((p - 0.25).abs() < 1e-15);
        }
    }

    #[test]
    fn the_measure_all_marginal_is_the_general_loop_bit_for_bit() {
        fn check<T: Scalar>(n: u32) {
            // Exact zeros of both signs among the amplitudes.
            let amps: Vec<Complex<T>> = (0..1usize << n)
                .map(|i| {
                    let v = |x: f64| match i % 7 {
                        0 => 0.0,
                        1 => -0.0,
                        _ => x,
                    };
                    Complex::new(T::from_f64(v((i as f64 * 0.37).sin())), T::from_f64(v((i as f64 * 0.11).cos())))
                })
                .collect();
            let s = StateVector::from_amplitudes(amps);
            let all: Vec<u32> = (0..n).collect();
            let bits = |probs: Vec<T>| probs.iter().map(|p| p.to_f64().to_bits()).collect::<Vec<u64>>();
            let general = bits(s.marginal_by_key(&all));
            assert!(bits(s.marginal(&all)) == general, "n = {n} {}", T::PRECISION_NAME);
            // And with the sampler's conversion made in the same pass.
            let as_f64: Vec<u64> = s.marginal_as(&all, 0.0, |p| p.to_f64()).iter().map(|p| p.to_bits()).collect();
            assert!(as_f64 == general, "n = {n} {} as f64", T::PRECISION_NAME);
        }
        // n = 3 runs inline; n = 16 is 512 KiB / 1 MiB of state, pooled.
        for n in [3, 16] {
            check::<f32>(n);
            check::<f64>(n);
        }
    }

    #[test]
    fn fidelity_and_inner() {
        let a: StateVector<f64> = StateVector::zero(2);
        let b = a.clone();
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-15);
        let mut amps = vec![C64::ZERO; 4];
        amps[3] = C64::ONE;
        let c = StateVector::from_amplitudes(amps);
        assert_eq!(a.fidelity(&c), 0.0);
    }

    #[test]
    fn cast_roundtrip() {
        let mut s: StateVector<f64> = StateVector::zero(2);
        s.amplitudes_mut()[1] = C64::new(0.25, -0.5);
        let t: StateVector<f32> = s.cast();
        let u: StateVector<f64> = t.cast();
        assert_eq!(s.amplitudes()[1], u.amplitudes()[1]);
    }
}
