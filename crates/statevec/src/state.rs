//! State-vector storage and basic linear-algebra queries.

use qgear_num::{AlignedVec, Complex, Scalar};

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

    /// The register whose amplitudes `runs` yields in logical order, run
    /// after run, `2^num_qubits` in all, laid end to end.
    pub fn from_runs<'a>(
        num_qubits: u32,
        runs: impl IntoIterator<Item = &'a [Complex<T>]>,
    ) -> Self {
        let mut state = StateVector::zero(num_qubits);
        let mut rest = state.amplitudes_mut();
        for run in runs {
            let (now, later) = rest.split_at_mut(run.len());
            now.copy_from_slice(run);
            rest = later;
        }
        state
    }

    /// Adopt amplitudes already in aligned storage (length must be a
    /// power of two).
    pub(crate) fn from_aligned(amps: AlignedVec<Complex<T>>) -> Self {
        assert!(amps.len().is_power_of_two(), "amplitude count must be 2^n");
        StateVector { num_qubits: amps.len().trailing_zeros(), amps }
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
