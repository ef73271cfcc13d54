//! CUDA-Q-style gate fusion.
//!
//! The paper's QFT kernel "specifies hyperparameters (gate fusion = 5)"
//! (Appendix D.2): consecutive gates whose combined support stays within a
//! window of `k` qubits are multiplied into a single dense `2^k × 2^k`
//! kernel, so each state-vector sweep applies many gates at once.
//!
//! Fusion trades state passes for arithmetic, and the trade is **not**
//! unconditionally profitable: a dense width-`k` kernel costs `2^k`
//! mul-adds per amplitude, so fusing a handful of cheap specialized gates
//! (`cx`, `rz`) into one dense kernel can cost *more* than applying them
//! one at a time — the hot-path bench measures a 3–6× fused-mode
//! regression on the `random` and `qcrank` workloads. Fusion pays off
//! when the kernel has exploitable structure (a diagonal kernel is one
//! multiply per amplitude, one that mixes `μ < k` of its qubits `2^μ`
//! mul-adds: [`DenseUnitary::diagonal`], [`DenseUnitary::mixed_bits`]) or
//! when the run is bandwidth-bound and saving state passes dominates.
//! The adaptive planner in `qgear-statevec::planner` makes that call per
//! segment from a cost model instead of assuming fusion always wins.
//!
//! [`fuse`] performs the greedy window fusion; [`FusedProgram`] is the
//! executable kernel list handed to the engines in `qgear-statevec`,
//! which classify each kernel where they build it.

use crate::circuit::Circuit;
use crate::gate::Gate;
use qgear_num::C64;
use std::fmt;

/// Maximum supported fusion window; `2^6 × 2^6` matrices are the largest
/// dense kernels we materialize (the paper uses 5).
pub const MAX_FUSION_WIDTH: usize = 6;

/// Errors the fusion pass can report instead of aborting the process.
///
/// Long-running callers (the `qgear-serve` workers, the core pipeline)
/// use [`try_fuse`] and surface these as job failures; the panicking
/// [`fuse`] wrapper keeps the original fail-fast contract for harnesses
/// that feed known-good circuits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FusionError {
    /// A gate had more operands than dense-kernel fusion supports.
    UnsupportedArity {
        /// Gate mnemonic (e.g. `ccx`).
        gate: String,
        /// Operand count of the offending gate.
        arity: usize,
    },
    /// A gate claimed an arity its matrix accessors cannot satisfy.
    MissingMatrix {
        /// Gate mnemonic.
        gate: String,
    },
    /// The requested window is outside `1..=MAX_FUSION_WIDTH`.
    InvalidWidth {
        /// Requested window.
        width: usize,
    },
}

impl fmt::Display for FusionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FusionError::UnsupportedArity { gate, arity } => write!(
                f,
                "fusion requires gates of arity <= 2; lower '{gate}' (arity {arity}) first"
            ),
            FusionError::MissingMatrix { gate } => {
                write!(f, "gate '{gate}' has no dense matrix of its declared arity")
            }
            FusionError::InvalidWidth { width } => {
                write!(f, "fusion width must be in 1..={MAX_FUSION_WIDTH}, got {width}")
            }
        }
    }
}

impl std::error::Error for FusionError {}

/// Default fusion window matching the paper's `gate fusion = 5`.
pub const DEFAULT_FUSION_WIDTH: usize = 5;

/// A dense unitary over `k ≤ MAX_FUSION_WIDTH` qubits, row-major
/// `2^k × 2^k`, always stored in f64 (engines cast to their precision).
///
/// Local index convention: bit `j` of a row/column index corresponds to
/// `qubits[j]` of the owning [`FusedBlock`] (little-endian, like the global
/// state index).
#[derive(Debug, Clone, PartialEq)]
pub struct DenseUnitary {
    k: usize,
    m: Vec<C64>,
}

impl DenseUnitary {
    /// Identity over `k` qubits.
    pub fn identity(k: usize) -> Self {
        assert!(k <= MAX_FUSION_WIDTH, "fusion width {k} exceeds {MAX_FUSION_WIDTH}");
        let dim = 1usize << k;
        let mut m = vec![C64::ZERO; dim * dim];
        for i in 0..dim {
            m[i * dim + i] = C64::ONE;
        }
        DenseUnitary { k, m }
    }

    /// Build a unitary from raw row-major elements (`2^k × 2^k` of them).
    /// The caller is responsible for unitarity — check with
    /// [`DenseUnitary::is_unitary`] when the elements come from outside
    /// the fusion pass.
    pub fn from_elements(k: usize, m: Vec<C64>) -> Self {
        assert!(k <= MAX_FUSION_WIDTH, "fusion width {k} exceeds {MAX_FUSION_WIDTH}");
        assert_eq!(m.len(), (1usize << k) * (1usize << k), "element count must be 4^k");
        DenseUnitary { k, m }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.k
    }

    /// Matrix dimension `2^k`.
    pub fn dim(&self) -> usize {
        1 << self.k
    }

    /// Element at `(row, col)`.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> C64 {
        self.m[row * self.dim() + col]
    }

    /// Raw row-major elements.
    pub fn elements(&self) -> &[C64] {
        &self.m
    }

    /// Grow to `k_new` qubits by tensoring identity onto new high local
    /// bits: `I ⊗ self` (existing local bits keep their positions).
    pub fn grow(&self, k_new: usize) -> Self {
        assert!(k_new >= self.k && k_new <= MAX_FUSION_WIDTH);
        if k_new == self.k {
            return self.clone();
        }
        let old_dim = self.dim();
        let new_dim = 1usize << k_new;
        let mut m = vec![C64::ZERO; new_dim * new_dim];
        let blocks = new_dim / old_dim;
        for b in 0..blocks {
            let off = b * old_dim;
            for r in 0..old_dim {
                for c in 0..old_dim {
                    m[(off + r) * new_dim + (off + c)] = self.m[r * old_dim + c];
                }
            }
        }
        DenseUnitary { k: k_new, m }
    }

    /// Left-multiply by a gate embedded at the given local bit positions:
    /// `self ← E(gate) · self`, i.e. the gate is applied *after* the block's
    /// existing contents (circuit order).
    ///
    /// `positions` maps each gate operand to its local bit (operand 0 → the
    /// control/high bit of a [`qgear_num::Mat4`]).
    ///
    /// Rejects gates of unsupported arity instead of panicking, so a
    /// serving worker can turn a malformed circuit into a job error.
    ///
    /// Out of line on purpose: inlined into its one caller's gate loop,
    /// [`try_fuse`] measured 25–40 % slower (qft-12 150 → 190 µs,
    /// qcrank-13 4.0 → 5.5 ms, best of 9 × 30, interleaved).
    #[inline(never)]
    fn try_push_gate(&mut self, gate: &Gate, positions: &[usize]) -> Result<(), FusionError> {
        let dim = self.dim();
        let mut out = vec![C64::ZERO; dim * dim];
        match positions.len() {
            1 => {
                let g = gate.matrix2::<f64>().ok_or_else(|| FusionError::MissingMatrix {
                    gate: gate.kind.name().to_owned(),
                })?;
                let p = positions[0];
                let pm = 1usize << p;
                // out[r][c] = sum_s E[r][s]·m[s][c]; E couples only rows
                // differing in bit p.
                for r in 0..dim {
                    let rb = usize::from(r & pm != 0);
                    let r0 = r & !pm;
                    let r1 = r | pm;
                    for c in 0..dim {
                        out[r * dim + c] = g.m[rb][0] * self.m[r0 * dim + c]
                            + g.m[rb][1] * self.m[r1 * dim + c];
                    }
                }
            }
            2 => {
                let g = gate.matrix4::<f64>().ok_or_else(|| FusionError::MissingMatrix {
                    gate: gate.kind.name().to_owned(),
                })?;
                let (pa, pb) = (positions[0], positions[1]);
                let (ma, mb) = (1usize << pa, 1usize << pb);
                for r in 0..dim {
                    let ra = usize::from(r & ma != 0);
                    let rb = usize::from(r & mb != 0);
                    let row = 2 * ra + rb;
                    let base = r & !(ma | mb);
                    let sources = [base, base | mb, base | ma, base | ma | mb];
                    for c in 0..dim {
                        let mut acc = C64::ZERO;
                        for (s, &src) in sources.iter().enumerate() {
                            acc = g.m[row][s].mul_add(self.m[src * dim + c], acc);
                        }
                        out[r * dim + c] = acc;
                    }
                }
            }
            n => {
                return Err(FusionError::UnsupportedArity {
                    gate: gate.kind.name().to_owned(),
                    arity: n,
                })
            }
        }
        self.m = out;
        Ok(())
    }

    /// Apply this unitary to a full state vector, with `qubits[j]` giving
    /// the global qubit for local bit `j`. Reference implementation used by
    /// tests and by the Aer fallback; the parallel engines re-implement
    /// this loop with rayon.
    pub fn apply_to_state(&self, state: &mut [C64], qubits: &[u32]) {
        assert_eq!(qubits.len(), self.k);
        let dim = self.dim();
        let masks: Vec<usize> = qubits.iter().map(|&q| 1usize << q).collect();
        let all_mask: usize = masks.iter().sum();
        let mut scratch = vec![C64::ZERO; dim];
        for base in 0..state.len() {
            if base & all_mask != 0 {
                continue;
            }
            // Gather the 2^k amplitudes of this group.
            for (local, s) in scratch.iter_mut().enumerate() {
                let mut idx = base;
                for (j, &m) in masks.iter().enumerate() {
                    if local & (1 << j) != 0 {
                        idx |= m;
                    }
                }
                *s = state[idx];
            }
            // Multiply and scatter.
            for (local, row) in self.m.chunks_exact(dim).enumerate() {
                let mut acc = C64::ZERO;
                for (s, &e) in scratch.iter().zip(row) {
                    acc = e.mul_add(*s, acc);
                }
                let mut idx = base;
                for (j, &m) in masks.iter().enumerate() {
                    if local & (1 << j) != 0 {
                        idx |= m;
                    }
                }
                state[idx] = acc;
            }
        }
    }

    /// Mask of the local bits the unitary **mixes** (bit `j` set iff some
    /// element above `tol` couples the `bit_j = 0` and `bit_j = 1`
    /// subspaces), from one scan of the matrix. A bit that is *not* mixed
    /// (the matrix is block-diagonal in it) acts as a control or phase
    /// qubit — when that qubit is device-global in a distributed run,
    /// each device can apply its rank-conditioned sub-block with **zero
    /// communication** (the cuQuantum-style optimization).
    pub fn mixed_bits(&self, tol: f64) -> usize {
        self.cross_bits(|e| e.norm() > tol)
    }

    /// [`DenseUnitary::mixed_bits`] with nothing rounded away: bit `j` is
    /// clear only if every element coupling its two subspaces is bitwise
    /// `±0.0` in both components. Not `mixed_bits(0.0)` — a `norm()` of
    /// `1e-200` squares to zero first.
    pub fn exactly_mixed_bits(&self) -> usize {
        self.cross_bits(|e| e.re != 0.0 || e.im != 0.0)
    }

    /// OR of `row ^ col` over the elements `keep` accepts; an element
    /// that could add no new bit is not asked about.
    fn cross_bits(&self, keep: impl Fn(C64) -> bool) -> usize {
        let mut bits = 0usize;
        for (r, row) in self.m.chunks_exact(self.dim()).enumerate() {
            for (c, &e) in row.iter().enumerate() {
                if (r ^ c) & !bits != 0 && keep(e) {
                    bits |= r ^ c;
                }
            }
        }
        bits
    }

    /// If the unitary is diagonal, return its diagonal (length `2^k`);
    /// `None` otherwise. Diagonal kernels (QFT `cr1` ladders, `rz` chains)
    /// admit an element-wise phase sweep with no gather/scatter.
    pub fn diagonal(&self, tol: f64) -> Option<Vec<C64>> {
        let dim = self.dim();
        for r in 0..dim {
            for c in 0..dim {
                if r != c && self.m[r * dim + c].norm() > tol {
                    return None;
                }
            }
        }
        Some((0..dim).map(|i| self.m[i * dim + i]).collect())
    }

    /// Project onto the subspace where the given local bits take fixed
    /// values, producing the unitary over the remaining bits (which keep
    /// their relative order). Every conditioned bit must be unmixed
    /// (checked in debug builds) or the result would not be unitary.
    ///
    /// `conditions` maps local bit → fixed value (0 or 1).
    pub fn condition_on(&self, conditions: &[(usize, usize)]) -> DenseUnitary {
        debug_assert!(conditions.iter().all(|&(j, v)| j < self.k && v <= 1));
        let cond_mask: usize = conditions.iter().map(|&(j, _)| 1usize << j).sum();
        debug_assert_eq!(self.mixed_bits(1e-12) & cond_mask, 0, "conditioning a mixed bit");
        let cond_value: usize = conditions.iter().map(|&(j, v)| v << j).sum();
        let kept: Vec<usize> = (0..self.k).filter(|j| cond_mask & (1 << j) == 0).collect();
        let new_k = kept.len();
        let new_dim = 1usize << new_k;
        let dim = self.dim();
        let expand = |small: usize| -> usize {
            let mut idx = cond_value;
            for (new_bit, &old_bit) in kept.iter().enumerate() {
                if small & (1 << new_bit) != 0 {
                    idx |= 1 << old_bit;
                }
            }
            idx
        };
        let mut m = vec![C64::ZERO; new_dim * new_dim];
        for r in 0..new_dim {
            let rr = expand(r);
            for c in 0..new_dim {
                m[r * new_dim + c] = self.m[rr * dim + expand(c)];
            }
        }
        DenseUnitary { k: new_k, m }
    }

    /// True if `U†U ≈ I` within `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        let dim = self.dim();
        for i in 0..dim {
            for j in 0..dim {
                let mut acc = C64::ZERO;
                for r in 0..dim {
                    acc += self.m[r * dim + i].conj() * self.m[r * dim + j];
                }
                let expect = if i == j { C64::ONE } else { C64::ZERO };
                if (acc - expect).norm() > tol {
                    return false;
                }
            }
        }
        true
    }
}

/// One fused kernel: a dense unitary over an explicit set of global qubits.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedBlock {
    /// Global qubit of each local bit, ascending local significance.
    pub qubits: Vec<u32>,
    /// The fused dense unitary.
    pub unitary: DenseUnitary,
    /// Number of source gates absorbed into this kernel.
    pub source_gates: usize,
}

impl FusedBlock {
    /// Which block qubits the kernel actually mixes (`mask[j]` for local
    /// bit `j`). Unmixed qubits are pure controls/phases and never require
    /// remapping in distributed execution.
    pub fn mixing_mask(&self) -> Vec<bool> {
        let mixed = self.unitary.mixed_bits(1e-12);
        (0..self.qubits.len()).map(|j| mixed >> j & 1 == 1).collect()
    }

    /// Global-qubit bitmask of this kernel's support (`bit q` set iff the
    /// kernel acts on qubit `q`). The sweep scheduler's disjointness and
    /// commutation checks run on these masks instead of walking qubit
    /// lists.
    pub fn support_mask(&self) -> u128 {
        self.qubits.iter().map(|&q| 1u128 << q).sum()
    }

    /// Global-qubit bitmask of the qubits this kernel *mixes* (couples the
    /// 0- and 1-subspaces of). Unmixed support qubits are controls/phases;
    /// two kernels commute whenever neither mixes a shared qubit (both are
    /// block-diagonal over the shared bits, and their private supports are
    /// disjoint).
    pub fn mixed_support_mask(&self) -> u128 {
        let mixed = self.unitary.mixed_bits(1e-12);
        self.qubits
            .iter()
            .enumerate()
            .filter(|&(j, _)| mixed >> j & 1 == 1)
            .map(|(_, &q)| 1u128 << q)
            .sum()
    }

    /// True if the kernel is diagonal (a pure phase pattern): applies
    /// element-wise with no gather/scatter, so it can join a sweep of any
    /// width.
    pub fn is_diagonal(&self) -> bool {
        self.unitary.diagonal(1e-15).is_some()
    }
}

/// The kernel list produced by [`fuse`]: what §2.2 calls the "kernel
/// circuits, optimized for CUDA execution".
#[derive(Debug, Clone, PartialEq)]
pub struct FusedProgram {
    /// Register width.
    pub num_qubits: u32,
    /// Kernels in execution order.
    pub blocks: Vec<FusedBlock>,
    /// The fusion window used.
    pub fusion_width: usize,
}

impl FusedProgram {
    /// Total source gates absorbed.
    pub fn source_gate_count(&self) -> usize {
        self.blocks.iter().map(|b| b.source_gates).sum()
    }

    /// Ratio of source gates to kernels — the sweep-count reduction fusion
    /// bought (≥ 1.0; reported by the ablation bench).
    pub fn compression_ratio(&self) -> f64 {
        if self.blocks.is_empty() {
            return 1.0;
        }
        self.source_gate_count() as f64 / self.blocks.len() as f64
    }

    /// Apply the whole program to a state vector (reference path).
    pub fn apply_to_state(&self, state: &mut [C64]) {
        for b in &self.blocks {
            b.unitary.apply_to_state(state, &b.qubits);
        }
    }
}

/// Greedily fuse a circuit's unitary gates into dense kernels of at most
/// `width` qubits.
///
/// Measurements and barriers flush the current window (they are
/// synchronization points); measurements are *not* represented in the
/// output — split them off with [`Circuit::split_measurements`] first if
/// you need them.
///
/// # Panics
///
/// Panics if `width` is 0 or exceeds [`MAX_FUSION_WIDTH`], or if the
/// circuit contains arity-3 gates (lower `ccx` first). Use [`try_fuse`]
/// when the circuit comes from an untrusted source (e.g. a serving
/// request) and must reject instead of aborting.
pub fn fuse(circ: &Circuit, width: usize) -> FusedProgram {
    try_fuse(circ, width).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`fuse`]: invalid widths and unsupported gate
/// arities come back as a [`FusionError`] instead of a panic.
pub fn try_fuse(circ: &Circuit, width: usize) -> Result<FusedProgram, FusionError> {
    if !(1..=MAX_FUSION_WIDTH).contains(&width) {
        return Err(FusionError::InvalidWidth { width });
    }
    let _span = qgear_telemetry::span!(qgear_telemetry::names::spans::FUSE);
    let mut blocks: Vec<FusedBlock> = Vec::new();
    let mut cur_qubits: Vec<u32> = Vec::new();
    let mut cur: Option<DenseUnitary> = None;
    let mut cur_sources = 0usize;

    let flush =
        |cur: &mut Option<DenseUnitary>, cur_qubits: &mut Vec<u32>, cur_sources: &mut usize,
         blocks: &mut Vec<FusedBlock>| {
            if let Some(u) = cur.take() {
                blocks.push(FusedBlock {
                    qubits: std::mem::take(cur_qubits),
                    unitary: u,
                    source_gates: std::mem::replace(cur_sources, 0),
                });
            }
        };

    for g in circ.gates() {
        if !g.is_unitary_op() {
            flush(&mut cur, &mut cur_qubits, &mut cur_sources, &mut blocks);
            continue;
        }
        let ops = g.operands();
        if ops.len() > 2 {
            return Err(FusionError::UnsupportedArity {
                gate: g.kind.name().to_owned(),
                arity: ops.len(),
            });
        }
        // For a minimum-width window that cannot hold a 2-qubit gate, fall
        // back to per-gate blocks of the gate's own arity.
        let needed: Vec<u32> = ops
            .iter()
            .copied()
            .filter(|q| !cur_qubits.contains(q))
            .collect();
        let fits = cur.is_some() && cur_qubits.len() + needed.len() <= width;
        if !fits {
            flush(&mut cur, &mut cur_qubits, &mut cur_sources, &mut blocks);
            // A fresh block of the gate's own arity — at width 1 a 2-qubit
            // gate still gets its own 2-qubit block.
            cur_qubits = ops.to_vec();
            cur = Some(DenseUnitary::identity(ops.len()));
        } else if !needed.is_empty() {
            cur_qubits.extend_from_slice(&needed);
            cur = Some(cur.take().unwrap().grow(cur_qubits.len()));
        }
        let positions: Vec<usize> = ops
            .iter()
            .map(|q| cur_qubits.iter().position(|c| c == q).unwrap())
            .collect();
        cur.as_mut().unwrap().try_push_gate(g, &positions)?;
        cur_sources += 1;
        // A width-1 window never accumulates across 2-qubit gates.
        if ops.len() > width {
            flush(&mut cur, &mut cur_qubits, &mut cur_sources, &mut blocks);
        }
    }
    flush(&mut cur, &mut cur_qubits, &mut cur_sources, &mut blocks);

    if qgear_telemetry::is_enabled() {
        use qgear_telemetry::names;
        qgear_telemetry::counter_add(names::FUSED_BLOCKS, blocks.len() as u128);
        qgear_telemetry::counter_add(
            names::FUSION_SOURCE_GATES,
            blocks.iter().map(|b| b.source_gates as u128).sum(),
        );
        for b in &blocks {
            qgear_telemetry::histogram_record(names::FUSION_BLOCK_WIDTH, b.qubits.len() as f64);
        }
    }
    Ok(FusedProgram { num_qubits: circ.num_qubits(), blocks, fusion_width: width })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;
    use crate::reference;
    use qgear_num::approx::max_deviation;

    fn mixed_circuit(n: u32) -> Circuit {
        let mut c = Circuit::new(n);
        c.h(0).ry(0.3, 1).cx(0, 1).rz(-0.7, 2).cx(1, 2).rx(0.2, 0).cx(2, 3).ry(1.1, 3).cx(3, 0).h(2);
        c
    }

    #[test]
    fn identity_block_is_unitary() {
        for k in 1..=4 {
            assert!(DenseUnitary::identity(k).is_unitary(1e-14));
        }
    }

    #[test]
    fn grow_preserves_action_on_old_bits() {
        let mut u = DenseUnitary::identity(1);
        u.try_push_gate(&Gate::q1p1(GateKind::Ry, 0, 0.8), &[0]).unwrap();
        let g = u.grow(3);
        assert_eq!(g.num_qubits(), 3);
        assert!(g.is_unitary(1e-13));
        // Applying grown block on qubits [0,1,2] == applying small on [0].
        let mut s1 = reference::random_state(4, 11);
        let mut s2 = s1.clone();
        g.apply_to_state(&mut s1, &[0, 1, 2]);
        u.apply_to_state(&mut s2, &[0]);
        assert!(max_deviation(&s1, &s2) < 1e-13);
    }

    #[test]
    fn fused_program_matches_unfused_execution() {
        for width in 1..=5usize {
            let c = mixed_circuit(5);
            let prog = fuse(&c, width);
            assert_eq!(prog.source_gate_count(), c.unitary_count());
            let mut fused_state = reference::zero_state(5);
            prog.apply_to_state(&mut fused_state);
            let direct = reference::run(&c);
            assert!(
                max_deviation(&fused_state, &direct) < 1e-12,
                "width {width}: deviation {}",
                max_deviation(&fused_state, &direct)
            );
        }
    }

    #[test]
    fn all_blocks_unitary() {
        let c = mixed_circuit(6);
        let prog = fuse(&c, 4);
        for b in &prog.blocks {
            assert!(b.unitary.is_unitary(1e-12));
            assert_eq!(b.qubits.len(), b.unitary.num_qubits());
        }
    }

    #[test]
    fn wider_window_fuses_more() {
        let c = mixed_circuit(6);
        let narrow = fuse(&c, 2);
        let wide = fuse(&c, 5);
        assert!(wide.blocks.len() <= narrow.blocks.len());
        assert!(wide.compression_ratio() >= narrow.compression_ratio());
        assert!(wide.compression_ratio() > 1.0);
    }

    #[test]
    fn width_one_isolates_two_qubit_gates() {
        let mut c = Circuit::new(3);
        c.h(0).h(0).cx(0, 1).h(1);
        let prog = fuse(&c, 1);
        // h,h fuse on q0 (same qubit fits width 1); cx gets its own block;
        // h(1) its own.
        assert_eq!(prog.blocks.len(), 3);
        assert_eq!(prog.blocks[1].qubits.len(), 2);
        let mut s = reference::zero_state(3);
        prog.apply_to_state(&mut s);
        let direct = reference::run(&c);
        assert!(max_deviation(&s, &direct) < 1e-13);
    }

    #[test]
    fn barrier_flushes_window() {
        let mut c = Circuit::new(2);
        c.h(0).barrier().h(1);
        let prog = fuse(&c, 2);
        assert_eq!(prog.blocks.len(), 2);
    }

    #[test]
    fn consecutive_same_pair_gates_fuse_to_one_block() {
        // The random CX-block structure: ry,rz then cx on one pair.
        let mut c = Circuit::new(4);
        c.ry(0.4, 2).rz(0.9, 3).cx(2, 3);
        let prog = fuse(&c, 2);
        assert_eq!(prog.blocks.len(), 1);
        assert_eq!(prog.blocks[0].source_gates, 3);
        let mut s = reference::zero_state(4);
        prog.apply_to_state(&mut s);
        assert!(max_deviation(&s, &reference::run(&c)) < 1e-13);
    }

    #[test]
    fn empty_circuit_fuses_to_empty_program() {
        let c = Circuit::new(3);
        let prog = fuse(&c, 5);
        assert!(prog.blocks.is_empty());
        assert_eq!(prog.compression_ratio(), 1.0);
    }

    #[test]
    #[should_panic(expected = "fusion width")]
    fn zero_width_rejected() {
        fuse(&Circuit::new(1), 0);
    }

    #[test]
    #[should_panic(expected = "arity <= 2")]
    fn ccx_rejected() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        fuse(&c, 5);
    }

    #[test]
    fn try_fuse_rejects_ccx_without_panicking() {
        let mut c = Circuit::new(3);
        c.h(0).ccx(0, 1, 2);
        match try_fuse(&c, 5) {
            Err(FusionError::UnsupportedArity { gate, arity }) => {
                assert_eq!(gate, "ccx");
                assert_eq!(arity, 3);
            }
            other => panic!("expected UnsupportedArity, got {other:?}"),
        }
    }

    #[test]
    fn try_fuse_rejects_invalid_widths() {
        assert_eq!(try_fuse(&Circuit::new(1), 0), Err(FusionError::InvalidWidth { width: 0 }));
        assert_eq!(try_fuse(&Circuit::new(1), 7), Err(FusionError::InvalidWidth { width: 7 }));
    }

    #[test]
    fn try_fuse_matches_fuse_on_valid_input() {
        let c = mixed_circuit(5);
        assert_eq!(try_fuse(&c, 4).unwrap(), fuse(&c, 4));
    }

    #[test]
    fn mixes_bit_detects_controls_and_targets() {
        // CX(control=q0 high?, ...): build cx with control as local bit 1
        // (first operand) and target bit 0.
        let mut c = Circuit::new(2);
        c.cx(1, 0);
        let prog = fuse(&c, 2);
        let b = &prog.blocks[0];
        // Block qubits = [1, 0]; local bit 0 ↔ qubit 1 (control),
        // local bit 1 ↔ qubit 0 (target).
        assert_eq!(b.qubits, vec![1, 0]);
        let mask = b.mixing_mask();
        assert!(!mask[0], "control bit must not mix");
        assert!(mask[1], "target bit must mix");
    }

    #[test]
    fn diagonal_blocks_mix_nothing() {
        let mut c = Circuit::new(3);
        c.rz(0.4, 0).cr1(0.9, 1, 2).rz(-0.2, 2);
        let prog = fuse(&c, 3);
        for b in &prog.blocks {
            assert!(b.mixing_mask().iter().all(|&m| !m), "diagonal kernels mix no bits");
        }
    }

    #[test]
    fn rotation_on_control_strand_mixes_it() {
        // The Fig. 4a random-block pattern: ry on the control strand makes
        // the fused block mix the control qubit too.
        let mut c = Circuit::new(2);
        c.ry(0.7, 1).cx(1, 0);
        let prog = fuse(&c, 2);
        assert!(prog.blocks[0].mixing_mask().iter().all(|&m| m));
    }

    #[test]
    fn condition_on_extracts_controlled_action() {
        // CX conditioned on control=1 is X; on control=0 is I.
        let mut c = Circuit::new(2);
        c.cx(1, 0);
        let prog = fuse(&c, 2);
        let b = &prog.blocks[0];
        // local bit 0 = control (qubit 1), local bit 1 = target (qubit 0).
        let on = b.unitary.condition_on(&[(0, 1)]);
        let off = b.unitary.condition_on(&[(0, 0)]);
        assert_eq!(on.num_qubits(), 1);
        assert!((on.at(0, 1) - C64::ONE).norm() < 1e-14, "X when control set");
        assert!((on.at(1, 0) - C64::ONE).norm() < 1e-14);
        assert!((off.at(0, 0) - C64::ONE).norm() < 1e-14, "I when control clear");
        assert!((off.at(1, 1) - C64::ONE).norm() < 1e-14);
    }

    #[test]
    fn condition_on_multiple_bits() {
        // cr1(λ) is diagonal in both bits: conditioning both yields the
        // 1x1 phase.
        let mut c = Circuit::new(2);
        c.cr1(0.8, 1, 0);
        let prog = fuse(&c, 2);
        let u = &prog.blocks[0].unitary;
        let both_set = u.condition_on(&[(0, 1), (1, 1)]);
        assert_eq!(both_set.num_qubits(), 0);
        assert!((both_set.at(0, 0) - C64::cis(0.8)).norm() < 1e-14);
        let control_clear = u.condition_on(&[(0, 0), (1, 1)]);
        assert!((control_clear.at(0, 0) - C64::ONE).norm() < 1e-14);
    }

    #[test]
    fn conditioned_application_matches_full_block() {
        // Applying the conditioned sub-blocks per half-space must equal
        // applying the full block.
        let mut c = Circuit::new(3);
        c.rz(0.3, 2).cx(2, 0).cr1(0.5, 2, 1);
        let prog = fuse(&c, 3);
        assert_eq!(prog.blocks.len(), 1);
        let b = &prog.blocks[0];
        let mask = b.mixing_mask();
        // Find an unmixed block qubit (qubit 2: control + diagonal only).
        let j = mask.iter().position(|&m| !m).expect("an unmixed bit exists");
        let gq = b.qubits[j];
        let mut full = reference::random_state(3, 5);
        let mut cond = full.clone();
        b.unitary.apply_to_state(&mut full, &b.qubits);
        // Conditioned path: split the state on qubit gq.
        for bit in 0..2usize {
            let sub = b.unitary.condition_on(&[(j, bit)]);
            let sub_qubits: Vec<u32> = b
                .qubits
                .iter()
                .enumerate()
                .filter(|&(idx, _)| idx != j)
                .map(|(_, &q)| q)
                .collect();
            // Apply sub-block only to amplitudes with qubit gq == bit:
            // gather those amplitudes into a temporary, transform, scatter.
            let mask_g = 1usize << gq;
            let mut half: Vec<C64> = Vec::with_capacity(cond.len() / 2);
            let mut idxs: Vec<usize> = Vec::with_capacity(cond.len() / 2);
            for (i, &a) in cond.iter().enumerate() {
                if ((i & mask_g != 0) as usize) == bit {
                    half.push(a);
                    idxs.push(i);
                }
            }
            // The gathered half has qubit gq removed: remap sub_qubits to
            // their positions in the compacted index. Qubits above gq
            // shift down by one.
            let remap: Vec<u32> = sub_qubits
                .iter()
                .map(|&q| if q > gq { q - 1 } else { q })
                .collect();
            sub.apply_to_state(&mut half, &remap);
            for (a, &i) in half.iter().zip(&idxs) {
                cond[i] = *a;
            }
        }
        assert!(max_deviation(&full, &cond) < 1e-12);
    }

    #[test]
    fn from_elements_round_trips() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let u = &fuse(&c, 2).blocks[0].unitary;
        let rebuilt = DenseUnitary::from_elements(2, u.elements().to_vec());
        assert_eq!(&rebuilt, u);
    }

    #[test]
    fn deep_circuit_with_random_structure() {
        // Pseudo-random 40-gate circuit over 6 qubits at width 5.
        let mut c = Circuit::new(6);
        let mut s = 12345u64;
        let mut rnd = move |m: u64| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) % m
        };
        for _ in 0..40 {
            match rnd(4) {
                0 => {
                    c.ry(rnd(628) as f64 / 100.0, rnd(6) as u32);
                }
                1 => {
                    c.rz(rnd(628) as f64 / 100.0, rnd(6) as u32);
                }
                2 => {
                    c.h(rnd(6) as u32);
                }
                _ => {
                    let a = rnd(6) as u32;
                    let b = (a + 1 + rnd(5) as u32) % 6;
                    c.cx(a, b);
                }
            }
        }
        let prog = fuse(&c, 5);
        let mut fused = reference::zero_state(6);
        prog.apply_to_state(&mut fused);
        assert!(max_deviation(&fused, &reference::run(&c)) < 1e-11);
    }
}
