//! CUDA-Q-style gate fusion into multiplexed kernels.
//!
//! The paper's QFT kernel "specifies hyperparameters (gate fusion = 5)"
//! (Appendix D.2): consecutive gates are multiplied into one kernel, so
//! each state-vector pass applies many gates at once. A fused kernel here
//! is a [`FusedBlock`]: its qubits, the mask of the qubits it **mixes**
//! (couples the 0- and 1-subspaces of), and one `2^μ × 2^μ` sub-unitary
//! per assignment of the `u` qubits it does not mix — a *multiplexed*
//! kernel, block-diagonal in its controls and phases. A diagonal is the
//! `μ = 0` case, a dense kernel the `u = 0` case, and a uniformly
//! controlled rotation (QCrank's Gray-code `ry`/`cx` ladder) one kernel of
//! `2^u` `2×2` sub-unitaries, as Qrack and Qibo's custom kernels apply it
//! (PAPERS.md).
//!
//! A kernel costs `2^μ` mul-adds per amplitude and one pass over the
//! state, so the window that matters is the table, not the support:
//! [`Window::Table`] admits a gate while the block's table stays within
//! `4^w` entries (`2^u · 4^μ ≤ 4^w`, no larger than a dense width-`w`
//! kernel), which lets a block grow through any number of qubits it only
//! controls or phases. [`Window::Support`] is CUDA-Q's own rule — at most
//! `w` qubits of support — which the A100 model in `qgear-perfmodel`
//! keeps, because the paper's figures were measured under it. The two
//! windows run one fuser loop; the admission test is the only
//! difference. The adaptive planner in `qgear-statevec::planner` prices
//! each scheduled segment of kernels against per-gate execution.
//!
//! Every table entry is the entry of the dense `2^k × 2^k` product the
//! same gates would build, computed by the same expression over the same
//! sources in the same order, less the terms whose source lies in another
//! sub-unitary — an exact zero of the dense product, met by an exactly
//! zero gate entry. Adding a zero changes no nonzero sum, so the entries
//! agree bit for bit in every nonzero component; a zero component may
//! differ in its sign, which no kernel result can see (the zero argument
//! at `FusedBlock::close`).
//!
//! While a block grows its mask is structural: a bit is mixed once a gate
//! that mixes it joined. A lowered `cr1` (`rz·rz·cx·rz·cx`) mixes its
//! target twice and cancels to a phase, so the structural mask can be
//! wider than what the table mixes. Closing a block demotes every bit no
//! entry crosses, once; every consumer — the engines' kernels, the
//! planner's pricing, the sweep scheduler, the cluster's remaps — then
//! reads [`FusedBlock::mixed`] and never re-derives it.
//!
//! [`fuse`] performs the greedy window fusion; [`FusedProgram`] is the
//! executable kernel list handed to the engines in `qgear-statevec`.

use crate::circuit::Circuit;
use crate::gate::Gate;
use qgear_num::{Mat2, Mat4, C64};
use std::fmt;

/// Largest fusion width a caller may ask for. A block's table holds at
/// most `4^width` entries — `2^u` sub-unitaries of `2^μ × 2^μ` with
/// `u + 2μ ≤ 2·width` — so a block mixes at most `width` qubits and
/// spans at most `2·width` (the paper uses 5).
pub const MAX_FUSION_WIDTH: usize = 6;

/// Errors the fusion pass can report instead of aborting the process.
///
/// Long-running callers (the `qgear-serve` workers, the core pipeline)
/// use [`try_fuse`] and surface these as job failures; the panicking
/// [`fuse`] wrapper keeps the original fail-fast contract for harnesses
/// that feed known-good circuits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FusionError {
    /// A gate had more operands than kernel fusion supports.
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

/// Which blocks a fusion width admits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// CUDA-Q's rule: at most `width` qubits of support, however few of
    /// them the block mixes.
    Support,
    /// At most `4^width` table entries: `2^u · 4^μ ≤ 4^width` for a block
    /// that mixes `μ` qubits and only controls or phases `u` more. Width 1
    /// is the per-gate window of both rules (a block of one qubit): a
    /// table of two phases on two qubits would merge gates on different
    /// qubits and buy no mul-add.
    Table,
}

impl Window {
    fn admits(self, width: usize, unmixed: usize, mixed: usize) -> bool {
        match self {
            Window::Table if width > 1 => unmixed + 2 * mixed <= 2 * width,
            _ => unmixed + mixed <= width,
        }
    }
}

/// Scatter the low bits of `packed` onto the set bits of `mask`, lowest
/// first.
#[inline]
fn deposit(mut packed: usize, mut mask: usize) -> usize {
    let mut out = 0;
    while mask != 0 {
        let low = mask & mask.wrapping_neg();
        if packed & 1 != 0 {
            out |= low;
        }
        packed >>= 1;
        mask &= mask - 1;
    }
    out
}

/// Gather the bits of `index` that `mask` selects into the low bits,
/// lowest first (the inverse of [`deposit`]).
#[inline]
fn extract(index: usize, mut mask: usize) -> usize {
    let (mut out, mut bit) = (0, 0);
    while mask != 0 {
        let low = mask & mask.wrapping_neg();
        if index & low != 0 {
            out |= 1 << bit;
        }
        bit += 1;
        mask &= mask - 1;
    }
    out
}

/// `2^k - 1`: the mask of `k` local bits.
fn low_bits(k: usize) -> usize {
    (1usize << k) - 1
}

/// Apply a 2×2 action to every pair of table rows one mixed bit apart:
/// in each sub-unitary (`sq` entries) the entries `half` apart, row by
/// row. `coef(t)` is the action in sub-unitary `t`, `row(g, lo, hi)` one
/// output entry from its coefficient row and the two sources.
fn pairs(
    src: &[C64],
    dst: &mut [C64],
    sq: usize,
    half: usize,
    coef: impl Fn(usize) -> [[C64; 2]; 2],
    row: impl Fn([C64; 2], C64, C64) -> C64,
) {
    for (t, (s, d)) in src.chunks_exact(sq).zip(dst.chunks_exact_mut(sq)).enumerate() {
        let g = coef(t);
        for (s, d) in s.chunks_exact(2 * half).zip(d.chunks_exact_mut(2 * half)) {
            let (lo, hi) = s.split_at(half);
            let (dlo, dhi) = d.split_at_mut(half);
            for j in 0..half {
                dlo[j] = row(g[0], lo[j], hi[j]);
                dhi[j] = row(g[1], lo[j], hi[j]);
            }
        }
    }
}

/// Scale every sub-unitary (`sq` entries) by one entry, `coef(t)` for
/// sub-unitary `t`: a gate that mixes none of its operands.
fn scale(src: &[C64], dst: &mut [C64], sq: usize, coef: impl Fn(usize) -> C64) {
    for (t, (s, d)) in src.chunks_exact(sq).zip(dst.chunks_exact_mut(sq)).enumerate() {
        let g = coef(t);
        for (e, &x) in d.iter_mut().zip(s) {
            *e = g * x;
        }
    }
}

/// A gate's matrix, read once per gate.
enum GateMatrix {
    One(Mat2<f64>),
    Two(Mat4<f64>),
}

impl GateMatrix {
    fn of(gate: &Gate) -> Result<Self, FusionError> {
        let missing = || FusionError::MissingMatrix { gate: gate.kind.name().to_owned() };
        match gate.operands().len() {
            1 => gate.matrix2::<f64>().map(GateMatrix::One).ok_or_else(missing),
            2 => gate.matrix4::<f64>().map(GateMatrix::Two).ok_or_else(missing),
            n => Err(FusionError::UnsupportedArity { gate: gate.kind.name().to_owned(), arity: n }),
        }
    }

    /// Which operands the gate mixes (bit `j` for operand `j`): those with
    /// an entry across their two values that is not exactly zero.
    fn mixed_operands(&self) -> usize {
        let nonzero = |e: C64| e.re != 0.0 || e.im != 0.0;
        match self {
            GateMatrix::One(g) => usize::from(nonzero(g.m[0][1]) || nonzero(g.m[1][0])),
            GateMatrix::Two(g) => {
                // Operand 0 is the high bit of the 4×4 index.
                let mut bits = 0;
                for (r, row) in g.m.iter().enumerate() {
                    for (c, &e) in row.iter().enumerate() {
                        if nonzero(e) {
                            let x = r ^ c;
                            bits |= (x >> 1 & 1) | (x & 1) << 1;
                        }
                    }
                }
                bits
            }
        }
    }
}

/// One fused kernel over an explicit set of global qubits: a table of
/// `2^u` sub-unitaries of `2^μ × 2^μ`, one per assignment of the `u`
/// qubits it does not mix.
///
/// Local bit `j` is `qubits[j]` (little-endian, like the global state
/// index). Sub-unitary `t` is the one for the unmixed local bits packed
/// in ascending order into `t`; its rows and columns are the mixed local
/// bits packed the same way. Entries are `f64`; engines cast them to
/// their precision.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedBlock {
    /// Global qubit of each local bit, ascending local significance.
    pub qubits: Vec<u32>,
    /// Local bits the table mixes.
    mixed: usize,
    /// The sub-unitaries, each row-major, concatenated in order of `t`.
    table: Vec<C64>,
    /// Number of source gates absorbed into this kernel.
    pub source_gates: usize,
}

impl FusedBlock {
    /// The identity over `qubits`, mixing the local bits of `mixed`.
    fn identity(qubits: Vec<u32>, mixed: usize) -> Self {
        let mu = mixed.count_ones() as usize;
        let (subs, mdim) = (1usize << (qubits.len() - mu), 1usize << mu);
        let mut table = vec![C64::ZERO; subs * mdim * mdim];
        for sub in table.chunks_exact_mut(mdim * mdim) {
            for i in 0..mdim {
                sub[i * mdim + i] = C64::ONE;
            }
        }
        FusedBlock { qubits, mixed, table, source_gates: 0 }
    }

    /// The kernel of the row-major `2^k × 2^k` matrix `elements` over
    /// `qubits`, closed as a fused block is: it mixes the local bits some
    /// nonzero entry crosses. The caller is responsible for unitarity;
    /// the engines never ask.
    pub fn from_dense(qubits: Vec<u32>, elements: Vec<C64>) -> Self {
        let k = qubits.len();
        assert!(k <= MAX_FUSION_WIDTH, "a dense block spans at most {MAX_FUSION_WIDTH} qubits");
        assert_eq!(elements.len(), 1 << (2 * k), "element count must be 4^k");
        FusedBlock { qubits, mixed: low_bits(k), table: elements, source_gates: 0 }.close()
    }

    /// Local bits the table mixes (bit `j` for `qubits[j]`): `μ` is its
    /// popcount. Exact: a bit is set only if some entry across it is not
    /// zero, so `mixed() == 0` is a pure phase pattern.
    pub fn mixed(&self) -> usize {
        self.mixed
    }

    /// The sub-unitaries, each row-major `2^μ × 2^μ`, concatenated in
    /// order of the unmixed local bits packed ascending. With `mixed() ==
    /// 0` every sub-unitary is one entry: the diagonal, in local-index
    /// order.
    pub fn table(&self) -> &[C64] {
        &self.table
    }

    /// Sub-unitary dimension `2^μ`.
    fn mdim(&self) -> usize {
        1 << self.mixed.count_ones()
    }

    /// Local bits the table does not mix.
    fn unmixed(&self) -> usize {
        low_bits(self.qubits.len()) & !self.mixed
    }

    /// Entry `(row, col)` of the dense `2^k × 2^k` matrix the table
    /// stands for: zero across different unmixed assignments.
    pub fn entry(&self, row: usize, col: usize) -> C64 {
        let unmixed = self.unmixed();
        if (row ^ col) & unmixed != 0 {
            return C64::ZERO;
        }
        let mdim = self.mdim();
        let sub = extract(row, unmixed) * mdim * mdim;
        self.table[sub + extract(row, self.mixed) * mdim + extract(col, self.mixed)]
    }

    /// Close the block: demote every mixed bit that no table entry
    /// crosses with a nonzero component, and re-cut the table for the
    /// narrower mask — one sub-unitary per assignment of the unmixed
    /// bits, in the same packed order. Every entry kept is copied; the
    /// entries dropped are `±0.0` in both components. The fuser closes
    /// each block once, [`FusedBlock::from_dense`] and
    /// [`FusedBlock::select`] close theirs, and from then on the mask is
    /// the kernel decision: a diagonal table when it is empty, `2^μ`
    /// mul-adds per amplitude over its bits otherwise.
    ///
    /// Skipping the dropped entries changes no result bit of the dense
    /// `2^k` mul-add chain per amplitude, in column order, that every
    /// bitwise tier is pinned to. A row's accumulator starts at `+0.0`;
    /// a zero entry times a finite amplitude is `±0.0`, and under
    /// round-to-nearest `x + ±0.0 == x` bit for bit for every `x` except
    /// `-0.0` (where `-0.0 + +0.0` is `+0.0`). So the dense chain's zero
    /// terms leave the accumulator as they found it, the nonzero terms
    /// meet the same accumulator in the same order in both chains, and
    /// the results agree in every bit. The one corner is an accumulator
    /// that *is* `-0.0`: adding zero products to `+0.0` keeps it `+0.0`
    /// and exact cancellation rounds to `+0.0`, so that takes a nonzero
    /// partial sum underflowing to `-0.0` — a product below the smallest
    /// subnormal — and then the two chains may differ in the sign of a
    /// zero. (Non-finite amplitudes have left the argument's premise, and
    /// any meaning, already.) The test is on the `f64` table and on both
    /// components, not on a norm: an entry of `1e-200`, whose norm
    /// squares to zero, stays mixed, and at fp32 an entry that only
    /// rounds to zero stays in the chain.
    fn close(mut self) -> Self {
        let m = self.mdim();
        let mut kept = 0usize;
        for sub in self.table.chunks_exact(m * m) {
            for (r, row) in sub.chunks_exact(m).enumerate() {
                for (c, e) in row.iter().enumerate() {
                    if (r ^ c) & !kept != 0 && (e.re != 0.0 || e.im != 0.0) {
                        kept |= r ^ c;
                    }
                }
            }
        }
        let mixed = deposit(kept, self.mixed);
        if mixed == self.mixed {
            return self;
        }
        let (own_unmixed, unmixed) = (self.unmixed(), low_bits(self.qubits.len()) & !mixed);
        // Row (and column) of the old sub-unitary that each assignment of
        // the kept bits reads; the demoted bits add a fixed offset, since
        // packing disjoint bits ORs.
        let rows: Vec<usize> = (0..1usize << kept.count_ones()).map(|r| deposit(r, kept)).collect();
        let mut table = Vec::with_capacity((rows.len() * rows.len()) << unmixed.count_ones());
        for t in 0..1usize << unmixed.count_ones() {
            let d = deposit(t, unmixed);
            let sub = &self.table[extract(d, own_unmixed) * m * m..][..m * m];
            let demoted = extract(d, self.mixed);
            for &r in &rows {
                table.extend(rows.iter().map(|&c| sub[(demoted | r) * m + (demoted | c)]));
            }
        }
        self.mixed = mixed;
        self.table = table;
        self
    }

    /// The kernel on the subspace where the unmixed local bits of
    /// `fixed` take fixed values (`(local bit, 0 or 1)` pairs): the
    /// sub-unitaries of the matching assignments, over the other qubits
    /// in their relative order, closed like a fused block (a bit the
    /// selected sub-unitaries do not cross is demoted). A device whose
    /// rank bits fix some of a kernel's qubits applies this selection
    /// with no communication.
    ///
    /// # Panics
    /// If a fixed bit is one the table mixes.
    pub fn select(&self, fixed: &[(usize, usize)]) -> FusedBlock {
        let fixed_mask: usize = fixed.iter().map(|&(j, _)| 1usize << j).sum();
        assert_eq!(fixed_mask & self.mixed, 0, "only an unmixed bit can be fixed");
        let value: usize = fixed.iter().map(|&(j, v)| v << j).sum();
        let unmixed = self.unmixed();
        // In packed-unmixed coordinates: the fixed bits' value, and the
        // positions the selection ranges over.
        let (fixed_value, free) = (extract(value, unmixed), extract(unmixed & !fixed_mask, unmixed));
        let kept = low_bits(self.qubits.len()) & !fixed_mask;
        let sq = self.mdim() * self.mdim();
        let mut table = Vec::with_capacity(self.table.len() >> fixed.len());
        for t in 0..1usize << free.count_ones() {
            let src = (deposit(t, free) | fixed_value) * sq;
            table.extend_from_slice(&self.table[src..src + sq]);
        }
        FusedBlock {
            qubits: (0..self.qubits.len()).filter(|j| kept >> j & 1 == 1).map(|j| self.qubits[j]).collect(),
            mixed: extract(self.mixed, kept),
            table,
            source_gates: self.source_gates,
        }
        .close()
    }

    /// Apply the kernel to a full state vector, sub-unitary by
    /// sub-unitary, every output row one `mul_add` chain in column order.
    /// Reference implementation used by tests; the engines in
    /// `qgear-statevec` run the same chain data-parallel.
    pub fn apply_to_state(&self, state: &mut [C64]) {
        let masks: Vec<usize> = self.qubits.iter().map(|&q| 1usize << q).collect();
        let all: usize = masks.iter().sum();
        // Global offset of every local index.
        let offs: Vec<usize> = (0..1usize << masks.len())
            .map(|local| masks.iter().enumerate().filter(|&(j, _)| local >> j & 1 == 1).map(|(_, m)| m).sum())
            .collect();
        let (mdim, unmixed) = (self.mdim(), self.unmixed());
        let rows: Vec<usize> = (0..mdim).map(|r| deposit(r, self.mixed)).collect();
        let mut scratch = vec![C64::ZERO; mdim];
        for base in (0..state.len()).filter(|b| b & all == 0) {
            for (t, sub) in self.table.chunks_exact(mdim * mdim).enumerate() {
                let d = deposit(t, unmixed);
                for (s, &r) in scratch.iter_mut().zip(&rows) {
                    *s = state[base | offs[d | r]];
                }
                for (row, &r) in sub.chunks_exact(mdim).zip(&rows) {
                    let mut acc = C64::ZERO;
                    for (e, s) in row.iter().zip(&scratch) {
                        acc = e.mul_add(*s, acc);
                    }
                    state[base | offs[d | r]] = acc;
                }
            }
        }
    }

    /// Which block qubits the kernel mixes (`mask[j]` for local bit `j`).
    /// Unmixed qubits are pure controls/phases and never require
    /// remapping in distributed execution.
    pub fn mixing_mask(&self) -> Vec<bool> {
        (0..self.qubits.len()).map(|j| self.mixed >> j & 1 == 1).collect()
    }

    /// Global-qubit bitmask of this kernel's support (`bit q` set iff the
    /// kernel acts on qubit `q`). The sweep scheduler's disjointness and
    /// commutation checks run on these masks instead of walking qubit
    /// lists.
    pub fn support_mask(&self) -> u128 {
        self.qubits.iter().map(|&q| 1u128 << q).sum()
    }

    /// Global-qubit bitmask of the qubits this kernel *mixes*. Unmixed
    /// support qubits are controls/phases; two kernels commute whenever
    /// neither mixes a shared qubit (both are block-diagonal over the
    /// shared bits, and their private supports are disjoint).
    pub fn mixed_support_mask(&self) -> u128 {
        self.qubits
            .iter()
            .enumerate()
            .filter(|&(j, _)| self.mixed >> j & 1 == 1)
            .map(|(_, &q)| 1u128 << q)
            .sum()
    }

    /// Re-express the table after `add` joined as new high local bits and
    /// the local bits of `mixed` (a superset of today's mask, over the
    /// grown block) became mixed: the kernel acts as the identity on the
    /// new bits, and an entry across a bit that was unmixed is zero. Every
    /// other entry is copied, so no value changes.
    fn widen(&mut self, add: &[u32], mixed: usize) {
        for &q in add {
            let j = self.qubits.len();
            self.qubits.push(q);
            if mixed >> j & 1 == 0 {
                // The highest unmixed bit: every sub-unitary again, for
                // its value 1.
                self.table.extend_from_within(..);
                continue;
            }
            // The highest mixed bit: every sub-unitary `S` becomes
            // `S ⊕ S`, its rows and columns for the new bit's value 1
            // after those for 0.
            let m = self.mdim();
            self.mixed |= 1 << j;
            let mut table = vec![C64::ZERO; 4 * self.table.len()];
            for (src, dst) in self.table.chunks_exact(m * m).zip(table.chunks_exact_mut(4 * m * m)) {
                for (r, row) in src.chunks_exact(m).enumerate() {
                    dst[r * 2 * m..][..m].copy_from_slice(row);
                    dst[(r + m) * 2 * m + m..][..m].copy_from_slice(row);
                }
            }
            self.table = table;
        }
        let mut promote = mixed & !self.mixed;
        while promote != 0 {
            let j = promote.trailing_zeros() as usize;
            promote &= promote - 1;
            // Unmixed bit `j` sits at packed mask `a` of the sub-unitary
            // index and takes packed position `b` of the row index: the
            // two sub-unitaries it told apart merge into one.
            let (m, a) = (self.mdim(), 1usize << (self.unmixed() & low_bits(j)).count_ones());
            let b = (self.mixed & low_bits(j)).count_ones();
            self.mixed |= 1 << j;
            let insert = |r: usize, x: usize| (r & low_bits(b as usize)) | x << b | (r >> b) << (b + 1);
            let mut table = vec![C64::ZERO; 2 * self.table.len()];
            for (t, dst) in table.chunks_exact_mut(4 * m * m).enumerate() {
                let base = (t & (a - 1)) | (t & !(a - 1)) << 1;
                for x in 0..2 {
                    let src = &self.table[(base | (x * a)) * m * m..][..m * m];
                    for (r, row) in src.chunks_exact(m).enumerate() {
                        let out = &mut dst[insert(r, x) * 2 * m..][..2 * m];
                        for (c, &e) in row.iter().enumerate() {
                            out[insert(c, x)] = e;
                        }
                    }
                }
            }
            self.table = table;
        }
    }

    /// Left-multiply by a gate embedded at the given local bit positions:
    /// `self ← E(gate) · self`, i.e. the gate is applied *after* the block's
    /// existing contents (circuit order). Every bit the gate mixes must
    /// already be mixed by the table. `out` is scratch the new table is
    /// written to; it comes back holding the old one.
    ///
    /// `positions` maps each gate operand to its local bit (operand 0 → the
    /// control/high bit of a [`qgear_num::Mat4`]). Each entry is the dense
    /// product's expression — a one-qubit gate's two products summed, a
    /// two-qubit gate's `mul_add` chain over four sources in order — less
    /// the terms whose source lies in another sub-unitary: those read an
    /// exact zero through an exactly zero gate entry. A gate that mixes
    /// none of its operands leaves one term, taken as a plain product.
    /// Adding or dropping a zero changes no nonzero component.
    ///
    /// Out of line on purpose: inlined into its one caller's gate loop,
    /// the dense-matrix form of this step measured 25–40 % slower
    /// (qft-12 150 → 190 µs, qcrank-13 4.0 → 5.5 ms, best of 9 × 30,
    /// interleaved).
    #[inline(never)]
    fn push_gate(&mut self, gate: &GateMatrix, positions: &[usize], out: &mut Vec<C64>) {
        let (mdim, sq) = (self.mdim(), self.mdim() * self.mdim());
        // Where a local bit lives: in the row index (mixed) or the
        // sub-unitary index (unmixed), and its mask there.
        let place = |p: usize| {
            let mixed = self.mixed >> p & 1 == 1;
            let below = if mixed { self.mixed } else { !self.mixed } & low_bits(p);
            (mixed, 1usize << below.count_ones())
        };
        let bit = |t: usize, m: usize| usize::from(t & m != 0);
        out.clear();
        out.resize(self.table.len(), C64::ZERO);
        let src = &self.table;
        match (gate, positions) {
            (GateMatrix::One(g), &[p]) => match place(p) {
                (true, m) => pairs(src, out, sq, m * mdim, |_| g.m, |g, lo, hi| g[0] * lo + g[1] * hi),
                // A gate that does not mix its bit is diagonal: each
                // sub-unitary is scaled by the entry its bit selects.
                (false, m) => scale(src, out, sq, |t| g.m[bit(t, m)][bit(t, m)]),
            },
            (GateMatrix::Two(g), &[pa, pb]) => match (place(pa), place(pb)) {
                ((false, ua), (false, ub)) => scale(src, out, sq, |t| {
                    let d = 2 * bit(t, ua) + bit(t, ub);
                    g.m[d][d]
                }),
                ((true, ma), (true, mb)) => {
                    for (s, d) in src.chunks_exact(sq).zip(out.chunks_exact_mut(sq)) {
                        for (r, row) in d.chunks_exact_mut(mdim).enumerate() {
                            let gr = &g.m[2 * bit(r, ma) + bit(r, mb)];
                            let base = r & !(ma | mb);
                            let sources = [base, base | mb, base | ma, base | ma | mb];
                            for (c, e) in row.iter_mut().enumerate() {
                                let mut acc = C64::ZERO;
                                for (g, &r) in gr.iter().zip(&sources) {
                                    acc = g.mul_add(s[r * mdim + c], acc);
                                }
                                *e = acc;
                            }
                        }
                    }
                }
                // One operand unmixed: per sub-unitary, the 2×2 block of
                // the gate its value selects acts on the other. `sm` and
                // `su` are the mixed and unmixed operands' strides in the
                // gate's 4×4 index (operand 0 is its high bit).
                (a, b) => {
                    let ((_, m), (_, um), sm, su) = if a.0 { (a, b, 2, 1) } else { (b, a, 1, 2) };
                    let block = |t: usize| {
                        let v = su * bit(t, um);
                        [[g.m[v][v], g.m[v][sm + v]], [g.m[sm + v][v], g.m[sm + v][sm + v]]]
                    };
                    let chain = |g: [C64; 2], lo: C64, hi: C64| g[1].mul_add(hi, g[0].mul_add(lo, C64::ZERO));
                    pairs(src, out, sq, m * mdim, block, chain);
                }
            },
            _ => unreachable!("the gate matrix matches the operand count"),
        }
        std::mem::swap(&mut self.table, out);
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
            b.apply_to_state(state);
        }
    }
}

/// Greedily fuse a circuit's unitary gates into kernels whose tables
/// stay within `4^width` entries ([`Window::Table`]).
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
    try_fuse_in(circ, width, Window::Table)
}

/// [`try_fuse`] under the given window: the one fuser loop.
///
/// A gate joins the open block when the block it would make fits the
/// window — each operand the gate mixes becomes a mixed bit of the
/// block, a new operand it does not mix joins unmixed — and otherwise
/// opens a block of its own. A gate the window cannot hold even alone (a
/// two-qubit gate at width 1) gets a block of its own, closed at once.
/// Admission reads the structural mask; a block leaves the loop through
/// `FusedBlock::close`, which makes its mask exact.
pub fn try_fuse_in(circ: &Circuit, width: usize, window: Window) -> Result<FusedProgram, FusionError> {
    if !(1..=MAX_FUSION_WIDTH).contains(&width) {
        return Err(FusionError::InvalidWidth { width });
    }
    let _span = qgear_telemetry::span!(qgear_telemetry::names::spans::FUSE);
    let mut blocks: Vec<FusedBlock> = Vec::new();
    let mut cur: Option<FusedBlock> = None;
    let mut scratch: Vec<C64> = Vec::new();
    let fits = |qubits: usize, mixed: usize| {
        let mu = mixed.count_ones() as usize;
        window.admits(width, qubits - mu, mu)
    };

    for g in circ.gates() {
        if !g.is_unitary_op() {
            blocks.extend(cur.take().map(FusedBlock::close));
            continue;
        }
        let ops = g.operands();
        let matrix = GateMatrix::of(g)?;
        let gate_mixes = matrix.mixed_operands();
        // Extend the open block when the block this gate would make — its
        // new operands appended in operand order, every operand it mixes
        // a mixed bit — fits the window; otherwise open a fresh one.
        let extended = cur.as_mut().is_some_and(|b| {
            let (mut add, mut added, mut mixed) = ([0u32; 2], 0, b.mixed);
            for (j, &q) in ops.iter().enumerate() {
                let local = b.qubits.iter().position(|&x| x == q).unwrap_or_else(|| {
                    add[added] = q;
                    added += 1;
                    b.qubits.len() + added - 1
                });
                mixed |= (gate_mixes >> j & 1) << local;
            }
            let admitted = fits(b.qubits.len() + added, mixed);
            if admitted {
                b.widen(&add[..added], mixed);
            }
            admitted
        });
        if !extended {
            blocks.extend(cur.take().map(FusedBlock::close));
            cur = Some(FusedBlock::identity(ops.to_vec(), gate_mixes));
        }
        let b = cur.as_mut().expect("an open block");
        let mut positions = [0usize; 2];
        for (p, q) in positions.iter_mut().zip(ops) {
            *p = b.qubits.iter().position(|c| c == q).expect("operand in block");
        }
        b.push_gate(&matrix, &positions[..ops.len()], &mut scratch);
        b.source_gates += 1;
        if !fits(b.qubits.len(), b.mixed) {
            blocks.extend(cur.take().map(FusedBlock::close));
        }
    }
    blocks.extend(cur.take().map(FusedBlock::close));

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

    /// The dense `2^k × 2^k` product a support-window fuser builds — the
    /// oracle every table entry is held to. Grown by tensoring identity
    /// onto new high local bits, multiplied gate by gate.
    #[derive(Debug, Clone, PartialEq)]
    struct DenseUnitary {
        k: usize,
        m: Vec<C64>,
    }

    impl DenseUnitary {
        fn identity(k: usize) -> Self {
            let dim = 1usize << k;
            let mut m = vec![C64::ZERO; dim * dim];
            for i in 0..dim {
                m[i * dim + i] = C64::ONE;
            }
            DenseUnitary { k, m }
        }

        fn dim(&self) -> usize {
            1 << self.k
        }

        fn of(block: &FusedBlock) -> Self {
            let dim = 1usize << block.qubits.len();
            let m = (0..dim * dim).map(|i| block.entry(i / dim, i % dim)).collect();
            DenseUnitary { k: block.qubits.len(), m }
        }

        /// `I ⊗ self` over `k_new` qubits.
        fn grow(&self, k_new: usize) -> Self {
            let (old_dim, new_dim) = (self.dim(), 1usize << k_new);
            let mut m = vec![C64::ZERO; new_dim * new_dim];
            for b in 0..new_dim / old_dim {
                let off = b * old_dim;
                for r in 0..old_dim {
                    for c in 0..old_dim {
                        m[(off + r) * new_dim + (off + c)] = self.m[r * old_dim + c];
                    }
                }
            }
            DenseUnitary { k: k_new, m }
        }

        /// `self ← E(gate) · self`, the dense fuser's per-entry expressions.
        fn push_gate(&mut self, gate: &Gate, positions: &[usize]) {
            let dim = self.dim();
            let mut out = vec![C64::ZERO; dim * dim];
            if let [p] = *positions {
                let g = gate.matrix2::<f64>().unwrap();
                let pm = 1usize << p;
                for r in 0..dim {
                    let rb = usize::from(r & pm != 0);
                    let (r0, r1) = (r & !pm, r | pm);
                    for c in 0..dim {
                        out[r * dim + c] =
                            g.m[rb][0] * self.m[r0 * dim + c] + g.m[rb][1] * self.m[r1 * dim + c];
                    }
                }
            } else {
                let g = gate.matrix4::<f64>().unwrap();
                let (ma, mb) = (1usize << positions[0], 1usize << positions[1]);
                for r in 0..dim {
                    let row = 2 * usize::from(r & ma != 0) + usize::from(r & mb != 0);
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
            self.m = out;
        }

        fn is_unitary(&self, tol: f64) -> bool {
            let dim = self.dim();
            (0..dim).all(|i| {
                (0..dim).all(|j| {
                    let mut acc = C64::ZERO;
                    for r in 0..dim {
                        acc += self.m[r * dim + i].conj() * self.m[r * dim + j];
                    }
                    let expect = if i == j { C64::ONE } else { C64::ZERO };
                    (acc - expect).norm() <= tol
                })
            })
        }
    }

    /// The dense product of `gates` over `qubits`, grown as the fuser
    /// grew it: first the first gate's operands, then each new operand as
    /// it appears.
    fn dense_product(gates: &[Gate], qubits: &[u32]) -> DenseUnitary {
        let mut have: Vec<u32> = Vec::new();
        let mut u: Option<DenseUnitary> = None;
        for g in gates {
            let ops = g.operands();
            let new: Vec<u32> = ops.iter().copied().filter(|q| !have.contains(q)).collect();
            have.extend(&new);
            u = Some(match u {
                None => DenseUnitary::identity(have.len()),
                Some(u) => u.grow(have.len()),
            });
            let positions: Vec<usize> =
                ops.iter().map(|q| have.iter().position(|h| h == q).unwrap()).collect();
            u.as_mut().unwrap().push_gate(g, &positions);
        }
        assert_eq!(have, qubits, "the fuser's local order is first appearance");
        u.unwrap()
    }

    fn mixed_circuit(n: u32) -> Circuit {
        let mut c = Circuit::new(n);
        c.h(0).ry(0.3, 1).cx(0, 1).rz(-0.7, 2).cx(1, 2).rx(0.2, 0).cx(2, 3).ry(1.1, 3).cx(3, 0).h(2);
        c
    }

    /// A seeded circuit over `n` qubits from a pool of mixing, diagonal,
    /// controlled and permutation gates.
    fn random_circuit(n: u32, gates: usize, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        let mut s = seed | 1;
        let mut rnd = move |m: u64| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) % m
        };
        for _ in 0..gates {
            let a = rnd(u64::from(n)) as u32;
            let b = (a + 1 + rnd(u64::from(n.max(2) - 1)) as u32) % n;
            let theta = rnd(628) as f64 / 100.0 - 3.0;
            match (rnd(9), n >= 2) {
                (0, _) => c.h(a),
                (1, _) => c.ry(theta, a),
                (2, _) => c.rz(theta, a),
                (3, _) => c.u(theta, 0.3 * theta, -0.7, a),
                (4, true) => c.cx(a, b),
                (5, true) => c.cr1(theta, a, b),
                (6, true) => c.cz(a, b),
                (7, true) => c.swap(a, b),
                (_, true) => c.cry(theta, a, b),
                (_, false) => c.x(a),
            };
        }
        c
    }

    fn bits(e: C64) -> [u64; 2] {
        [e.re.to_bits(), e.im.to_bits()]
    }

    /// `a` and `b` in every bit of every nonzero component, and zero
    /// where the other is zero (of either sign).
    fn same(a: C64, b: C64) -> bool {
        let component = |x: f64, y: f64| x.to_bits() == y.to_bits() || (x == 0.0 && y == 0.0);
        component(a.re, b.re) && component(a.im, b.im)
    }

    #[test]
    fn table_entries_are_the_dense_products_bit_for_bit() {
        let (mut blocks_checked, mut shared) = (0, 0);
        for width in 1..=5usize {
            for seed in 0..40u64 {
                let n = 1 + (seed % 6) as u32;
                let c = random_circuit(n, 40, seed * 31 + width as u64);
                let gates: Vec<Gate> = c.gates().to_vec();
                // The support window cuts the blocks the dense fuser cut;
                // every entry of every table is that block's product's:
                // bit for bit in every nonzero component, and a zero (of
                // either sign — a dropped term added a zero) elsewhere.
                let support = try_fuse_in(&c, width, Window::Support).unwrap();
                let mut start = 0;
                let mut ranges = Vec::new();
                for b in &support.blocks {
                    let dense = dense_product(&gates[start..start + b.source_gates], &b.qubits);
                    let dim = dense.dim();
                    for (i, &e) in dense.m.iter().enumerate() {
                        let got = b.entry(i / dim, i % dim);
                        let what = format!("width {width} seed {seed}: entry {i} of {:?}", b.qubits);
                        assert!(same(got, e), "{what}: {got:?} vs {e:?}");
                    }
                    ranges.push((start, b.source_gates, b.qubits.clone(), b.table.clone()));
                    start += b.source_gates;
                    blocks_checked += 1;
                }
                // Where the table window cuts the same block, its table is
                // the same, bit for bit.
                let table = try_fuse(&c, width).unwrap();
                let mut start = 0;
                for b in &table.blocks {
                    let same = |&&(s, g, ref q, _): &&(usize, usize, Vec<u32>, Vec<C64>)| {
                        (s, g) == (start, b.source_gates) && *q == b.qubits
                    };
                    if let Some((_, _, _, t)) = ranges.iter().find(same) {
                        let same_bits = |x: &Vec<C64>| x.iter().map(|&e| bits(e)).collect::<Vec<_>>();
                        assert_eq!(same_bits(t), same_bits(&b.table));
                        shared += 1;
                    }
                    start += b.source_gates;
                }
            }
        }
        assert!(blocks_checked > 500 && shared > 100, "{blocks_checked} blocks, {shared} shared");
    }

    #[test]
    fn fused_program_matches_unfused_execution() {
        for window in [Window::Support, Window::Table] {
            for width in 1..=5usize {
                let c = mixed_circuit(5);
                let prog = try_fuse_in(&c, width, window).unwrap();
                assert_eq!(prog.source_gate_count(), c.unitary_count());
                let mut fused_state = reference::zero_state(5);
                prog.apply_to_state(&mut fused_state);
                let direct = reference::run(&c);
                let dev = max_deviation(&fused_state, &direct);
                assert!(dev < 1e-12, "{window:?} width {width}: deviation {dev}");
            }
        }
    }

    #[test]
    fn all_blocks_unitary_and_within_their_window() {
        for seed in 0..20u64 {
            let c = random_circuit(7, 60, seed);
            for width in 1..=5usize {
                for window in [Window::Support, Window::Table] {
                    for b in try_fuse_in(&c, width, window).unwrap().blocks {
                        assert!(DenseUnitary::of(&b).is_unitary(1e-12));
                        let mu = b.mixed().count_ones() as usize;
                        let u = b.qubits.len() - mu;
                        assert_eq!(b.table.len(), 1 << (u + 2 * mu));
                        assert!(window.admits(width, u, mu) || b.source_gates == 1, "{window:?} {u} {mu}");
                    }
                }
            }
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
    fn a_uniformly_controlled_rotation_is_one_kernel_of_two_by_two_sub_unitaries() {
        // The Gray-code ladder of a uniformly controlled ry: eight controls
        // and one target make one table of 256 2×2 sub-unitaries at width
        // 5 (2^8 · 4 = 4^5 entries), where the support window cuts it
        // into many 5-qubit blocks.
        let mut c = Circuit::new(9);
        for j in 0..256usize {
            let ctrl = if j == 255 { 7 } else { (j + 1).trailing_zeros() };
            c.ry(0.01 * j as f64, 8).cx(ctrl, 8);
        }
        let table = fuse(&c, 5);
        assert_eq!(table.blocks.len(), 1);
        let b = &table.blocks[0];
        assert_eq!(b.mixing_mask().iter().filter(|&&m| m).count(), 1);
        assert_eq!(b.qubits[0], 8, "the target opens the block");
        assert!(try_fuse_in(&c, 5, Window::Support).unwrap().blocks.len() > 16);
        let mut s = reference::random_state(9, 3);
        let expect = {
            let mut e = s.clone();
            for g in c.gates() {
                reference::apply_gate(&mut e, 9, g);
            }
            e
        };
        b.apply_to_state(&mut s);
        assert!(max_deviation(&s, &expect) < 1e-12);
        // A second target would make 2^8 4×4 sub-unitaries: refused.
        let mut two = c.clone();
        two.ry(0.4, 7);
        two.cx(0, 7);
        assert_eq!(fuse(&two, 5).blocks.len(), 2);
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
        assert_eq!(b.table.len(), 8, "two 2×2 sub-unitaries: I and X");
    }

    #[test]
    fn diagonal_blocks_mix_nothing() {
        let mut c = Circuit::new(3);
        c.rz(0.4, 0).cr1(0.9, 1, 2).rz(-0.2, 2);
        let prog = fuse(&c, 3);
        for b in &prog.blocks {
            assert!(b.mixing_mask().iter().all(|&m| !m), "diagonal kernels mix no bits");
            let diagonal: Vec<C64> = (0..1usize << b.qubits.len()).map(|i| b.entry(i, i)).collect();
            assert_eq!(b.table(), &diagonal[..], "the table is the diagonal in local-index order");
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
    fn a_control_a_later_gate_mixes_is_promoted_in_place() {
        // cx makes q1 a control of the block, h then mixes it: the two
        // sub-unitaries merge into one 4×4 with zeros across q1.
        let mut c = Circuit::new(2);
        c.ry(0.3, 0).cx(1, 0).h(1).cr1(0.4, 1, 0);
        let b = &fuse(&c, 2).blocks[0];
        assert_eq!(b.mixed(), 0b11);
        let dense = dense_product(c.gates(), &b.qubits);
        for (i, &e) in dense.m.iter().enumerate() {
            assert_eq!(b.entry(i / 4, i % 4), e);
        }
    }

    /// The local bits some entry of `b`'s dense matrix crosses with a
    /// nonzero component: the exact mask, read off `entry`.
    fn crossed_bits(b: &FusedBlock) -> usize {
        let dim = 1usize << b.qubits.len();
        let mut bits = 0;
        for r in 0..dim {
            for c in 0..dim {
                let e = b.entry(r, c);
                if e.re != 0.0 || e.im != 0.0 {
                    bits |= r ^ c;
                }
            }
        }
        bits
    }

    #[test]
    fn closing_demotes_exactly_the_uncrossed_bits_and_keeps_every_entry() {
        // Each fused block and its dense matrix as an all-mixed open block:
        // closed, both mix exactly the bits a nonzero entry crosses, and
        // the demoted block's `entry` is the open block's everywhere.
        let mut demoted = 0;
        for seed in 0..20u64 {
            for b in &fuse(&random_circuit(6, 40, seed), 3).blocks {
                assert_eq!(b.mixed, crossed_bits(b), "seed {seed}: a fused block is closed");
                let k = b.qubits.len();
                let dense = DenseUnitary::of(b);
                let open =
                    FusedBlock { qubits: b.qubits.clone(), mixed: low_bits(k), table: dense.m, source_gates: 0 };
                let closed = open.clone().close();
                assert_eq!(closed.mixed, b.mixed, "seed {seed}");
                assert_eq!(closed.table, b.table, "seed {seed}");
                let dim = 1usize << k;
                for i in 0..dim * dim {
                    assert_eq!(closed.entry(i / dim, i % dim), open.entry(i / dim, i % dim), "seed {seed}");
                }
                assert_eq!(closed.clone().close(), closed, "closing is idempotent");
                demoted += usize::from(b.mixed != low_bits(k));
            }
        }
        assert!(demoted > 20, "{demoted} blocks demoted");
    }

    #[test]
    fn a_lowered_controlled_phase_closes_as_a_diagonal() {
        // `cr1` lowered to rz·rz·cx·rz·cx: the cx pair mixes the target
        // while the block grows and cancels by the time it closes.
        let mut c = Circuit::new(2);
        c.rz(0.3, 0).rz(0.2, 1).cx(0, 1).rz(-0.2, 1).cx(0, 1);
        let b = &fuse(&c, 2).blocks[0];
        assert_eq!(b.source_gates, 5);
        assert_eq!(b.mixed(), 0);
        assert_eq!(b.table().len(), 4);
    }

    #[test]
    fn selecting_a_control_value_extracts_the_controlled_action() {
        // CX conditioned on control=1 is X; on control=0 is I.
        let mut c = Circuit::new(2);
        c.cx(1, 0);
        let b = &fuse(&c, 2).blocks[0];
        // local bit 0 = control (qubit 1), local bit 1 = target (qubit 0).
        let on = b.select(&[(0, 1)]);
        let off = b.select(&[(0, 0)]);
        assert_eq!(on.qubits, vec![0]);
        assert_eq!(on.entry(0, 1), C64::ONE, "X when control set");
        assert_eq!(on.entry(1, 0), C64::ONE);
        assert_eq!(off.entry(0, 0), C64::ONE, "I when control clear");
        assert_eq!(off.entry(1, 1), C64::ONE);
    }

    #[test]
    fn selecting_every_bit_of_a_phase_leaves_its_entry() {
        let mut c = Circuit::new(2);
        c.cr1(0.8, 1, 0);
        let b = &fuse(&c, 2).blocks[0];
        let both_set = b.select(&[(0, 1), (1, 1)]);
        assert!(both_set.qubits.is_empty());
        assert!((both_set.entry(0, 0) - C64::cis(0.8)).norm() < 1e-14);
        let control_clear = b.select(&[(0, 0), (1, 1)]);
        assert!((control_clear.entry(0, 0) - C64::ONE).norm() < 1e-14);
    }

    #[test]
    #[should_panic(expected = "only an unmixed bit")]
    fn a_mixed_bit_cannot_be_selected() {
        let mut c = Circuit::new(2);
        c.cx(1, 0);
        fuse(&c, 2).blocks[0].select(&[(1, 0)]);
    }

    #[test]
    fn selected_application_matches_full_block() {
        // Applying the selected sub-tables per half-space must equal
        // applying the full block.
        let mut c = Circuit::new(3);
        c.rz(0.3, 2).cx(2, 0).cr1(0.5, 2, 1);
        let prog = fuse(&c, 3);
        assert_eq!(prog.blocks.len(), 1);
        let b = &prog.blocks[0];
        let j = b.mixing_mask().iter().position(|&m| !m).expect("an unmixed bit exists");
        let gq = b.qubits[j];
        let mut full = reference::random_state(3, 5);
        let mut cond = full.clone();
        b.apply_to_state(&mut full);
        for bit in 0..2usize {
            let mut sub = b.select(&[(j, bit)]);
            // The gathered half has qubit gq removed: qubits above it
            // shift down by one.
            for q in &mut sub.qubits {
                *q -= u32::from(*q > gq);
            }
            let mask_g = 1usize << gq;
            let idxs: Vec<usize> =
                (0..cond.len()).filter(|i| usize::from(i & mask_g != 0) == bit).collect();
            let mut half: Vec<C64> = idxs.iter().map(|&i| cond[i]).collect();
            sub.apply_to_state(&mut half);
            for (a, &i) in half.iter().zip(&idxs) {
                cond[i] = *a;
            }
        }
        assert!(max_deviation(&full, &cond) < 1e-12);
    }

    #[test]
    fn a_dense_block_is_its_one_sub_unitary() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let b = &fuse(&c, 2).blocks[0];
        let dense = DenseUnitary::of(b);
        let rebuilt = FusedBlock::from_dense(b.qubits.clone(), dense.m.clone());
        assert_eq!(rebuilt.table, b.table);
        assert_eq!(rebuilt.mixed(), 0b11);
    }

    #[test]
    fn deep_circuit_with_random_structure() {
        for window in [Window::Support, Window::Table] {
            let c = random_circuit(6, 80, 12345);
            let prog = try_fuse_in(&c, 5, window).unwrap();
            let mut fused = reference::zero_state(6);
            prog.apply_to_state(&mut fused);
            assert!(max_deviation(&fused, &reference::run(&c)) < 1e-11, "{window:?}");
        }
    }

    #[test]
    fn x_gate_kind_is_a_mixing_permutation() {
        let mut c = Circuit::new(1);
        c.push(Gate::q1(GateKind::X, 0)).unwrap();
        assert_eq!(fuse(&c, 1).blocks[0].mixed(), 1);
    }
}
