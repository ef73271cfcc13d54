//! The execution planner: the one step schedule every run walks.
//!
//! An [`ExecutionPlan`] cuts a circuit into *segments*, each annotated
//! with the [`SegmentMode`] it runs in. A plan has one of two shapes:
//!
//! * the **per-gate plan**: one `Unfused` segment per unitary gate, in
//!   source order, with no fusion, no schedule and no blocks — the Aer
//!   baseline's run ([`AerCpuBackend::apply_gate`]), and what the
//!   `Unfused` pin selects;
//! * the **scheduled plan**: the circuit's fused kernels, one `Sweep`
//!   segment per scheduled sweep (or per fused block at `sweep_width:
//!   0`): one cache-blocked tile pass, a one-kernel segment being the
//!   exact kernel, [`GpuDevice::apply_block`].
//!
//! A scheduled plan makes one decision: the **fusion width** of each
//! kernel. [`PlannerCosts::force_mode`] selects how:
//!
//! * `Some(Sweep)` **pins** it: every kernel is fused at `fusion_width`,
//!   nothing is priced.
//! * `None` **prices** it. The circuit is fused at `fusion_width` as
//!   under the pin; then each run of adjacent *compute-bound* blocks —
//!   blocks whose `2^μ` mul-adds an amplitude price above their state
//!   pass — has its own source gates re-fused at narrower widths, and
//!   the cheapest kernel set replaces it. A set is priced as the plan
//!   will run it: scheduled into sweeps, each sweep a launch and a pass,
//!   each kernel its arithmetic. A width-5 kernel that mixes five bits
//!   costs 32 mul-adds an amplitude; two or three narrower kernels over
//!   the same gates can cost a third of that for an extra pass or none,
//!   when they share a tile. A run is one block where its neighbours
//!   are bandwidth-bound (a QCrank h layer between the multiplexed
//!   kernels, which stay whole), and the whole gate stream where every
//!   block is compute-bound (a random circuit, whose width-2 kernels a
//!   per-block re-fusion would cut at every block edge).
//!
//! The search is priced too. A width is tried only when a floor on what
//! the run could cost there leaves a saving above the price of
//! re-fusing the run's gates, widths go from 2 up, and the search stops
//! at the first that prices no cheaper than the one below it. Below the
//! register size at which even a full-width block, its narrower kernels
//! each paying a launch and a pass, could gain (decided in O(1) before
//! any block is looked at) a priced plan *is* the `Sweep` pin's: the
//! same code, the same blocks, segments and digest, and no prediction.
//!
//! Whatever the widths, the sweeps apply the same unitaries in an order
//! that commutes to the source's, so any two plans of one circuit agree
//! to floating-point round-off, and two plans that made the same
//! decisions — however they were selected — are the same plan bit for
//! bit. Plans are deterministic functions of `(circuit, options,
//! costs, precision)`; [`ExecutionPlan::digest`] covers what shapes the
//! plan and every width it narrowed to, and the checkpoint fingerprint
//! always covers the digest, so a resumed walker can never continue
//! under a different plan.
//!
//! See `docs/PIPELINE.md` § 4 for the cost model and the crossover.
//!
//! ```
//! use qgear_ir::Circuit;
//! use qgear_statevec::planner::{plan, PlannerCosts, SegmentMode};
//!
//! // A five-qubit entangling block on an 18-qubit register: priced, its
//! // width-5 kernel is re-fused narrower; pinned, it is not.
//! let mut c = Circuit::new(18);
//! for q in 0..4 {
//!     c.ry(0.3, q).cx(q, q + 1).ry(0.7, q + 1);
//! }
//! let pin = PlannerCosts::pinned(SegmentMode::Sweep);
//! let pinned = plan(&c, 5, 12, true, &pin, 16).unwrap();
//! let priced = plan(&c, 5, 12, true, &PlannerCosts::host_reference(), 16).unwrap();
//! assert!(priced.blocks.len() > pinned.blocks.len());
//! assert_ne!(priced.digest, pinned.digest);
//! // Every scheduled segment is one sweep, priced or pinned.
//! assert!(priced.segments.iter().all(|s| s.mode == SegmentMode::Sweep && s.predicted().is_some()));
//! assert!(pinned.segments.iter().all(|s| s.mode == SegmentMode::Sweep && s.predicted().is_none()));
//! ```

use crate::aer::AerCpuBackend;
use crate::checkpoint::CheckpointCounters;
use crate::gpu::GpuDevice;
use qgear_ir::fusion::{self, FusedBlock, FusedProgram, FusionError};
use qgear_ir::schedule::{self, Sweep, SweepOptions};
use qgear_ir::{Circuit, Gate};
use qgear_num::{Complex, Scalar};
use qgear_telemetry::names;
use std::time::Instant;

/// Execution mode of one plan segment. The discriminant is the word
/// [`ExecutionPlan::digest`] folds in per segment, so it is part of every
/// checkpoint fingerprint: `Sweep` stays 2 (1 was a structure-dispatched
/// kernel-at-a-time mode, which ran the kernels a one-kernel `Sweep`
/// segment runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentMode {
    /// Per-gate specialized loops (the Aer-style kernels), one state
    /// pass per gate: the per-gate plan's only mode.
    Unfused = 0,
    /// One cache-blocked tile pass for the whole segment
    /// ([`GpuDevice::apply_sweep`]); a one-kernel segment is the exact
    /// [`GpuDevice::apply_block`]. Every scheduled segment runs so.
    Sweep = 2,
}

impl SegmentMode {
    /// Stable lowercase label for telemetry and bench output.
    pub fn name(self) -> &'static str {
        match self {
            SegmentMode::Unfused => "unfused",
            SegmentMode::Sweep => "sweep",
        }
    }
}

/// The plan's one selector. `Some(Unfused)` is the per-gate plan,
/// `Some(Sweep)` fuses every kernel at the fusion width, and `None`
/// ([`PlannerCosts::host_reference`]) prices each compute-bound kernel's
/// width with this module's cost model, whose constants are hand-fitted
/// to one host (docs/PIPELINE.md § 4 has the probe behind each). Only
/// their *ratios* decide a width, so rough absolute values are fine; but
/// the fit is part of every priced plan, so a refit moves the digests of
/// the plans it changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerCosts {
    /// `Some(mode)` pins the plan to `mode`; `None` prices it.
    pub force_mode: Option<SegmentMode>,
}

impl PlannerCosts {
    /// The priced selector: what the service runs a dense job with.
    pub const fn host_reference() -> Self {
        PlannerCosts { force_mode: None }
    }

    /// The selector pinned to `mode`: nothing is priced.
    pub const fn pinned(mode: SegmentMode) -> Self {
        PlannerCosts { force_mode: Some(mode) }
    }
}

// The cost model, fitted to a 2-core x86 host with AVX2 lanes
// (docs/PIPELINE.md § 4). A kernel that mixes `μ = 3..5` high bits of a
// 16- to 20-qubit state costs a fixed intercept plus `2^μ` mul-adds an
// amplitude: `MADDS_PER_SEC` is the fp32 slope (1.1–1.2e10; fp64 ran at
// half, as an fp64 lane holds half as many amplitudes), and
// `BYTES_PER_SEC` the 20-qubit intercept — an *effective* pass, well
// above the 20–35 GB/s a bandwidth-bound kernel streams at, because the
// lanes overlap arithmetic with memory. A diagonal table costs one
// multiply an amplitude, fitted at `CMULS_PER_SEC` (a 5-qubit phase table
// ran at up to twice a bandwidth-bound pass). `LAUNCH_SECONDS` is three times
// the fixed cost those kernels showed (12–24 µs at 14 to 18 qubits),
// which puts the crossover at 15 qubits (fp64) and 16 (fp32): below it
// no kernel can gain, so every 14-qubit serving shape plans as the pin
// and pays no search, where a search would cost a millisecond job about
// what it could save. The numbers behind any fit go stale with the host;
// `hotpath` measures them.

/// Streaming bandwidth of a full-state pass, bytes/second.
const BYTES_PER_SEC: f64 = 9.0e10;
/// Dense-kernel inner-loop throughput at fp32, complex mul-adds/second
/// (gather/scatter bookkeeping amortized in).
const MADDS_PER_SEC: f64 = 1.15e10;
/// Diagonal-table throughput at fp32, complex multiplies/second.
const CMULS_PER_SEC: f64 = 2.5e9;
/// Fixed cost of one kernel or sweep — its launch, the fan-out over the
/// worker threads and the join — seconds.
const LAUNCH_SECONDS: f64 = 6.0e-5;

/// What the fuser costs a source gate, in seconds: the price of trying
/// one more width for a run. A priced plan re-fused a random circuit's
/// gates at ~0.2 µs each a width, and the fuser's dearest gates (a
/// QCrank ladder's, into a multiplexed table) cost ~0.3 µs at every
/// width; this is set above both, so a search is never priced cheaper
/// than it is.
const REFUSE_GATE_SECONDS: f64 = 5.0e-7;

/// The cost model at one register size and precision, in seconds.
#[derive(Debug, Clone, Copy)]
struct Pricing {
    /// One full-state pass (read + write), excluding arithmetic.
    pass: f64,
    /// A kernel's fixed cost: its launch and one pass.
    kernel: f64,
    /// One complex mul-add on every amplitude.
    madd: f64,
    /// One complex multiply on every amplitude.
    cmul: f64,
    /// How the plan schedules its kernels; `None` at `sweep_width: 0`,
    /// where every kernel is a segment of its own.
    sweeps: Option<SweepOptions>,
}

impl Pricing {
    /// `amp_bytes` is 8 at fp32 and 16 at fp64: it scales the pass, and
    /// the arithmetic by `amp_bytes / 8`, since an fp64 lane holds half
    /// as many amplitudes.
    fn new(num_qubits: u32, amp_bytes: usize, sweeps: Option<SweepOptions>) -> Self {
        let n_amps = (1u128 << num_qubits) as f64;
        let lanes = n_amps * amp_bytes as f64 / 8.0;
        let pass = 2.0 * n_amps * amp_bytes as f64 / BYTES_PER_SEC;
        Pricing {
            pass,
            kernel: LAUNCH_SECONDS + pass,
            madd: lanes / MADDS_PER_SEC,
            cmul: lanes / CMULS_PER_SEC,
            sweeps,
        }
    }

    /// Arithmetic of one kernel as [`GpuDevice`] will run it: one
    /// multiply per amplitude for a block that mixes nothing (a diagonal
    /// table), `2^μ` mul-adds over the `μ` bits it mixes otherwise.
    fn arithmetic(&self, block: &FusedBlock) -> f64 {
        match block.mixed() {
            0 => self.cmul,
            mixed => (1u64 << mixed.count_ones()) as f64 * self.madd,
        }
    }

    /// One kernel run alone: its launch, its pass and its arithmetic.
    fn kernel_seconds(&self, block: &FusedBlock) -> f64 {
        self.kernel + self.arithmetic(block)
    }

    /// One segment: one launch and one pass whatever it holds (a
    /// one-kernel sweep is `apply_block`, a diagonal sweep is
    /// element-wise, any other runs its kernels in place on contiguous
    /// tiles), and every kernel's arithmetic.
    fn sweep_cost(&self, sweep: &Sweep, blocks: &[FusedBlock]) -> Predicted {
        let arithmetic = sweep.kernels.iter().map(|&ki| self.arithmetic(&blocks[ki])).sum();
        Predicted { fixed: self.kernel, arithmetic }
    }

    /// A floor on what a block that mixes `mu` bits costs once re-fused
    /// at width `w`: the product mixes a bit only if one of its factors
    /// does, so some `j ≥ ⌈mu/w⌉` kernels carry the `mu` bits between
    /// them, and `2^m` is convex, so they cost least split evenly.
    fn narrowed_floor(&self, mu: u32, w: u32, per_kernel: f64) -> f64 {
        (mu.div_ceil(w)..=mu)
            .map(|j| {
                let (bits, wider) = (mu / j, mu % j);
                let madds = f64::from(j - wider) * f64::from(1u32 << bits)
                    + f64::from(wider) * f64::from(2u32 << bits);
                f64::from(j) * per_kernel + madds * self.madd
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Whether any block a width-`width` fuser can close could gain by
    /// narrowing — O(1) in the circuit. A block mixes at most `width`
    /// bits, absorbed at least one gate per two of them, and gains most
    /// at width `mu - 1`, the least floor.
    fn can_gain(&self, width: usize) -> bool {
        (3..=width as u32).any(|mu| {
            let whole = self.kernel + f64::from(1u32 << mu) * self.madd;
            let refuse = mu.div_ceil(2) as f64 * REFUSE_GATE_SECONDS;
            whole - self.narrowed_floor(mu, mu - 1, self.kernel) > refuse
        })
    }

    /// Whether a block is compute-bound: its mixing arithmetic prices
    /// above its pass, so narrower kernels might buy back more mul-adds
    /// than the passes they add. A diagonal block never is, whatever its
    /// table costs: a narrower diagonal kernel over its gates pays the
    /// same multiply an amplitude, and a pass more.
    fn compute_bound(&self, block: &FusedBlock) -> bool {
        block.mixed() != 0 && self.arithmetic(block) > self.pass
    }

    /// What `blocks` cost as the plan will run them: scheduled into
    /// sweeps as the plan's kernels are, each sweep a launch, a pass and
    /// its kernels' arithmetic (one sweep per block at `sweep_width: 0`).
    /// Narrow kernels that share a tile share its pass, which a
    /// kernel-by-kernel price would charge each of them.
    fn scheduled_seconds(&self, num_qubits: u32, blocks: Vec<FusedBlock>) -> (f64, Vec<FusedBlock>) {
        let Some(opts) = &self.sweeps else {
            return (blocks.iter().map(|b| self.kernel_seconds(b)).sum(), blocks);
        };
        let program = FusedProgram { num_qubits, blocks, fusion_width: fusion::MAX_FUSION_WIDTH };
        let sweeps = schedule::sweeps(&program, opts).sweeps;
        (sweeps.iter().map(|s| self.sweep_cost(s, &program.blocks).seconds()).sum(), program.blocks)
    }

    /// A floor on what `run` costs re-fused at width `w`: per block that
    /// mixes more than `w` bits, [`Self::narrowed_floor`]; per other
    /// block, what it costs now. Scheduled into sweeps, narrow kernels
    /// may share one tile pass, so only one launch and pass is counted
    /// for the whole run.
    fn run_floor(&self, run: &[FusedBlock], w: u32) -> f64 {
        let shared = self.sweeps.is_some();
        let (per_kernel, fixed) = if shared { (0.0, self.kernel) } else { (self.kernel, 0.0) };
        let block_floor = |b: &FusedBlock| match b.mixed().count_ones() {
            mu if mu > w => self.narrowed_floor(mu, w, per_kernel),
            _ => self.arithmetic(b) + per_kernel,
        };
        fixed + run.iter().map(block_floor).sum::<f64>()
    }

    /// The cheapest kernels for `run`, adjacent compute-bound blocks
    /// whose source gates are `gates`, and the width they were re-fused
    /// at (`None`: the run itself). Widths are tried from 2 up to below
    /// the run's widest mix, each only while its floor
    /// ([`Self::run_floor`]) leaves a saving above the price of
    /// re-fusing the run, and the search stops at the first width that
    /// prices no cheaper than the one below it: on every probed circuit
    /// the cost fell with the width to one cheapest width and rose past
    /// it (docs/PIPELINE.md § 4), and a random circuit, whose gates cost
    /// the fuser most at wide widths, is settled by its two cheapest
    /// re-fusions.
    fn narrower(
        &self,
        run: Vec<FusedBlock>,
        gates: &[Gate],
        num_qubits: u32,
    ) -> Result<(Option<u32>, Vec<FusedBlock>), FusionError> {
        let widest = run.iter().map(|b| b.mixed().count_ones()).max().unwrap_or(0);
        if widest <= 2 {
            // No width below 2 is tried: nothing to price.
            return Ok((None, run));
        }
        let floors: Vec<(u32, f64)> = (2..widest).map(|w| (w, self.run_floor(&run, w))).collect();
        let refuse = gates.len() as f64 * REFUSE_GATE_SECONDS;
        let (mut best, mut kept) = self.scheduled_seconds(num_qubits, run);
        let (mut chosen, mut source, mut below) = (None, None, f64::INFINITY);
        for (w, floor) in floors {
            if best - floor <= refuse {
                continue;
            }
            let source: &Circuit = source.get_or_insert_with(|| {
                let mut c = Circuit::with_capacity(num_qubits, "", gates.len());
                for g in gates {
                    c.push(*g).expect("a gate of a valid circuit");
                }
                c
            });
            let blocks = fusion::try_fuse(source, w as usize)?.blocks;
            let (seconds, blocks) = self.scheduled_seconds(num_qubits, blocks);
            if seconds < best {
                (best, kept, chosen) = (seconds, blocks, Some(w));
            }
            if seconds >= below {
                break;
            }
            below = seconds;
        }
        Ok((chosen, kept))
    }

    /// Replace each run of adjacent compute-bound blocks of `program`
    /// that prices cheaper narrower by its narrower kernels, in place.
    /// Fusion absorbs contiguous runs of gates, so block `i` owns the
    /// next `source_gates` unitary gates of `unitary`, and a run of
    /// blocks the concatenation of theirs. Returns `(first block, blocks
    /// in the run, width)` per narrowed run.
    fn narrow(
        &self,
        unitary: &Circuit,
        program: &mut FusedProgram,
    ) -> Result<Vec<[u64; 3]>, FusionError> {
        let gates: Vec<Gate> = unitary.gates().iter().filter(|g| g.is_unitary_op()).copied().collect();
        let mut old = std::mem::take(&mut program.blocks).into_iter().peekable();
        let (mut narrowed, mut blocks) = (Vec::new(), Vec::with_capacity(old.len()));
        let (mut i, mut at) = (0, 0);
        while let Some(first) = old.next() {
            at += first.source_gates;
            if !self.compute_bound(&first) {
                blocks.push(first);
                i += 1;
                continue;
            }
            let (start, mut run) = (at - first.source_gates, vec![first]);
            while let Some(b) = old.next_if(|b| self.compute_bound(b)) {
                at += b.source_gates;
                run.push(b);
            }
            let len = run.len();
            let (width, kept) = self.narrower(run, &gates[start..at], unitary.num_qubits())?;
            if let Some(w) = width {
                narrowed.push([i as u64, len as u64, u64::from(w)]);
            }
            blocks.extend(kept);
            i += len;
        }
        debug_assert_eq!(at, gates.len(), "fusion partitions the gate stream");
        program.blocks = blocks;
        Ok(narrowed)
    }
}

/// A priced segment's predicted seconds, held as two terms — its launch
/// and pass, and its kernels' arithmetic — where one `f64` would do. The
/// second word is for layout, not for the model: it keeps
/// [`PlannedSegment`] at the 112 bytes it had, because at 104 the
/// `serve_small` benchmark's peak RSS read 275 → 375 MB, an allocator
/// effect on the outcomes a service never prunes (ROADMAP item 5). It is
/// crate-private, so nothing outside this crate depends on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Predicted {
    fixed: f64,
    arithmetic: f64,
}

impl Predicted {
    fn seconds(&self) -> f64 {
        self.fixed + self.arithmetic
    }
}

/// One scheduled segment with its execution mode.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedSegment {
    /// The scheduled sweep this segment executes (kernel indices into
    /// [`ExecutionPlan::blocks`], union support, diagonal flag); empty
    /// in the per-gate plan.
    pub sweep: Sweep,
    /// The mode the segment runs in.
    pub mode: SegmentMode,
    /// The segment's one source gate in the per-gate plan; empty in a
    /// scheduled plan.
    pub gates: Vec<Gate>,
    /// The prediction of a priced plan's segment; read it with
    /// [`PlannedSegment::predicted`].
    pub(crate) predicted: Option<Predicted>,
}

impl PlannedSegment {
    /// The predicted seconds of a priced plan's segment; `None` on a
    /// pinned one, and on a priced plan below the crossover, which is the
    /// pin's.
    pub fn predicted(&self) -> Option<f64> {
        self.predicted.map(|p| p.seconds())
    }
}

/// A fully-resolved execution plan: the fused kernels and one
/// mode-annotated segment per schedule step.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    /// Register width.
    pub num_qubits: u32,
    /// Fused kernels, indexed by the segments' `sweep.kernels`.
    pub blocks: Vec<FusedBlock>,
    /// Mode-annotated segments in execution order.
    pub segments: Vec<PlannedSegment>,
    /// Source gates absorbed by the plan (pre-fusion count).
    pub source_gates: u64,
    /// Digest of the clamped fusion width, the sweep options, the width
    /// of every run of blocks a priced plan narrowed (nothing when none
    /// was) and every segment's size and mode — not of how the widths were
    /// selected, so a pinned plan and a priced plan that decided the
    /// same share it. The per-gate plan's is of its gate count alone.
    /// The checkpoint fingerprint covers it: resume rejects a plan whose
    /// schedule or decisions differ.
    pub digest: u64,
}

impl ExecutionPlan {
    /// Segment count (checkpointable schedule steps).
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True when the plan has no segments (empty circuit).
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

/// The first word of every plan digest.
const DIGEST_SEED: u64 = 0x51D3_C0DE;

/// splitmix64 step, the same mixer `checkpoint::plan_fingerprint` uses.
fn mix(h: u64, v: u64) -> u64 {
    let mut z = h.wrapping_add(v).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Build the execution plan for a circuit — the only plan builder.
///
/// The `Unfused` pin gets the per-gate plan: one segment per unitary
/// gate, in source order, with no fusion, no schedule and no blocks.
/// Every other plan fuses at `fusion_width` (clamped to the fusion
/// ceiling, once, here); a priced plan above the crossover then re-fuses
/// the runs of compute-bound blocks that price cheaper narrower (see the
/// module docs). The
/// kernels are then segmented: `sweep_width > 0` schedules
/// commutation-aware sweeps of that union support (`sweep_reorder` as in
/// [`SweepOptions`]); `sweep_width == 0` makes one segment per fused
/// block in program order — the checkpoint-per-kernel, exact-kernel
/// schedule. Errors surface exactly as fusion reports them, so the
/// per-gate plan has none.
///
/// `amp_bytes` is the bytes-per-amplitude of the execution precision
/// (8 for fp32, 16 for fp64); only a priced plan reads it.
pub fn plan(
    circuit: &Circuit,
    fusion_width: usize,
    sweep_width: usize,
    sweep_reorder: bool,
    costs: &PlannerCosts,
    amp_bytes: usize,
) -> Result<ExecutionPlan, FusionError> {
    let (unitary, _) = circuit.split_measurements();
    if costs.force_mode == Some(SegmentMode::Unfused) {
        return Ok(per_gate(&unitary));
    }
    let width = fusion_width.clamp(1, fusion::MAX_FUSION_WIDTH);
    let sweep_options =
        (sweep_width > 0).then_some(SweepOptions { max_width: sweep_width, reorder: sweep_reorder });
    let mut program = fusion::try_fuse(&unitary, width)?;
    // Priced and above the crossover, or the `Sweep` pin's plan.
    let pricing = (costs.force_mode.is_none())
        .then(|| Pricing::new(unitary.num_qubits(), amp_bytes, sweep_options))
        .filter(|p| p.can_gain(width));
    let narrowed = match &pricing {
        Some(p) => p.narrow(&unitary, &mut program)?,
        None => Vec::new(),
    };
    let mut digest = mix(DIGEST_SEED, width as u64);
    digest = mix(digest, sweep_width as u64);
    digest = mix(digest, u64::from(sweep_reorder));
    for word in narrowed.iter().flatten() {
        digest = mix(digest, *word);
    }
    let sweeps: Vec<Sweep> = match &sweep_options {
        Some(opts) => schedule::sweeps(&program, opts).sweeps,
        None => {
            let singleton = |(ki, b): (usize, &FusedBlock)| {
                let mut qubits = b.qubits.clone();
                qubits.sort_unstable();
                Sweep { kernels: vec![ki], qubits, diagonal: b.mixed() == 0 }
            };
            program.blocks.iter().enumerate().map(singleton).collect()
        }
    };

    digest = mix(digest, sweeps.len() as u64);
    let mode = SegmentMode::Sweep;
    let segments: Vec<PlannedSegment> = sweeps
        .into_iter()
        .map(|sweep| {
            digest = mix(digest, mode as u64);
            digest = mix(digest, sweep.kernels.len() as u64);
            let predicted = pricing.map(|p| p.sweep_cost(&sweep, &program.blocks));
            PlannedSegment { sweep, mode, gates: Vec::new(), predicted }
        })
        .collect();

    Ok(ExecutionPlan {
        num_qubits: unitary.num_qubits(),
        source_gates: program.source_gate_count() as u64,
        blocks: program.blocks,
        segments,
        digest,
    })
}

/// The per-gate plan of a measurement-free circuit: one `Unfused`
/// segment per unitary gate, in source order — the Aer baseline's run,
/// with a resumable cursor at every gate boundary. Nothing is priced.
///
/// Its digest folds only what shapes it: the gate count, after a
/// marker no clamped fusion width equals, so it is distinct from every
/// scheduled plan whatever the fusion and sweep options it never reads.
fn per_gate(unitary: &Circuit) -> ExecutionPlan {
    let segments: Vec<PlannedSegment> = unitary
        .gates()
        .iter()
        .filter(|g| g.is_unitary_op())
        .map(|g| PlannedSegment {
            sweep: Sweep { kernels: Vec::new(), qubits: Vec::new(), diagonal: false },
            mode: SegmentMode::Unfused,
            gates: vec![*g],
            predicted: None,
        })
        .collect();
    ExecutionPlan {
        num_qubits: unitary.num_qubits(),
        blocks: Vec::new(),
        source_gates: segments.len() as u64,
        digest: mix(mix(DIGEST_SEED, u64::MAX), segments.len() as u64),
        segments,
    }
}

/// Execute segment `idx` of `plan` over the state — one
/// [`SegmentedRun`](crate::SegmentedRun) step — and charge its
/// deterministic counters. Telemetry reports what ran: the segment and
/// mode counters for every plan, predicted and actual seconds only for
/// priced segments (a pinned segment has no prediction).
pub(crate) fn execute_segment<T: Scalar>(
    state: &mut [Complex<T>],
    plan: &ExecutionPlan,
    idx: usize,
    counters: &mut CheckpointCounters,
) {
    let seg = &plan.segments[idx];
    let telemetry_on = qgear_telemetry::is_enabled();
    let priced = seg.predicted().filter(|_| telemetry_on).map(|p| (p, Instant::now()));
    let n_amps = state.len() as u128;
    // One state pass (read + write), in bytes.
    let pass_bytes = 2 * n_amps * (2 * T::BYTES) as u128;
    match seg.mode {
        // One specialized loop, one pass, per gate; flops at the dense
        // `2^k` rate (the audited "kernel grid" figure, even where the
        // specialized loop does less work).
        SegmentMode::Unfused => {
            for g in &seg.gates {
                AerCpuBackend::apply_gate(state, g);
                counters.kernels_launched += 1;
                counters.bytes_touched += pass_bytes;
                counters.flops += n_amps << g.operands().len();
                if telemetry_on {
                    // Per-kind dispatch counters; the format! only runs
                    // while telemetry is recording.
                    qgear_telemetry::counter_inc(&format!("aer.dispatch.{}", g.kind.name()));
                }
            }
            if telemetry_on {
                let touched = 2 * n_amps * seg.gates.len() as u128;
                qgear_telemetry::counter_add(names::AMPLITUDES_TOUCHED, touched);
            }
        }
        // Every kernel of the segment in a single cache-blocked pass:
        // one pass of bytes, every kernel's arithmetic.
        SegmentMode::Sweep => {
            let kernels: Vec<(&FusedBlock, &[u32])> = seg
                .sweep
                .kernels
                .iter()
                .map(|&ki| (&plan.blocks[ki], plan.blocks[ki].qubits.as_slice()))
                .collect();
            GpuDevice::apply_sweep(&mut [state], &kernels);
            counters.kernels_launched += seg.sweep.kernels.len() as u64;
            counters.sweeps_executed += 1;
            counters.bytes_touched += pass_bytes;
            counters.flops +=
                seg.sweep.kernels.iter().map(|&ki| n_amps << plan.blocks[ki].qubits.len()).sum::<u128>();
        }
    }
    if telemetry_on {
        qgear_telemetry::counter_inc(names::PLANNER_SEGMENTS);
        qgear_telemetry::counter_inc(match seg.mode {
            SegmentMode::Unfused => names::PLANNER_MODE_UNFUSED,
            SegmentMode::Sweep => names::PLANNER_MODE_SWEEP,
        });
        if let Some((predicted, start)) = priced {
            let actual = start.elapsed().as_secs_f64();
            qgear_telemetry::histogram_record(names::PLANNER_PREDICTED_US, predicted * 1e6);
            qgear_telemetry::histogram_record(names::PLANNER_ACTUAL_US, actual * 1e6);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu;

    const PIN: PlannerCosts = PlannerCosts::pinned(SegmentMode::Sweep);

    fn qft_like(n: u32) -> Circuit {
        let mut c = Circuit::new(n);
        for i in (0..n).rev() {
            c.h(i);
            for j in (0..i).rev() {
                c.cr1(std::f64::consts::TAU / f64::powi(2.0, (i - j + 1) as i32), j, i);
            }
        }
        c
    }

    fn random_like(n: u32, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        let mut s = seed | 1;
        let mut rnd = move |m: u64| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) % m
        };
        for _ in 0..120 {
            let a = rnd(n as u64) as u32;
            let b = (a + 1 + rnd(n as u64 - 1) as u32) % n;
            c.ry(rnd(628) as f64 / 100.0, a);
            c.ry(rnd(628) as f64 / 100.0, b);
            c.cx(a, b);
        }
        c
    }

    /// `qft_like(n)` followed by the qubit-reversal swap network a full
    /// QFT ends with.
    fn qft_with_swaps(n: u32) -> Circuit {
        let mut c = qft_like(n);
        for q in 0..n / 2 {
            c.swap(q, n - 1 - q);
        }
        c
    }

    /// A QCrank-shaped encoder: uniform `h` over a (at most) 8-qubit
    /// address register, then per data qubit a Gray-code ladder of
    /// `ry` / `cx` pairs, one per address.
    fn qcrank_like(n: u32) -> Circuit {
        let addr = 8.min(n - 1);
        let mut c = Circuit::new(n);
        for q in 0..addr {
            c.h(q);
        }
        for d in addr..n {
            for a in 0..1u32 << addr {
                c.ry(0.1 + 0.01 * f64::from(a), d);
                c.cx((a + 1).trailing_zeros().min(addr - 1), d);
            }
        }
        c
    }

    #[test]
    fn the_crossover_is_above_fourteen_qubits_at_both_precisions() {
        // Decided from the register size, the precision and the fusion
        // width alone: at 14 qubits no width-5 block can gain, at 16 one
        // can, at either precision; at fusion width 2 nothing can.
        for amp_bytes in [8, 16] {
            let at = |n| Pricing::new(n, amp_bytes, None);
            assert!((1..=14).all(|n| !at(n).can_gain(5)), "{amp_bytes} B");
            assert!(at(16).can_gain(5) && at(24).can_gain(5), "{amp_bytes} B");
            assert!(!at(24).can_gain(2), "{amp_bytes} B");
        }
    }

    #[test]
    fn a_diagonal_block_is_never_compute_bound() {
        // A five-qubit phase table prices above its pass (one multiply an
        // amplitude), but a narrower diagonal kernel over its gates pays
        // that multiply too, and a pass more: it is not searched, and a
        // circuit of nothing else plans as the pin.
        let mut phases = Circuit::new(20);
        for q in 15..19 {
            phases.cr1(0.3 + f64::from(q), q, q + 1);
        }
        let block = fusion::fuse(&phases, 5).blocks.remove(0);
        assert_eq!((block.qubits.len(), block.mixed()), (5, 0));
        for amp_bytes in [8, 16] {
            let pricing = Pricing::new(20, amp_bytes, None);
            assert!(pricing.arithmetic(&block) > pricing.pass);
            assert!(!pricing.compute_bound(&block));
            let priced = plan(&phases, 5, 12, true, &PlannerCosts::host_reference(), amp_bytes).unwrap();
            let pin = plan(&phases, 5, 12, true, &PIN, amp_bytes).unwrap();
            assert_eq!((priced.blocks, priced.digest), (pin.blocks, pin.digest));
        }
    }

    #[test]
    fn below_the_crossover_a_priced_plan_is_the_pins() {
        // The same code at the same cost: no gate list, no prediction,
        // and the pin's blocks, segments and digest.
        let priced = PlannerCosts::host_reference();
        for n in [10, 12, 14] {
            for c in [qft_with_swaps(n), random_like(n, 7), qcrank_like(n)] {
                for amp_bytes in [8, 16] {
                    for sweep_width in [12, 0] {
                        let p = plan(&c, 5, sweep_width, true, &priced, amp_bytes).unwrap();
                        let pin = plan(&c, 5, sweep_width, true, &PIN, amp_bytes).unwrap();
                        assert_eq!(p.blocks, pin.blocks, "n = {n}");
                        assert_eq!(p.segments, pin.segments, "n = {n}");
                        assert_eq!(p.digest, pin.digest, "n = {n}");
                    }
                }
            }
        }
    }

    #[test]
    fn compute_bound_blocks_narrow_and_multiplexed_kernels_stay_whole() {
        for amp_bytes in [8, 16] {
            let random = random_like(18, 5);
            let priced = plan(&random, 5, 12, true, &PlannerCosts::host_reference(), amp_bytes).unwrap();
            let pin = plan(&random, 5, 12, true, &PIN, amp_bytes).unwrap();
            assert!(priced.blocks.len() > pin.blocks.len(), "{amp_bytes} B");
            assert_ne!(priced.digest, pin.digest);
            assert_eq!(priced.source_gates, pin.source_gates);
            // Narrower kernels mix fewer bits: the priced plan's
            // arithmetic is below the pin's.
            let madds = |p: &ExecutionPlan| -> u64 { p.blocks.iter().map(|b| 1u64 << b.mixed().count_ones()).sum() };
            assert!(madds(&priced) < madds(&pin));

            // QCrank's multiplexed `(8, 1)` kernels are bandwidth-bound:
            // every one of the pin's is in the priced plan unchanged.
            let qcrank = qcrank_like(17);
            let priced = plan(&qcrank, 5, 12, true, &PlannerCosts::host_reference(), amp_bytes).unwrap();
            let pin = plan(&qcrank, 5, 12, true, &PIN, amp_bytes).unwrap();
            let multiplexed: Vec<&FusedBlock> = pin.blocks.iter().filter(|b| b.source_gates > 64).collect();
            assert_eq!(multiplexed.len(), 9, "one per data qubit");
            for b in multiplexed {
                assert!(priced.blocks.contains(b));
            }
        }
    }

    #[test]
    fn a_narrowing_never_prices_below_its_floor() {
        // The floor that prunes a width holds for what the fuser really
        // builds there, block by block.
        for amp_bytes in [8, 16] {
            let pricing = Pricing::new(18, amp_bytes, None);
            let c = random_like(18, 11);
            let gates: Vec<Gate> = c.gates().to_vec();
            let pin = plan(&c, 5, 12, true, &PIN, amp_bytes).unwrap();
            let (mut at, mut checked) = (0, 0);
            for b in &pin.blocks {
                let own = &gates[at..at + b.source_gates];
                at += b.source_gates;
                let mu = b.mixed().count_ones();
                for w in 2..mu {
                    let mut run = Circuit::new(18);
                    own.iter().for_each(|g| run.push(*g).unwrap());
                    let built: f64 =
                        fusion::fuse(&run, w as usize).blocks.iter().map(|k| pricing.kernel_seconds(k)).sum();
                    assert!(built >= pricing.narrowed_floor(mu, w, pricing.kernel) * (1.0 - 1e-12), "μ = {mu}, w = {w}");
                    checked += 1;
                }
            }
            assert!(checked > 10);
        }
    }

    #[test]
    fn plan_partitions_every_kernel_and_gate() {
        for c in [qft_like(8), random_like(16, 3)] {
            let p = plan(&c, 5, 12, true, &PlannerCosts::host_reference(), 16).unwrap();
            let scheduled: usize = p.segments.iter().map(|s| s.sweep.kernels.len()).sum();
            assert_eq!(scheduled, p.blocks.len(), "segments partition the kernels");
            assert_eq!(p.source_gates as usize, c.unitary_count());
            let absorbed: usize = p.blocks.iter().map(|b| b.source_gates).sum();
            assert_eq!(absorbed, c.unitary_count());
        }
    }

    #[test]
    fn a_priced_sweep_costs_the_kernels_that_will_run() {
        let costs = PlannerCosts::host_reference();
        let (mut alone, mut several, mut factored, mut diagonal) = (0, 0, 0, 0);
        for (c, sweep_width, reorder) in [
            (qft_with_swaps(16), 0, true),
            (qft_with_swaps(16), 12, true),
            (qft_with_swaps(16), 6, false),
            (random_like(16, 5), 0, true),
            (random_like(16, 5), 12, false),
        ] {
            let pricing = Pricing::new(c.num_qubits(), 16, None);
            let p = plan(&c, 5, sweep_width, reorder, &costs, 16).unwrap();
            for seg in &p.segments {
                // The launch, one pass, and per kernel the arithmetic of
                // the plan `gpu.rs` really builds for it.
                let flops: f64 = seg
                    .sweep
                    .kernels
                    .iter()
                    .map(|&ki| match gpu::built_mixed_count(&p.blocks[ki]) {
                        None => pricing.cmul,
                        Some(mu) => f64::from(1u32 << mu) * pricing.madd,
                    })
                    .sum();
                let want = pricing.kernel + flops;
                let got = seg.predicted().expect("priced above the crossover");
                assert!((got - want).abs() <= 1e-12 * want, "{got} vs {want}");
                match seg.sweep.kernels.as_slice() {
                    [only] => {
                        alone += 1;
                        let block = &p.blocks[*only];
                        match gpu::built_mixed_count(block) {
                            None => diagonal += 1,
                            Some(mu) if (mu as usize) < block.qubits.len() => factored += 1,
                            Some(_) => {}
                        }
                    }
                    _ => several += 1,
                }
            }
        }
        // One-kernel and multi-kernel segments, and among the former
        // diagonal tables and kernels priced below the dense `2^k`.
        assert!(alone > 0 && several > 0 && factored > 0 && diagonal > 0);
    }

    #[test]
    fn pricing_follows_the_mask_execution_takes_for_the_segment() {
        // Block-diagonal over local bit 1 but for a cross entry of 1e-14:
        // both bits mixed, in a one-kernel segment and in a tile pass.
        let z = qgear_num::C64::ZERO;
        let e = |re: f64| qgear_num::C64::new(re, 0.0);
        #[rustfmt::skip]
        let block = FusedBlock::from_dense(vec![0, 1], vec![
            e(0.6), e(0.8), e(1e-14), z,
            e(-0.8), e(0.6), z, z,
            z, z, e(0.6), e(-0.8),
            z, z, e(0.8), e(0.6),
        ]);
        let blocks = [block.clone(), block];
        let pricing = Pricing::new(10, 16, None);
        let pair = Sweep { kernels: vec![0, 1], qubits: vec![0, 1], diagonal: false };
        let single = Sweep { kernels: vec![0], ..pair.clone() };
        assert_eq!(blocks[0].mixed(), 0b11);
        for (sweep, flops) in [
            (&pair, 2.0 * 4.0 * pricing.madd), // tile pass: μ = 2 twice
            (&single, 4.0 * pricing.madd),     // `apply_block`: μ = 2
        ] {
            let got = pricing.sweep_cost(sweep, &blocks).seconds();
            let by_hand = LAUNCH_SECONDS + pricing.pass + flops;
            assert!((got - by_hand).abs() <= 1e-12 * by_hand, "{got} vs {by_hand}");
        }
        // An fp64 lane holds half the amplitudes an fp32 one does.
        let fp32 = Pricing::new(10, 8, None);
        assert!((pricing.madd - 2.0 * fp32.madd).abs() <= 1e-12 * pricing.madd);
    }

    #[test]
    fn a_swap_network_runs_as_group_kernels_within_round_off_of_the_reference() {
        use crate::{GpuDevice, RunOptions, RunOutput, Simulator};
        let n = 10;
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q).ry(0.3 + 0.17 * f64::from(q), q);
        }
        c.barrier();
        for q in 0..n / 2 {
            c.swap(q, n - 1 - q);
        }
        let expect = qgear_ir::reference::run(&c);
        for costs in [PlannerCosts::host_reference(), PIN] {
            let p = plan(&c, 5, 0, true, &costs, 16).unwrap();
            // The swap blocks are the permutation class no mode shuffles
            // any more: they mix bits, so they run as group kernels.
            let swaps: Vec<_> = p.blocks.iter().filter(|b| b.source_gates <= 2).collect();
            assert!(!swaps.is_empty());
            for b in swaps {
                assert!(gpu::built_mixed_count(b).is_some_and(|mu| mu >= 2));
            }
            let opts = RunOptions {
                sweep_width: 0,
                planner_costs: costs,
                keep_state: true,
                ..Default::default()
            };
            let out: RunOutput<f64> = GpuDevice::a100_40gb().run(&c, &opts).unwrap();
            let got = out.state.expect("state");
            let worst = qgear_num::approx::max_deviation(got.amplitudes(), &expect);
            assert!(worst < 1e-12, "{worst}");
        }
    }

    #[test]
    fn a_pin_overrides_the_cost_model_and_builds_only_what_it_runs() {
        for mode in [SegmentMode::Unfused, SegmentMode::Sweep] {
            let p = plan(&random_like(16, 2), 5, 12, true, &PlannerCosts::pinned(mode), 16).unwrap();
            assert!(p.segments.iter().all(|s| s.mode == mode && s.predicted().is_none()));
            // No gate list is kept unless a segment runs gate by gate.
            let kept: usize = p.segments.iter().map(|s| s.gates.len()).sum();
            let expect = if mode == SegmentMode::Unfused { p.source_gates as usize } else { 0 };
            assert_eq!(kept, expect, "{mode:?}");
            // Nor a fused block unless a segment runs one: the `Unfused`
            // pin is the per-gate plan, one segment per gate.
            assert_eq!(p.blocks.is_empty(), mode == SegmentMode::Unfused, "{mode:?}");
            if mode == SegmentMode::Unfused {
                assert!(p.segments.iter().all(|s| s.gates.len() == 1));
            }
        }
    }

    #[test]
    fn digest_tracks_width_decisions() {
        let c = random_like(16, 9);
        let base = plan(&c, 5, 12, true, &PlannerCosts::host_reference(), 16).unwrap();
        let same = plan(&c, 5, 12, true, &PlannerCosts::host_reference(), 16).unwrap();
        assert_eq!(base.digest, same.digest, "planning is deterministic");
        assert_eq!((base.blocks, base.segments), (same.blocks, same.segments));
        let pin = plan(&c, 5, 12, true, &PIN, 16).unwrap();
        assert_ne!(base.digest, pin.digest, "different widths, different digest");
        // The digest is of the decisions, not of how they were reached:
        // above the crossover, a circuit with no compute-bound block (one
        // mixed bit a block, between phases) is priced, and narrows
        // nothing, so its plan is the pin's.
        let mut phases = Circuit::new(16);
        for q in 0..16 {
            phases.h(q).cr1(0.3, q, (q + 1) % 16).barrier();
        }
        let priced = plan(&phases, 5, 12, true, &PlannerCosts::host_reference(), 16).unwrap();
        let pin = plan(&phases, 5, 12, true, &PIN, 16).unwrap();
        assert!(priced.segments.iter().all(|s| s.predicted().is_some()));
        assert_eq!(priced.blocks, pin.blocks);
        assert_eq!(priced.digest, pin.digest);
    }

    #[test]
    fn pinned_sweep_digests_are_what_every_stored_fingerprint_was_taken_over() {
        // Captured at 73fb931, when `SegmentMode` had a variant between
        // these two: a checkpoint written under the served default must
        // keep resuming, so `Sweep`'s digest word may never move. The two
        // QFT plans were re-taken when the table window let a block grow
        // through the `cr1` phases it does not mix: fewer, wider blocks
        // make a different schedule, and generations written under the
        // old one refuse to resume (`PlanMismatch`), as they should.
        let pin = PlannerCosts::pinned(SegmentMode::Sweep);
        for (c, fusion_width, sweep_width, reorder, digest) in [
            (qft_like(8), 5, 12, true, 0x9754_b535_3e64_00d5_u64),
            (random_like(6, 3), 2, 0, true, 0x35c8_22d7_61ff_0ae9),
            (qft_with_swaps(6), 3, 3, false, 0x25b7_27b5_154c_acfe),
        ] {
            let p = plan(&c, fusion_width, sweep_width, reorder, &pin, 16).unwrap();
            assert_eq!(p.digest, digest, "{:#018x}", p.digest);
        }
    }

    #[test]
    fn sweep_width_zero_is_one_segment_per_block_in_program_order() {
        for costs in [PlannerCosts::host_reference(), PlannerCosts::pinned(SegmentMode::Sweep)] {
            for (c, width) in [(qft_like(7), 5), (qft_like(8), 2), (random_like(6, 3), 2), (random_like(16, 3), 5)] {
                let p = plan(&c, width, 0, true, &costs, 16).unwrap();
                assert!(p.len() > 1);
                assert_eq!(p.len(), p.blocks.len());
                assert!(p.segments.iter().enumerate().all(|(ki, s)| s.sweep.kernels == [ki]));
            }
        }
    }
}
