//! The mid-circuit checkpoint codec: a durable, integrity-verified
//! snapshot of a partially-evolved state vector.
//!
//! A [`StateCheckpoint`] captures everything a replacement worker needs
//! to continue a run bit-identically from a segment boundary: the full
//! amplitude vector in execution precision, the schedule cursor into
//! the fused/sweep plan, the deterministic execution counters, the
//! sampling configuration, and a fingerprint of the plan the cursor
//! indexes into (so a checkpoint can never be replayed against a
//! different circuit, fusion window, or sweep schedule).
//!
//! ## Wire format (`QCKP`, version 1)
//!
//! ```text
//! magic   "QCKP"                        4 bytes
//! version u16 LE                        2 bytes
//! section*                              (exactly one META, one STATE)
//!   tag     u8   (1 = META, 2 = STATE)
//!   len     u32 LE (payload bytes)
//!   payload [len bytes]
//!   crc     u32 LE over tag ‖ len ‖ payload
//! ```
//!
//! Every section is CRC-32-framed with the IEEE polynomial, computed by
//! the container's table-driven [`qgear_hdf5lite::format::crc32`] (a
//! STATE section is a whole state vector long); the STATE payload is a
//! `qgear-hdf5lite` container (which carries its own internal CRC), so
//! amplitude bytes are double-covered — the writer derives the outer
//! CRC from the inner one ([`crc32_combine`]), the reader checks both.
//! The decoder *rejects* — it never
//! "best-efforts" — on a bad magic, an unknown version or section tag,
//! a CRC mismatch, truncation, trailing bytes, a precision or plan
//! mismatch, or any internally-inconsistent metadata. A corrupted
//! checkpoint therefore surfaces as a typed [`CheckpointError`] at the
//! recovery ladder, never as silently-wrong amplitudes.

use crate::sampling::SamplingConfig;
use crate::state::StateVector;
use qgear_hdf5lite::format::{crc32, crc32_combine, write_dataset_into};
use qgear_hdf5lite::{Compression, Dtype, H5Error, H5File};
use qgear_ir::Circuit;
use qgear_num::{Complex, Scalar};
use std::fmt;

/// Leading magic of every checkpoint.
const CHECKPOINT_MAGIC: [u8; 4] = *b"QCKP";

/// Current format version.
const CHECKPOINT_VERSION: u16 = 1;

/// Widest register a checkpoint may claim; anything larger is treated
/// as metadata corruption (2^40 fp64 amplitudes is already 16 TiB).
const MAX_CHECKPOINT_QUBITS: u32 = 40;

const SECTION_META: u8 = 1;
const SECTION_STATE: u8 = 2;

/// Fixed width of the META payload (all fields little-endian).
const META_LEN: usize = 1 + 4 + 8 + 8 + 8 + 8 + 8 + 8 + 16 + 16 + 8 + 8 + 8;

/// Path of the amplitude dataset inside the STATE container.
const AMPLITUDE_DATASET: &str = "checkpoint/amplitudes";

/// Element type of `T`'s amplitude dataset, picked from the precision tag
/// META carries (`T::BYTES`: 4 for `f32`, 8 for `f64`, the only scalars).
fn dtype<T: Scalar>() -> Dtype {
    if T::BYTES == 4 {
        Dtype::F32
    } else {
        Dtype::F64
    }
}

/// Why a checkpoint was rejected. Every variant means "do not load";
/// the serving recovery ladder counts them and falls back a generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Buffer ended before the advertised structure did.
    Truncated,
    /// Leading bytes are not `QCKP`.
    BadMagic,
    /// Version newer than this build understands.
    UnsupportedVersion(u16),
    /// A section tag outside the known set.
    UnknownSection(u8),
    /// A section's CRC-32 frame failed verification.
    SectionCrc(u8),
    /// The same section appeared twice.
    DuplicateSection(u8),
    /// A required section was absent.
    MissingSection(&'static str),
    /// Metadata is internally inconsistent.
    Malformed(&'static str),
    /// The embedded hdf5lite container failed to parse.
    Container(String),
    /// Checkpoint was written at a different precision than requested.
    PrecisionMismatch {
        /// Tag the caller's scalar type expects.
        expected: u8,
        /// Tag stored in the checkpoint.
        found: u8,
    },
    /// Checkpoint belongs to a different circuit/plan.
    PlanMismatch {
        /// Fingerprint of the plan the caller rebuilt.
        expected: u64,
        /// Fingerprint stored in the checkpoint.
        found: u64,
    },
    /// Cursor points past the end of the schedule.
    CursorOutOfRange {
        /// Stored cursor.
        cursor: u64,
        /// Stored schedule length.
        steps_total: u64,
    },
    /// Amplitude count disagrees with the claimed register width.
    AmplitudeMismatch {
        /// `2^(num_qubits+1)` components expected.
        expected: u64,
        /// Components actually present.
        found: u64,
    },
    /// The execution plan could not be rebuilt for resume.
    Rebuild(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadMagic => write!(f, "bad checkpoint magic"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::UnknownSection(t) => write!(f, "unknown section tag {t}"),
            CheckpointError::SectionCrc(t) => write!(f, "CRC mismatch in section {t}"),
            CheckpointError::DuplicateSection(t) => write!(f, "duplicate section {t}"),
            CheckpointError::MissingSection(s) => write!(f, "missing section {s}"),
            CheckpointError::Malformed(why) => write!(f, "malformed checkpoint: {why}"),
            CheckpointError::Container(e) => write!(f, "state container: {e}"),
            CheckpointError::PrecisionMismatch { expected, found } => {
                write!(f, "precision tag {found}, expected {expected}")
            }
            CheckpointError::PlanMismatch { expected, found } => {
                write!(f, "plan fingerprint {found:#x}, expected {expected:#x}")
            }
            CheckpointError::CursorOutOfRange { cursor, steps_total } => {
                write!(f, "cursor {cursor} out of range for {steps_total} steps")
            }
            CheckpointError::AmplitudeMismatch { expected, found } => {
                write!(f, "{found} amplitude components, expected {expected}")
            }
            CheckpointError::Rebuild(why) => write!(f, "plan rebuild failed: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Deterministic execution counters carried across a checkpoint, so a
/// resumed run's final [`crate::ExecStats`] matches an uninterrupted
/// one. Wall-clock timings are deliberately *not* checkpointed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointCounters {
    /// Source gates processed (set when the schedule completes).
    pub gates_applied: u64,
    /// Kernels launched so far.
    pub kernels_launched: u64,
    /// Cache-blocked sweeps executed so far.
    pub sweeps_executed: u64,
    /// State-vector bytes read + written so far.
    pub bytes_touched: u128,
    /// Complex multiply-adds performed so far.
    pub flops: u128,
}

/// One mid-circuit snapshot: everything needed to continue the run
/// bit-identically from `cursor` steps into the schedule.
#[derive(Debug, Clone)]
pub struct StateCheckpoint<T: Scalar> {
    /// Register width.
    pub num_qubits: u32,
    /// Schedule steps already applied to `state`.
    pub cursor: u64,
    /// Total steps in the schedule.
    pub steps_total: u64,
    /// Fingerprint of `(circuit, precision, plan digest)` — see
    /// [`plan_fingerprint`]. Resume refuses a mismatch.
    pub fingerprint: u64,
    /// Deterministic counters accumulated so far.
    pub counters: CheckpointCounters,
    /// Sampling configuration the run will use at completion. Sampling
    /// only happens after the last segment, so the "RNG state" of an
    /// in-flight run is exactly its seed configuration.
    pub sampling: SamplingConfig,
    /// The partially-evolved amplitudes.
    pub state: StateVector<T>,
}

impl<T: Scalar> StateCheckpoint<T> {
    /// Cross-check this checkpoint against the schedule a walker just
    /// rebuilt for the same job — its fingerprint, step count and
    /// register width. Both walkers ([`crate::SegmentedRun`] and the
    /// cluster's `ShardedRun`) resume through here, so a mismatch reads
    /// the same whichever layout the state was in; the reported totals
    /// are the rebuilt schedule's.
    pub fn verify_against(
        &self,
        fingerprint: u64,
        steps_total: usize,
        num_qubits: u32,
    ) -> Result<(), CheckpointError> {
        if self.fingerprint != fingerprint {
            return Err(CheckpointError::PlanMismatch {
                expected: fingerprint,
                found: self.fingerprint,
            });
        }
        let steps_total = steps_total as u64;
        if self.steps_total != steps_total || self.cursor > steps_total {
            return Err(CheckpointError::CursorOutOfRange { cursor: self.cursor, steps_total });
        }
        if self.num_qubits != num_qubits || self.state.num_qubits() != num_qubits {
            return Err(CheckpointError::AmplitudeMismatch {
                expected: 2u64 << num_qubits,
                found: 2 * self.state.len() as u64,
            });
        }
        Ok(())
    }
}

/// Fingerprint of the execution plan a checkpoint cursor indexes into:
/// a FNV-1a/splitmix digest of the canonical circuit, the arithmetic
/// precision, and the plan's own digest
/// ([`ExecutionPlan::digest`](crate::planner::ExecutionPlan), which
/// covers the clamped fusion width, the sweep options and every
/// segment's mode). Two runs with equal fingerprints rebuilt
/// byte-identical schedules and made identical decisions, so a cursor is
/// portable between them; anything else must be rejected. There is one
/// fingerprint: a pinned plan and a priced plan that decided the same
/// are the same plan.
pub fn plan_fingerprint(circuit: &Circuit, precision_tag: u8, plan_digest: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{circuit:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix(mix(h, u64::from(precision_tag)), plan_digest)
}

/// One splitmix64 avalanche step.
fn mix(h: u64, v: u64) -> u64 {
    let mut z = h.wrapping_add(v).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Open a section: tag and a length placeholder. Returns where it starts.
fn begin_section(out: &mut Vec<u8>, tag: u8) -> usize {
    let start = out.len();
    out.push(tag);
    out.extend_from_slice(&[0; 4]);
    start
}

/// Close the section opened at `start`, whose payload's CRC-32 is
/// `payload_crc`: fill in the payload length and append the CRC over
/// tag ‖ len ‖ payload, derived from the payload's.
fn end_section(out: &mut Vec<u8>, start: usize, payload_crc: u32) {
    let len = out.len() - start - 5;
    out[start + 1..start + 5].copy_from_slice(&(len as u32).to_le_bytes());
    let crc = crc32_combine(crc32(&out[start..start + 5]), payload_crc, len);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Serialize a checkpoint to its framed wire format.
pub fn encode<T: Scalar>(ck: &StateCheckpoint<T>) -> Vec<u8> {
    encode_amplitudes(
        ck.state.amplitudes(),
        ck.num_qubits,
        ck.cursor,
        ck.steps_total,
        ck.fingerprint,
        &ck.counters,
        &ck.sampling,
    )
}

/// [`encode`] over borrowed amplitudes and the remaining
/// [`StateCheckpoint`] fields, so a live run can be written without
/// cloning its state into a `StateCheckpoint` first.
pub fn encode_amplitudes<T: Scalar>(
    amplitudes: &[Complex<T>],
    num_qubits: u32,
    cursor: u64,
    steps_total: u64,
    fingerprint: u64,
    counters: &CheckpointCounters,
    sampling: &SamplingConfig,
) -> Vec<u8> {
    let runs = std::iter::once(amplitudes);
    encode_runs(runs, num_qubits, cursor, steps_total, fingerprint, counters, sampling)
}

/// [`encode`] over amplitudes that lie in pieces: `runs` yields the
/// register in logical order, run after run, `2^num_qubits` amplitudes
/// in all (a partitioned state's slices, walked in place — nothing is
/// gathered first).
///
/// Each amplitude is touched three times and no buffer but the output
/// is state-sized: the runs are converted to little-endian bytes one
/// container chunk at a time, the chunk goes into the output compressed
/// or raw while it is in cache, and one CRC pass over the finished
/// container serves both checksums the format asks for.
// The fields of a `StateCheckpoint` one by one: that struct is built by
// literal outside this workspace, so they cannot be regrouped.
#[allow(clippy::too_many_arguments)]
pub fn encode_runs<'a, T: Scalar>(
    runs: impl IntoIterator<Item = &'a [Complex<T>]>,
    num_qubits: u32,
    cursor: u64,
    steps_total: u64,
    fingerprint: u64,
    counters: &CheckpointCounters,
    sampling: &SamplingConfig,
) -> Vec<u8> {
    // The STATE container reserves for itself, which is all but ~130 bytes.
    let mut out = Vec::new();
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());

    let meta = begin_section(&mut out, SECTION_META);
    out.push(T::BYTES as u8);
    out.extend_from_slice(&num_qubits.to_le_bytes());
    out.extend_from_slice(&cursor.to_le_bytes());
    out.extend_from_slice(&steps_total.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&counters.gates_applied.to_le_bytes());
    out.extend_from_slice(&counters.kernels_launched.to_le_bytes());
    out.extend_from_slice(&counters.sweeps_executed.to_le_bytes());
    out.extend_from_slice(&counters.bytes_touched.to_le_bytes());
    out.extend_from_slice(&counters.flops.to_le_bytes());
    out.extend_from_slice(&sampling.shots.to_le_bytes());
    out.extend_from_slice(&sampling.seed.to_le_bytes());
    out.extend_from_slice(&sampling.reserved.to_le_bytes());
    debug_assert_eq!(out.len() - meta - 5, META_LEN);
    let meta_crc = crc32(&out[meta + 5..]);
    end_section(&mut out, meta, meta_crc);

    let state = begin_section(&mut out, SECTION_STATE);
    let width = T::BYTES;
    let mut runs = runs.into_iter();
    let mut run: &[Complex<T>] = &[];
    let container_crc = write_dataset_into(
        &mut out,
        AMPLITUDE_DATASET,
        dtype::<T>(),
        &[2u64 << num_qubits],
        Compression::ShuffleRle,
        |mut chunk| {
            while !chunk.is_empty() {
                if run.is_empty() {
                    run = runs.next().expect("the runs hold 2^num_qubits amplitudes");
                }
                let (now, later) = run.split_at(run.len().min(chunk.len() / (2 * width)));
                let (dst, rest) = chunk.split_at_mut(now.len() * 2 * width);
                for (dst, amp) in dst.chunks_exact_mut(2 * width).zip(now) {
                    let (re, im) = dst.split_at_mut(width);
                    amp.re.write_le(re);
                    amp.im.write_le(im);
                }
                (run, chunk) = (later, rest);
            }
        },
    );
    assert!(run.is_empty() && runs.next().is_none(), "the runs hold 2^num_qubits amplitudes");
    end_section(&mut out, state, container_crc);
    out
}

/// Little-endian readers over the fixed-width META payload.
struct MetaReader<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> MetaReader<'a> {
    fn take<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        out.copy_from_slice(&self.buf[self.off..self.off + N]);
        self.off += N;
        out
    }

    fn u8(&mut self) -> u8 {
        let [b] = self.take::<1>();
        b
    }

    fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take::<4>())
    }

    fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take::<8>())
    }

    fn u128(&mut self) -> u128 {
        u128::from_le_bytes(self.take::<16>())
    }
}

/// Deserialize and *verify* a checkpoint. Any corruption — truncation,
/// a flipped bit anywhere in the buffer, a wrong precision or plan —
/// returns `Err`; this function never panics on arbitrary input and
/// never allocates based on unverified size claims.
pub fn decode<T: Scalar>(bytes: &[u8]) -> Result<StateCheckpoint<T>, CheckpointError> {
    if bytes.len() < 6 {
        return Err(CheckpointError::Truncated);
    }
    if bytes[..4] != CHECKPOINT_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }

    let mut meta: Option<&[u8]> = None;
    let mut state: Option<&[u8]> = None;
    let mut off = 6;
    while off < bytes.len() {
        if bytes.len() - off < 9 {
            return Err(CheckpointError::Truncated);
        }
        let tag = bytes[off];
        let len = u32::from_le_bytes([bytes[off + 1], bytes[off + 2], bytes[off + 3], bytes[off + 4]])
            as usize;
        if bytes.len() - off - 9 < len {
            return Err(CheckpointError::Truncated);
        }
        let frame = &bytes[off..off + 5 + len];
        let stored = u32::from_le_bytes([
            bytes[off + 5 + len],
            bytes[off + 6 + len],
            bytes[off + 7 + len],
            bytes[off + 8 + len],
        ]);
        if crc32(frame) != stored {
            return Err(CheckpointError::SectionCrc(tag));
        }
        let payload = &bytes[off + 5..off + 5 + len];
        let slot = match tag {
            SECTION_META => &mut meta,
            SECTION_STATE => &mut state,
            other => return Err(CheckpointError::UnknownSection(other)),
        };
        if slot.is_some() {
            return Err(CheckpointError::DuplicateSection(tag));
        }
        *slot = Some(payload);
        off += 9 + len;
    }
    let meta = meta.ok_or(CheckpointError::MissingSection("META"))?;
    let state = state.ok_or(CheckpointError::MissingSection("STATE"))?;
    if meta.len() != META_LEN {
        return Err(CheckpointError::Malformed("META payload width"));
    }

    let mut r = MetaReader { buf: meta, off: 0 };
    let precision = r.u8();
    if precision != T::BYTES as u8 {
        return Err(CheckpointError::PrecisionMismatch {
            expected: T::BYTES as u8,
            found: precision,
        });
    }
    let num_qubits = r.u32();
    if num_qubits > MAX_CHECKPOINT_QUBITS {
        return Err(CheckpointError::Malformed("implausible register width"));
    }
    let cursor = r.u64();
    let steps_total = r.u64();
    if cursor > steps_total {
        return Err(CheckpointError::CursorOutOfRange { cursor, steps_total });
    }
    let fingerprint = r.u64();
    let counters = CheckpointCounters {
        gates_applied: r.u64(),
        kernels_launched: r.u64(),
        sweeps_executed: r.u64(),
        bytes_touched: r.u128(),
        flops: r.u128(),
    };
    let sampling =
        SamplingConfig { shots: r.u64(), seed: r.u64(), reserved: r.u64() };

    let file =
        H5File::from_bytes(state).map_err(|e| CheckpointError::Container(e.to_string()))?;
    let ds = file
        .dataset(AMPLITUDE_DATASET)
        .map_err(|e| CheckpointError::Container(e.to_string()))?;
    let requested = dtype::<T>();
    if ds.dtype != requested {
        let mismatch = H5Error::DtypeMismatch { stored: ds.dtype.name(), requested: requested.name() };
        return Err(CheckpointError::Container(mismatch.to_string()));
    }
    // The container has already held the payload to its shape, so this
    // is the number of components actually present.
    let width = T::BYTES;
    let expected = 2u64 << num_qubits;
    let found = (ds.data.len() / width) as u64;
    if found != expected {
        return Err(CheckpointError::AmplitudeMismatch { expected, found });
    }
    let mut state = StateVector::zero(num_qubits);
    for (amp, src) in state.amplitudes_mut().iter_mut().zip(ds.data.chunks_exact(2 * width)) {
        let (re, im) = src.split_at(width);
        *amp = Complex::new(T::read_le(re), T::read_le(im));
    }

    Ok(StateCheckpoint { num_qubits, cursor, steps_total, fingerprint, counters, sampling, state })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> StateCheckpoint<f64> {
        let mut state: StateVector<f64> = StateVector::zero(3);
        state.amplitudes_mut()[3] = Complex::new(0.25, -0.5);
        StateCheckpoint {
            num_qubits: 3,
            cursor: 2,
            steps_total: 5,
            fingerprint: 0xFEED_FACE_CAFE_F00D,
            counters: CheckpointCounters {
                gates_applied: 0,
                kernels_launched: 7,
                sweeps_executed: 2,
                bytes_touched: 4096,
                flops: 512,
            },
            sampling: SamplingConfig::single(100, 9),
            state,
        }
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let ck = sample_checkpoint();
        let bytes = encode(&ck);
        let back: StateCheckpoint<f64> = decode(&bytes).expect("roundtrip");
        assert_eq!(back.num_qubits, ck.num_qubits);
        assert_eq!(back.cursor, ck.cursor);
        assert_eq!(back.steps_total, ck.steps_total);
        assert_eq!(back.fingerprint, ck.fingerprint);
        assert_eq!(back.counters, ck.counters);
        assert_eq!(back.sampling, ck.sampling);
        for (a, b) in ck.state.amplitudes().iter().zip(back.state.amplitudes()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn fp32_roundtrip_is_bit_exact() {
        let mut state: StateVector<f32> = StateVector::zero(2);
        state.amplitudes_mut()[1] = Complex::new(0.125f32, -0.375);
        let ck = StateCheckpoint {
            num_qubits: 2,
            cursor: 0,
            steps_total: 1,
            fingerprint: 1,
            counters: CheckpointCounters::default(),
            sampling: SamplingConfig::single(1, 1),
            state,
        };
        let back: StateCheckpoint<f32> = decode(&encode(&ck)).expect("roundtrip");
        for (a, b) in ck.state.amplitudes().iter().zip(back.state.amplitudes()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let bytes = encode(&sample_checkpoint());
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                assert!(
                    decode::<f64>(&bad).is_err(),
                    "flip at byte {i} bit {bit} must be rejected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = encode(&sample_checkpoint());
        for cut in 0..bytes.len() {
            assert!(decode::<f64>(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn precision_mismatch_is_rejected() {
        let bytes = encode(&sample_checkpoint());
        assert!(matches!(
            decode::<f32>(&bytes),
            Err(CheckpointError::PrecisionMismatch { expected: 4, found: 8 })
        ));
    }

    #[test]
    fn fingerprint_separates_plans() {
        let mut a = Circuit::new(3);
        a.h(0).cx(0, 1);
        let mut b = Circuit::new(3);
        b.h(0).cx(0, 2);
        let fa = plan_fingerprint(&a, 8, 7);
        assert_eq!(fa, plan_fingerprint(&a, 8, 7), "pure function");
        assert_ne!(fa, plan_fingerprint(&b, 8, 7), "circuit");
        assert_ne!(fa, plan_fingerprint(&a, 4, 7), "precision");
        assert_ne!(fa, plan_fingerprint(&a, 8, 9), "plan digest");
    }
}
