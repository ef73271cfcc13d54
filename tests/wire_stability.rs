//! Wire stability of the two byte formats a checkpoint is made of.
//!
//! QCKP v1 (`qgear_statevec::checkpoint`) and H5L1 v1
//! (`qgear_hdf5lite::format`) are read back by later dispatches and by
//! later builds, so an encoder may get faster but may not move a byte.
//! `GOLDEN` pins a digest and a length of every output in `corpus()`;
//! the table was produced by the encoders of commit 5c24127 (the last
//! one with the copying encoder and the bitwise CRC) and every later
//! encoder has to reproduce it. One entry has been re-pinned since:
//! `qckp/half_evolved_sparse_f64_n12` is the only fixture cut from a live
//! run, so its header carries that run's *field values*, and two of them
//! moved when every run became an `ExecutionPlan` walk (the fingerprint,
//! which now always covers the plan digest; `sweeps_executed`, which now
//! counts the one-kernel passes of a `sweep_width: 0` run) —
//! `a_generation_written_before_the_one_fingerprint_decodes_but_never_resumes`
//! holds the old digest. `tests/fixtures/qckp_v1_*.bin` are whole
//! checkpoints written by that commit, which the decoder must still
//! load.
//!
//! The CRC half: `qgear_hdf5lite::format::crc32` (table-driven, frames
//! every multi-megabyte section) against `qgear_ir::qpy::crc32` (the
//! bitwise loop, kept for QPY's small headers and as the oracle here).

use qgear_hdf5lite::codec::{self, CHUNK_SIZE};
use qgear_hdf5lite::{format, Attr, Compression, Dataset, Dtype, H5File};
use qgear_ir::{qpy, Circuit};
use qgear_num::{Complex, Scalar};
use qgear_statevec::checkpoint::{CheckpointCounters, CheckpointError, StateCheckpoint};
use qgear_statevec::{
    decode_checkpoint, encode_checkpoint, GpuDevice, RunOptions, SamplingConfig, SegmentedRun,
    StateVector, Stepper,
};

const CODECS: [Compression; 3] = [Compression::None, Compression::Rle, Compression::ShuffleRle];

/// FNV-1a, 64 bit.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix64: the corpus must not move when the workspace's `rand`
/// stand-in does.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// `len` bytes of one of the shapes the codec decides differently on.
fn pattern(name: &str, len: usize) -> Vec<u8> {
    let mut mix = Mix(len as u64 ^ 0xC0DEC);
    match name {
        // Incompressible: every chunk must fall back to raw.
        "noise" => (0..len).map(|_| mix.next() as u8).collect(),
        // The paper's zero-padded tensors: a populated head, runs longer
        // than one RLE pair can hold behind it.
        "padded" => (0..len).map(|i| if i < len / 32 { (i % 251) as u8 } else { 0 }).collect(),
        // Small integers as doubles: five zero bytes in every eight, so
        // plain RLE ties and only the shuffled planes have long runs.
        "steps" => (0..len.div_ceil(8))
            .flat_map(|i| ((i % 1000) as f64).to_le_bytes())
            .take(len)
            .collect(),
        // Runs of exactly two: RLE output is as long as its input, the
        // tie the codec resolves to raw.
        "pairs" => (0..len).map(|i| (i / 2) as u8).collect(),
        // The same with one run of four: two bytes shorter, so RLE wins.
        "pairs4" => (0..len).map(|i| if i < 4 { 0 } else { (i / 2) as u8 }).collect(),
        other => unreachable!("unknown pattern {other}"),
    }
}

const PATTERNS: [&str; 5] = ["noise", "padded", "steps", "pairs", "pairs4"];

/// The chunk stream of one payload, as the container stores it.
fn payload_stream(data: &[u8], codec: Compression, width: usize) -> Vec<u8> {
    let mut out = Vec::new();
    codec::compress_payload(&mut out, data, codec, width);
    out
}

fn checkpoint_of<T: Scalar>(state: StateVector<T>) -> StateCheckpoint<T> {
    StateCheckpoint {
        num_qubits: state.num_qubits(),
        cursor: 24,
        steps_total: 41,
        fingerprint: 0x0123_4567_89AB_CDEF,
        counters: CheckpointCounters {
            gates_applied: 0,
            kernels_launched: 24,
            sweeps_executed: 3,
            bytes_touched: 1 << 33,
            flops: (1 << 70) + 5,
        },
        sampling: SamplingConfig { shots: 10_000, seed: 77, reserved: 512 },
        state,
    }
}

fn dense_state<T: Scalar>(num_qubits: u32, seed: u64) -> StateVector<T> {
    let mut mix = Mix(seed);
    let mut state = StateVector::zero(num_qubits);
    for amp in state.amplitudes_mut() {
        *amp = Complex::new(T::from_f64(mix.unit() / 64.0), T::from_f64(mix.unit() / 64.0));
    }
    state
}

/// A run stopped half way through a circuit that has touched only five
/// of its twelve qubits: most amplitudes are still exactly zero.
fn half_evolved_sparse() -> Vec<u8> {
    let (c, opts) = half_evolved_job();
    let mut run = SegmentedRun::<f64>::new(&GpuDevice::a100_40gb(), &c, &opts).expect("plan");
    let Ok(()) = run.advance(run.steps_total() / 2);
    encode_checkpoint(&run.checkpoint())
}

fn half_evolved_job() -> (Circuit, RunOptions) {
    let mut c = Circuit::new(12);
    for q in 0..5 {
        c.h(q).ry(0.3 + 0.1 * f64::from(q), q);
    }
    for q in 0..4 {
        c.cx(q, q + 1);
    }
    for q in 5..12 {
        c.h(q);
    }
    c.measure_all();
    (c, RunOptions { shots: 100, fusion_width: 1, sweep_width: 0, ..Default::default() })
}

/// A small tree with every attribute kind, nested groups, three dtypes
/// and one dataset per payload length around the chunk boundary.
fn container() -> H5File {
    let mut f = H5File::new();
    f.set_attr("", "creator", Attr::Str("qgear".into())).unwrap();
    f.create_group("circuits/batch0").unwrap();
    f.set_attr("circuits/batch0", "num_qubits", Attr::Int(5)).unwrap();
    f.set_attr("circuits", "dims", Attr::IntVec(vec![64, 80])).unwrap();
    f.set_attr("circuits", "scale", Attr::Float(0.125)).unwrap();
    let angles: Vec<f64> = (0..20_000).map(|i| if i < 900 { i as f64 * 0.001 } else { 0.0 }).collect();
    f.write_dataset("circuits/batch0/param", Dataset::from_f64(&angles, &[200, 100])).unwrap();
    let targets: Vec<i32> = (0..5_000).map(|i| if i % 7 == 0 { -1 } else { i % 30 }).collect();
    f.write_dataset("circuits/batch0/target", Dataset::from_i32(&targets, &[5_000])).unwrap();
    for (i, len) in [0, 1, CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 1].into_iter().enumerate() {
        let bytes = pattern(PATTERNS[i], len);
        f.write_dataset(&format!("edge/len{len}"), Dataset::from_u8(&bytes, &[len as u64])).unwrap();
    }
    f
}

/// A dataset whose `data` is not a whole number of elements still
/// serializes (the writer never validates, the reader rejects); pinned
/// because the shuffle filter's tail handling is what sees it.
fn ragged() -> H5File {
    let mut f = H5File::new();
    let data = pattern("steps", 29);
    let ds = Dataset { dtype: Dtype::F64, shape: vec![3], data, attrs: Default::default() };
    f.write_dataset("ragged", ds).unwrap();
    f
}

/// Every pinned output, by name.
fn corpus() -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();

    let mut all_zero: StateVector<f64> = StateVector::zero(14);
    all_zero.amplitudes_mut()[0] = Complex::ZERO;
    out.push(("qckp/all_zero_f64_n14".into(), encode_checkpoint(&checkpoint_of(all_zero))));
    let ground: StateVector<f64> = StateVector::zero(14);
    out.push(("qckp/ground_f64_n14".into(), encode_checkpoint(&checkpoint_of(ground))));
    out.push(("qckp/half_evolved_sparse_f64_n12".into(), half_evolved_sparse()));
    out.push((
        "qckp/dense_f32_n14".into(),
        encode_checkpoint(&checkpoint_of(dense_state::<f32>(14, 1))),
    ));
    // 64 KiB of amplitudes: exactly one chunk.
    out.push((
        "qckp/dense_f64_n12".into(),
        encode_checkpoint(&checkpoint_of(dense_state::<f64>(12, 2))),
    ));
    out.push((
        "qckp/dense_f64_n14".into(),
        encode_checkpoint(&checkpoint_of(dense_state::<f64>(14, 3))),
    ));

    let file = container();
    for codec in CODECS {
        out.push((format!("h5l1/tree/{codec:?}"), file.to_bytes(codec)));
        out.push((format!("h5l1/empty/{codec:?}"), H5File::new().to_bytes(codec)));
        out.push((format!("h5l1/ragged/{codec:?}"), ragged().to_bytes(codec)));
    }

    // Chunk streams (the three codecs' outputs back to back): payload
    // lengths around the chunk boundary, then every element width with a
    // trailing partial element in the last chunk (70 003 = 65 536 +
    // 4 467, and 4 467 is odd).
    let edge_lens = [0, 1, CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 1].map(|len| (len, 8));
    let widths = [1, 2, 4, 8].map(|width| (70_003, width));
    for (len, width) in edge_lens.into_iter().chain(widths) {
        for name in PATTERNS {
            let data = pattern(name, len);
            let streams = CODECS.iter().flat_map(|&codec| payload_stream(&data, codec, width));
            out.push((format!("chunks/{name}/len{len}/w{width}"), streams.collect()));
        }
    }
    out
}

#[test]
fn encoders_reproduce_the_pinned_bytes() {
    let corpus = corpus();
    let table: String = corpus
        .iter()
        .map(|(name, bytes)| format!("    (\"{name}\", {:#018x}, {}),\n", digest(bytes), bytes.len()))
        .collect();
    assert_eq!(corpus.len(), GOLDEN.len(), "corpus size changed; it now reads:\n{table}");
    for ((name, bytes), (pinned_name, pinned_digest, pinned_len)) in corpus.iter().zip(GOLDEN) {
        assert_eq!(name, pinned_name, "corpus order changed; it now reads:\n{table}");
        assert_eq!(
            (bytes.len(), digest(bytes)),
            (*pinned_len, *pinned_digest),
            "{name}: the encoder moved a wire byte (v1 is frozen)"
        );
    }
}

#[test]
fn every_pinned_output_reads_back() {
    for (name, bytes) in corpus() {
        if name.starts_with("qckp/") && name.contains("f32") {
            let ck = decode_checkpoint::<f32>(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(encode_checkpoint(&ck), bytes, "{name}");
        } else if name.starts_with("qckp/") {
            let ck = decode_checkpoint::<f64>(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(encode_checkpoint(&ck), bytes, "{name}");
        } else if name.starts_with("h5l1/ragged") {
            assert!(H5File::from_bytes(&bytes).is_err(), "{name}");
        } else if name.starts_with("h5l1/") {
            let file = H5File::from_bytes(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
            let expect = if name.contains("empty") { H5File::new() } else { container() };
            assert_eq!(file, expect, "{name}");
        }
    }
    // The chunk streams, against the data they were made from.
    for width in [1, 2, 4, 8] {
        for name in PATTERNS {
            let data = pattern(name, 70_003);
            for codec in CODECS {
                let stream = payload_stream(&data, codec, width);
                let mut cur = &stream[..];
                let back = codec::decompress_payload(&mut cur, data.len(), width);
                assert_eq!(back.as_deref(), Some(&data[..]), "{name} w{width} {codec:?}");
                assert!(cur.is_empty(), "{name} w{width} {codec:?}: stream not consumed");
            }
        }
    }
}

#[test]
fn checkpoints_written_by_the_copying_encoder_still_load() {
    let sparse = include_bytes!("fixtures/qckp_v1_sparse_f64_n6.bin");
    let ck = decode_checkpoint::<f64>(sparse).expect("parent-written sparse checkpoint");
    assert_eq!((ck.num_qubits, ck.cursor, ck.steps_total), (6, 24, 41));
    assert_eq!(ck.state.amplitudes()[5], Complex::new(0.25, -0.5));
    assert_eq!(ck.state.amplitudes().iter().filter(|a| **a != Complex::ZERO).count(), 1);

    let dense = include_bytes!("fixtures/qckp_v1_dense_f32_n7.bin");
    let ck = decode_checkpoint::<f32>(dense).expect("parent-written dense checkpoint");
    assert_eq!(ck.state, dense_state::<f32>(7, 9));
    assert_eq!(ck.counters.flops, (1 << 70) + 5);
}

/// The half-evolved fixture as the parent of the one-fingerprint change
/// wrote it: same format, same amplitudes, its own header values. Today's
/// encoder reproduces those bytes from those values (the format did not
/// move), today's decoder loads them — and `resume` refuses them with a
/// typed `PlanMismatch`, which is the contract for every generation
/// written before the fingerprint covered the plan digest.
#[test]
fn a_generation_written_before_the_one_fingerprint_decodes_but_never_resumes() {
    const PARENT_FINGERPRINT: u64 = 0x1dbb_2233_c554_5769;
    const PARENT_DIGEST: u64 = 0x3080_31c9_ee2f_6ccb;
    let mut old = decode_checkpoint::<f64>(&half_evolved_sparse()).expect("decodes");
    assert_ne!(old.fingerprint, PARENT_FINGERPRINT, "the fingerprint value moved");
    old.fingerprint = PARENT_FINGERPRINT;
    old.counters.sweeps_executed = 0;
    let parent_bytes = encode_checkpoint(&old);
    assert_eq!((parent_bytes.len(), digest(&parent_bytes)), (1724, PARENT_DIGEST));

    let old = decode_checkpoint::<f64>(&parent_bytes).expect("the parent's bytes still decode");
    let (circuit, opts) = half_evolved_job();
    match SegmentedRun::resume(&GpuDevice::a100_40gb(), &circuit, &opts, old) {
        Err(CheckpointError::PlanMismatch { found, .. }) => assert_eq!(found, PARENT_FINGERPRINT),
        Err(other) => panic!("wrong refusal: {other}"),
        Ok(_) => panic!("a pre-change generation must never load"),
    }
}

/// The two states the fixtures above hold; `write_fixtures` in the
/// commit that produced them was this function plus `std::fs::write`.
#[test]
fn fixtures_are_what_this_encoder_writes_too() {
    let mut sparse: StateVector<f64> = StateVector::zero(6);
    sparse.amplitudes_mut()[0] = Complex::ZERO;
    sparse.amplitudes_mut()[5] = Complex::new(0.25, -0.5);
    assert_eq!(
        encode_checkpoint(&checkpoint_of(sparse)),
        include_bytes!("fixtures/qckp_v1_sparse_f64_n6.bin")
    );
    assert_eq!(
        encode_checkpoint(&checkpoint_of(dense_state::<f32>(7, 9))),
        include_bytes!("fixtures/qckp_v1_dense_f32_n7.bin")
    );
}

#[test]
fn crc_check_value() {
    assert_eq!(format::crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(qpy::crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(format::crc32(b""), 0);
}

/// Every length 0..=4096 at every start alignment 0..8: the sliced loop
/// has a body of whole blocks and a tail, and each must agree with the
/// bitwise oracle wherever the block boundaries fall.
#[test]
fn table_crc_equals_the_bitwise_oracle_at_every_length_and_alignment() {
    let mut mix = Mix(0xC4C);
    let buf: Vec<u8> = (0..4096 + 8).map(|_| mix.next() as u8).collect();
    for align in 0..8 {
        for len in 0..=4096 {
            let data = &buf[align..align + len];
            assert_eq!(format::crc32(data), qpy::crc32(data), "align {align} len {len}");
        }
    }
}

/// `(name, FNV-1a-64 of the bytes, length)`, in `corpus()` order.
const GOLDEN: &[(&str, u64, usize)] = &[
    ("qckp/all_zero_f64_n14", 0x43a4d099d9b24aa5, 2283),
    ("qckp/ground_f64_n14", 0x9f8356041ef05b51, 2289),
    ("qckp/half_evolved_sparse_f64_n12", 0x3e1269094dc5ebe7, 1724),
    ("qckp/dense_f32_n14", 0x40095a0860ea46c0, 131281),
    ("qckp/dense_f64_n12", 0xc1b4365eabd23b2f, 65740),
    ("qckp/dense_f64_n14", 0x9ad03e3535c84f36, 262363),
    ("h5l1/tree/None", 0x343507ccc5b07e0a, 376982),
    ("h5l1/empty/None", 0x584745a77d550052, 18),
    ("h5l1/ragged/None", 0x6eb48da97f3e44b5, 77),
    ("h5l1/tree/Rle", 0xa735b0d79fe0db90, 228185),
    ("h5l1/empty/Rle", 0x3bcc28f26205d2eb, 18),
    ("h5l1/ragged/Rle", 0x5452291a811c8ee5, 60),
    ("h5l1/tree/ShuffleRle", 0xe535800c2d2d425f, 225659),
    ("h5l1/empty/ShuffleRle", 0x047498677e76d0bf, 18),
    ("h5l1/ragged/ShuffleRle", 0x84c53ac839d8f0f5, 60),
    ("chunks/noise/len0/w8", 0x5467b0da1d106495, 12),
    ("chunks/padded/len0/w8", 0x5467b0da1d106495, 12),
    ("chunks/steps/len0/w8", 0x5467b0da1d106495, 12),
    ("chunks/pairs/len0/w8", 0x5467b0da1d106495, 12),
    ("chunks/pairs4/len0/w8", 0x5467b0da1d106495, 12),
    ("chunks/noise/len1/w8", 0x3bf6ffb47fa6e5f8, 30),
    ("chunks/padded/len1/w8", 0x33cbe50824bb400e, 30),
    ("chunks/steps/len1/w8", 0x33cbe50824bb400e, 30),
    ("chunks/pairs/len1/w8", 0x33cbe50824bb400e, 30),
    ("chunks/pairs4/len1/w8", 0x33cbe50824bb400e, 30),
    ("chunks/noise/len65535/w8", 0xf24eb2b360f21bf1, 196632),
    ("chunks/padded/len65535/w8", 0xdee2e4136c56d291, 74760),
    ("chunks/steps/len65535/w8", 0x7e70b72d7765db33, 147156),
    ("chunks/pairs/len65535/w8", 0xa86a23210ea111c2, 196632),
    ("chunks/pairs4/len65535/w8", 0xe91d69dbedb8b8fb, 196631),
    ("chunks/noise/len65536/w8", 0x3357a17e560eeb9a, 196635),
    ("chunks/padded/len65536/w8", 0xe502e6bcc4782b50, 74765),
    ("chunks/steps/len65536/w8", 0xccf6cc669a117891, 147155),
    ("chunks/pairs/len65536/w8", 0x1f9d726cd3a7806a, 196635),
    ("chunks/pairs4/len65536/w8", 0x10f766e8c1df6660, 196633),
    ("chunks/noise/len65537/w8", 0xf4deb0185d76e982, 196653),
    ("chunks/padded/len65537/w8", 0x2c3fdfafdecf01bd, 74783),
    ("chunks/steps/len65537/w8", 0x4db056f938302d7c, 147173),
    ("chunks/pairs/len65537/w8", 0x4573cf1384de8d6f, 196653),
    ("chunks/pairs4/len65537/w8", 0x782331494aa18ef1, 196651),
    ("chunks/noise/len70003/w1", 0x92663bb8f60df1f7, 210051),
    ("chunks/padded/len70003/w1", 0x377a57e214f6b6ed, 79861),
    ("chunks/steps/len70003/w1", 0xaac27cfb6d31eb69, 205693),
    ("chunks/pairs/len70003/w1", 0xf948f38745605ed1, 210051),
    ("chunks/pairs4/len70003/w1", 0xab81d6c3e40d1bf6, 210047),
    ("chunks/noise/len70003/w2", 0x92663bb8f60df1f7, 210051),
    ("chunks/padded/len70003/w2", 0x98d10ca915aad427, 79863),
    ("chunks/steps/len70003/w2", 0x7e32fdab5eb33083, 207872),
    ("chunks/pairs/len70003/w2", 0xf948f38745605ed1, 210051),
    ("chunks/pairs4/len70003/w2", 0x761356a46371234b, 210049),
    ("chunks/noise/len70003/w4", 0x92663bb8f60df1f7, 210051),
    ("chunks/padded/len70003/w4", 0x70716e58f383ba4d, 79867),
    ("chunks/steps/len70003/w4", 0x7e32fdab5eb33083, 207872),
    ("chunks/pairs/len70003/w4", 0xf948f38745605ed1, 210051),
    ("chunks/pairs4/len70003/w4", 0x761356a46371234b, 210049),
    ("chunks/noise/len70003/w8", 0x92663bb8f60df1f7, 210051),
    ("chunks/padded/len70003/w8", 0x09e4a9ecc92ae4ed, 79875),
    ("chunks/steps/len70003/w8", 0x000bd553eb68640b, 157241),
    ("chunks/pairs/len70003/w8", 0xf948f38745605ed1, 210051),
    ("chunks/pairs4/len70003/w8", 0x761356a46371234b, 210049),
];
