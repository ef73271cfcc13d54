//! Robustness properties: the binary format parsers must *reject*, never
//! panic, on arbitrary or corrupted input; the scheduler must preserve
//! resource invariants under arbitrary job mixes.

use proptest::prelude::*;
use qgear_container::slurm::{Cluster, Constraint, JobRequest, JobState, Scheduler};
use qgear_hdf5lite::{Compression, H5File};
use qgear_ir::{qpy, Circuit};
use qgear_statevec::{
    decode_checkpoint, encode_checkpoint, GpuDevice, RunOptions, SegmentedRun, Stepper,
};

/// Valid checkpoint wire bytes from a small mid-flight segmented run —
/// the corpus the bit-flip property mutates.
fn valid_checkpoint_bytes() -> Vec<u8> {
    let mut c = Circuit::new(3);
    c.h(0).cx(0, 1).cx(1, 2).measure_all();
    let device = GpuDevice::a100_40gb();
    let opts = RunOptions { shots: 32, fusion_width: 1, ..Default::default() };
    let mut run = SegmentedRun::<f64>::new(&device, &c, &opts).unwrap();
    let Ok(()) = run.advance(2);
    encode_checkpoint(&run.checkpoint())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn qpy_parser_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        // Arbitrary bytes: must return Err (the CRC alone rejects almost
        // everything) and must not panic.
        let _ = qpy::read(&bytes);
    }

    #[test]
    fn h5_parser_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let _ = H5File::from_bytes(&bytes);
    }

    #[test]
    fn qpy_parser_never_panics_on_bitflips(
        flip_at in 0usize..1000,
        flip_bit in 0u8..8,
    ) {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).ry(0.5, 2).cr1(0.25, 2, 3).measure_all();
        let mut bytes = qpy::write(&[c.clone()]).to_vec();
        let i = flip_at % bytes.len();
        bytes[i] ^= 1 << flip_bit;
        // A flip that hits padding inside an f64 can survive the CRC
        // only by restoring the same byte — otherwise Err. Either way,
        // no panic, and Ok must decode *some* circuit batch.
        if let Ok(batch) = qpy::read(&bytes) {
            prop_assert_eq!(batch.len(), 1);
        }
    }

    #[test]
    fn h5_parser_never_panics_on_bitflips(
        flip_at in 0usize..4000,
        flip_bit in 0u8..8,
    ) {
        let mut f = H5File::new();
        f.write_dataset(
            "a/b",
            qgear_hdf5lite::Dataset::from_f64(&[1.5, -2.0, 0.25], &[3]),
        )
        .unwrap();
        f.set_attr("a", "k", qgear_hdf5lite::Attr::Str("v".into())).unwrap();
        let mut bytes = f.to_bytes(Compression::ShuffleRle);
        let i = flip_at % bytes.len();
        bytes[i] ^= 1 << flip_bit;
        let _ = H5File::from_bytes(&bytes); // must not panic
    }

    #[test]
    fn checkpoint_decoder_never_panics_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        // Arbitrary bytes must be rejected with a structured error —
        // never a panic, never an Ok that smuggles garbage amplitudes
        // in. The 4-byte magic alone rejects essentially everything;
        // the per-section CRC framing rejects the rest.
        prop_assert!(decode_checkpoint::<f64>(&bytes).is_err());
        prop_assert!(decode_checkpoint::<f32>(&bytes).is_err());
    }

    #[test]
    fn checkpoint_decoder_rejects_every_bitflip(
        flip_at in 0usize..1000,
        flip_bit in 0u8..8,
    ) {
        // Unlike qpy (where a flip in f64 padding can be CRC-neutral
        // only by restoring the byte), every checkpoint byte sits under
        // either the magic/version preamble or a section CRC, so any
        // single-bit corruption must surface as Err — a checkpoint is
        // verified-or-rejected, never silently trusted.
        let mut bytes = valid_checkpoint_bytes();
        prop_assert!(decode_checkpoint::<f64>(&bytes).is_ok(), "sanity: intact bytes decode");
        let i = flip_at % bytes.len();
        bytes[i] ^= 1 << flip_bit;
        prop_assert!(decode_checkpoint::<f64>(&bytes).is_err());
    }

    #[test]
    fn checkpoint_decoder_rejects_every_truncation(
        cut in 0usize..1000,
    ) {
        let bytes = valid_checkpoint_bytes();
        let keep = cut % bytes.len(); // strictly shorter than the whole
        prop_assert!(decode_checkpoint::<f64>(&bytes[..keep]).is_err());
    }

    #[test]
    fn scheduler_invariants_under_arbitrary_job_mixes(
        jobs in proptest::collection::vec((1u32..3, 1u32..9, 1u64..50), 1..20),
    ) {
        // Cluster: 4 GPU nodes (16 GPUs).
        let mut s = Scheduler::new(Cluster::perlmutter_slice(4, 0));
        let mut ids = Vec::new();
        for (nodes, tasks, duration) in jobs {
            // Keep requests satisfiable: <= 4 GPUs per node.
            let tasks = tasks.min(nodes * 4);
            ids.push(s.submit(JobRequest {
                nodes,
                tasks,
                gpus_per_task: 1,
                constraint: Constraint::Gpu,
                duration,
            }).unwrap());
        }
        let makespan = s.run_to_completion();
        // Every job completed, within the makespan, on the requested
        // number of distinct nodes.
        for &id in &ids {
            match s.state(id) {
                JobState::Completed { start, end } => {
                    prop_assert!(end <= makespan);
                    prop_assert!(start < end);
                }
                other => prop_assert!(false, "job {id} not completed: {other:?}"),
            }
            let nodes = s.assigned_nodes(id);
            let mut uniq = nodes.to_vec();
            uniq.sort_unstable();
            uniq.dedup();
            prop_assert_eq!(uniq.len(), nodes.len(), "duplicate node assignment");
        }
        // Utilization is a valid fraction.
        let u = s.gpu_utilization();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&u), "utilization {u}");
        // No two jobs overlap on the same node in time.
        for &a in &ids {
            for &b in &ids {
                if a >= b {
                    continue;
                }
                let (JobState::Completed { start: sa, end: ea },
                     JobState::Completed { start: sb, end: eb }) = (s.state(a), s.state(b))
                else { unreachable!() };
                let shares_node = s
                    .assigned_nodes(a)
                    .iter()
                    .any(|n| s.assigned_nodes(b).contains(n));
                if shares_node {
                    prop_assert!(ea <= sb || eb <= sa, "jobs {a} and {b} overlap on a node");
                }
            }
        }
    }

    #[test]
    fn compression_roundtrip_arbitrary_bytes(
        data in proptest::collection::vec(any::<u8>(), 0..3000),
        width in prop_oneof![Just(1usize), Just(4), Just(8)],
    ) {
        use qgear_hdf5lite::codec;
        for comp in [Compression::None, Compression::Rle, Compression::ShuffleRle] {
            let mut stream = Vec::new();
            codec::compress_payload(&mut stream, &data, comp, width);
            let back = codec::decompress_payload(&mut &stream[..], data.len(), width).unwrap();
            prop_assert_eq!(&back, &data);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, .. ProptestConfig::default() })]

    #[test]
    fn resigned_mutations_reach_the_parsers_and_stay_bounded(
        at in 0usize..1 << 20,
        kind in 0u8..6,
        value in any::<u64>(),
        codec in prop_oneof![Just(Compression::None), Just(Compression::Rle), Just(Compression::ShuffleRle)],
    ) {
        // A CRC stops a plain bit flip at the door; these mutations are
        // signed again afterwards, so what they corrupt — length fields,
        // counts, tags, chunk bodies — is read by the parser proper. It
        // must answer Ok or Err, never panic, and never reserve memory
        // for a size the bytes in hand cannot back.
        let peak_before = vm_peak_kb();

        let mut h5 = mutation_corpus_file().to_bytes(codec);
        mutate(&mut h5, at, kind, value);
        resign_h5(&mut h5);
        if let Ok(file) = H5File::from_bytes(&h5) {
            // RLE's best case is 255 bytes out of a 2-byte pair.
            prop_assert!(file.payload_bytes() <= 128 * h5.len());
        }

        let mut qckp = valid_checkpoint_bytes();
        mutate(&mut qckp, at, kind, value);
        resign_qckp(&mut qckp);
        if let Ok(ck) = decode_checkpoint::<f64>(&qckp) {
            prop_assert_eq!(ck.state.len() as u64, 1u64 << ck.num_qubits);
            prop_assert!(ck.state.byte_len() <= 128 * qckp.len());
        }

        let mut qpyl = qpy::write(&qpy_corpus()).to_vec();
        mutate(&mut qpyl, at, kind, value);
        resign_qpy(&mut qpyl);
        if let Ok(batch) = qpy::read(&qpyl) {
            // Every circuit and every gate is backed by bytes in hand.
            let gates: usize = batch.iter().map(|c| c.gates().len()).sum();
            prop_assert!(10 * batch.len() + 37 * gates <= qpyl.len());
        }

        if let (Some(before), Some(after)) = (peak_before, vm_peak_kb()) {
            prop_assert!(after - before < 256 * 1024, "address space grew {} KB", after - before);
        }
    }
}

/// The smallest file that made `qpy::read` reserve memory its bytes
/// could not back: magic, version 1, a count of `u32::MAX`, a valid CRC.
/// `Vec::with_capacity(count)` asked for 240 GB and aborted the process.
#[test]
fn a_fourteen_byte_qpy_file_claiming_four_billion_circuits_is_rejected() {
    let mut bytes = Vec::from(*qpy::MAGIC);
    bytes.extend_from_slice(&qpy::VERSION.to_le_bytes());
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&[0; 4]);
    resign_qpy(&mut bytes);
    assert_eq!(bytes.len(), 14);
    let err = qpy::read(&bytes).expect_err("no circuit follows the header");
    assert!(matches!(err, qgear_ir::IrError::Malformed(_)), "{err:?}");
}

/// Two named circuits, one with every operand and parameter slot in use.
fn qpy_corpus() -> Vec<Circuit> {
    let mut a = Circuit::with_capacity(4, "alpha", 5);
    a.h(0).cx(0, 1).ry(0.5, 2).cr1(0.25, 2, 3).measure_all();
    let mut b = Circuit::with_capacity(3, "beta-β", 2);
    b.u(1.0, -0.5, 2.25, 1).ccx(0, 1, 2);
    vec![a, b]
}

/// Groups three deep, every attribute kind, a dataset RLE shrinks, one
/// only shuffled RLE shrinks, one nothing does. Small, so that thousands
/// of mutations stay cheap unoptimized; chunk-boundary streams are
/// attacked in `qgear_hdf5lite::codec`'s own tests.
fn mutation_corpus_file() -> H5File {
    use qgear_hdf5lite::{Attr, Dataset};
    let mut f = H5File::new();
    f.set_attr("", "creator", Attr::Str("qgear".into())).unwrap();
    f.write_dataset("a/b/zeros", Dataset::from_f64(&[0.0; 300], &[300])).unwrap();
    f.set_attr("a/b", "n", Attr::Int(3)).unwrap();
    f.set_attr("a", "dims", Attr::IntVec(vec![4, 5])).unwrap();
    f.set_attr("a/b/zeros", "scale", Attr::Float(0.5)).unwrap();
    let noise: Vec<u8> = (0..200u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
    f.write_dataset("a/noise", Dataset::from_u8(&noise, &[200])).unwrap();
    let ramp: Vec<i32> = (0..600).map(|i| i / 50).collect();
    f.write_dataset("ramp", Dataset::from_i32(&ramp, &[600])).unwrap();
    f
}

/// One structure-aware edit at (about) `at`: the kinds aim at what a
/// binary parser trusts — widths of 1, 4 and 8 bytes set to extreme or
/// chosen values, bytes removed, bytes repeated.
fn mutate(bytes: &mut Vec<u8>, at: usize, kind: u8, value: u64) {
    let at = at % bytes.len();
    let extremes = [0, 1, u64::MAX, 1 << 31, 1 << 40, 1 << 62, bytes.len() as u64, value];
    let pick = extremes[(value % 8) as usize];
    match kind {
        0 => bytes[at] ^= 1 << (value % 8),
        1 => bytes[at] = pick as u8,
        2 if at + 4 <= bytes.len() => bytes[at..at + 4].copy_from_slice(&(pick as u32).to_le_bytes()),
        3 if at + 8 <= bytes.len() => bytes[at..at + 8].copy_from_slice(&pick.to_le_bytes()),
        4 => {
            bytes.drain(at..(at + 1 + (value % 64) as usize).min(bytes.len()));
        }
        _ => {
            let repeat: Vec<u8> = bytes[at..(at + 1 + (value % 64) as usize).min(bytes.len())].to_vec();
            bytes.splice(at..at, repeat);
        }
    }
}

/// Recompute an H5L1 container's trailing CRC.
fn resign_h5(bytes: &mut [u8]) {
    if let Some(body_len) = bytes.len().checked_sub(4) {
        let crc = qgear_hdf5lite::format::crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Recompute a QPY-lite file's trailing CRC.
fn resign_qpy(bytes: &mut [u8]) {
    if let Some(body_len) = bytes.len().checked_sub(4) {
        let crc = qpy::crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Recompute every QCKP section CRC that is still in bounds, and the
/// CRC of the container inside a STATE section first.
fn resign_qckp(bytes: &mut [u8]) {
    let mut off = 6;
    while off + 9 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off + 1..off + 5].try_into().unwrap()) as usize;
        let Some(end) = (off + 5).checked_add(len).filter(|end| end + 4 <= bytes.len()) else {
            return;
        };
        if bytes[off] == 2 {
            resign_h5(&mut bytes[off + 5..end]);
        }
        let crc = qgear_hdf5lite::format::crc32(&bytes[off..end]);
        bytes[end..end + 4].copy_from_slice(&crc.to_le_bytes());
        off = end + 4;
    }
}

/// Peak virtual size of this process: a reservation shows here even if
/// it is never touched. `None` where `/proc` is not available.
fn vm_peak_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmPeak:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
