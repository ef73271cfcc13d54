//! Binary on-disk format.
//!
//! Self-describing layout (all little-endian):
//!
//! ```text
//! magic    [4] = "H5L1"
//! version  u16 = 1
//! codec    u8  — Compression tag used for every dataset
//! root group, recursively:
//!   node tag u8: 0 = group, 1 = dataset
//!   group:   attrs, child count u32, (name, node)*
//!   dataset: attrs, dtype u8, ndim u8, dims u64*ndim,
//!            chunk count u32, (chunk len u32, chunk bytes)*
//! crc32    u32 over everything before it
//! ```

use crate::codec::{self, Compression};
use crate::dataset::{Attr, Dataset, Dtype};
use crate::error::H5Error;
use crate::tree::{Group, Node};
use crate::H5File;
use bytes::{Buf, BufMut};
use std::collections::BTreeMap;

/// File magic.
pub const MAGIC: &[u8; 4] = b"H5L1";
/// Format version.
pub const VERSION: u16 = 1;

/// Deepest group nesting [`read`] follows (the root is depth 0). Real
/// files nest three or four deep; the cap keeps a crafted file from
/// recursing the reader off its stack.
const MAX_DEPTH: usize = 64;

/// Serialize a container.
pub fn write(file: &H5File, compression: Compression) -> Vec<u8> {
    let mut buf = Vec::new();
    let start = begin(&mut buf, file.payload_bytes(), compression);
    write_group(&mut buf, &file.root, compression);
    finish(&mut buf, start);
    buf
}

/// Serialize onto the end of `buf` (a framing format that embeds a
/// container, like a checkpoint's STATE section, writes it in place) a
/// container of one attribute-less dataset at `path` whose bytes exist
/// nowhere in one piece: `fill` produces them a chunk at a time
/// ([`codec::compress_payload_with`]). Byte for byte what [`write()`]
/// emits for an [`H5File`] holding that dataset alone. Returns the
/// CRC-32 of everything it appended, trailer included, so the frame
/// around it can checksum itself without a second pass over the
/// container ([`crc32_combine`]).
pub fn write_dataset_into(
    buf: &mut Vec<u8>,
    path: &str,
    dtype: Dtype,
    shape: &[u64],
    compression: Compression,
    fill: impl FnMut(&mut [u8]),
) -> u32 {
    let bytes = dtype.size() * shape.iter().product::<u64>() as usize;
    let start = begin(buf, bytes, compression);
    // One group per path component, the root first, each holding only
    // the next; the last component names the dataset.
    for name in path.split('/') {
        group_header(buf, &BTreeMap::new(), 1);
        write_str(buf, name);
    }
    dataset_header(buf, &BTreeMap::new(), dtype, shape);
    codec::compress_payload_with(buf, bytes, compression, dtype.size(), fill);
    finish(buf, start)
}

/// Reserve for a container of `payload` dataset bytes and write its
/// header. Returns where the container starts.
fn begin(buf: &mut Vec<u8>, payload: usize, compression: Compression) -> usize {
    // Room for every chunk stored raw (length field + tag each), so a
    // dense payload is written without one regrowth copy.
    buf.reserve(payload + payload / codec::CHUNK_SIZE * 5 + 1024);
    let start = buf.len();
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u8(compression.tag());
    start
}

/// Append the trailer of the container begun at `start` — the one CRC
/// pass over it — and return the CRC-32 of the container with its
/// trailer.
fn finish(buf: &mut Vec<u8>, start: usize) -> u32 {
    let crc = crc32(&buf[start..]);
    buf.put_u32_le(crc);
    crc32_combine(crc, crc32(&crc.to_le_bytes()), 4)
}

fn write_str(buf: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    buf.put_u16_le(bytes.len().min(u16::MAX as usize) as u16);
    buf.put_slice(&bytes[..bytes.len().min(u16::MAX as usize)]);
}

fn write_attrs(buf: &mut Vec<u8>, attrs: &BTreeMap<String, Attr>) {
    buf.put_u16_le(attrs.len() as u16);
    for (name, attr) in attrs {
        write_str(buf, name);
        match attr {
            Attr::Int(v) => {
                buf.put_u8(0);
                buf.put_i64_le(*v);
            }
            Attr::Float(v) => {
                buf.put_u8(1);
                buf.put_f64_le(*v);
            }
            Attr::Str(v) => {
                buf.put_u8(2);
                write_str(buf, v);
            }
            Attr::IntVec(v) => {
                buf.put_u8(3);
                buf.put_u32_le(v.len() as u32);
                for x in v {
                    buf.put_i64_le(*x);
                }
            }
        }
    }
}

fn group_header(buf: &mut Vec<u8>, attrs: &BTreeMap<String, Attr>, children: usize) {
    buf.put_u8(0);
    write_attrs(buf, attrs);
    buf.put_u32_le(children as u32);
}

fn write_group(buf: &mut Vec<u8>, group: &Group, compression: Compression) {
    group_header(buf, &group.attrs, group.children.len());
    for (name, node) in &group.children {
        write_str(buf, name);
        match node {
            Node::Group(g) => write_group(buf, g, compression),
            Node::Dataset(d) => {
                dataset_header(buf, &d.attrs, d.dtype, &d.shape);
                codec::compress_payload(buf, &d.data, compression, d.dtype.size());
            }
        }
    }
}

fn dataset_header(buf: &mut Vec<u8>, attrs: &BTreeMap<String, Attr>, dtype: Dtype, shape: &[u64]) {
    buf.put_u8(1);
    write_attrs(buf, attrs);
    buf.put_u8(dtype.tag());
    buf.put_u8(shape.len() as u8);
    for &d in shape {
        buf.put_u64_le(d);
    }
}

/// Deserialize a container.
pub fn read(data: &[u8]) -> Result<H5File, H5Error> {
    if data.len() < 15 {
        return Err(H5Error::Malformed("shorter than minimal header".into()));
    }
    let (body, crc_bytes) = data.split_at(data.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc32(body) != stored {
        return Err(H5Error::Malformed("CRC mismatch".into()));
    }
    let mut cur = body;
    let mut magic = [0u8; 4];
    cur.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(H5Error::Malformed("bad magic".into()));
    }
    let version = cur.get_u16_le();
    if version != VERSION {
        return Err(H5Error::UnsupportedVersion(version));
    }
    let _codec_tag = cur.get_u8(); // informational; chunks are self-tagged
    let root = match read_node(&mut cur, 0)? {
        Node::Group(g) => g,
        Node::Dataset(_) => return Err(H5Error::Malformed("root is a dataset".into())),
    };
    if cur.has_remaining() {
        return Err(H5Error::Malformed(format!("{} trailing bytes", cur.remaining())));
    }
    Ok(H5File { root })
}

fn need(cur: &&[u8], n: usize) -> Result<(), H5Error> {
    if cur.remaining() < n {
        Err(H5Error::Malformed("unexpected end of stream".into()))
    } else {
        Ok(())
    }
}

fn read_str(cur: &mut &[u8]) -> Result<String, H5Error> {
    need(cur, 2)?;
    let len = cur.get_u16_le() as usize;
    need(cur, len)?;
    let s = std::str::from_utf8(&cur[..len])
        .map_err(|_| H5Error::Malformed("non-UTF-8 string".into()))?
        .to_owned();
    cur.advance(len);
    Ok(s)
}

fn read_attrs(cur: &mut &[u8]) -> Result<BTreeMap<String, Attr>, H5Error> {
    need(cur, 2)?;
    let count = cur.get_u16_le();
    let mut attrs = BTreeMap::new();
    for _ in 0..count {
        let name = read_str(cur)?;
        need(cur, 1)?;
        let attr = match cur.get_u8() {
            0 => {
                need(cur, 8)?;
                Attr::Int(cur.get_i64_le())
            }
            1 => {
                need(cur, 8)?;
                Attr::Float(cur.get_f64_le())
            }
            2 => Attr::Str(read_str(cur)?),
            3 => {
                need(cur, 4)?;
                let n = cur.get_u32_le() as usize;
                need(cur, n * 8)?;
                Attr::IntVec((0..n).map(|_| cur.get_i64_le()).collect())
            }
            t => return Err(H5Error::Malformed(format!("unknown attr tag {t}"))),
        };
        attrs.insert(name, attr);
    }
    Ok(attrs)
}

fn read_node(cur: &mut &[u8], depth: usize) -> Result<Node, H5Error> {
    need(cur, 1)?;
    match cur.get_u8() {
        0 => {
            if depth > MAX_DEPTH {
                return Err(H5Error::Malformed(format!("groups nested past {MAX_DEPTH}")));
            }
            let attrs = read_attrs(cur)?;
            need(cur, 4)?;
            let count = cur.get_u32_le();
            let mut children = BTreeMap::new();
            for _ in 0..count {
                let name = read_str(cur)?;
                let node = read_node(cur, depth + 1)?;
                children.insert(name, node);
            }
            Ok(Node::Group(Group { children, attrs }))
        }
        1 => {
            let attrs = read_attrs(cur)?;
            need(cur, 2)?;
            let dtype = Dtype::from_tag(cur.get_u8())
                .ok_or_else(|| H5Error::Malformed("unknown dtype".into()))?;
            let ndim = cur.get_u8() as usize;
            need(cur, ndim * 8)?;
            let shape: Vec<u64> = (0..ndim).map(|_| cur.get_u64_le()).collect();
            // The length the chunks must decode to, fixed before any of
            // them is looked at.
            let bytes = shape
                .iter()
                .try_fold(dtype.size() as u64, |acc, &d| acc.checked_mul(d))
                .and_then(|b| usize::try_from(b).ok())
                .ok_or_else(|| H5Error::Malformed("dataset size overflows".into()))?;
            let data = codec::decompress_payload(cur, bytes, dtype.size())
                .ok_or_else(|| H5Error::Malformed("chunk stream does not decode to the dataset's shape".into()))?;
            Ok(Node::Dataset(Dataset { dtype, shape, data, attrs }))
        }
        t => Err(H5Error::Malformed(format!("unknown node tag {t}"))),
    }
}

/// Slice-by-16 lookup tables: `TABLES[k][b]` is the CRC register after
/// byte `b` followed by `k` zero bytes, so sixteen input bytes fold into
/// the register with sixteen independent lookups instead of 128
/// dependent shift/xor steps. Built at compile time; a `static`, so that
/// an unoptimized build indexes it in place instead of materializing
/// 16 KB at every use.
static TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (reflected IEEE polynomial `0xEDB88320`), table-driven: the
/// one fast implementation in the workspace. Containers and the
/// checkpoint sections that embed them run it over whole state vectors,
/// so it has to move at memory-ish speed; `qgear_ir::qpy::crc32` is the
/// same function as a bitwise loop, kept for QPY's small headers (the
/// two crates do not depend on each other) and as this one's test
/// oracle (`tests/wire_stability.rs`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        // Byte `i` of the block has 15 - i bytes behind it; the register
        // folds into the first four.
        let word = |i: usize| u32::from_le_bytes([block[i], block[i + 1], block[i + 2], block[i + 3]]);
        let fold = |w: u32, top: usize| {
            TABLES[top][(w & 0xFF) as usize]
                ^ TABLES[top - 1][(w >> 8 & 0xFF) as usize]
                ^ TABLES[top - 2][(w >> 16 & 0xFF) as usize]
                ^ TABLES[top - 3][(w >> 24) as usize]
        };
        crc = fold(crc ^ word(0), 15) ^ fold(word(4), 11) ^ fold(word(8), 7) ^ fold(word(12), 3);
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// CRC-32 of `a ‖ b` from `crc32(a)`, `crc32(b)` and `b.len()` — what a
/// frame needs to checksum itself around a payload that has already been
/// checksummed. Appending a zero byte is linear on the CRC register, and
/// the `!` at both ends of [`crc32`] cancels out of the difference, so
/// `crc32(a ‖ b) = Z^len(crc32(a)) ^ crc32(b)` with `Z` that one-byte
/// operator; `Z^len` is `log2(len)` squarings of a 32 × 32 bit matrix.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    let times = |op: &[u32; 32], v: u32| {
        (0..32).filter(|i| v >> i & 1 == 1).fold(0, |acc, i| acc ^ op[i])
    };
    // Column `i`: the register after bit `i` alone meets one zero byte.
    let mut op: [u32; 32] = std::array::from_fn(|i| {
        let x = 1u32 << i;
        (x >> 8) ^ TABLES[0][(x & 0xFF) as usize]
    });
    let (mut crc, mut len) = (crc_a, len_b);
    while len != 0 {
        if len & 1 == 1 {
            crc = times(&op, crc);
        }
        op = std::array::from_fn(|i| times(&op, op[i]));
        len >>= 1;
    }
    crc ^ crc_b
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_file() -> H5File {
        let mut f = H5File::new();
        f.set_attr("", "creator", Attr::Str("qgear".into())).unwrap();
        f.create_group("circuits/batch0").unwrap();
        f.write_dataset(
            "circuits/batch0/gate_type",
            Dataset::from_u8(&[0, 1, 2, 3, 3, 4], &[6]),
        )
        .unwrap();
        f.write_dataset(
            "circuits/batch0/param",
            Dataset::from_f64(&[0.1, 0.0, 0.0, 1.25, 0.0, 0.0], &[2, 3]),
        )
        .unwrap();
        f.set_attr("circuits/batch0", "num_qubits", Attr::Int(5)).unwrap();
        f.set_attr("circuits", "dims", Attr::IntVec(vec![64, 80])).unwrap();
        f.write_dataset("meta/shots", Dataset::from_i64(&[3_000_000], &[1])).unwrap();
        f
    }

    #[test]
    fn roundtrip_all_codecs() {
        let f = sample_file();
        for codec in [Compression::None, Compression::Rle, Compression::ShuffleRle] {
            let bytes = write(&f, codec);
            let g = read(&bytes).unwrap();
            assert_eq!(f, g, "{codec:?}");
        }
    }

    #[test]
    fn empty_file_roundtrip() {
        let f = H5File::new();
        let bytes = write(&f, Compression::ShuffleRle);
        assert_eq!(read(&bytes).unwrap(), f);
    }

    /// `len` bytes with no period a CRC could hide behind.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn combined_crcs_equal_the_crc_of_the_concatenation() {
        // Around the 16-byte fold, around a chunk, and a long tail.
        const CHUNK: usize = codec::CHUNK_SIZE;
        let lens = [0, 1, 3, 15, 16, 17, 31, 33, CHUNK - 1, CHUNK, CHUNK + 1];
        for (i, &la) in lens.iter().enumerate() {
            for (j, &lb) in lens.iter().enumerate() {
                let (a, b) = (noise(la, (i * 16 + j) as u64), noise(lb, (j * 16 + i + 999) as u64));
                let whole = crc32(&[a.as_slice(), b.as_slice()].concat());
                assert_eq!(crc32_combine(crc32(&a), crc32(&b), lb), whole, "{la} ‖ {lb}");
            }
        }
        let data = noise(300_000, 7);
        let mut x = 11u64;
        for _ in 0..50 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let (a, b) = data.split_at((x >> 33) as usize % (data.len() + 1));
            let combined = crc32_combine(crc32(a), crc32(b), b.len());
            assert_eq!(combined, crc32(&data), "split at {}", a.len());
        }
    }

    #[test]
    fn a_streamed_dataset_is_the_container_of_that_dataset_and_reports_its_crc() {
        for (seed, len) in [0usize, 1, 1000, 8192, 8193, 3 * 8192 + 17].into_iter().enumerate() {
            // Half noise, half zeros: raw chunks and shrunk ones.
            let values: Vec<f64> = noise(len, seed as u64)
                .iter()
                .enumerate()
                .map(|(i, &b)| if i < len / 2 { f64::from(b) * 0.37 } else { 0.0 })
                .collect();
            let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
            let mut f = H5File::new();
            f.write_dataset("a/b/values", Dataset::from_f64(&values, &[len as u64])).unwrap();
            for codec in [Compression::None, Compression::Rle, Compression::ShuffleRle] {
                let (mut streamed, mut rest) = (b"frame".to_vec(), bytes.as_slice());
                let fill = |chunk: &mut [u8]| {
                    let (now, later) = rest.split_at(chunk.len());
                    chunk.copy_from_slice(now);
                    rest = later;
                };
                let shape = [len as u64];
                let streamed_crc =
                    write_dataset_into(&mut streamed, "a/b/values", Dtype::F64, &shape, codec, fill);
                assert_eq!(streamed[..5], *b"frame");
                assert_eq!(streamed[5..], write(&f, codec), "{len} values, {codec:?}");
                assert_eq!(streamed_crc, crc32(&streamed[5..]), "the CRC of what was appended");
            }
        }
    }

    #[test]
    fn corruption_detected() {
        let mut bytes = write(&sample_file(), Compression::ShuffleRle);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(matches!(read(&bytes), Err(H5Error::Malformed(_))));
    }

    #[test]
    fn truncation_detected() {
        let bytes = write(&sample_file(), Compression::None);
        for cut in [1usize, 5, 17, bytes.len() - 10] {
            assert!(read(&bytes[..bytes.len() - cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn bad_version_detected() {
        let mut bytes = write(&sample_file(), Compression::None);
        bytes[4..6].copy_from_slice(&7u16.to_le_bytes());
        let crc = crc32(&bytes[..bytes.len() - 4]);
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(read(&bytes), Err(H5Error::UnsupportedVersion(7)));
    }

    /// A container around hand-written root-group bytes, CRC and all.
    fn signed(root: &[u8]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.put_u16_le(VERSION);
        bytes.put_u8(0);
        bytes.put_slice(root);
        let crc = crc32(&bytes);
        bytes.put_u32_le(crc);
        bytes
    }

    /// Root group with one dataset `d`: u8, one dimension of `dim`, then
    /// `chunks` verbatim.
    fn one_dataset(dim: u64, chunks: &[u8]) -> Vec<u8> {
        let mut root = vec![0, 0, 0, 1, 0, 0, 0, 1, 0, b'd', 1, 0, 0, Dtype::U8.tag(), 1];
        root.put_u64_le(dim);
        root.put_slice(chunks);
        signed(&root)
    }

    fn malformed(bytes: &[u8]) -> bool {
        matches!(read(bytes), Err(H5Error::Malformed(_)))
    }

    #[test]
    fn length_fields_are_not_trusted() {
        // Sanity: the hand-written framing is what the writer emits.
        let mut f = H5File::new();
        f.write_dataset("d", Dataset::from_u8(&[7, 7, 7], &[3])).unwrap();
        assert_eq!(one_dataset(3, &[1, 0, 0, 0, 4, 0, 0, 0, 0, 7, 7, 7]), write(&f, Compression::None));

        // A chunk count (and a shape) far past the bytes behind them.
        let mut bomb = u32::MAX.to_le_bytes().to_vec();
        bomb.put_slice(&[4, 0, 0, 0, 0, 7, 7, 7]);
        assert!(malformed(&one_dataset(u64::MAX, &bomb)));
        assert!(malformed(&one_dataset(3, &bomb)));
        // A shape whose byte count overflows.
        let mut root = vec![0, 0, 0, 1, 0, 0, 0, 1, 0, b'd', 1, 0, 0, Dtype::F64.tag(), 2];
        root.put_u64_le(1 << 62);
        root.put_u64_le(4);
        root.put_u32_le(0);
        assert!(malformed(&signed(&root)));
        // Chunks that decode to more, and to less, than the shape says.
        assert!(malformed(&one_dataset(2, &[1, 0, 0, 0, 4, 0, 0, 0, 0, 7, 7, 7])));
        assert!(malformed(&one_dataset(4, &[1, 0, 0, 0, 4, 0, 0, 0, 0, 7, 7, 7])));
    }

    #[test]
    fn nesting_depth_is_capped() {
        // `depth` groups inside the root, each the only child `g` of the
        // one before: 10 bytes a level.
        let nested = |depth: usize| {
            let mut root = Vec::new();
            for _ in 0..depth {
                root.put_slice(&[0, 0, 0, 1, 0, 0, 0, 1, 0, b'g']);
            }
            root.put_slice(&[0, 0, 0, 0, 0, 0, 0]);
            signed(&root)
        };
        assert!(read(&nested(MAX_DEPTH)).is_ok());
        assert!(malformed(&nested(MAX_DEPTH + 1)));
        // A megabyte of nesting is an error, not a stack overflow.
        assert!(malformed(&nested(100_000)));
    }

    #[test]
    fn compression_shrinks_padded_tensors() {
        // Mimic the Appendix C scenario: a large zero-padded parameter
        // tensor. ShuffleRle must save at least 50 %.
        let mut f = H5File::new();
        let mut params = vec![0.0f64; 50_000];
        for (i, p) in params.iter_mut().take(3_000).enumerate() {
            *p = (i as f64) * 0.001;
        }
        let n = params.len() as u64;
        f.write_dataset("t/param", Dataset::from_f64(&params, &[n])).unwrap();
        let raw = write(&f, Compression::None).len();
        let packed = write(&f, Compression::ShuffleRle).len();
        assert!(
            packed * 2 < raw,
            "expected >=50% compression: {packed} vs {raw}"
        );
        assert_eq!(read(&write(&f, Compression::ShuffleRle)).unwrap(), f);
    }

    #[test]
    fn large_multichunk_dataset_roundtrip() {
        let mut f = H5File::new();
        let data: Vec<f32> = (0..100_000).map(|i| (i % 777) as f32 * 0.5).collect();
        f.write_dataset("big", Dataset::from_f32(&data, &[100_000])).unwrap();
        let bytes = write(&f, Compression::ShuffleRle);
        let g = read(&bytes).unwrap();
        assert_eq!(g.dataset("big").unwrap().as_f32().unwrap(), data);
    }
}
