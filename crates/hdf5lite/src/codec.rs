//! Chunk compression codecs.
//!
//! HDF5 deployments typically pair the *shuffle* filter with a general
//! compressor; shuffle transposes an array of fixed-width elements into
//! planes of 1st bytes, 2nd bytes, …, which groups the slowly-varying high
//! bytes of floats and small integers into long runs. We follow the same
//! recipe with a simple byte-wise run-length coder as the compressor —
//! fully self-contained, lossless, and effective on exactly the data the
//! paper stores (index arrays, one-hot tags, zero-padded parameter
//! tensors; Appendix C reports ~50 % savings).

use bytes::Buf;

/// Compression selector for a container file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum Compression {
    /// Store chunks raw.
    None = 0,
    /// Run-length code bytes directly.
    Rle = 1,
    /// Byte-shuffle with the dataset's element width, then run-length code.
    #[default]
    ShuffleRle = 2,
}

impl Compression {
    /// Stable serialization tag.
    pub const fn tag(self) -> u8 {
        self as u8
    }

    /// Decode a tag.
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => Compression::None,
            1 => Compression::Rle,
            2 => Compression::ShuffleRle,
            _ => return None,
        })
    }
}

/// Chunk size for compression and I/O (64 KiB, matching a typical HDF5
/// chunk cache granule).
pub const CHUNK_SIZE: usize = 64 * 1024;

/// Run-length encode `data` onto `out` as `(count, byte)` pairs with
/// `count ∈ 1..=255`, giving up as soon as the encoding is as long as
/// its input: from there on storing the chunk raw is never worse, so the
/// rest would be built only to be thrown away. Returns whether the
/// encoding is complete and strictly shorter than `data`; on `false`
/// what was appended to `out` is partial and the caller truncates it.
fn rle_encode(out: &mut Vec<u8>, data: &[u8]) -> bool {
    let start = out.len();
    let mut i = 0;
    while i < data.len() {
        if out.len() - start + 2 >= data.len() {
            return false;
        }
        let b = data[i];
        let mut run = 1usize;
        while run < 255 && i + run < data.len() && data[i + run] == b {
            run += 1;
        }
        out.push(run as u8);
        out.push(b);
        i += run;
    }
    !data.is_empty()
}

/// Invert [`rle_encode`] onto `out`. Returns `None` on malformed input
/// (odd length or zero run counts) and on input that would decode to
/// more than `limit` bytes — checked from the run counts alone, before
/// anything is appended.
fn rle_decode(out: &mut Vec<u8>, data: &[u8], limit: usize) -> Option<()> {
    if !data.len().is_multiple_of(2) {
        return None;
    }
    let mut decoded = 0usize;
    for pair in data.chunks_exact(2) {
        if pair[0] == 0 {
            return None;
        }
        decoded += pair[0] as usize;
    }
    if decoded > limit {
        return None;
    }
    for pair in data.chunks_exact(2) {
        out.extend(std::iter::repeat_n(pair[1], pair[0] as usize));
    }
    Some(())
}

/// Byte-shuffle `data` as an array of `width`-byte elements into `out`
/// (same length): output plane `k` holds the `k`-th byte of every
/// element. A trailing partial element (when `data.len() % width != 0`)
/// is copied unshuffled.
pub fn shuffle(out: &mut [u8], data: &[u8], width: usize) {
    let n = data.len() / width.max(1);
    if width <= 1 || n == 0 {
        return out.copy_from_slice(data);
    }
    let (planes, tail) = out.split_at_mut(n * width);
    for (k, plane) in planes.chunks_exact_mut(n).enumerate() {
        for (dst, element) in plane.iter_mut().zip(data.chunks_exact(width)) {
            *dst = element[k];
        }
    }
    tail.copy_from_slice(&data[n * width..]);
}

/// Invert [`shuffle`].
fn unshuffle(out: &mut [u8], data: &[u8], width: usize) {
    let n = data.len() / width.max(1);
    if width <= 1 || n == 0 {
        return out.copy_from_slice(data);
    }
    let (planes, tail) = data.split_at(n * width);
    for (k, plane) in planes.chunks_exact(n).enumerate() {
        for (&src, element) in plane.iter().zip(out.chunks_exact_mut(width)) {
            element[k] = src;
        }
    }
    out[n * width..].copy_from_slice(tail);
}

/// A lower bound on the `(count, byte)` pairs [`rle_encode`] needs for
/// `data` after a `width`-byte [`shuffle`]: one per run, and bytes that
/// end up adjacent inside a plane sit `width` apart in `data`. One
/// contiguous compare-and-count pass, so a chunk that cannot shrink (a
/// dense amplitude vector) is found out before it is shuffled.
fn min_rle_pairs(data: &[u8], width: usize) -> usize {
    let width = width.max(1);
    let shuffled = data.len() / width * width;
    let boundaries = data[..shuffled]
        .iter()
        .zip(&data[..shuffled][width.min(shuffled)..])
        .filter(|(a, b)| a != b)
        .count();
    1 + boundaries
}

/// Compress one chunk onto `out`, self-tagged. `width` is the dataset
/// element width (used by the shuffle filter); `scratch` holds the
/// shuffled planes and is reused from chunk to chunk. Falls back to
/// storing raw when "compression" would not shrink the chunk, so the
/// codec never loses.
fn compress_chunk(
    out: &mut Vec<u8>,
    data: &[u8],
    codec: Compression,
    width: usize,
    scratch: &mut Vec<u8>,
) {
    let width = if codec == Compression::ShuffleRle { width } else { 1 };
    let tag_at = out.len();
    out.push(codec.tag());
    let shrunk = codec != Compression::None
        && 2 * min_rle_pairs(data, width) < data.len()
        && if width > 1 {
            scratch.resize(data.len(), 0);
            shuffle(scratch, data, width);
            rle_encode(out, scratch)
        } else {
            rle_encode(out, data)
        };
    if !shrunk {
        out[tag_at] = Compression::None.tag();
        out.truncate(tag_at + 1);
        out.extend_from_slice(data);
    }
}

/// Decompress one chunk produced by [`compress_chunk`] onto `out`;
/// `None` if it is malformed or holds more than `limit` bytes.
fn decompress_chunk(
    out: &mut Vec<u8>,
    chunk: &[u8],
    width: usize,
    limit: usize,
    scratch: &mut Vec<u8>,
) -> Option<()> {
    let (&tag, body) = chunk.split_first()?;
    match Compression::from_tag(tag)? {
        Compression::None => {
            if body.len() > limit {
                return None;
            }
            out.extend_from_slice(body);
        }
        Compression::Rle => rle_decode(out, body, limit)?,
        Compression::ShuffleRle => {
            scratch.clear();
            rle_decode(scratch, body, limit)?;
            let start = out.len();
            out.resize(start + scratch.len(), 0);
            unshuffle(&mut out[start..], scratch, width);
        }
    }
    Some(())
}

/// One chunk as the container stores it: its stored length `u32`, then
/// its self-tagged body.
fn framed_chunk(
    out: &mut Vec<u8>,
    chunk: &[u8],
    codec: Compression,
    width: usize,
    scratch: &mut Vec<u8>,
) {
    let len_at = out.len();
    out.extend_from_slice(&[0; 4]);
    compress_chunk(out, chunk, codec, width, scratch);
    let stored = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&stored.to_le_bytes());
}

/// Compress a full payload in [`CHUNK_SIZE`] chunks straight onto `out`,
/// as the container stores it: chunk count `u32`, then every chunk
/// length-framed.
pub fn compress_payload(out: &mut Vec<u8>, data: &[u8], codec: Compression, width: usize) {
    let mut scratch = Vec::new();
    let chunks = data.chunks(CHUNK_SIZE);
    out.extend_from_slice(&(chunks.len() as u32).to_le_bytes());
    for chunk in chunks {
        framed_chunk(out, chunk, codec, width, &mut scratch);
    }
}

/// [`compress_payload`] for a payload of `len` bytes that exists nowhere
/// in one piece: `fill` is handed one chunk-sized buffer for each chunk
/// in order (all [`CHUNK_SIZE`] long but the last) and writes that part
/// of the payload into it. The stream is the one `compress_payload`
/// emits for the same bytes; the only payload-sized buffer is `out`.
pub fn compress_payload_with(
    out: &mut Vec<u8>,
    len: usize,
    codec: Compression,
    width: usize,
    mut fill: impl FnMut(&mut [u8]),
) {
    let mut scratch = Vec::new();
    let mut buffer = vec![0u8; CHUNK_SIZE.min(len)];
    out.extend_from_slice(&(len.div_ceil(CHUNK_SIZE) as u32).to_le_bytes());
    for start in (0..len).step_by(CHUNK_SIZE) {
        let chunk = &mut buffer[..CHUNK_SIZE.min(len - start)];
        fill(chunk);
        framed_chunk(out, chunk, codec, width, &mut scratch);
    }
}

/// Read back what [`compress_payload`] wrote, advancing `cur` past it.
/// The stream is untrusted: `expected` (the length the dataset's shape
/// and dtype imply) must be met exactly, no chunk may hold more than
/// [`CHUNK_SIZE`] bytes, and every length is checked against the bytes
/// actually present before anything is allocated for it, so the result
/// never costs more than the stream's own RLE expansion. `None` on any
/// violation.
pub fn decompress_payload(cur: &mut &[u8], expected: usize, width: usize) -> Option<Vec<u8>> {
    let u32_le = |cur: &mut &[u8]| (cur.remaining() >= 4).then(|| cur.get_u32_le() as usize);
    let nchunks = u32_le(cur)?;
    // A chunk is at least its length field and its tag.
    if nchunks > cur.len() / 5 {
        return None;
    }
    let mut out = Vec::with_capacity(expected.min(cur.len()));
    let mut scratch = Vec::new();
    for _ in 0..nchunks {
        let stored = u32_le(cur)?;
        let chunk = cur.get(..stored)?;
        cur.advance(stored);
        let limit = CHUNK_SIZE.min(expected - out.len());
        decompress_chunk(&mut out, chunk, width, limit, &mut scratch)?;
    }
    (out.len() == expected).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn float_bytes(values: &[f64]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn shuffled(data: &[u8], width: usize) -> Vec<u8> {
        let mut out = vec![0; data.len()];
        shuffle(&mut out, data, width);
        out
    }

    /// Reference encoder: the whole pair stream, however long.
    fn rle(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut rest = data;
        while let Some(&b) = rest.first() {
            let run = rest.iter().take(255).take_while(|&&x| x == b).count();
            out.extend_from_slice(&[run as u8, b]);
            rest = &rest[run..];
        }
        out
    }

    fn chunk(data: &[u8], codec: Compression, width: usize) -> Vec<u8> {
        let mut out = Vec::new();
        compress_chunk(&mut out, data, codec, width, &mut Vec::new());
        out
    }

    fn payload_roundtrip(data: &[u8], codec: Compression, width: usize) -> Vec<u8> {
        let mut stream = Vec::new();
        compress_payload(&mut stream, data, codec, width);
        let mut cur = &stream[..];
        assert_eq!(decompress_payload(&mut cur, data.len(), width).as_deref(), Some(data), "{codec:?}");
        assert!(cur.is_empty());
        // The chunk-at-a-time writer emits the same stream.
        let (mut streamed, mut rest) = (Vec::new(), data);
        compress_payload_with(&mut streamed, data.len(), codec, width, |chunk| {
            let (now, later) = rest.split_at(chunk.len());
            chunk.copy_from_slice(now);
            rest = later;
        });
        assert_eq!(streamed, stream, "{codec:?}, streamed");
        stream
    }

    #[test]
    fn rle_roundtrip_patterns() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![1],
            vec![0; 1000],
            (0..=255u8).collect(),
            vec![7; 300], // run > 255 forces a split
            b"abacadabra".to_vec(),
        ];
        for case in cases {
            let pairs = rle(&case);
            let mut back = Vec::new();
            rle_decode(&mut back, &pairs, case.len()).unwrap();
            assert_eq!(back, case);
            // The real encoder: the same pairs when they are a win,
            // nothing usable when they are not.
            let mut out = Vec::new();
            assert_eq!(rle_encode(&mut out, &case), pairs.len() < case.len());
            assert!(out == pairs || pairs.len() >= case.len());
        }
    }

    #[test]
    fn rle_gives_up_exactly_when_it_cannot_win() {
        // Runs of two encode to their own length: a tie, so no win.
        let pairs: Vec<u8> = (0..64).map(|i| i / 2).collect();
        assert!(!rle_encode(&mut Vec::new(), &pairs));
        // One run of four among them: two bytes shorter.
        let mut one_longer = pairs.clone();
        one_longer[2] = 0;
        one_longer[3] = 0;
        let mut out = Vec::new();
        assert!(rle_encode(&mut out, &one_longer));
        assert_eq!(out.len(), 62);
        assert!(!rle_encode(&mut Vec::new(), &[]));
    }

    #[test]
    fn rle_rejects_malformed() {
        let mut out = Vec::new();
        assert!(rle_decode(&mut out, &[1], 64).is_none(), "odd length");
        assert!(rle_decode(&mut out, &[0, 5], 64).is_none(), "zero run");
        assert!(rle_decode(&mut out, &[200, 5, 200, 6], 399).is_none(), "past the limit");
        assert!(out.is_empty(), "nothing is appended for a rejected input");
        assert!(rle_decode(&mut out, &[200, 5, 200, 6], 400).is_some());
    }

    #[test]
    fn shuffle_roundtrip_various_widths() {
        let data: Vec<u8> = (0..97).map(|i| (i * 31 % 256) as u8).collect();
        for width in [1usize, 2, 4, 8, 128] {
            let s = shuffled(&data, width);
            let mut back = vec![0; data.len()];
            unshuffle(&mut back, &s, width);
            assert_eq!(back, data);
        }
        assert_eq!(shuffled(&[1, 2, 3, 4, 5], 2), [1, 3, 2, 4, 5], "planes, then the tail");
    }

    #[test]
    fn shuffle_groups_high_bytes() {
        // Small positive f64 values share exponent bytes; after shuffle the
        // repeated bytes form runs.
        let values: Vec<f64> = (0..512).map(|i| 1.0 + i as f64 * 1e-6).collect();
        let raw = float_bytes(&values);
        let rle_raw = rle(&raw).len();
        let rle_shuf = rle(&shuffled(&raw, 8)).len();
        assert!(
            rle_shuf < rle_raw,
            "shuffle should help: {rle_shuf} vs {rle_raw}"
        );
    }

    #[test]
    fn pair_bound_never_exceeds_the_encoding() {
        let mut x = 1u32;
        for len in [1usize, 7, 8, 9, 64, 1000] {
            for width in [1usize, 2, 4, 8] {
                // Mostly-repeating bytes, so some runs survive the shuffle.
                let data: Vec<u8> = (0..len)
                    .map(|_| {
                        x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                        (x >> 30) as u8
                    })
                    .collect();
                let pairs = rle(&shuffled(&data, width)).len() / 2;
                assert!(min_rle_pairs(&data, width) <= pairs, "len {len} width {width}");
            }
        }
    }

    #[test]
    fn compress_never_expands() {
        // Incompressible noise must be stored raw (+1 tag byte only).
        let noise: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let c = chunk(&noise, Compression::ShuffleRle, 8);
        assert_eq!(c.len(), noise.len() + 1);
        let mut back = Vec::new();
        decompress_chunk(&mut back, &c, 8, noise.len(), &mut Vec::new()).unwrap();
        assert_eq!(back, noise);
        assert!(
            decompress_chunk(&mut back, &c, 8, noise.len() - 1, &mut Vec::new()).is_none(),
            "a raw chunk past the limit is refused"
        );
    }

    #[test]
    fn zero_padded_tensor_compresses_well() {
        // The §2.1 tensors are mostly zero padding beyond the populated
        // slots; Appendix C reports ≥ 50 % savings — verify we achieve it.
        let mut data = vec![0u8; 100_000];
        for (i, byte) in data.iter_mut().enumerate().take(2_000) {
            *byte = (i % 251) as u8;
        }
        let stored = payload_roundtrip(&data, Compression::ShuffleRle, 8).len();
        assert!(
            stored * 2 < data.len(),
            "expected >=50% compression, stored {stored} of {}",
            data.len()
        );
    }

    #[test]
    fn payload_roundtrip_multichunk() {
        let data: Vec<u8> = (0..(CHUNK_SIZE * 2 + 1234))
            .map(|i| (i / 64) as u8)
            .collect();
        for codec in [Compression::None, Compression::Rle, Compression::ShuffleRle] {
            let stream = payload_roundtrip(&data, codec, 4);
            assert_eq!(stream[..4], 3u32.to_le_bytes(), "chunk count");
        }
    }

    #[test]
    fn empty_payload() {
        assert_eq!(payload_roundtrip(&[], Compression::ShuffleRle, 8), [0; 4]);
    }

    #[test]
    fn payload_reader_holds_the_stream_to_its_claims() {
        let data = vec![0u8; CHUNK_SIZE + 10];
        let mut stream = Vec::new();
        compress_payload(&mut stream, &data, Compression::Rle, 1);
        let read = |stream: &[u8], expected| decompress_payload(&mut &stream[..], expected, 1);
        assert!(read(&stream, data.len()).is_some());
        assert!(read(&stream, data.len() - 1).is_none(), "decodes past the dataset's length");
        assert!(read(&stream, data.len() + 1).is_none(), "decodes short of it");
        // More chunks claimed than the bytes behind the count could hold.
        let mut bomb = stream.clone();
        bomb[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(read(&bomb, data.len()).is_none());
        // One chunk that expands past CHUNK_SIZE: 258 pairs of 255.
        let mut fat = 1u32.to_le_bytes().to_vec();
        fat.extend_from_slice(&(1 + 2 * 258u32).to_le_bytes());
        fat.push(Compression::Rle.tag());
        fat.extend(std::iter::repeat_n([255u8, 0], 258).flatten());
        assert!(read(&fat, 258 * 255).is_none());
    }

    #[test]
    fn compression_tags_roundtrip() {
        for c in [Compression::None, Compression::Rle, Compression::ShuffleRle] {
            assert_eq!(Compression::from_tag(c.tag()), Some(c));
        }
        assert_eq!(Compression::from_tag(9), None);
    }
}
