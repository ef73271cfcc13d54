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

/// The length [`rle_encode`]'s pairs `data` decode to, from the run
/// counts alone; `None` on malformed pairs (an odd length or a zero run
/// count).
fn rle_len(data: &[u8]) -> Option<usize> {
    if !data.len().is_multiple_of(2) {
        return None;
    }
    data.chunks_exact(2).try_fold(0usize, |len, pair| (pair[0] != 0).then(|| len + pair[0] as usize))
}

/// Invert [`rle_encode`] into `out`, replacing what it held. The pairs
/// must be well formed ([`rle_len`]).
fn rle_decode(out: &mut Vec<u8>, data: &[u8]) {
    out.clear();
    for pair in data.chunks_exact(2) {
        out.extend(std::iter::repeat_n(pair[1], pair[0] as usize));
    }
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
/// `data` after a `width`-byte [`shuffle`] — one per run, and bytes that
/// end up adjacent inside a plane sit `width` apart in `data` — when it
/// is under half of `data.len()`, so the chunk might shrink; `None` when
/// it is not, so the chunk is stored raw and never shuffled. One
/// contiguous compare-and-count pass, 32 byte pairs at a time into `u8`
/// counters that are summed every 255 blocks (before they can wrap),
/// which stops as soon as the count reaches half: a dense amplitude
/// chunk is found out after about two thirds of it.
fn shrinkable_pairs(data: &[u8], width: usize) -> Option<usize> {
    const LANES: usize = 32;
    const STRIPE: usize = 255 * LANES;
    let width = width.max(1);
    let shuffled = data.len() / width * width;
    let (left, right) = match shuffled.checked_sub(width) {
        Some(pairs) => (&data[..pairs], &data[width..shuffled]),
        None => (&data[..0], &data[..0]),
    };
    let cannot_shrink = |pairs: usize| 2 * pairs >= data.len();
    let mut pairs = 1;
    for (left, right) in left.chunks(STRIPE).zip(right.chunks(STRIPE)) {
        let (left, right) = (left.chunks_exact(LANES), right.chunks_exact(LANES));
        let tail = left.remainder().iter().zip(right.remainder()).filter(|(a, b)| a != b).count();
        let mut lanes = [0u8; LANES];
        for (a, b) in left.zip(right) {
            let (a, b): (&[u8; LANES], &[u8; LANES]) =
                (a.try_into().expect("a whole block"), b.try_into().expect("a whole block"));
            for ((lane, a), b) in lanes.iter_mut().zip(a).zip(b) {
                *lane += u8::from(a != b);
            }
        }
        pairs += tail + lanes.iter().map(|&n| usize::from(n)).sum::<usize>();
        if cannot_shrink(pairs) {
            return None;
        }
    }
    (!cannot_shrink(pairs)).then_some(pairs)
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
        && shrinkable_pairs(data, width).is_some()
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

/// The length one chunk [`compress_chunk`] produced decodes to, from its
/// tag and framing alone; `None` if either is malformed.
fn chunk_len(chunk: &[u8]) -> Option<usize> {
    let (&tag, body) = chunk.split_first()?;
    match Compression::from_tag(tag)? {
        Compression::None => Some(body.len()),
        Compression::Rle | Compression::ShuffleRle => rle_len(body),
    }
}

/// The bytes of one chunk [`chunk_len`] accepted: a raw body where it
/// lies, a coded one decoded into `scratch` (through `planes` for the
/// shuffle). Both buffers are reused from chunk to chunk.
fn decompress_chunk<'a>(
    chunk: &'a [u8],
    width: usize,
    scratch: &'a mut Vec<u8>,
    planes: &mut Vec<u8>,
) -> &'a [u8] {
    let Some((&tag, body)) = chunk.split_first() else { return &[] };
    match Compression::from_tag(tag) {
        Some(Compression::Rle) => rle_decode(scratch, body),
        Some(Compression::ShuffleRle) => {
            rle_decode(planes, body);
            scratch.resize(planes.len(), 0);
            unshuffle(scratch, planes, width);
        }
        _ => return body,
    }
    scratch
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

/// Split one stored chunk off `cur`: its length `u32`, then its body.
fn next_chunk<'a>(cur: &mut &'a [u8]) -> Option<&'a [u8]> {
    let stored = (cur.remaining() >= 4).then(|| cur.get_u32_le() as usize)?;
    let chunk = cur.get(..stored)?;
    cur.advance(stored);
    Some(chunk)
}

/// Check the chunk stream [`compress_payload`] wrote for a payload of
/// `expected` bytes without decoding it, and advance `cur` past it. The
/// stream is untrusted: it must hold exactly the chunks the writer makes
/// — `expected.div_ceil(CHUNK_SIZE)` of them, each decoding to
/// [`CHUNK_SIZE`] bytes but the last — and every length is checked
/// against the bytes actually present, so a caller may size its
/// destination by `expected` once this succeeds. Returns the chunks,
/// after the count, for [`drain_payload`]; `None` on any violation.
pub(crate) fn verified_payload<'a>(cur: &mut &'a [u8], expected: usize) -> Option<&'a [u8]> {
    let mut rest = *cur;
    let nchunks = (rest.remaining() >= 4).then(|| rest.get_u32_le() as usize)?;
    if nchunks != expected.div_ceil(CHUNK_SIZE) {
        return None;
    }
    let chunks = rest;
    for start in (0..expected).step_by(CHUNK_SIZE) {
        if chunk_len(next_chunk(&mut rest)?)? != CHUNK_SIZE.min(expected - start) {
            return None;
        }
    }
    *cur = rest;
    Some(&chunks[..chunks.len() - rest.len()])
}

/// Hand `drain` the payload of the chunks [`verified_payload`] returned,
/// one chunk at a time and in order — the pieces
/// [`compress_payload_with`]'s `fill` wrote. A raw chunk is handed over
/// where it lies in the stream; only a coded one is decoded, into a
/// chunk-sized scratch.
pub(crate) fn drain_payload(chunks: &[u8], width: usize, mut drain: impl FnMut(&[u8])) {
    let (mut scratch, mut planes) = (Vec::new(), Vec::new());
    let mut rest = chunks;
    while let Some(chunk) = next_chunk(&mut rest) {
        drain(decompress_chunk(chunk, width, &mut scratch, &mut planes));
    }
}

/// Read back what [`compress_payload`] wrote, advancing `cur` past it:
/// `verified_payload`, then the payload collected into one buffer,
/// which is sized only once the stream has been checked to fill it.
/// `None` on any violation.
pub fn decompress_payload(cur: &mut &[u8], expected: usize, width: usize) -> Option<Vec<u8>> {
    let chunks = verified_payload(cur, expected)?;
    let mut out = Vec::with_capacity(expected);
    drain_payload(chunks, width, |chunk| out.extend_from_slice(chunk));
    Some(out)
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

    /// The byte-wise pair bound [`shrinkable_pairs`] replaced, kept as
    /// its oracle: one compare per byte.
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

    /// What the oracle decides for `data`: its count where the chunk
    /// might shrink, `None` where it is stored raw.
    fn oracle_decision(data: &[u8], width: usize) -> Option<usize> {
        let pairs = min_rle_pairs(data, width);
        (2 * pairs < data.len()).then_some(pairs)
    }

    /// A chunk of `len` bytes of one of four kinds: random, all zero,
    /// periodic, or half compressible (each byte repeats the one `width`
    /// back with probability one half, so the count sits at the bar).
    fn probe_chunk(kind: u8, len: usize, width: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let period = 1 + (next() % 40) as usize;
        let mut data = Vec::with_capacity(len);
        for i in 0..len {
            let r = next();
            data.push(match kind {
                0 => r as u8,
                1 => 0,
                2 => (i % period) as u8 ^ seed as u8,
                _ if i >= width && r >> 63 == 0 => data[i - width],
                _ => (r >> 8) as u8,
            });
        }
        data
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 256, ..Default::default() })]

        #[test]
        fn the_word_wide_probe_decides_and_counts_as_the_byte_wise_one_does(
            kind in 0u8..4,
            width in proptest::prop_oneof![
                proptest::Just(1usize), proptest::Just(4), proptest::Just(8), proptest::Just(16)
            ],
            len in 0usize..70_000,
            seed in proptest::any::<u64>(),
        ) {
            let data = probe_chunk(kind, len, width, seed);
            proptest::prop_assert_eq!(
                shrinkable_pairs(&data, width),
                oracle_decision(&data, width),
                "kind {} len {} width {}", kind, len, width
            );
        }
    }

    #[test]
    fn the_word_wide_probe_decides_as_the_byte_wise_one_at_every_block_edge() {
        // Lengths on and either side of a 32-byte block, a 255-block
        // stripe and a chunk, none a multiple of every width.
        let edges = [0usize, 1, 3, 5, 31, 32, 33, 63, 255, 257, 8159, 8160, 8161, 16_337];
        let lens = edges.iter().copied().chain([CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 7]);
        for len in lens {
            for width in [1usize, 4, 8, 16] {
                for kind in 0..4 {
                    let data = probe_chunk(kind, len, width, 0x5EED ^ len as u64);
                    assert_eq!(
                        shrinkable_pairs(&data, width),
                        oracle_decision(&data, width),
                        "kind {kind} len {len} width {width}"
                    );
                }
            }
        }
        // All zero: one pair per plane run, found at the bar's far side.
        assert_eq!(shrinkable_pairs(&[0; 100], 8), Some(1));
        assert_eq!(shrinkable_pairs(&[0; 2], 1), None, "one pair is not under half of two bytes");
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
        // Drained, the payload comes back in the pieces `fill` was handed.
        let mut cur = &stream[..];
        let verified = verified_payload(&mut cur, data.len()).expect("the writer's own stream");
        assert!(cur.is_empty());
        let mut pieces = Vec::new();
        drain_payload(verified, width, |piece| pieces.push(piece.to_vec()));
        let fills: Vec<&[u8]> = data.chunks(CHUNK_SIZE).collect();
        assert_eq!(pieces, fills, "{codec:?}, drained");
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
            assert_eq!(rle_len(&pairs), Some(case.len()));
            let mut back = vec![9; 3];
            rle_decode(&mut back, &pairs);
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
        assert_eq!(rle_len(&[1]), None, "odd length");
        assert_eq!(rle_len(&[0, 5]), None, "zero run");
        assert_eq!(rle_len(&[200, 5, 0, 6]), None, "zero run after a good one");
        assert_eq!(rle_len(&[200, 5, 200, 6]), Some(400));
        assert_eq!(rle_len(&[]), Some(0));
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
        assert_eq!(chunk_len(&c), Some(noise.len()));
        let mut scratch = Vec::new();
        let back = decompress_chunk(&c, 8, &mut scratch, &mut Vec::new());
        assert_eq!(back, noise);
        assert!(std::ptr::eq(back, &c[1..]), "a raw chunk is read where it lies");
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
        // The same bytes in a chunking the writer never makes: a short
        // chunk first, the full one after it.
        let mut split = 2u32.to_le_bytes().to_vec();
        for part in [&data[..10], &data[10..]] {
            let mut framed = Vec::new();
            framed_chunk(&mut framed, part, Compression::None, 1, &mut Vec::new());
            split.extend_from_slice(&framed);
        }
        assert!(read(&split, data.len()).is_none(), "chunks out of the writer's order");
    }

    #[test]
    fn compression_tags_roundtrip() {
        for c in [Compression::None, Compression::Rle, Compression::ShuffleRle] {
            assert_eq!(Compression::from_tag(c.tag()), Some(c));
        }
        assert_eq!(Compression::from_tag(9), None);
    }
}
