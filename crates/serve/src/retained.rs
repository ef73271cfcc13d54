//! What the service keeps of a published outcome.
//!
//! Every terminal outcome stays answerable by [`crate::Service::wait`]
//! for the life of the service, so a completed job's histogram is the
//! bulk of what the service holds per job (docs/SERVING.md § "What a
//! retained outcome costs"). It is kept packed: the measured qubits, then
//! one `(key delta, count)` pair per outcome in key order, both unsigned
//! LEB128 — two to four bytes an outcome where a `BTreeMap` entry costs
//! sixteen plus its share of the node. Packing runs on the publishing
//! worker before it takes the state lock; readers clone the `Arc` under
//! the lock and rebuild the map after releasing it.
//!
//! The bytes live in [`BLOCK`]-byte blocks, one allocation each, not in
//! one buffer. A long-lived allocation of tens of KiB per job is served
//! by splitting one of the 8–16 MB free chunks the worker's state
//! vectors, marginals and shot tables recycle, after which that chunk no
//! longer holds the next one: with one buffer per job `dense_large`'s
//! peak RSS read 120–420 MB over runs of the same binary, against 95–112
//! MB with blocks. Blocks are small requests, which the allocator serves
//! from its small-chunk lists, as it served the map nodes they replace.

use crate::job::JobOutcome;
use qgear_statevec::Counts;
use std::sync::Arc;

/// Bytes per block of a packed histogram: under the 1 KiB above which
/// glibc stops serving a request from its small bins.
const BLOCK: usize = 448;

/// A published outcome as the service retains it.
#[derive(Debug)]
pub(crate) struct Retained {
    /// The outcome with its histogram taken out.
    outcome: JobOutcome,
    /// The histogram, packed.
    counts: Option<PackedCounts>,
}

impl Retained {
    /// `outcome` as retained: its histogram, if it carries one, taken
    /// out and packed.
    pub(crate) fn new(mut outcome: JobOutcome) -> Arc<Self> {
        let counts = match &mut outcome {
            JobOutcome::Completed(result) => result.counts.take(),
            _ => None,
        };
        Self::with_counts(outcome, counts.as_ref())
    }

    /// A completed `outcome` without its histogram, and the histogram
    /// `counts` the caller goes on to keep (the result cache's entry),
    /// packed from the reference so the map is not cloned.
    pub(crate) fn with_counts(outcome: JobOutcome, counts: Option<&Counts>) -> Arc<Self> {
        Arc::new(Retained { outcome, counts: counts.map(PackedCounts::pack) })
    }

    /// The outcome as it was published, histogram rebuilt.
    pub(crate) fn outcome(&self) -> JobOutcome {
        let mut outcome = self.outcome.clone();
        if let JobOutcome::Completed(result) = &mut outcome {
            result.counts = self.counts.as_ref().map(PackedCounts::unpack);
        }
        outcome
    }
}

/// A [`Counts`] as bytes: `qubits`, then `(key − previous key, count)`
/// per outcome in ascending key order (the first delta is from 0), `len`
/// bytes in full blocks but the last.
#[derive(Debug)]
struct PackedCounts {
    qubits: Box<[u32]>,
    blocks: Box<[Box<[u8; BLOCK]>]>,
    len: usize,
}

impl PackedCounts {
    fn pack(counts: &Counts) -> Self {
        let mut blocks = Vec::new();
        let mut len = 0;
        let mut put = |mut v: u64| loop {
            if len % BLOCK == 0 {
                blocks.push(Box::new([0u8; BLOCK]));
            }
            let more = v >= 0x80;
            blocks[len / BLOCK][len % BLOCK] = v as u8 & 0x7F | u8::from(more) << 7;
            len += 1;
            v >>= 7;
            if !more {
                break;
            }
        };
        let mut prev = 0u64;
        for (&key, &count) in &counts.map {
            put(key - prev);
            put(count);
            prev = key;
        }
        PackedCounts { qubits: counts.qubits.as_slice().into(), blocks: blocks.into_boxed_slice(), len }
    }

    fn unpack(&self) -> Counts {
        let mut bytes = self.blocks.iter().flat_map(|b| b.iter().copied()).take(self.len);
        let mut take = || {
            let mut v = 0u64;
            for (i, b) in bytes.by_ref().enumerate() {
                v |= u64::from(b & 0x7F) << (7 * i);
                if b & 0x80 == 0 {
                    return Some(v);
                }
            }
            None
        };
        let mut key = 0u64;
        let map = std::iter::from_fn(|| {
            key += take()?;
            Some((key, take().expect("a packed histogram ends inside a pair")))
        })
        .collect();
        Counts { qubits: self.qubits.to_vec(), map }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn round_trip(counts: Counts) -> PackedCounts {
        let packed = PackedCounts::pack(&counts);
        assert_eq!(packed.unpack(), counts);
        packed
    }

    #[test]
    fn packing_round_trips_every_corner_of_a_histogram() {
        let counts = |qubits: Vec<u32>, pairs: &[(u64, u64)]| Counts {
            qubits,
            map: pairs.iter().copied().collect::<BTreeMap<_, _>>(),
        };
        assert_eq!(round_trip(Counts::default()).blocks.len(), 0);
        round_trip(counts(vec![3, 1], &[]));
        round_trip(counts(vec![0], &[(0, 1)]));
        round_trip(counts(vec![0], &[(0, 5), (1, 7)]));
        // Keys near 2^64 − 1: ten-byte deltas, then one-byte ones.
        round_trip(counts(
            (0..64).collect(),
            &[(0, 1), (u64::MAX - 2, 9), (u64::MAX - 1, 1 << 40), (u64::MAX, u64::MAX)],
        ));
        // Counts above 127 take two and more bytes.
        round_trip(counts(vec![5, 2, 9], &[(1, 127), (2, 128), (3, 300), (6, 16_384), (7, 1 << 35)]));
    }

    #[test]
    fn a_two_to_the_twenty_key_histogram_round_trips_in_under_four_bytes_a_key() {
        let mut s = 0x9E37_79B9u64;
        let map: BTreeMap<u64, u64> = (0..1u64 << 20)
            .map(|k| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (k, 1 + (s >> 54))
            })
            .collect();
        let packed = round_trip(Counts { qubits: (0..20).rev().collect(), map });
        // Pairs straddle block boundaries, and the last block is partial.
        assert!(packed.len < 4 << 20 && !packed.len.is_multiple_of(BLOCK), "{} bytes", packed.len);
        assert_eq!(packed.blocks.len(), packed.len.div_ceil(BLOCK));
    }
}
