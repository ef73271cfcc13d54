//! Checkpoint cost: QCKP encode / decode, the shard gather and the
//! gather-free sharded write, against what the same bytes cost to
//! `memcpy` and to CRC bit by bit.
//!
//! `--smoke` is the throughput gate `scripts/check.sh` runs (n = 16,
//! fp64, dense state). It needs no absolute number: on whatever host it
//! runs, `checkpoint::encode` must take less time than **one**
//! bitwise-oracle CRC-32 pass (`qgear_ir::qpy::crc32`) over its own
//! output, and `decode` less than two, best of five interleaved rounds.
//! The wire format carries two CRCs over the state (the encoder makes
//! one pass and derives the second, the decoder checks both), so the
//! gate fails for any codec that spends a bit loop, or a handful of
//! extra state-sized passes, on them — it failed 2.8× over for the
//! first encoder — and passes with room for this one.
//!
//! Without `--smoke` it prints the host-stamped cost table of
//! docs/CHECKPOINTS.md (n = 14, 16, 18, both precisions, 4 shards).

use qgear_cluster::{ClusterEngine, ShardedRun};
use qgear_hdf5lite::format;
use qgear_ir::qpy;
use qgear_num::{Complex, Scalar};
use qgear_statevec::checkpoint::{decode, encode, CheckpointCounters, StateCheckpoint};
use qgear_statevec::{RunOptions, SamplingConfig, StateVector, Stepper};
use qgear_workloads::qft::{qft_circuit, QftOptions};
use std::hint::black_box;
use std::time::Instant;

const ROUNDS: usize = 5;

fn seconds<R>(f: impl FnOnce() -> R) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64()
}

/// A state with no zero and no repeated amplitude: nothing compresses.
fn dense_checkpoint<T: Scalar>(num_qubits: u32) -> StateCheckpoint<T> {
    let mut state = StateVector::zero(num_qubits);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut unit = move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        T::from_f64((x >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
    };
    for amp in state.amplitudes_mut() {
        *amp = Complex::new(unit(), unit());
    }
    StateCheckpoint {
        num_qubits,
        cursor: 8,
        steps_total: 16,
        fingerprint: 1,
        counters: CheckpointCounters::default(),
        sampling: SamplingConfig::single(1000, 7),
        state,
    }
}

/// Best-of-`ROUNDS` seconds, measured round-robin so a noisy stretch of
/// the host hits every column alike.
struct Cost {
    bytes: usize,
    encode: f64,
    decode: f64,
    gather: f64,
    sharded_write: f64,
    memcpy: f64,
    table_crc: f64,
    bitwise_crc: f64,
}

fn measure<T: Scalar>(num_qubits: u32) -> Cost {
    let ck = dense_checkpoint::<T>(num_qubits);
    // The same dense amplitudes in a layout a real job leaves behind:
    // resumed at cursor 0 onto 4 shards and run through a QFT, which
    // swaps global qubits into the top local positions.
    let circuit = qft_circuit(num_qubits, &QftOptions::default());
    let group = ClusterEngine::a100_cluster(4);
    let opts = RunOptions { sweep_width: 0, ..Default::default() };
    let fresh = ShardedRun::<T>::new(&group, &circuit, &opts).expect("admissible");
    let start = StateCheckpoint {
        cursor: 0,
        steps_total: fresh.steps_total() as u64,
        fingerprint: fresh.fingerprint(),
        ..ck.clone()
    };
    let mut run = ShardedRun::resume(&group, &circuit, &opts, start).expect("same plan");
    run.advance(usize::MAX).expect("healthy fabric");
    let bytes = encode(&ck);
    let mut sink = vec![0u8; bytes.len()];
    let mut cost = Cost {
        bytes: bytes.len(),
        encode: f64::MAX,
        decode: f64::MAX,
        gather: f64::MAX,
        sharded_write: f64::MAX,
        memcpy: f64::MAX,
        table_crc: f64::MAX,
        bitwise_crc: f64::MAX,
    };
    for _ in 0..ROUNDS {
        cost.encode = cost.encode.min(seconds(|| encode(&ck)));
        cost.decode = cost.decode.min(seconds(|| decode::<T>(&bytes).expect("decodes")));
        cost.gather = cost.gather.min(seconds(|| run.dist().gather()));
        cost.sharded_write = cost.sharded_write.min(seconds(|| run.encode_checkpoint()));
        cost.memcpy = cost.memcpy.min(seconds(|| sink.copy_from_slice(black_box(&bytes))));
        cost.table_crc = cost.table_crc.min(seconds(|| format::crc32(black_box(&bytes))));
        cost.bitwise_crc = cost.bitwise_crc.min(seconds(|| qpy::crc32(black_box(&bytes))));
    }
    cost
}

fn host() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown CPU", str::trim);
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    format!("{model}, {cores} cores")
}

fn main() {
    let mb = |c: &Cost, s: f64| c.bytes as f64 / 1e6 / s;
    if std::env::args().any(|a| a == "--smoke") {
        let c = measure::<f64>(16);
        println!(
            "checkpoint n=16 fp64, {} B, best of {ROUNDS} ({}):\n  encode {:7.3} ms {:7.0} MB/s\n  decode {:7.3} ms {:7.0} MB/s\n  memcpy {:7.3} ms {:7.0} MB/s\n  bitwise CRC pass {:.3} ms: encode has {:.1}x headroom under one, decode {:.1}x under two",
            c.bytes, host(),
            c.encode * 1e3, mb(&c, c.encode),
            c.decode * 1e3, mb(&c, c.decode),
            c.memcpy * 1e3, mb(&c, c.memcpy),
            c.bitwise_crc * 1e3, c.bitwise_crc / c.encode, 2.0 * c.bitwise_crc / c.decode,
        );
        if c.encode >= c.bitwise_crc || c.decode >= 2.0 * c.bitwise_crc {
            eprintln!("checkpoint throughput gate FAILED");
            std::process::exit(1);
        }
        return;
    }
    println!(
        "host: {}; best of {ROUNDS}; dense state; gather and sharded write over 4 shards after QFT\n",
        host()
    );
    println!(
        "| n | precision | bytes | encode ms | MB/s | decode ms | MB/s | gather ms \
         | sharded write (no gather) ms | memcpy ms | table CRC ms | bitwise CRC ms |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|---|");
    for n in [14, 16, 18] {
        for (name, c) in [("fp32", measure::<f32>(n)), ("fp64", measure::<f64>(n))] {
            println!(
                "| {n} | {name} | {} | {:.2} | {:.0} | {:.2} | {:.0} | {:.2} | {:.2} | {:.3} \
                 | {:.2} | {:.2} |",
                c.bytes,
                c.encode * 1e3, mb(&c, c.encode),
                c.decode * 1e3, mb(&c, c.decode),
                c.gather * 1e3, c.sharded_write * 1e3, c.memcpy * 1e3,
                c.table_crc * 1e3, c.bitwise_crc * 1e3,
            );
        }
    }
}
