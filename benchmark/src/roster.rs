//! Seeded input generation for the four workloads, and the Fig. 2
//! hand-off: every circuit is shipped through the HDF5-like container
//! and the jobs submitted are the *decoded* circuits.

use crate::rng::{Fnv, Rng};
use qgear::storage::{circuits_from_h5_bytes, circuits_to_h5_bytes};
use qgear_ir::Circuit;
use qgear_num::scalar::Precision;
use qgear_serve::{JobSpec, Priority};
use qgear_workloads::qft::{qft_circuit, QftOptions};
use qgear_workloads::random::{generate_random_gate_list, RandomCircuitSpec};
use qgear_workloads::{images, QcrankCodec, QcrankConfig};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeSmall,
    ServeMixed,
    DenseLarge,
    ShardedCkpt,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeSmall,
        Workload::ServeMixed,
        Workload::DenseLarge,
        Workload::ShardedCkpt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSmall => "serve_small",
            Workload::ServeMixed => "serve_mixed",
            Workload::DenseLarge => "dense_large",
            Workload::ShardedCkpt => "sharded_ckpt",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Open loop (independent tenants on a schedule) or closed loop (a
    /// researcher waiting on each circuit, one outstanding job).
    pub fn open_loop(self) -> bool {
        matches!(self, Workload::ServeSmall | Workload::ServeMixed)
    }

    pub fn shots(self) -> u64 {
        if self.open_loop() {
            1_000
        } else {
            10_000
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Family {
    #[default]
    Ladder,
    Qft,
    Random,
    Qcrank,
}

impl Family {
    pub const PAPER: [Family; 3] = [Family::Qft, Family::Random, Family::Qcrank];

    pub fn name(self) -> &'static str {
        match self {
            Family::Ladder => "ladder",
            Family::Qft => "qft",
            Family::Random => "random",
            Family::Qcrank => "qcrank",
        }
    }
}

/// What the benchmark keeps about a job besides the spec it submits.
#[derive(Debug, Clone, Copy)]
pub struct Meta {
    pub family: Family,
    /// Index into the pool's distinct circuits.
    pub circuit: usize,
    pub num_qubits: u32,
    /// Pool index of the job this one repeats exactly (same spec).
    pub repeat_of: Option<usize>,
}

/// A generated, shipped and decoded list of jobs.
pub struct Pool {
    pub specs: Vec<JobSpec>,
    pub meta: Vec<Meta>,
    /// FNV digest of every spec, in order.
    pub digest: u64,
    pub distinct_circuits: usize,
    pub gen_seconds: f64,
}

/// Closed-loop pools repeat the same kinds of job every `CYCLE` jobs:
/// the three paper families on `dense_large`, two n=17 and one n=18 on
/// `sharded_ckpt`.
pub const CYCLE: usize = 3;

const TENANTS: [&str; 3] = ["alice", "bob", "carol"];

/// Exact repeats and re-seeded repeats point at a fresh job this many
/// to `REPEAT_MAX` fresh jobs back. The ceiling keeps every original
/// inside the 256-entry result cache and straddles the 64-entry
/// marginal cache; the floor keeps an original from still being in
/// flight when its repeat is dispatched, so the result-cache hit count
/// repeats exactly.
const REPEAT_MIN: usize = 32;
const REPEAT_MAX: usize = 96;

fn ry_layer(c: &mut Circuit, n: u32, rng: &mut Rng) {
    for q in 0..n {
        c.ry(rng.angle(), q);
    }
}

fn qft_after_input(n: u32, rng: &mut Rng) -> Circuit {
    let mut c = Circuit::with_capacity(n, format!("qft_in_{n}q"), (n * (n + 5) / 2) as usize);
    ry_layer(&mut c, n, rng);
    c.compose(&qft_circuit(
        n,
        &QftOptions {
            measure: true,
            ..Default::default()
        },
    ))
    .expect("same register width");
    c
}

/// The `bench_serve_batch` shape: H/RY on every qubit, then a CX chain.
fn ladder(n: u32, layers: usize, rng: &mut Rng) -> Circuit {
    let mut c = Circuit::with_capacity(n, "ladder", layers * (3 * n as usize) + n as usize);
    for _ in 0..layers {
        for q in 0..n {
            c.h(q).ry(rng.angle(), q);
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
    }
    c.measure_all();
    c
}

fn random_blocks(n: u32, blocks: usize, rng: &mut Rng) -> Circuit {
    generate_random_gate_list(&RandomCircuitSpec {
        num_qubits: n,
        num_blocks: blocks,
        seed: rng.next_u64(),
        measure: true,
    })
}

fn qcrank_values(addr: u32, data: u32, rng: &mut Rng) -> Circuit {
    let cfg = QcrankConfig {
        addr_qubits: addr,
        data_qubits: data,
    };
    let values: Vec<f64> = (0..cfg.capacity())
        .map(|_| rng.unit() * 2.0 - 1.0)
        .collect();
    QcrankCodec::new(cfg).encode(&values)
}

struct Draft {
    circuit: usize,
    family: Family,
    seed: u64,
    precision: Precision,
    tenant: usize,
    priority: Priority,
    repeat_of: Option<usize>,
}

/// Draw `count` jobs of `workload` from `rng`. `smoke` keeps the small
/// workloads' widths and takes four qubits off the two large ones.
fn draft(
    workload: Workload,
    smoke: bool,
    count: usize,
    rng: &mut Rng,
) -> (Vec<Circuit>, Vec<Draft>) {
    let cut = if smoke { 4 } else { 0 };
    let mut circuits = Vec::new();
    let mut drafts = Vec::with_capacity(count);
    let mut fresh: Vec<usize> = Vec::new();
    for i in 0..count {
        let mut d = Draft {
            circuit: circuits.len(),
            family: Family::Ladder,
            seed: rng.next_u64(),
            precision: Precision::Fp32,
            tenant: i % TENANTS.len(),
            priority: Priority::Normal,
            repeat_of: None,
        };
        match workload {
            Workload::ServeSmall => circuits.push(ladder(10, 4, rng)),
            Workload::ServeMixed => {
                d.tenant = rng.below(TENANTS.len());
                d.priority = Priority::ALL[rng.below(3)];
                let kind = rng.unit();
                if kind < 0.5 || fresh.len() < REPEAT_MIN {
                    // 45 % QFT, 30 % random, 25 % QCrank: with about a
                    // third of the jobs served from a cache, p50 then
                    // falls inside the QFT jobs' latencies and p90
                    // inside the random ones', not on a boundary
                    // between families where a few jobs would move it
                    // by a family's whole service time.
                    let pick = rng.unit();
                    d.family = if pick < 0.45 {
                        Family::Qft
                    } else if pick < 0.75 {
                        Family::Random
                    } else {
                        Family::Qcrank
                    };
                    circuits.push(match d.family {
                        Family::Qft => qft_after_input(13, rng),
                        Family::Random => random_blocks(14, 60, rng),
                        // A 32x32 image on 4 data qubits: 8 address
                        // qubits, 12 in all.
                        _ => QcrankCodec::new(QcrankConfig {
                            addr_qubits: 8,
                            data_qubits: 4,
                        })
                        .encode_image(&images::synthetic(
                            32,
                            32,
                            rng.next_u64(),
                        )),
                    });
                    fresh.push(i);
                } else {
                    let span = REPEAT_MAX.min(fresh.len()) - REPEAT_MIN + 1;
                    let orig = fresh[fresh.len() - REPEAT_MIN - rng.below(span)];
                    let o: &Draft = &drafts[orig];
                    d.circuit = o.circuit;
                    d.family = o.family;
                    if kind < 0.75 {
                        d.seed = o.seed;
                        d.tenant = o.tenant;
                        d.priority = o.priority;
                        d.repeat_of = Some(orig);
                    }
                }
            }
            Workload::DenseLarge => {
                d.family = Family::PAPER[i % 3];
                circuits.push(match d.family {
                    Family::Qft => qft_after_input(20 - cut, rng),
                    Family::Random => random_blocks(20 - cut, 100, rng),
                    _ => qcrank_values(8 - cut, 10, rng),
                });
            }
            Workload::ShardedCkpt => {
                d.family = Family::Qft;
                d.precision = Precision::Fp64;
                // Two n=17 jobs to one n=18, so that p50 is an n=17
                // time and p90 an n=18 time (alternating, p50 would sit
                // on the boundary between the two).
                circuits.push(qft_after_input(17 + u32::from(i % 3 == 2) - cut, rng));
            }
        }
        drafts.push(d);
    }
    (circuits, drafts)
}

/// Ship circuits through `circuits_to_h5_bytes` → `circuits_from_h5_bytes`
/// and return the decoded ones. The
/// tensor encoding is fixed-width and its capacity is at least the
/// number of circuits in a file, so same-width runs go in files of at
/// most as many circuits as the longest has gates.
fn ship(circuits: Vec<Circuit>) -> Vec<Circuit> {
    let mut decoded = Vec::with_capacity(circuits.len());
    let mut start = 0;
    while start < circuits.len() {
        let width = circuits[start].num_qubits();
        let mut end = start;
        let mut gates = 0;
        while end < circuits.len()
            && circuits[end].num_qubits() == width
            && end - start < gates.max(circuits[end].len())
        {
            gates = gates.max(circuits[end].len());
            end += 1;
        }
        let file = circuits_to_h5_bytes(&circuits[start..end], None).expect("roster encodes");
        decoded.extend(circuits_from_h5_bytes(&file).expect("roster decodes"));
        start = end;
    }
    assert_eq!(decoded, circuits, "shipping changed a circuit");
    decoded
}

fn circuit_digest(c: &Circuit) -> u64 {
    let mut h = Fnv::new();
    h.word(u64::from(c.num_qubits()));
    for g in c.gates() {
        h.word(u64::from(g.kind.tag()));
        for &q in g.operands() {
            h.word(u64::from(q));
        }
        for &p in g.parameters() {
            h.word(p.to_bits());
        }
    }
    h.0
}

/// Generate, ship and decode one pool of `count` jobs.
pub fn pool(workload: Workload, smoke: bool, count: usize, seed: u64, stream: u64) -> Pool {
    let mut rng = Rng::new(seed, stream);
    let t0 = Instant::now();
    let (circuits, drafts) = draft(workload, smoke, count, &mut rng);
    let gen_seconds = t0.elapsed().as_secs_f64();
    let decoded = ship(circuits);

    let digests: Vec<u64> = decoded.iter().map(circuit_digest).collect();
    let mut h = Fnv::new();
    let mut specs = Vec::with_capacity(count);
    let mut meta = Vec::with_capacity(count);
    for d in &drafts {
        h.word(digests[d.circuit]);
        h.word(d.seed);
        h.word(d.tenant as u64);
        h.word(d.priority.index() as u64);
        specs.push(
            JobSpec::new(decoded[d.circuit].clone())
                .shots(workload.shots())
                .seed(d.seed)
                .precision(d.precision)
                .tenant(TENANTS[d.tenant])
                .priority(d.priority),
        );
        meta.push(Meta {
            family: d.family,
            circuit: d.circuit,
            num_qubits: decoded[d.circuit].num_qubits(),
            repeat_of: d.repeat_of,
        });
    }
    Pool {
        specs,
        meta,
        digest: h.0,
        distinct_circuits: decoded.len(),
        gen_seconds,
    }
}

/// `count` seeded Poisson arrival offsets at `rate` per second.
pub fn poisson_schedule(seed: u64, rate: f64, count: usize) -> Vec<f64> {
    let mut rng = Rng::new(seed, 0x504f_4953);
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            t += rng.exp_gap(rate);
            t
        })
        .collect()
}
