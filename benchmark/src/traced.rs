//! The traced run: a fixed sample replayed with benchmark-side spans,
//! the same sample's head replayed with telemetry enabled, and every
//! layer's public functions timed directly. Spans stay in memory and go
//! into the result file at exit.

use crate::drive::{self, Done, Gate, Phase};
use crate::layers::{self, LayerTimes};
use crate::report::{mean, median, obj, percentile, ratio, s, sorted};
use crate::roster::{Family, Workload};
use crate::{setup, Args, Metric, Ready, Shape};
use qgear_serve::Service;
use serde_json::Value;

/// Span names in the trace file's `span_names`; a span row names itself
/// and its parent by index (-1 for none).
const SPAN_NAMES: [&str; 8] = [
    "job", "submit", "late", "admit", "queue", "exec", "evolve", "sample",
];

fn name_index(name: &str) -> Value {
    Value::I64(
        SPAN_NAMES
            .iter()
            .position(|n| *n == name)
            .map_or(-1, |i| i as i128),
    )
}

/// One benchmark-side span. Times are seconds since the replay started.
struct Span {
    job: usize,
    name: &'static str,
    parent: &'static str,
    start: f64,
    end: f64,
}

/// Spans of one job, children filled from its `JobResult`:
/// `job ⊃ {late, admit, queue, exec ⊃ {evolve, sample}}`, and `submit`
/// (the call as the generator saw it, overlapping `queue` when a worker
/// is faster than the call's return). Returns the spans and how far the
/// leaves' self times are from the job span, as a share of it.
fn spans_of(d: &Done, t0: f64) -> (Vec<Span>, f64) {
    let Some(outcome) = d.outcome else {
        return (Vec::new(), 0.0);
    };
    let admitted = outcome - d.service_time;
    let picked = admitted + d.queue_wait;
    let mut out = Vec::with_capacity(8);
    let mut push = |name, parent, start: f64, end: f64| {
        out.push(Span {
            job: d.sub.job,
            name,
            parent,
            start: start - t0,
            end: end - t0,
        });
        end - start
    };
    let job = push("job", "", d.sub.origin, outcome);
    push("submit", "job", d.sub.submit_start, d.sub.submit_end);
    let mut leaves = push("late", "job", d.sub.origin, d.sub.submit_start);
    leaves += push("admit", "job", d.sub.submit_start, admitted);
    leaves += push("queue", "job", admitted, picked);
    let exec = push("exec", "job", picked, outcome);
    // A cache hit carries the cold run's stats; no device ran for it.
    let (evolve, sample) = if d.cached() {
        (0.0, 0.0)
    } else {
        (d.evolve, d.sample)
    };
    if !d.cached() {
        push("evolve", "exec", picked, picked + evolve);
        push("sample", "exec", picked + evolve, picked + evolve + sample);
    }
    let exec_self = (exec - evolve - sample).max(0.0);
    leaves += evolve + sample + exec_self;
    (out, ((leaves - job) / job).abs())
}

/// Replay `count` leading jobs of the sample on `service`.
fn replay(
    r: &Ready,
    service: &Service,
    w: Workload,
    count: usize,
    references: &[(usize, Vec<f64>)],
    gate: &mut Gate,
) -> (Phase, Vec<Done>) {
    let specs = &r.main.specs[..count];
    let phase = if w.open_loop() {
        drive::paced_phase(service, &r.clock, specs, &r.due[..count])
    } else {
        drive::closed_loop(service, &r.clock, specs, count, f64::INFINITY, true)
    };
    let done = drive::collect(service, w, &phase, &r.main.meta, references, gate);
    (phase, done)
}

/// Median of per-job times, µs; 0 for no jobs. Medians, because a
/// backlog episode in a paced replay multiplies the times of the jobs
/// it catches and would carry a mean with it.
fn median_us(seconds: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = seconds.map(|t| t * 1e6).collect();
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// Per-job figures over a set of finished jobs.
struct JobStats {
    evolve_us: f64,
    sample_us: f64,
    bytes_per_job: f64,
    computed_gbps: f64,
    job_ms: f64,
}

fn job_stats<'a>(done: impl Iterator<Item = &'a Done> + Clone) -> JobStats {
    let cold = || done.clone().filter(|d| !d.cached());
    let evolve: f64 = cold().map(|d| d.evolve).sum();
    let lat: Vec<f64> = done.clone().filter_map(Done::latency).collect();
    JobStats {
        evolve_us: median_us(cold().map(|d| d.evolve)),
        sample_us: median_us(cold().map(|d| d.sample)),
        bytes_per_job: mean(done.clone().map(|d| d.bytes as f64)),
        computed_gbps: ratio(cold().map(|d| d.bytes as f64).sum::<f64>() / 1e9, evolve),
        job_ms: median_us(lat.into_iter()) / 1e3,
    }
}

pub fn run(a: &Args, shape: &Shape, gate: &mut Gate) -> (Vec<Metric>, Value, usize, usize) {
    let w = a.workload;
    let r = setup(a, shape, gate);
    let (phase, done) = replay(
        &r,
        &r.service,
        w,
        shape.sample,
        &drive::references(&r.main),
        gate,
    );
    r.service.shutdown();

    let mut spans = Vec::new();
    let mut selfsum_err = 0.0f64;
    for d in &done {
        let (job_spans, err) = spans_of(d, phase.start);
        spans.extend(job_spans);
        selfsum_err = selfsum_err.max(err);
    }

    // Telemetry on: a fresh service replays the head of the sample; the
    // cost is the growth of the median time spent executing a job.
    qgear_telemetry::reset();
    qgear_telemetry::enable();
    let traced_service = Service::start(drive::serve_config(w, a.smoke, r.clock.clone()));
    let (_, with_telemetry) = replay(&r, &traced_service, w, shape.telemetry_jobs, &[], gate);
    traced_service.shutdown();
    let dropped_spans = qgear_telemetry::snapshot().dropped_spans;
    qgear_telemetry::disable();
    let exec_us =
        |jobs: &[Done]| median_us(jobs.iter().filter(|d| d.outcome.is_some()).map(Done::exec));
    let telemetry_overhead = ratio(
        exec_us(&with_telemetry),
        exec_us(&done[..shape.telemetry_jobs]),
    ) - 1.0;

    // Direct layer calls, once per distinct circuit (at most 200).
    let mut all = LayerTimes::default();
    let mut by_family = [LayerTimes::default(); 3];
    let mut seen = Vec::new();
    let mut checkpoint = (0.0, 0.0, 0usize);
    for (job, m) in r.main.meta.iter().enumerate() {
        if seen.contains(&m.circuit) || seen.len() >= 200 {
            continue;
        }
        seen.push(m.circuit);
        let spec = &r.main.specs[job];
        let shards = match done[job].comm_msgs {
            0 => 1,
            _ => 1usize << (m.num_qubits - if a.smoke { 12 } else { 16 }),
        };
        let one = layers::measure(spec, shards);
        for total in std::iter::once(&mut all)
            .chain(layers::family_slot(w, m.family).map(|i| &mut by_family[i]))
        {
            total.add(&one);
        }
        if w == Workload::ShardedCkpt && shards == 4 && checkpoint.2 == 0 {
            checkpoint = layers::checkpoint_roundtrip(spec);
        }
    }

    let finished = || done.iter().filter(|d| d.outcome.is_some());
    let cold = || finished().filter(|d| !d.cached());
    let n = finished().count() as f64;
    let overhead = |d: &Done| (d.exec() - d.evolve - d.sample).max(0.0);
    let total = job_stats(finished());
    let lat_ms = sorted(
        finished()
            .filter_map(Done::latency)
            .map(|l| l * 1e3)
            .collect(),
    );
    let queue_us = sorted(finished().map(|d| d.queue_wait * 1e6).collect());
    let evolve_s: f64 = cold().map(|d| d.evolve).sum();
    let direct_run_us = all.us(all.direct_run);

    let mut m: Vec<Metric> = [
        (
            "serve.submit_us",
            median_us(done.iter().map(|d| d.sub.submit_end - d.sub.submit_start)),
            "us",
        ),
        ("serve.queue_wait_us", percentile(&queue_us, 0.5), "us"),
        ("serve.queue_wait_p99_us", percentile(&queue_us, 0.99), "us"),
        ("serve.exec_us", median_us(finished().map(Done::exec)), "us"),
        ("serve.overhead_us", median_us(cold().map(overhead)), "us"),
        (
            "serve.overhead_frac",
            ratio(cold().map(overhead).sum(), cold().map(Done::exec).sum()),
            "1",
        ),
        ("serve.hashkey_us", all.us(all.hashkey), "us"),
        ("serve.queue_full", phase.queue_full as f64, "count"),
        (
            "serve.attempts_mean",
            mean(cold().map(|d| f64::from(d.attempts))),
            "count",
        ),
        ("serve.latency_p50_ms", percentile(&lat_ms, 0.5), "ms"),
        ("serve.latency_p90_ms", percentile(&lat_ms, 0.9), "ms"),
        ("serve.latency_p99_ms", percentile(&lat_ms, 0.99), "ms"),
        ("serve.gen_late_max_ms", phase.late_max * 1e3, "ms"),
        (
            "serve.cache_hit_frac",
            finished().filter(|d| d.from_cache).count() as f64 / n,
            "1",
        ),
        (
            "serve.state_cache_hit_frac",
            finished().filter(|d| d.from_state_cache).count() as f64 / n,
            "1",
        ),
        (
            "serve.cache_hit_us",
            median_us(finished().filter(|d| d.from_cache).map(Done::exec)),
            "us",
        ),
        (
            "serve.shard_over_dense",
            if all.cluster_run > 0.0 {
                ratio(mean(cold().map(|d| d.exec() * 1e6)), direct_run_us)
            } else {
                0.0
            },
            "1",
        ),
        ("statevec.evolve_us", total.evolve_us, "us"),
        ("statevec.sample_us", total.sample_us, "us"),
        ("statevec.direct_run_us", direct_run_us, "us"),
        ("statevec.plan_us", all.us(all.plan), "us"),
        (
            "statevec.kernels_per_job",
            mean(finished().map(|d| d.kernels as f64)),
            "count",
        ),
        (
            "statevec.sweeps_per_job",
            mean(finished().map(|d| d.sweeps as f64)),
            "count",
        ),
        ("statevec.bytes_per_job", total.bytes_per_job, "B"),
        ("statevec.computed_gbps", total.computed_gbps, "GB/s"),
        (
            "statevec.gate_amps_per_s",
            ratio(
                cold()
                    .map(|d| d.gates as f64 * (1u64 << d.num_qubits) as f64)
                    .sum(),
                evolve_s,
            ),
            "1/s",
        ),
        ("statevec.fixed_cost_frac", all.fixed_cost_frac(), "1"),
        ("statevec.ckpt_encode_us", checkpoint.0 * 1e6, "us"),
        ("statevec.ckpt_decode_us", checkpoint.1 * 1e6, "us"),
        ("statevec.ckpt_bytes", checkpoint.2 as f64, "B"),
        (
            "cluster.comm_bytes_per_job",
            mean(finished().map(|d| d.comm_bytes as f64)),
            "B",
        ),
        (
            "cluster.comm_msgs_per_job",
            mean(finished().map(|d| d.comm_msgs as f64)),
            "count",
        ),
        ("cluster.run_us", all.us(all.cluster_run), "us"),
        ("ir.transpile_us", all.us(all.transpile), "us"),
        ("ir.encode_us", all.us(all.encode), "us"),
        ("ir.decode_us", all.us(all.decode), "us"),
        ("ir.fuse_us", all.us(all.fuse), "us"),
        ("ir.schedule_us", all.us(all.schedule), "us"),
        ("ir.shape_digest_us", all.us(all.shape_digest), "us"),
        (
            "ir.fusion_ratio",
            ratio(all.source_gates as f64, all.kernels as f64),
            "1",
        ),
        ("hdf5lite.write_us", all.us(all.h5_write), "us"),
        ("hdf5lite.read_us", all.us(all.h5_read), "us"),
        (
            "hdf5lite.payload_bytes",
            ratio(all.h5_payload as f64, all.circuits as f64),
            "B",
        ),
        (
            "hdf5lite.compress_ratio",
            ratio(all.h5_payload as f64, all.h5_file as f64),
            "1",
        ),
        ("core.transform_us", all.us(all.transform), "us"),
        ("perfmodel.project_us", all.us(all.project), "us"),
        (
            "workloads.gen_us",
            ratio(r.main.gen_seconds * 1e6, r.main.distinct_circuits as f64),
            "us",
        ),
        ("telemetry.overhead_frac", telemetry_overhead, "1"),
        ("telemetry.dropped_spans", dropped_spans as f64, "count"),
        ("trace.selfsum_err_frac", selfsum_err, "1"),
    ]
    .map(|(name, value, unit)| (name.to_owned(), value, unit))
    .into();
    // The paper families apart, where the workload has them (zero elsewhere).
    for (i, family) in Family::PAPER.into_iter().enumerate() {
        let split = layers::family_slot(w, family).is_some();
        let f = job_stats(finished().filter(|d| split && d.family == family));
        let t = &by_family[i];
        for (name, value, unit) in [
            ("serve.job_ms", f.job_ms, "ms"),
            ("statevec.evolve_us", f.evolve_us, "us"),
            ("statevec.sample_us", f.sample_us, "us"),
            ("statevec.direct_run_us", t.us(t.direct_run), "us"),
            ("statevec.bytes_per_job", f.bytes_per_job, "B"),
            ("statevec.computed_gbps", f.computed_gbps, "GB/s"),
            ("statevec.fixed_cost_frac", t.fixed_cost_frac(), "1"),
        ] {
            m.push((format!("{name}.{}", family.name()), value, unit));
        }
    }

    let exact = [
        "statevec.kernels_per_job",
        "statevec.sweeps_per_job",
        "statevec.bytes_per_job",
        "serve.cache_hit_frac",
        "cluster.comm_bytes_per_job",
        "cluster.comm_msgs_per_job",
        "ir.fusion_ratio",
        "hdf5lite.payload_bytes",
        "statevec.ckpt_bytes",
    ];
    let mut exact_values: Vec<(&str, Value)> = vec![
        ("roster_digest", s(format!("{:016x}", r.main.digest))),
        (
            "counts_digest",
            s(format!(
                "{:016x}",
                crate::counts_digest_of(&done, done.len())
            )),
        ),
    ];
    exact_values.extend(exact.iter().map(|name| {
        let value = m
            .iter()
            .find(|x| x.0 == *name)
            .expect("listed metric exists")
            .1;
        (*name, s(format!("{value:?}")))
    }));

    let us = |t: f64| Value::F64(t * 1e6);
    let detail = obj(vec![
        ("sample_jobs", Value::U64(done.len() as u128)),
        ("distinct_circuits_measured", Value::U64(seen.len() as u128)),
        ("replay_wall_s", Value::F64(phase.end - phase.start)),
        ("generator_late_max_ms", Value::F64(phase.late_max * 1e3)),
        ("median_job_span_us", us(median(finished().filter_map(Done::latency).collect()))),
        ("computed_note", s("bytes_per_job and computed_gbps are computed from stats.bytes_touched, not measured traffic; no roofline fraction is reported because this host's L3 holds every state in the grid")),
        ("exact", obj(exact_values)),
        // Columns, not one object per span: the workspace's JSON reader
        // takes time quadratic in the text of a file's strings.
        ("span_names", Value::Seq(SPAN_NAMES.map(s).into())),
        ("span_columns", Value::Seq(["id", "name", "parent", "start_us", "end_us"].map(s).into())),
        (
            "spans",
            Value::Seq(
                spans
                    .iter()
                    .map(|sp| Value::Seq(vec![Value::U64(sp.job as u128), name_index(sp.name), name_index(sp.parent), us(sp.start), us(sp.end)]))
                    .collect(),
            ),
        ),
    ]);
    let failed = done.len() - finished().count();
    (m, detail, done.len(), failed)
}
