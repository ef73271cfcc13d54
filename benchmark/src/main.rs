//! The repo benchmark: one workload per process, end to end through the
//! real `Service` (`--trace 0`) or traced and broken down by layer
//! (`--trace 1`). See `benchmark/README.md` and `BENCHMARK.json`.

mod drive;
mod layers;
mod report;
mod rng;
mod roster;
mod summarize;
mod traced;

use drive::{Done, Gate, Phase};
use qgear_serve::Service;
use qgear_telemetry::clock::{SharedClock, WallClock};
use report::{mean, median, obj, percentile, s, sorted, windows};
use roster::{Pool, Workload};
use serde_json::Value;
use std::time::Instant;

/// `run_seconds` of `BENCHMARK.json`, the default for `--seconds`.
const RUN_SECONDS: f64 = 25.0;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Streams of the seeded generator, one per pool.
const STREAM_MAIN: u64 = 1;
const STREAM_PROBE: u64 = 2;
const STREAM_WARM: u64 = 3;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub commit: String,
    pub schema: String,
    pub out_dir: String,
}

/// Job counts and rates of a workload. Rates were frozen from this
/// commit's measured capacity on the 2-core reference host.
pub struct Shape {
    /// Open loop: jobs in each phase's pool, which the phase cycles
    /// through. A job comes round again only after thousands of others,
    /// long after the 256-entry result cache and the 64-entry marginal
    /// cache have dropped it, so set-up does not grow with `--seconds`.
    pub pool_jobs: usize,
    /// Closed loop: sizes the time-bounded pool of distinct jobs, jobs/s,
    /// well above today's speed.
    pub pool_rate: f64,
    /// Poisson arrival rate of the traced replay, jobs/s (open loop).
    pub paced_rate: f64,
    /// Consecutive jobs of a one-at-a-time phase that make one window:
    /// enough for a steady mix on the open-loop workloads, one cycle of
    /// the pool's kinds of job on the closed-loop ones.
    pub window: usize,
    pub warmup: usize,
    /// Jobs replayed under trace.
    pub sample: usize,
    /// Leading sample jobs replayed again with telemetry enabled.
    pub telemetry_jobs: usize,
}

impl Shape {
    pub fn of(workload: Workload, smoke: bool) -> Shape {
        let full = match workload {
            Workload::ServeSmall => Shape {
                pool_jobs: 8192,
                pool_rate: 0.0,
                paced_rate: 700.0,
                window: 500,
                warmup: 500,
                sample: 2800,
                telemetry_jobs: 2800,
            },
            Workload::ServeMixed => Shape {
                pool_jobs: 2048,
                pool_rate: 0.0,
                paced_rate: 75.0,
                window: 150,
                warmup: 250,
                sample: 600,
                telemetry_jobs: 200,
            },
            Workload::DenseLarge => Shape {
                pool_jobs: 0,
                pool_rate: 3.0,
                paced_rate: 0.0,
                window: roster::CYCLE,
                warmup: roster::CYCLE,
                sample: 9,
                telemetry_jobs: 3,
            },
            Workload::ShardedCkpt => Shape {
                pool_jobs: 0,
                pool_rate: 10.0,
                paced_rate: 0.0,
                window: roster::CYCLE,
                warmup: roster::CYCLE,
                sample: 12,
                telemetry_jobs: 3,
            },
        };
        if !smoke {
            return full;
        }
        // A twentieth of the jobs; the large workloads are four qubits
        // narrower, so 16 times faster per job.
        let cycle = full.warmup;
        let open = workload.open_loop();
        Shape {
            pool_rate: full.pool_rate * 16.0,
            window: if open { full.window / 10 } else { cycle },
            warmup: if open { full.warmup / 20 } else { cycle },
            sample: if open { full.sample / 20 } else { cycle },
            telemetry_jobs: if open {
                full.telemetry_jobs / 20
            } else {
                cycle
            },
            ..full
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        workload: Workload::ServeSmall,
        seed: 1,
        seconds: f64::NAN,
        trace: false,
        smoke: false,
        commit: "unknown".into(),
        schema: "BENCHMARK.json".into(),
        out_dir: "benchmark/results".into(),
    };
    let mut named = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => {
                a.workload = Workload::parse(v).ok_or_else(bad)?;
                named = true;
            }
            "--seed" => a.seed = v.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = v.parse().map_err(|_| bad())?,
            "--trace" => a.trace = v == "1",
            "--commit" => a.commit = v.clone(),
            "--schema" => a.schema = v.clone(),
            "--out-dir" => a.out_dir = v.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !named {
        return Err(
            "--workload <serve_small|serve_mixed|dense_large|sharded_ckpt> is required".into(),
        );
    }
    if a.seconds.is_nan() {
        a.seconds = if a.smoke {
            RUN_SECONDS / 20.0
        } else {
            RUN_SECONDS
        };
    }
    if a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// A started, warmed service and the inputs of the measured run.
pub struct Ready {
    pub service: Service,
    pub clock: SharedClock,
    /// The capacity pool (open loop), the closed-loop pool, or under
    /// trace the fixed sample.
    pub main: Pool,
    /// The probe pool (open loop, end to end). Under trace `main` is the
    /// head of the same pool and `due` its arrival offsets.
    pub probe: Option<Pool>,
    pub due: Vec<f64>,
}

/// Everything `setup_s` covers: generate, ship through the container,
/// start the service, warm it up. (The exact reference probabilities
/// the gate compares against are computed once, after the measured
/// phase: three set-ups of them would not fit the run.)
pub fn setup(a: &Args, shape: &Shape, gate: &mut Gate) -> Ready {
    let w = a.workload;
    let open = w.open_loop();
    let mut probe = None;
    let mut due = Vec::new();
    let main = if a.trace {
        if open {
            due = roster::poisson_schedule(a.seed, shape.paced_rate, shape.sample);
        }
        roster::pool(
            w,
            a.smoke,
            shape.sample,
            a.seed,
            if open { STREAM_PROBE } else { STREAM_MAIN },
        )
    } else if open {
        probe = Some(roster::pool(w, a.smoke, shape.pool_jobs, a.seed, STREAM_PROBE));
        roster::pool(w, a.smoke, shape.pool_jobs, a.seed, STREAM_MAIN)
    } else {
        roster::pool(
            w,
            a.smoke,
            ((shape.pool_rate * a.seconds).ceil() as usize).max(shape.warmup),
            a.seed,
            STREAM_MAIN,
        )
    };
    let warm = roster::pool(w, a.smoke, shape.warmup, a.seed, STREAM_WARM);

    let clock = WallClock::shared();
    let service = Service::start(drive::serve_config(w, a.smoke, clock.clone()));
    let phase = if open {
        drive::capacity_phase(&service, &clock, &warm.specs, warm.specs.len(), f64::INFINITY)
    } else {
        drive::closed_loop(&service, &clock, &warm.specs, warm.specs.len(), f64::INFINITY, false)
    };
    drive::collect(&service, w, &phase, &warm.meta, &[], gate);
    Ready {
        service,
        clock,
        main,
        probe,
        due,
    }
}

/// How `--seconds` splits between the capacity and the probe phase.
fn phase_seconds(a: &Args) -> (f64, f64) {
    (0.6 * a.seconds, 0.4 * a.seconds)
}

/// What one measured phase did, for the detail file and the counts.
struct PhaseReport {
    name: &'static str,
    attempted: usize,
    completed: usize,
    refused: usize,
    failed: usize,
    wall: f64,
    /// Per-window values behind the phase's windowed medians.
    windows: Vec<Value>,
    queue_full: u64,
    late_max: f64,
}

impl PhaseReport {
    fn new(name: &'static str, phase: &Phase, done: &[Done], windows: Vec<Value>) -> Self {
        let completed = done.iter().filter(|d| d.outcome.is_some()).count();
        let refused = done.iter().filter(|d| d.sub.id.is_none()).count();
        PhaseReport {
            name,
            attempted: done.len(),
            completed,
            refused,
            failed: done.len() - completed - refused,
            wall: phase.end - phase.start,
            windows,
            queue_full: phase.queue_full,
            late_max: phase.late_max,
        }
    }

    fn to_value(&self) -> Value {
        let n = |v: usize| Value::U64(v as u128);
        obj(vec![
            ("phase", s(self.name)),
            ("attempted", n(self.attempted)),
            ("completed", n(self.completed)),
            ("failed", n(self.failed)),
            ("refused", n(self.refused)),
            ("wall_s", Value::F64(self.wall)),
            ("window_count", n(self.windows.len())),
            ("windows", Value::Seq(self.windows.clone())),
            (
                "queue_full_retries",
                Value::U64(u128::from(self.queue_full)),
            ),
            ("generator_late_max_ms", Value::F64(self.late_max * 1e3)),
        ])
    }
}

/// Both end-to-end timings are a quartile over windows, on the better
/// side, not a median: the reference host loses 10-50 % of its speed for
/// 5-60 s at a time, about a quarter of the time, and a median over
/// windows follows every such period that covers half a phase. A change
/// that slows every window moves the quartile as far as the median.
///
/// Third quartile over 1 s windows of completions per second, windows cut
/// on `outcome_time` from the phase start to when the generator stopped.
fn windowed_rate(phase: &Phase, done: &[Done]) -> (f64, Vec<Value>) {
    let (len, count) = windows(phase.end - phase.start, 1.0);
    let mut per_window = vec![0usize; count];
    for t in done.iter().filter_map(|d| d.outcome) {
        let w = ((t - phase.start) / len) as usize;
        if t >= phase.start && w < count {
            per_window[w] += 1;
        }
    }
    let rates: Vec<f64> = per_window.iter().map(|&c| c as f64 / len).collect();
    (
        percentile(&sorted(rates.clone()), 0.75),
        rates.into_iter().map(Value::F64).collect(),
    )
}

/// One job at a time: one window per `window` consecutive jobs, its
/// completions per second and its typical submit → outcome time, ms.
/// Typical is the median on the open-loop probe, whose windows hold
/// hundreds of jobs, and the geometric mean on a closed-loop cycle, which
/// holds one job of each kind: every kind then counts equally, whatever
/// its size, where the median would be the middle kind's time alone (on
/// `dense_large` qcrank-18, whose 2 MiB state is exactly the reference
/// host's L2 and takes 505 or 600 ms with the neighbours' load).
/// Returns the third quartile of the first, the first quartile of the
/// second and each window's pair. The unfinished last window is left
/// out; a job without an outcome misses every latency.
fn job_windows(done: &[Done], window: usize, open_loop: bool) -> (f64, f64, Vec<Value>) {
    let mut rates = Vec::new();
    let mut typical = Vec::new();
    for jobs in done.chunks_exact(window) {
        let lat: Vec<f64> = jobs
            .iter()
            .map(|d| d.latency().map_or(f64::INFINITY, |l| l * 1e3))
            .collect();
        let end = jobs[window - 1].outcome.unwrap_or(f64::INFINITY);
        rates.push(window as f64 / (end - jobs[0].sub.origin));
        typical.push(if open_loop {
            median(lat)
        } else {
            mean(lat.iter().map(|l| l.ln())).exp()
        });
    }
    assert!(!rates.is_empty(), "no window of {window} jobs completed");
    let each = rates
        .iter()
        .zip(&typical)
        .map(|(&r, &l)| {
            obj(vec![
                ("jobs_per_s", Value::F64(r)),
                ("latency_ms", Value::F64(l)),
            ])
        })
        .collect();
    (
        percentile(&sorted(rates), 0.75),
        percentile(&sorted(typical), 0.25),
        each,
    )
}

pub(crate) fn counts_digest_of(done: &[Done], sample: usize) -> u64 {
    let mut h = rng::Fnv::new();
    for d in done.iter().take(sample) {
        h.word(d.counts_digest);
    }
    h.0
}

pub type Metric = (String, f64, &'static str);

/// The end-to-end run: telemetry off, no spans, no extra clock reads.
fn run_end_to_end(a: &Args, shape: &Shape, gate: &mut Gate) -> (Vec<Metric>, Value, usize, usize) {
    let w = a.workload;
    let mut setups = Vec::new();
    let mut ready: Option<Ready> = None;
    for _ in 0..if a.smoke { 1 } else { SETUP_REPS } {
        // Dropping the previous service shuts it down, outside the timing.
        drop(ready.take());
        let t = Instant::now();
        ready = Some(setup(a, shape, gate));
        setups.push(t.elapsed().as_secs_f64());
    }
    let r = ready.expect("at least one set-up");

    let mut phases = Vec::new();
    let (jobs_per_s, latency_ms, first);
    if w.open_loop() {
        let (cap_s, probe_s) = phase_seconds(a);
        // The probe first, on the service as set-up left it: one job at a
        // time, so the latency is the unloaded one.
        let pool = r.probe.as_ref().expect("open loop has a probe pool");
        let probe = drive::closed_loop(
            &r.service,
            &r.clock,
            &pool.specs,
            usize::MAX,
            probe_s,
            false,
        );
        let probe_done = drive::collect(&r.service, w, &probe, &pool.meta, &[], gate);
        let (_, latency, n) = job_windows(&probe_done, shape.window, true);
        phases.push(PhaseReport::new("probe", &probe, &probe_done, n));

        let cap = drive::capacity_phase(&r.service, &r.clock, &r.main.specs, usize::MAX, cap_s);
        let cap_done = drive::collect(
            &r.service,
            w,
            &cap,
            &r.main.meta,
            &drive::references(&r.main),
            gate,
        );
        let (rate, n) = windowed_rate(&cap, &cap_done);
        phases.push(PhaseReport::new("capacity", &cap, &cap_done, n));
        (jobs_per_s, latency_ms, first) = (rate, latency, cap_done);
    } else {
        let specs = &r.main.specs;
        let run = drive::closed_loop(&r.service, &r.clock, specs, specs.len(), a.seconds, false);
        let done = drive::collect(
            &r.service,
            w,
            &run,
            &r.main.meta,
            &drive::references(&r.main),
            gate,
        );
        let (rate, l, n) = job_windows(&done, shape.window, false);
        phases.push(PhaseReport::new("closed", &run, &done, n));
        (jobs_per_s, latency_ms, first) = (rate, l, done);
    }
    let peak_rss = report::peak_rss_mb();
    r.service.shutdown();

    let metrics = [
        ("setup_s", median(setups.clone()), "s"),
        ("jobs_per_s", jobs_per_s, "jobs/s"),
        ("latency_ms", latency_ms, "ms"),
        ("peak_rss_mb", peak_rss, "MB"),
    ]
    .map(|(name, value, unit)| (name.to_owned(), value, unit))
    .into();
    // No end-to-end phase gives up on a refusal, so `refused` stays 0 here.
    let attempted = phases.iter().map(|p| p.attempted).sum();
    let failed = phases.iter().map(|p| p.failed + p.refused).sum();
    let detail = obj(vec![
        (
            "setup_s_each",
            Value::Seq(setups.into_iter().map(Value::F64).collect()),
        ),
        (
            "phases",
            Value::Seq(phases.iter().map(PhaseReport::to_value).collect()),
        ),
        (
            "exact",
            obj(vec![
                (
                    "roster_digest",
                    s(format!(
                        "{:016x}",
                        r.main.digest ^ r.probe.as_ref().map_or(0, |p| p.digest.rotate_left(1))
                    )),
                ),
                (
                    "counts_digest",
                    s(format!("{:016x}", counts_digest_of(&first, shape.sample))),
                ),
            ]),
        ),
    ]);
    (metrics, detail, attempted, failed)
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("summarize") {
        std::process::exit(summarize::main(&argv[2..]));
    }
    let a = parse_args().unwrap_or_else(|e| {
        eprintln!("qgear-benchmark: {e}");
        std::process::exit(2);
    });
    let w = a.workload.name();
    let section = if a.trace { "per_layer" } else { "end_to_end" };
    let declared = report::declared(&a.schema, section, w).unwrap_or_else(|e| {
        eprintln!("qgear-benchmark: {e}");
        std::process::exit(2);
    });

    let shape = Shape::of(a.workload, a.smoke);
    let mut gate = Gate::default();
    let wall = Instant::now();
    let (metrics, detail, attempted, failed) = if a.trace {
        traced::run(&a, &shape, &mut gate)
    } else {
        run_end_to_end(&a, &shape, &mut gate)
    };

    if !gate.violations.is_empty() {
        for v in &gate.violations {
            eprintln!("qgear-benchmark: correctness: {v}");
        }
        std::process::exit(1);
    }
    if let Err(e) = report::check_against(&declared, &metrics) {
        eprintln!("qgear-benchmark: schema: {e}");
        std::process::exit(1);
    }

    let metric_map = Value::Map(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    obj(vec![("value", Value::F64(*value)), ("unit", s(*unit))]),
                )
            })
            .collect(),
    );
    let n = |v: usize| Value::U64(v as u128);
    let file = obj(vec![
        ("host", report::host_envelope(&a.commit)),
        ("workload", s(w)),
        ("seed", Value::U64(u128::from(a.seed))),
        ("seconds", Value::F64(a.seconds)),
        ("trace", Value::Bool(a.trace)),
        ("smoke", Value::Bool(a.smoke)),
        ("wall_s", Value::F64(wall.elapsed().as_secs_f64())),
        ("references_checked", n(gate.checked_references)),
        ("repeats_checked", n(gate.checked_repeats)),
        ("attempted", n(attempted)),
        ("failed", n(failed)),
        ("metrics", metric_map.clone()),
        ("detail", detail),
    ]);
    let kind = if a.trace { "trace" } else { "e2e" };
    let path = format!("{}/{kind}-{w}.json", a.out_dir);
    if let Err(e) = std::fs::create_dir_all(&a.out_dir)
        .and_then(|()| std::fs::write(&path, format!("{file}\n")))
    {
        eprintln!("qgear-benchmark: {path}: {e}");
        std::process::exit(1);
    }

    println!(
        "# {w} seed {} seconds {} trace {} -> {path}",
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    println!(
        "# correctness gate passed: {} references within their total-variation bound, {} exact repeats equal",
        gate.checked_references, gate.checked_repeats
    );
    for (name, value, unit) in &metrics {
        println!("{name:<32} {value:>16.4} {unit}");
    }
    let last = obj(vec![
        ("correct", Value::Bool(true)),
        ("attempted", n(attempted)),
        ("failed", n(failed)),
        ("metrics", metric_map),
    ]);
    println!("{last}");
}
