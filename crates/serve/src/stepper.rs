//! The execution core: one stepper contract, one driver.
//!
//! Every engine that walks a schedule with a cursor — the simulated-GPU
//! dense engine ([`SegmentedRun`]) and the shard group
//! ([`qgear_cluster::ShardedRun`]) — implements [`Stepper`], and [`drive`] is the
//! only code that runs one. Execution modes are intervals of its loop:
//! straight-through is unbounded (one segment, the checkpoint store
//! never touched), checkpointed is finite, sharded is checkpointed plus
//! the [`StepSource`] audit hooks (docs/SERVING.md, "The stepper
//! driver"). Stepping is bit-identical at every interval and across a
//! checkpoint/restore boundary, so whichever rung the recovery ladder
//! lands on produces byte-identical final counts.

use crate::checkpoint_store::CheckpointRecord;
use crate::event::EventKind;
use crate::scheduler::QueuedJob;
use crate::service::{sample_and_package, Executed, Shared};
use qgear_cluster::CommError;
use qgear_ir::Circuit;
use qgear_statevec::checkpoint::{decode as decode_checkpoint, CheckpointError, StateCheckpoint};
use qgear_statevec::segment::SegmentedRun;
use qgear_statevec::{marginal_probs, CheckpointScalar, ExecStats, GpuDevice, RunOptions, SimError};
use qgear_telemetry::names::{self, spans};
use qgear_telemetry::{counter_inc, histogram_record, span};

/// A partially-executed job: evolving amplitudes plus a cursor into a
/// fixed, deterministic step schedule.
pub(crate) trait Stepper<T: CheckpointScalar> {
    /// Apply up to `max_steps` further steps (at least one; `usize::MAX`
    /// runs to the end). `Err` means a pairwise exchange failed
    /// mid-segment: the partitioned state is inconsistent and this run
    /// must be discarded. A run resident on one device never fails.
    fn advance(&mut self, max_steps: usize) -> Result<(), CommError>;
    /// True once every step has been applied.
    fn is_done(&self) -> bool;
    /// Steps applied so far.
    fn cursor(&self) -> u64;
    /// The execution state as QCKP wire bytes, written from where the
    /// amplitudes lie (a resident state, or a partitioned one's slices
    /// walked in logical order).
    fn encode_checkpoint(&self) -> Vec<u8>;
    /// Counters and evolve time accumulated so far.
    fn stats(&self) -> ExecStats;
    /// The measurement marginal over `measured`, read from where the
    /// amplitudes lie (a partitioned state's slices are walked in logical
    /// order, never gathered): [`qgear_statevec::marginal_of_runs`].
    fn marginal(&self, measured: &[u32]) -> Vec<f64>;
}

/// How [`drive`] obtains steppers for one job, plus the audit hooks an
/// engine may hang on the driver's decisions (no-ops by default).
pub(crate) trait StepSource<T: CheckpointScalar> {
    /// The stepper this source builds.
    type Run: Stepper<T>;
    /// A run positioned at step zero.
    fn fresh(&self) -> Result<Self::Run, SimError>;
    /// Rebuild the schedule and install a decoded checkpoint into it,
    /// refusing anything that does not match it exactly.
    fn resume(&self, ck: StateCheckpoint<T>) -> Result<Self::Run, CheckpointError>;
    /// The ladder settled: on the cursor it `restored`, or cold. At the
    /// start of a dispatch `broken` is `None`; mid-run it carries the
    /// run a failed exchange just poisoned.
    fn settled(&self, _restored: Option<u64>, _broken: Option<(&Self::Run, CommError)>) {}
    /// The die-after budget fired after `segments_done` segments.
    fn died(&self, _segments_done: u32) {}
    /// The schedule completed on `run`.
    fn completed(&self, _run: &Self::Run) {}
}

/// How one driven attempt ended: with results to publish, or with the
/// worker dying at a segment boundary (checkpoint generations left
/// behind in the store for the replacement dispatch to resume from).
pub(crate) enum Attempt {
    Finished(Box<Executed>),
    Died,
}

/// Run one execution attempt of `job` on the steppers `source` builds,
/// `interval` steps per segment.
///
/// **Ladder first** ([`settle`]), then the segment loop: every interior
/// segment boundary writes a checkpoint generation (`checkpoint.write`).
/// A scheduled [`crate::FaultKind::CorruptCheckpoint`] flips one bit in
/// the encoded bytes *before* they reach the store — the torn-write
/// model the CRC framing exists to catch. With `die_after` set, the
/// worker "dies" once that many segments have completed (generations
/// written at earlier boundaries survive in the store); the death always
/// fires — at the end of the run, result unpublished, if the schedule
/// was shorter — so the accounting for a scheduled death stays exact
/// for any plan size.
pub(crate) fn drive<T: CheckpointScalar, S: StepSource<T>>(
    shared: &Shared,
    job: &QueuedJob,
    source: &S,
    interval: usize,
    die_after: Option<u32>,
) -> Result<Attempt, SimError> {
    let id = job.id.0;
    let mut run = settle(shared, id, source, interval, None)?;
    let mut segments_done: u32 = 0;
    while !run.is_done() {
        if let Err(err) = run.advance(interval) {
            // Recover in place from the newest verified generation (or
            // from |0…0⟩ if none survived — a link fault is one-shot, so
            // the rerun is clean either way).
            run = settle(shared, id, source, interval, Some((&run, err)))?;
            continue;
        }
        segments_done += 1;
        if !run.is_done() {
            let write_span = span!(spans::CHECKPOINT_WRITE);
            let mut bytes = run.encode_checkpoint();
            let cursor = run.cursor();
            let mut st = shared.lock();
            let generation = st.checkpoints.next_generation(id);
            if shared.cfg.schedule.corrupts_checkpoint(id, generation) {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x40;
            }
            st.checkpoints.record(id, cursor, bytes);
            let wrote = CheckpointRecord::Wrote { job: id, generation, cursor };
            shared.record(&mut st, EventKind::Checkpoint(wrote));
            drop(st);
            counter_inc(names::CHECKPOINT_WRITES);
            drop(write_span);
        }
        if die_after.is_some_and(|d| segments_done >= d) {
            break;
        }
    }
    if die_after.is_some() {
        source.died(segments_done);
        return Ok(Attempt::Died);
    }
    source.completed(&run);
    let stats = run.stats();
    let clock = shared.cfg.clock.as_ref();
    Ok(Attempt::Finished(Box::new(sample_and_package(run, stats, job, clock))))
}

/// The recovery ladder: retained generations are tried newest-first;
/// each is decoded, CRC-verified, and cross-checked against the freshly
/// rebuilt schedule. A generation that fails *any* of those checks is
/// dropped (`checkpoint.verify_fail`), never loaded, and the ladder
/// steps to the next older one. The first survivor becomes the resume
/// point (`job.resumed_from` records its cursor); if generations existed
/// but none survived, the attempt cold-restarts from `|0…0⟩`.
fn settle<T: CheckpointScalar, S: StepSource<T>>(
    shared: &Shared,
    id: u64,
    source: &S,
    interval: usize,
    broken: Option<(&S::Run, CommError)>,
) -> Result<S::Run, SimError> {
    // An unbounded interval never writes a generation, so there is
    // nothing to look for: straight-through runs stay off the store.
    let generations = if interval == usize::MAX {
        Vec::new()
    } else {
        shared.lock().checkpoints.newest_first(id)
    };
    let had_generations = !generations.is_empty();
    let mut resumed = None;
    for generation in generations {
        let restore_span = span!(spans::CHECKPOINT_RESTORE);
        let verified =
            decode_checkpoint::<T>(&generation.bytes).and_then(|ck| source.resume(ck));
        drop(restore_span);
        let generation = generation.generation;
        match verified {
            Ok(run) => {
                let cursor = run.cursor();
                histogram_record(names::JOB_RESUMED_FROM, cursor as f64);
                let record = CheckpointRecord::Resumed { job: id, generation, cursor };
                shared.record(&mut shared.lock(), EventKind::Checkpoint(record));
                resumed = Some(run);
                break;
            }
            Err(_) => {
                counter_inc(names::CHECKPOINT_VERIFY_FAILS);
                let mut st = shared.lock();
                st.checkpoints.drop_generation(id, generation);
                let failed = CheckpointRecord::VerifyFailed { job: id, generation };
                shared.record(&mut st, EventKind::Checkpoint(failed));
            }
        }
    }
    if resumed.is_none() && had_generations {
        let cold = CheckpointRecord::ColdRestart { job: id };
        shared.record(&mut shared.lock(), EventKind::Checkpoint(cold));
    }
    source.settled(resumed.as_ref().map(|run| run.cursor()), broken);
    match resumed {
        Some(run) => Ok(run),
        None => source.fresh(),
    }
}

/// Steppers for a dense job on one simulated GPU.
pub(crate) struct DenseSource<'a> {
    pub(crate) device: &'a GpuDevice,
    pub(crate) circuit: &'a Circuit,
    /// The job's [`crate::service`] run options; the checkpoint plan
    /// fingerprint covers them, so every dispatch must rebuild the same.
    pub(crate) opts: RunOptions,
}

impl<T: CheckpointScalar> StepSource<T> for DenseSource<'_> {
    type Run = SegmentedRun<T>;

    fn fresh(&self) -> Result<Self::Run, SimError> {
        SegmentedRun::new(self.device, self.circuit, &self.opts)
    }

    fn resume(&self, ck: StateCheckpoint<T>) -> Result<Self::Run, CheckpointError> {
        SegmentedRun::resume(self.device, self.circuit, &self.opts, ck)
    }
}

impl<T: CheckpointScalar> Stepper<T> for SegmentedRun<T> {
    /// Times itself on the host clock: its kernels are real work even
    /// under a virtual service clock.
    fn advance(&mut self, max_steps: usize) -> Result<(), CommError> {
        SegmentedRun::advance(self, max_steps);
        Ok(())
    }

    fn is_done(&self) -> bool {
        SegmentedRun::is_done(self)
    }

    fn cursor(&self) -> u64 {
        SegmentedRun::cursor(self) as u64
    }

    fn encode_checkpoint(&self) -> Vec<u8> {
        SegmentedRun::encode_checkpoint(self)
    }

    fn stats(&self) -> ExecStats {
        SegmentedRun::stats(self)
    }

    fn marginal(&self, measured: &[u32]) -> Vec<f64> {
        marginal_probs(self.state(), measured)
    }
}

#[cfg(test)]
mod tests {
    //! The ladder and the segment loop against a stepper with no kernels
    //! behind it: what is asserted here holds for every engine that
    //! implements the contract.
    use super::*;
    use crate::hashkey::CircuitKey;
    use crate::job::{Engine, JobId, JobSpec};
    use crate::{FaultKind, FaultSchedule, ServeConfig, Service, ServiceEvent};
    use qgear_statevec::checkpoint::{encode, CheckpointCounters};
    use qgear_statevec::{SamplingConfig, StateVector};
    use std::cell::{Cell, RefCell};
    use std::time::Duration;

    const FINGERPRINT: u64 = 0xFA4E;

    /// A cursor over `total` imaginary steps; `break_at` fails the
    /// advance that would leave that cursor, once per source.
    struct FakeRun {
        cursor: u64,
        total: u64,
        break_at: Option<u64>,
    }

    impl Stepper<f64> for FakeRun {
        fn advance(&mut self, max_steps: usize) -> Result<(), CommError> {
            if self.break_at == Some(self.cursor) {
                return Err(CommError::Dropped);
            }
            self.cursor = self.total.min(self.cursor.saturating_add(max_steps.max(1) as u64));
            Ok(())
        }

        fn is_done(&self) -> bool {
            self.cursor >= self.total
        }

        fn cursor(&self) -> u64 {
            self.cursor
        }

        fn encode_checkpoint(&self) -> Vec<u8> {
            encode(&StateCheckpoint {
                num_qubits: 1,
                cursor: self.cursor,
                steps_total: self.total,
                fingerprint: FINGERPRINT,
                counters: CheckpointCounters::default(),
                sampling: SamplingConfig::single(0, 0),
                state: StateVector::<f64>::zero(1),
            })
        }

        fn stats(&self) -> ExecStats {
            ExecStats { kernels_launched: self.cursor, ..ExecStats::default() }
        }

        fn marginal(&self, measured: &[u32]) -> Vec<f64> {
            marginal_probs(&StateVector::<f64>::zero(1), measured)
        }
    }

    struct FakeSource {
        total: u64,
        break_at: Cell<Option<u64>>,
        hooks: RefCell<Vec<String>>,
    }

    impl FakeSource {
        fn new(total: u64) -> Self {
            FakeSource { total, break_at: Cell::new(None), hooks: RefCell::new(Vec::new()) }
        }
    }

    impl StepSource<f64> for FakeSource {
        type Run = FakeRun;

        fn fresh(&self) -> Result<FakeRun, SimError> {
            Ok(FakeRun { cursor: 0, total: self.total, break_at: self.break_at.take() })
        }

        fn resume(&self, ck: StateCheckpoint<f64>) -> Result<FakeRun, CheckpointError> {
            if ck.fingerprint != FINGERPRINT {
                return Err(CheckpointError::PlanMismatch {
                    expected: FINGERPRINT,
                    found: ck.fingerprint,
                });
            }
            Ok(FakeRun { cursor: ck.cursor, total: self.total, break_at: self.break_at.take() })
        }

        fn settled(&self, restored: Option<u64>, broken: Option<(&FakeRun, CommError)>) {
            let broken = broken.map(|(run, _)| run.cursor);
            self.hooks.borrow_mut().push(format!("settled {restored:?} {broken:?}"));
        }

        fn died(&self, segments_done: u32) {
            self.hooks.borrow_mut().push(format!("died {segments_done}"));
        }

        fn completed(&self, run: &FakeRun) {
            self.hooks.borrow_mut().push(format!("completed {}", run.cursor));
        }
    }

    fn job(id: u64) -> QueuedJob {
        let mut circuit = Circuit::new(1);
        circuit.h(0).measure_all();
        let spec = JobSpec::new(circuit.clone()).shots(8);
        QueuedJob {
            id: JobId(id),
            key: CircuitKey(id),
            state_key: CircuitKey(!id),
            canonical: circuit,
            spec,
            submitted_at: Duration::ZERO,
            seq: 0,
            attempts_made: 0,
            engine: Engine::Dense,
        }
    }

    fn service(schedule: FaultSchedule) -> Service {
        Service::start(ServeConfig {
            workers: 1,
            checkpoint_generations: 3,
            schedule,
            ..Default::default()
        })
    }

    /// `job`'s events; nothing but the ladder and the segment loop ever
    /// ran for it, so every one is a checkpoint record.
    fn checkpoint_events(service: &Service, job: u64) -> Vec<CheckpointRecord> {
        let unwrap = |e: ServiceEvent| match e.kind {
            EventKind::Checkpoint(record) => record,
            other => panic!("drive() logged {other:?}"),
        };
        service.events_for(JobId(job)).into_iter().map(unwrap).collect()
    }

    fn retained(service: &Service, job: u64) -> Vec<u64> {
        let st = service.shared.lock();
        let store = &st.checkpoints;
        store.newest_first(job).iter().map(|g| g.generation).collect()
    }

    /// Die after two one-step segments of a four-step schedule: the
    /// generations at cursors 1 and 2 are left behind.
    fn die_after_two(service: &Service, id: u64) -> FakeSource {
        let source = FakeSource::new(4);
        let died = drive::<f64, _>(&service.shared, &job(id), &source, 1, Some(2)).unwrap();
        assert!(matches!(died, Attempt::Died));
        assert_eq!(*source.hooks.borrow(), ["settled None None", "died 2"]);
        source
    }

    #[test]
    fn newest_verified_generation_wins_and_the_run_finishes_from_it() {
        let service = service(FaultSchedule::none());
        die_after_two(&service, 0);
        let source = FakeSource::new(4);
        let done = drive::<f64, _>(&service.shared, &job(0), &source, 1, None).unwrap();
        let Attempt::Finished(done) = done else { panic!("no die budget, must finish") };
        assert_eq!(done.1.kernels_launched, 4);
        assert_eq!(done.0.as_ref().map(|c| c.total()), Some(8), "the driver samples");
        assert_eq!(*source.hooks.borrow(), ["settled Some(2) None", "completed 4"]);
        assert_eq!(
            checkpoint_events(&service, 0),
            [
                CheckpointRecord::Wrote { job: 0, generation: 0, cursor: 1 },
                CheckpointRecord::Wrote { job: 0, generation: 1, cursor: 2 },
                CheckpointRecord::Resumed { job: 0, generation: 1, cursor: 2 },
                CheckpointRecord::Wrote { job: 0, generation: 2, cursor: 3 },
            ]
        );
    }

    #[test]
    fn a_verify_fail_drops_exactly_that_generation_and_steps_down() {
        let schedule =
            FaultSchedule::none().with_event(1, 0, FaultKind::CorruptCheckpoint { generation: 1 });
        let service = service(schedule);
        die_after_two(&service, 1);
        assert_eq!(retained(&service, 1), [1, 0]);
        let source = FakeSource::new(4);
        // Die again at once, so what the ladder left in the store shows.
        drive::<f64, _>(&service.shared, &job(1), &source, 4, Some(1)).unwrap();
        assert_eq!(*source.hooks.borrow(), ["settled Some(1) None", "died 1"]);
        assert_eq!(retained(&service, 1), [0], "only the corrupt generation was dropped");
        assert_eq!(
            checkpoint_events(&service, 1)[2..],
            [
                CheckpointRecord::VerifyFailed { job: 1, generation: 1 },
                CheckpointRecord::Resumed { job: 1, generation: 0, cursor: 1 },
            ]
        );
    }

    #[test]
    fn no_surviving_generation_logs_one_cold_restart() {
        let schedule = FaultSchedule::none()
            .with_event(2, 0, FaultKind::CorruptCheckpoint { generation: 0 })
            .with_event(2, 0, FaultKind::CorruptCheckpoint { generation: 1 });
        let service = service(schedule);
        die_after_two(&service, 2);
        let source = FakeSource::new(4);
        let done = drive::<f64, _>(&service.shared, &job(2), &source, 4, None).unwrap();
        assert!(matches!(done, Attempt::Finished(_)));
        assert_eq!(*source.hooks.borrow(), ["settled None None", "completed 4"]);
        assert_eq!(
            checkpoint_events(&service, 2)[2..],
            [
                CheckpointRecord::VerifyFailed { job: 2, generation: 1 },
                CheckpointRecord::VerifyFailed { job: 2, generation: 0 },
                CheckpointRecord::ColdRestart { job: 2 },
            ]
        );
    }

    #[test]
    fn die_after_past_the_end_of_the_schedule_still_dies() {
        let service = service(FaultSchedule::none());
        let source = FakeSource::new(2);
        let died = drive::<f64, _>(&service.shared, &job(3), &source, 5, Some(3)).unwrap();
        assert!(matches!(died, Attempt::Died), "the result must stay unpublished");
        assert_eq!(*source.hooks.borrow(), ["settled None None", "died 1"]);
        assert!(checkpoint_events(&service, 3).is_empty(), "a finished run writes nothing");
    }

    #[test]
    fn a_broken_run_recovers_in_place_without_counting_a_segment() {
        let service = service(FaultSchedule::none());
        let source = FakeSource::new(3);
        source.break_at.set(Some(1));
        let done = drive::<f64, _>(&service.shared, &job(4), &source, 1, Some(3)).unwrap();
        // Three *completed* segments fit the budget exactly: had the
        // failed advance counted, the death would have left cursor 2.
        assert!(matches!(done, Attempt::Died));
        assert_eq!(
            *source.hooks.borrow(),
            ["settled None None", "settled Some(1) Some(1)", "died 3"]
        );
    }

    #[test]
    fn an_unbounded_interval_never_consults_the_store() {
        let service = service(FaultSchedule::none());
        die_after_two(&service, 5);
        let source = FakeSource::new(4);
        drive::<f64, _>(&service.shared, &job(5), &source, usize::MAX, None).unwrap();
        assert_eq!(*source.hooks.borrow(), ["settled None None", "completed 4"]);
        assert_eq!(checkpoint_events(&service, 5).len(), 2, "no resume, no write");
    }
}
