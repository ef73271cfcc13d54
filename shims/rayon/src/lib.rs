//! Offline stand-in for `rayon` (parallel-iterator subset).
//!
//! Implements the surface the workspace's simulated-GPU engine uses —
//! `(0..n).into_par_iter().with_min_len(m).for_each(..)` and
//! `slice.par_chunks_mut(size).with_min_len(m).enumerate().for_each(..)` —
//! over one **persistent pool**: `available_parallelism − 1` helper
//! threads, started on the first parallel call and parked for the life of
//! the process, and one injector queue of jobs.
//!
//! A job is an item range cut into tasks that threads claim from an atomic
//! counter. The submitting thread always takes part: it claims tasks
//! alongside whichever helpers wake, never waits for a task nobody has
//! claimed, and returns only once every claimed task has finished. So a
//! closure may borrow from the caller's stack exactly as in a scoped
//! thread, a task panic is re-raised on the submitter after the other
//! tasks finish, and submitters nested inside tasks or racing
//! from several threads cannot deadlock — a busy pool only means the
//! submitter runs its whole range itself.
//!
//! Whether a call goes parallel is the caller's decision, in rayon's own
//! terms: `with_min_len(m)` gives each task at least `m` items, so fewer
//! than `2·m` items run inline and never touch the pool. Callers size `m`
//! from the bytes an item moves (`min_items` in `qgear-statevec::gpu`).
//!
//! Semantics match rayon for the patterns used here: each element / index
//! is visited exactly once, in no guaranteed order across tasks, and which
//! thread ran a task never enters a result.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, Thread};

/// One submitted job: `tasks` calls of `body`, claimed by ticket.
struct Job {
    /// The submitter's task body with its lifetime erased; only ever
    /// called between a successful claim and the matching `unfinished`
    /// decrement, which the submitter outwaits.
    body: *const (dyn Fn(usize) + Sync),
    tasks: usize,
    /// Next unclaimed task. A ticket counter: it publishes no data, the
    /// queue mutex already ordered `body`'s captures before any helper
    /// could see the job.
    next: AtomicUsize,
    /// Tasks not yet finished. Decremented with `Release` after a task's
    /// writes, read with `Acquire` by the submitter before it returns.
    unfinished: AtomicUsize,
    /// First panic payload caught in a task.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    submitter: Thread,
}

// SAFETY: `body` points at a `Sync` closure, so calling it from several
// threads is sound, and `Job::work` never dereferences it after the
// submitter has returned (see `run_tasks`). Every other field is already
// `Send + Sync`.
unsafe impl Send for Job {}
// SAFETY: as for `Send`.
unsafe impl Sync for Job {}

impl Job {
    /// Claim and run tasks until none is left unclaimed.
    fn work(&self) {
        loop {
            let task = self.next.fetch_add(1, Ordering::Relaxed);
            if task >= self.tasks {
                return;
            }
            // SAFETY: `task` was claimed, so `unfinished` is still above
            // zero and stays there until the decrement below; the
            // submitter does not leave `run_tasks` — and the closure
            // behind `body` stays borrowed — before it reads zero.
            let body = unsafe { &*self.body };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(task))) {
                relock(&self.panic).get_or_insert(payload);
            }
            if self.unfinished.fetch_sub(1, Ordering::Release) == 1 {
                self.submitter.unpark();
            }
        }
    }

    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.tasks
    }
}

/// Lock a mutex whose data is valid at every step (a queue of `Arc`s, an
/// `Option`): a poisoned lock is recovered, not propagated.
fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The process-wide pool: an injector queue the helpers watch.
struct Pool {
    /// Jobs with possibly unclaimed tasks. Pushed and removed by the
    /// submitter only; helpers read it.
    queue: Mutex<VecDeque<Arc<Job>>>,
    wake: Condvar,
    /// Helper threads running, started on first use.
    helpers: OnceLock<usize>,
}

static POOL: Pool =
    Pool { queue: Mutex::new(VecDeque::new()), wake: Condvar::new(), helpers: OnceLock::new() };

impl Pool {
    /// Number of helper threads, starting them on the first call. They are
    /// never joined: they wait on `wake` until the process exits, and no
    /// task panic unwinds one (`Job::work` catches it). One that fails to
    /// start is not counted — the submitter runs what nobody else claims.
    fn helpers(&'static self) -> usize {
        *self.helpers.get_or_init(|| {
            let want = thread::available_parallelism().map_or(1, |n| n.get()) - 1;
            let start = |i: &usize| {
                let name = format!("kernel-pool-{i}");
                thread::Builder::new().name(name).spawn(move || self.help()).is_ok()
            };
            (0..want).filter(start).count()
        })
    }

    /// Helper loop: work on the oldest job that still has unclaimed tasks,
    /// park when there is none.
    fn help(&self) {
        let mut queue = relock(&self.queue);
        loop {
            match queue.iter().find(|job| !job.exhausted()).cloned() {
                Some(job) => {
                    drop(queue);
                    job.work();
                    queue = relock(&self.queue);
                }
                None => queue = self.wake.wait(queue).unwrap_or_else(PoisonError::into_inner),
            }
        }
    }
}

/// Run `body(t)` for every `t` in `0..tasks` on the calling thread and
/// whichever helpers are free, returning when all have finished.
/// Re-raises the first task panic.
fn run_tasks(tasks: usize, body: &(dyn Fn(usize) + Sync)) {
    let helpers = POOL.helpers();
    if helpers == 0 {
        return (0..tasks).for_each(body);
    }
    // SAFETY: only the lifetime changes. The pointer is dereferenced
    // solely for claimed tasks (`Job::work`), and this function does not
    // return or unwind before `unfinished` reads zero: `work` catches
    // task panics and nothing between here and the wait loop panics.
    let body: *const (dyn Fn(usize) + Sync + 'static) = unsafe { std::mem::transmute(body) };
    let job = Arc::new(Job {
        body,
        tasks,
        next: AtomicUsize::new(0),
        unfinished: AtomicUsize::new(tasks),
        panic: Mutex::new(None),
        submitter: thread::current(),
    });
    relock(&POOL.queue).push_back(Arc::clone(&job));
    for _ in 0..helpers.min(tasks - 1) {
        POOL.wake.notify_one();
    }
    job.work();
    relock(&POOL.queue).retain(|queued| !Arc::ptr_eq(queued, &job));
    while job.unfinished.load(Ordering::Acquire) != 0 {
        thread::park();
    }
    let panic = relock(&job.panic).take();
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

/// Cut `items` into `items / min_len` tasks, sizes differing by at most
/// one, and run `body` on every task's item range. Fewer than two tasks
/// run inline.
fn drive(items: usize, min_len: usize, body: impl Fn(Range<usize>) + Sync) {
    let tasks = items / min_len.max(1);
    if tasks < 2 {
        return body(0..items);
    }
    let (per, extra) = (items / tasks, items % tasks);
    run_tasks(tasks, &|t| {
        let lo = t * per + t.min(extra);
        body(lo..lo + per + usize::from(t < extra));
    });
}

/// Parallel iterator over an index range.
pub struct ParRange {
    range: Range<usize>,
    min_len: usize,
}

impl ParRange {
    /// Give each task at least `min` indices (rayon's `with_min_len`): a
    /// range shorter than `2 * min` runs inline on the caller.
    pub fn with_min_len(self, min: usize) -> Self {
        ParRange { min_len: min, ..self }
    }

    /// Visit every index.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(usize) + Sync + Send,
    {
        let start = self.range.start;
        drive(self.range.len(), self.min_len, |run| {
            for i in run {
                f(start + i);
            }
        });
    }
}

/// Parallel iterator over mutable chunks of a slice (rayon's
/// `par_chunks_mut`). Every chunk has `size` elements except possibly
/// the last; chunk `i` starts at element `i * size`.
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    size: usize,
    min_len: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Give each task at least `min` chunks (rayon's `with_min_len`):
    /// fewer than `2 * min` chunks run inline on the caller.
    pub fn with_min_len(self, min: usize) -> Self {
        ParChunksMut { min_len: min, ..self }
    }

    /// Pair each chunk with its chunk index.
    pub fn enumerate(self) -> EnumerateParChunksMut<'a, T> {
        EnumerateParChunksMut(self)
    }

    /// Visit every chunk.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Sync + Send,
    {
        self.enumerate().for_each(|(_, chunk)| f(chunk));
    }
}

/// Enumerated parallel iterator over mutable chunks.
pub struct EnumerateParChunksMut<'a, T>(ParChunksMut<'a, T>);

/// Start of the slice a chunked job is splitting, shareable across tasks.
struct SliceStart<T>(*mut T);
// SAFETY: tasks turn the pointer into `&mut` sub-slices that never overlap
// (see `EnumerateParChunksMut::for_each`), which is sending `&mut [T]` to
// another thread: sound for `T: Send`.
unsafe impl<T: Send> Sync for SliceStart<T> {}

impl<T: Send> EnumerateParChunksMut<'_, T> {
    /// Visit every `(chunk_index, chunk)` pair.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync + Send,
    {
        let ParChunksMut { slice, size, min_len } = self.0;
        assert!(size != 0, "chunk size must not be zero");
        let len = slice.len();
        let start = SliceStart(slice.as_mut_ptr());
        let start = &start;
        drive(len.div_ceil(size), min_len, |run| {
            let (lo, hi) = (run.start * size, (run.end * size).min(len));
            // SAFETY: `drive` hands every task a distinct run of chunk
            // indices below `len.div_ceil(size)`, so `lo..hi` lies inside
            // the exclusively borrowed `slice` and overlaps no other
            // task's elements; the borrow outlives the job because
            // `drive` returns only when every task has finished.
            let elems = unsafe { std::slice::from_raw_parts_mut(start.0.add(lo), hi - lo) };
            for (off, chunk) in elems.chunks_mut(size).enumerate() {
                f((run.start + off, chunk));
            }
        });
    }
}

/// Conversion into a parallel iterator (rayon's `IntoParallelIterator`).
pub trait IntoParallelIterator {
    /// The parallel iterator type.
    type Iter;
    /// Convert.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange { range: self, min_len: 1 }
    }
}

/// Mutable-slice entry point (rayon's `ParallelSliceMut`).
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over mutable chunks of `size` elements (the
    /// last chunk may be shorter).
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T> {
        ParChunksMut {
            slice: self,
            size,
            min_len: 1,
        }
    }
}

/// Glob-import module mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier, Mutex};
    use std::thread::{self, ThreadId};

    fn hardware_threads() -> usize {
        thread::available_parallelism().map_or(1, |n| n.get())
    }

    #[test]
    fn par_chunks_mut_visits_every_chunk_once_with_correct_index() {
        for (len, size) in [(0usize, 4usize), (1, 4), (7, 4), (4096, 64), (100_001, 333)] {
            let mut v = vec![usize::MAX; len];
            v.par_chunks_mut(size).enumerate().for_each(|(ci, chunk)| {
                for (off, x) in chunk.iter_mut().enumerate() {
                    *x = ci * size + off;
                }
            });
            for (i, &x) in v.iter().enumerate() {
                assert_eq!(i, x, "len {len} size {size}");
            }
        }
    }

    #[test]
    fn range_for_each_covers_range() {
        let hits = AtomicUsize::new(0);
        (5..30_005usize).into_par_iter().for_each(|i| {
            hits.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(
            hits.load(Ordering::Relaxed),
            (5..30_005usize).sum::<usize>()
        );
    }

    #[test]
    fn with_min_len_runs_inline_below_two_tasks_and_covers_ragged_tails_above() {
        let me = thread::current().id();
        // 199 items at 100 per task is one task: the caller runs it all.
        (0..199usize)
            .into_par_iter()
            .with_min_len(100)
            .for_each(|_| {
                assert_eq!(thread::current().id(), me);
            });
        let mut v = vec![0u8; 199 * 3];
        v.par_chunks_mut(3).with_min_len(100).for_each(|chunk| {
            assert_eq!(thread::current().id(), me);
            chunk.fill(1);
        });
        assert!(v.iter().all(|&x| x == 1));
        // Above it, lengths that divide into neither tasks nor chunks.
        for (len, size, min) in [(200usize, 1usize, 100usize), (1001, 7, 3), (65_537, 16, 64)] {
            let seen: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
            (0..len).into_par_iter().with_min_len(min).for_each(|i| {
                seen[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                seen.iter().all(|s| s.load(Ordering::Relaxed) == 1),
                "range {len}/{min}"
            );
            let mut v = vec![usize::MAX; len];
            v.par_chunks_mut(size)
                .with_min_len(min)
                .enumerate()
                .for_each(|(ci, chunk)| {
                    assert!(
                        chunk.len() == size || ci == len / size,
                        "only the tail is short"
                    );
                    for (off, x) in chunk.iter_mut().enumerate() {
                        *x = ci * size + off;
                    }
                });
            assert!(
                v.iter().enumerate().all(|(i, &x)| i == x),
                "chunks {len}/{size}/{min}"
            );
        }
    }

    #[test]
    fn concurrent_submitters_each_see_every_index_exactly_once() {
        const LEN: usize = 20_000;
        let barrier = Arc::new(Barrier::new(4));
        let submitters: Vec<_> = (0..4)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    let seen: Vec<AtomicUsize> = (0..LEN).map(|_| AtomicUsize::new(0)).collect();
                    barrier.wait();
                    for _ in 0..50 {
                        (0..LEN).into_par_iter().for_each(|i| {
                            seen[i].fetch_add(1, Ordering::Relaxed);
                        });
                    }
                    assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) == 50));
                })
            })
            .collect();
        for submitter in submitters {
            submitter.join().expect("a submitter saw an index twice or not at all");
        }
    }

    #[test]
    fn a_submitter_nested_inside_a_task_completes() {
        let hits = AtomicUsize::new(0);
        (0..8usize).into_par_iter().for_each(|_| {
            (0..1000usize).into_par_iter().for_each(|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8000);
    }

    #[test]
    fn threads_are_started_once() {
        let ran: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        for _ in 0..10_000 {
            (0..64usize).into_par_iter().for_each(|_| {
                ran.lock().unwrap().insert(thread::current().id());
            });
        }
        let ran = ran.into_inner().unwrap();
        assert!(
            ran.contains(&thread::current().id()),
            "the submitter takes part"
        );
        assert!(
            ran.len() <= hardware_threads(),
            "{} threads ran tasks",
            ran.len()
        );
    }

    #[test]
    fn a_task_panic_is_reraised_on_the_submitter_and_the_pool_survives() {
        let finished = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            (0..1000usize).into_par_iter().for_each(|i| {
                if i == 617 {
                    panic!("task 617");
                }
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }));
        let payload = caught.expect_err("the panic reaches the submitter");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task 617"));
        // Every task but the one holding index 617 ran to its end.
        let done = finished.load(Ordering::Relaxed);
        assert!((617..1000).contains(&done), "{done} indices finished");
        // Same pool, next job: complete, and still on other threads when
        // the host has any.
        let ran: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        let hits = AtomicUsize::new(0);
        for _ in 0..200 {
            (0..1000usize).into_par_iter().for_each(|_| {
                hits.fetch_add(1, Ordering::Relaxed);
                ran.lock().unwrap().insert(thread::current().id());
            });
        }
        assert_eq!(hits.load(Ordering::Relaxed), 200_000);
        assert!(ran.into_inner().unwrap().len() <= hardware_threads());
    }
}
