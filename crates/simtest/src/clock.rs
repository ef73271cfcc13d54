//! The virtual clock: simulated time under test-harness control.
//!
//! [`VirtualClock`] implements [`Clock`] without ever touching wall
//! time from the perspective of the code under test: `now()` returns a
//! counter, and `sleep_until` parks the calling thread until the
//! harness advances that counter past the deadline. Two modes:
//!
//! * **Stepped** (the default, [`VirtualClock::new`]) — time moves only
//!   through the control API ([`advance`](VirtualClock::advance),
//!   [`advance_to_next_sleeper`](VirtualClock::advance_to_next_sleeper)).
//!   A thread calling `sleep_until` registers itself as a *sleeper* and
//!   blocks; the harness observes sleepers (via
//!   [`wait_for_sleepers`](VirtualClock::wait_for_sleepers)) and decides
//!   when their deadlines arrive. This is what makes a whole service
//!   run a pure function of its inputs: virtual time can never advance
//!   past the earliest registered deadline, so every temporal reading
//!   the code under test takes is reproducible.
//! * **Auto** ([`VirtualClock::with_tick`]) — `sleep_until` advances
//!   time to the deadline immediately and returns. Useful for
//!   single-threaded code (e.g. timing spans inside an engine) where
//!   nothing needs to interleave with the sleeper. Its *tick* also
//!   advances time by a fixed amount on every `now()` call, so code that
//!   measures a span as `now() - start` observes an exact, asserted-upon
//!   nonzero duration.

use qgear_telemetry::clock::Clock;
use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug)]
struct ClockState {
    now: Duration,
    tick: Duration,
    auto_advance: bool,
    next_sleeper_id: u64,
    /// Registered sleepers: id → wake deadline.
    sleepers: BTreeMap<u64, Duration>,
}

/// A controllable simulated clock (see module docs).
#[derive(Debug)]
pub struct VirtualClock {
    state: Mutex<ClockState>,
    cv: Condvar,
}

impl VirtualClock {
    fn with_mode(auto_advance: bool, tick: Duration) -> Self {
        VirtualClock {
            state: Mutex::new(ClockState {
                now: Duration::ZERO,
                tick,
                auto_advance,
                next_sleeper_id: 0,
                sleepers: BTreeMap::new(),
            }),
            cv: Condvar::new(),
        }
    }

    /// A stepped clock starting at virtual zero: sleepers block until
    /// the harness advances time.
    pub fn new() -> Self {
        VirtualClock::with_mode(false, Duration::ZERO)
    }

    /// An auto-advancing clock — every sleep jumps time to its deadline —
    /// that also advances by `tick` on every `now()` call, making
    /// `now() - start` spans exact and nonzero.
    pub fn with_tick(tick: Duration) -> Self {
        VirtualClock::with_mode(true, tick)
    }

    /// Current virtual time, without consuming a tick.
    pub fn now_raw(&self) -> Duration {
        self.state.lock().expect("virtual clock poisoned").now
    }

    /// Move time forward to `target` (never backward). Returns the new
    /// reading.
    fn advance_to(&self, target: Duration) -> Duration {
        let mut st = self.state.lock().expect("virtual clock poisoned");
        if target > st.now {
            st.now = target;
        }
        let now = st.now;
        drop(st);
        self.cv.notify_all();
        now
    }

    /// Move time forward by `delta`. Returns the new reading.
    pub fn advance(&self, delta: Duration) -> Duration {
        let target = self.now_raw().saturating_add(delta);
        self.advance_to(target)
    }

    /// Advance to the earliest registered sleeper deadline, waking that
    /// sleeper. `None` when nothing is sleeping. Never advances past the
    /// earliest deadline, so no sleeper can be leapfrogged.
    pub fn advance_to_next_sleeper(&self) -> Option<Duration> {
        let mut st = self.state.lock().expect("virtual clock poisoned");
        let earliest = st.sleepers.values().min().copied()?;
        if earliest > st.now {
            st.now = earliest;
        }
        drop(st);
        self.cv.notify_all();
        Some(earliest)
    }

    /// Block (in real time, bounded by `real_timeout`) until at least
    /// `n` threads are parked in `sleep_until`. Returns whether the
    /// count was reached — the harness's way of knowing a worker has
    /// deterministically quiesced before it mutates the world.
    pub fn wait_for_sleepers(&self, n: usize, real_timeout: Duration) -> bool {
        let deadline = Instant::now() + real_timeout;
        let mut st = self.state.lock().expect("virtual clock poisoned");
        while st.sleepers.len() < n {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(st, left)
                .expect("virtual clock poisoned");
            st = guard;
        }
        true
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        VirtualClock::new()
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Duration {
        let mut st = self.state.lock().expect("virtual clock poisoned");
        let tick = st.tick;
        st.now = st.now.saturating_add(tick);
        st.now
    }

    fn sleep_until(&self, deadline: Duration) {
        let mut st = self.state.lock().expect("virtual clock poisoned");
        if st.auto_advance {
            if deadline > st.now {
                st.now = deadline;
            }
            drop(st);
            self.cv.notify_all();
            return;
        }
        if st.now >= deadline {
            return;
        }
        let id = st.next_sleeper_id;
        st.next_sleeper_id += 1;
        st.sleepers.insert(id, deadline);
        // Registration is observable: wake wait_for_sleepers callers.
        self.cv.notify_all();
        while st.now < deadline {
            st = self.cv.wait(st).expect("virtual clock poisoned");
        }
        st.sleepers.remove(&id);
        drop(st);
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn stepped_time_is_frozen_until_advanced() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now(), Duration::ZERO);
        assert_eq!(clock.now(), Duration::ZERO);
        clock.advance(Duration::from_micros(5));
        assert_eq!(clock.now(), Duration::from_micros(5));
        // advance_to never moves backward.
        clock.advance_to(Duration::from_micros(3));
        assert_eq!(clock.now(), Duration::from_micros(5));
    }

    #[test]
    fn auto_mode_jumps_to_sleep_deadlines() {
        let clock = VirtualClock::with_tick(Duration::ZERO);
        clock.sleep(Duration::from_millis(7));
        assert_eq!(clock.now(), Duration::from_millis(7));
        clock.sleep_until(Duration::from_millis(3)); // already past
        assert_eq!(clock.now(), Duration::from_millis(7));
    }

    #[test]
    fn tick_makes_spans_exact() {
        let clock = VirtualClock::with_tick(Duration::from_micros(3));
        let start = clock.now();
        let end = clock.now();
        assert_eq!(end - start, Duration::from_micros(3));
    }

    #[test]
    fn stepped_sleeper_wakes_exactly_at_its_deadline() {
        let clock = Arc::new(VirtualClock::new());
        let sleeper = {
            let clock = Arc::clone(&clock);
            std::thread::spawn(move || {
                clock.sleep_until(Duration::from_micros(10));
                clock.now_raw()
            })
        };
        assert!(clock.wait_for_sleepers(1, Duration::from_secs(5)));
        // Advancing below the deadline must not wake it for good.
        clock.advance_to(Duration::from_micros(4));
        assert_eq!(clock.advance_to_next_sleeper(), Some(Duration::from_micros(10)));
        let woke_at = sleeper.join().unwrap();
        assert_eq!(woke_at, Duration::from_micros(10));
    }

    #[test]
    fn wait_for_sleepers_times_out_when_nobody_sleeps() {
        let clock = VirtualClock::new();
        assert!(!clock.wait_for_sleepers(1, Duration::from_millis(5)));
    }
}
