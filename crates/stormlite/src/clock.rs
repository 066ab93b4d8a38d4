//! The time source every latency measurement flows through.
//!
//! stormlite never calls [`std::time::Instant::now`] on a metrics path
//! directly; tasks read the topology's [`Clock`] instead. A real run uses a
//! [wall clock](Clock::wall) anchored at topology start, so timestamps are
//! nanoseconds of real elapsed run time. A simulated run (see
//! [`crate::sim`]) uses a *virtual* clock that only moves when the
//! scheduler advances it — queue-wait histograms and end-to-end latencies
//! then measure deterministic virtual time, and the same seed reproduces
//! the same numbers bit for bit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A point in run time: nanoseconds since the topology started, on
/// whichever clock ([wall](Clock::wall) or virtual) the run uses.
///
/// Timestamps are plain ordered integers, so they are `Copy`, comparable,
/// and serialize trivially into transcripts. `Timestamp::default()` is the
/// start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Hash)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The start of the run.
    pub const ZERO: Timestamp = Timestamp(0);

    /// A timestamp `ns` nanoseconds into the run.
    pub fn from_nanos(ns: u64) -> Self {
        Timestamp(ns)
    }

    /// Nanoseconds since the start of the run.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration elapsed since `earlier`, saturating to zero if
    /// `earlier` is in the future.
    pub fn saturating_since(self, earlier: Timestamp) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }
}

enum ClockInner {
    /// Real time, measured from the anchor instant (topology start).
    Wall(Instant),
    /// Virtual time in nanoseconds, advanced explicitly by the simulation
    /// scheduler and frozen everywhere else.
    Virtual(AtomicU64),
}

/// A cloneable handle on the run's time source.
///
/// All clones observe the same time: the handle is an `Arc` internally, so
/// every task of a topology shares one clock. Reading the clock is cheap
/// (one `Instant::elapsed` or one atomic load).
#[derive(Clone)]
pub struct Clock {
    inner: Arc<ClockInner>,
}

impl std::fmt::Debug for Clock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &*self.inner {
            ClockInner::Wall(_) => write!(f, "Clock::Wall(t={:?})", self.now()),
            ClockInner::Virtual(_) => write!(f, "Clock::Virtual(t={:?})", self.now()),
        }
    }
}

impl Default for Clock {
    fn default() -> Self {
        Self::wall()
    }
}

impl Clock {
    /// A wall clock anchored at the moment of this call; [`now`](Self::now)
    /// returns real elapsed time since then.
    pub fn wall() -> Self {
        Clock {
            inner: Arc::new(ClockInner::Wall(Instant::now())),
        }
    }

    /// A virtual clock frozen at [`Timestamp::ZERO`]. Time only moves via
    /// [`advance`](Self::advance) — the simulation scheduler owns that.
    pub fn virtual_start() -> Self {
        Clock {
            inner: Arc::new(ClockInner::Virtual(AtomicU64::new(0))),
        }
    }

    /// The current run time.
    pub fn now(&self) -> Timestamp {
        match &*self.inner {
            ClockInner::Wall(anchor) => {
                Timestamp(anchor.elapsed().as_nanos().min(u64::MAX as u128) as u64)
            }
            ClockInner::Virtual(ns) => Timestamp(ns.load(Ordering::Relaxed)),
        }
    }

    /// Whether this is a virtual (simulation) clock.
    pub fn is_virtual(&self) -> bool {
        matches!(&*self.inner, ClockInner::Virtual(_))
    }

    /// Moves a virtual clock forward by `d`. No-op on a wall clock (real
    /// time cannot be steered).
    pub fn advance(&self, d: Duration) {
        if let ClockInner::Virtual(ns) = &*self.inner {
            ns.fetch_add(d.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_is_frozen_until_advanced() {
        let c = Clock::virtual_start();
        assert!(c.is_virtual());
        assert_eq!(c.now(), Timestamp::ZERO);
        c.advance(Duration::from_micros(5));
        assert_eq!(c.now(), Timestamp::from_nanos(5_000));
    }

    #[test]
    fn clones_share_time() {
        let c = Clock::virtual_start();
        let c2 = c.clone();
        c.advance(Duration::from_nanos(42));
        assert_eq!(c2.now().as_nanos(), 42);
    }

    #[test]
    fn wall_clock_moves_on_its_own() {
        let c = Clock::wall();
        assert!(!c.is_virtual());
        let t0 = c.now();
        std::thread::sleep(Duration::from_millis(2));
        assert!(c.now() > t0);
        c.advance(Duration::from_secs(3600)); // no-op on wall clocks
        assert!(c.now().saturating_since(t0) < Duration::from_secs(60));
    }

    #[test]
    fn timestamp_arithmetic() {
        let a = Timestamp::from_nanos(1_000);
        let b = Timestamp::from_nanos(1_500);
        assert_eq!(b.saturating_since(a), Duration::from_nanos(500));
        assert_eq!(a.saturating_since(b), Duration::ZERO);
    }
}
