//! The serving stack's one clock, and the only file in `dlr-obs` or
//! `dlr-serve` that reads ambient time.
//!
//! Queue, batcher, dispatcher, registry, spans and drift samples all work
//! in *server nanos*: a `u64` read from an injected [`NanoClock`] whose
//! zero is the clock's construction. Monotonic in production, manual in
//! tests, so hand-fed timestamps drive the queueing logic and recorded
//! traces are bit-reproducible. Every other module of both crates is
//! inside the repository's determinism lint fence.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond source. Values are only ordered and
/// subtracted, so any non-decreasing `u64` works.
pub trait NanoClock: Send + Sync {
    /// Nanoseconds since this clock's epoch. Must never decrease.
    fn now_nanos(&self) -> u64;
}

/// The production clock: nanoseconds since construction, via [`Instant`].
#[derive(Debug)]
pub struct MonotonicClock {
    epoch: Instant,
}

impl Default for MonotonicClock {
    fn default() -> MonotonicClock {
        MonotonicClock {
            epoch: Instant::now(),
        }
    }
}

impl NanoClock for MonotonicClock {
    fn now_nanos(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A hand-advanced clock for deterministic tests.
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    /// A manual clock starting at `nanos`.
    pub fn at(nanos: u64) -> ManualClock {
        ManualClock {
            nanos: AtomicU64::new(nanos),
        }
    }

    /// Advance the clock by `nanos`.
    pub fn advance(&self, nanos: u64) {
        self.nanos.fetch_add(nanos, Ordering::SeqCst);
    }
}

impl NanoClock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_never_decreases() {
        let c = MonotonicClock::default();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_advances_by_hand() {
        let c = ManualClock::at(5);
        assert_eq!(c.now_nanos(), 5);
        c.advance(10);
        assert_eq!(c.now_nanos(), 15);
    }
}
