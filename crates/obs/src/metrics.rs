//! Counters, gauges and log2 histograms: the cells every serving
//! component counts in, and the name space that exports them.
//!
//! A cell ([`Counter`], [`Gauge`], [`Histogram`]) is a cheap clonable
//! handle over relaxed atomics: no lock, no allocation, no name lookup
//! on the hot path. A component owns its cells (`Default` builds them
//! at zero) whether or not an [`crate::Obs`] is attached, and reads
//! them back into its stats struct on request, so each event is counted
//! once. Attaching an `Obs` *publishes* the cells under metric names in
//! its [`MetricsRegistry`]; several instances may publish one name, and
//! a snapshot exports the name's combination: the sum of counters, the
//! max of gauges, the merge of histograms. [`MetricsRegistry::counter`]
//! hands out one further *shared* counter per name, get-or-create, for
//! ad-hoc users with no instance to own it. The registry keeps
//! first-publication order (a `Vec`, not a hash map), so snapshots
//! enumerate deterministically.
//!
//! [`HistogramSnapshot`] is the owned value type behind every latency
//! histogram in the workspace (`dlr_core::serve::LatencyHistogram` adds
//! the microsecond unit to its names); [`Histogram`] is its concurrent
//! recorder.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Number of power-of-two buckets: bucket `b` holds values whose bit
/// length is `b` (bucket 0 is exactly 0; the last bucket absorbs the
/// open tail). Each bucket is at most 2× wide, so a reported percentile
/// is within 2× of the true sample.
pub const HISTOGRAM_BUCKETS: usize = 40;

fn bucket(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

fn bucket_upper_bound(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        (1u64 << b) - 1
    }
}

/// A monotonically increasing counter cell.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A high-water gauge cell.
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Raise the value to at least `v`.
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Shared storage of one log2 histogram.
struct HistogramCells {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    total: AtomicU64,
    sum: AtomicU64,
}

/// The concurrent recorder of a [`HistogramSnapshot`]; the unit is
/// whatever the owner's name says (`*_us` on the serving path).
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCells>);

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram(Arc::new(HistogramCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// Record one value.
    pub fn record(&self, value: u64) {
        let cells = &self.0;
        if let Some(b) = cells.buckets.get(bucket(value)) {
            b.fetch_add(1, Ordering::Relaxed);
        }
        cells.total.fetch_add(1, Ordering::Relaxed);
        cells.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.0.total.load(Ordering::Relaxed)
    }

    /// The recorded values as an owned histogram: exact once recording
    /// has quiesced, transiently short by in-flight records otherwise.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; HISTOGRAM_BUCKETS];
        for (c, b) in counts.iter_mut().zip(self.0.buckets.iter()) {
            *c = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            counts,
            total: self.0.total.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
        }
    }
}

/// A lossy log2 histogram: constant memory however many values it
/// absorbs. Recorded directly, or copied out of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (power-of-two layout).
    pub counts: [u64; HISTOGRAM_BUCKETS],
    /// Total recorded values.
    pub total: u64,
    /// Saturating sum of recorded values.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            counts: [0; HISTOGRAM_BUCKETS],
            total: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Record one value. Counts saturate instead of wrapping, so a
    /// histogram that has absorbed `u64::MAX` samples stays a valid (if
    /// pinned) summary.
    pub fn record(&mut self, value: u64) {
        if let Some(c) = self.counts.get_mut(bucket(value)) {
            *c = c.saturating_add(1);
        }
        self.total = self.total.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
    }

    /// Fold `other`'s samples into this histogram. Buckets align
    /// exactly, so merging histograms recorded separately yields the
    /// same counts as recording every sample into one; cells saturate
    /// like [`record`](Self::record).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.total = self.total.saturating_add(other.total);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Upper bound of the bucket holding the `p`-quantile sample, or
    /// `None` when empty. When `total` exceeds the per-bucket sum (a
    /// saturated histogram, or a snapshot taken mid-record) the rank
    /// walks off the end and the last non-empty bucket's bound is
    /// returned: a conservative tail estimate, never a spurious `None`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        let mut last_nonempty = None;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                last_nonempty = Some(b);
            }
            seen = seen.saturating_add(c);
            if seen >= rank {
                return Some(bucket_upper_bound(b));
            }
        }
        last_nonempty.map(bucket_upper_bound)
    }

    /// Mean recorded value, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            None
        } else {
            Some(self.sum as f64 / self.total as f64)
        }
    }
}

enum Cell {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// One cell under one name, in publication order.
struct Entry {
    name: String,
    cell: Cell,
    /// The counter [`MetricsRegistry::counter`] hands out by name,
    /// rather than a cell owned by the instance that published it.
    shared: bool,
}

/// The per-[`crate::Obs`] metric name space.
#[derive(Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

fn lock_entries(registry: &MetricsRegistry) -> MutexGuard<'_, Vec<Entry>> {
    // Registration only pushes fully-built entries; recover from poison.
    registry
        .entries
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Add `value` to the row named `name`, combining with `combine` when
/// another cell already exported under that name.
fn fold<T>(rows: &mut Vec<(String, T)>, name: &str, value: T, combine: impl FnOnce(&mut T, T)) {
    match rows.iter_mut().find(|(n, _)| n == name) {
        Some((_, have)) => combine(have, value),
        None => rows.push((name.to_string(), value)),
    }
}

impl MetricsRegistry {
    /// The shared counter named `name`, creating it on first sight.
    pub fn counter(&self, name: &str) -> Counter {
        let mut entries = lock_entries(self);
        for e in entries.iter().filter(|e| e.shared && e.name == name) {
            if let Cell::Counter(c) = &e.cell {
                return c.clone();
            }
        }
        let cell = Counter::default();
        entries.push(Entry {
            name: name.to_string(),
            cell: Cell::Counter(cell.clone()),
            shared: true,
        });
        cell
    }

    fn publish(&self, name: &str, cell: Cell) {
        lock_entries(self).push(Entry {
            name: name.to_string(),
            cell,
            shared: false,
        });
    }

    /// Export an instance-owned counter under `name`; the name exports
    /// the sum of every counter published under it, plus the shared
    /// one.
    pub fn publish_counter(&self, name: &str, cell: &Counter) {
        self.publish(name, Cell::Counter(cell.clone()));
    }

    /// Export an instance-owned gauge under `name`; the name exports
    /// the max of every gauge published under it.
    pub fn publish_gauge(&self, name: &str, cell: &Gauge) {
        self.publish(name, Cell::Gauge(cell.clone()));
    }

    /// Export an instance-owned histogram under `name`; the name
    /// exports the merge of every histogram published under it.
    pub fn publish_histogram(&self, name: &str, cell: &Histogram) {
        self.publish(name, Cell::Histogram(cell.clone()));
    }

    /// Every name's current exported value, in first-publication order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = lock_entries(self);
        let mut snap = MetricsSnapshot::default();
        for e in entries.iter() {
            match &e.cell {
                Cell::Counter(c) => fold(&mut snap.counters, &e.name, c.get(), |a, b| {
                    *a = a.saturating_add(b);
                }),
                Cell::Gauge(g) => fold(&mut snap.gauges, &e.name, g.get(), |a, b| *a = (*a).max(b)),
                Cell::Histogram(h) => {
                    fold(&mut snap.histograms, &e.name, h.snapshot(), |a, b| {
                        a.merge(&b);
                    });
                }
            }
        }
        snap
    }
}

/// Point-in-time exported value of every metric name.
#[derive(Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for each counter, in first-publication order.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for each gauge, in first-publication order.
    pub gauges: Vec<(String, u64)>,
    /// `(name, histogram)` for each histogram, in first-publication
    /// order.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn recorded(values: &[u64]) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::default();
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn shared_cells_are_get_or_create_by_name() {
        let reg = MetricsRegistry::default();
        let a = reg.counter("x_total");
        let b = reg.counter("x_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(reg.snapshot().counters, vec![("x_total".to_string(), 3)]);
    }

    #[test]
    fn gauge_keeps_the_high_water_mark() {
        let g = Gauge::default();
        g.record_max(5);
        g.record_max(3);
        assert_eq!(g.get(), 5);
        g.record_max(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn published_cells_stay_per_instance_and_export_combined() {
        let reg = MetricsRegistry::default();
        let (c1, c2) = (Counter::default(), Counter::default());
        let (g1, g2) = (Gauge::default(), Gauge::default());
        let (h1, h2) = (Histogram::default(), Histogram::default());
        for (c, g, h) in [(&c1, &g1, &h1), (&c2, &g2, &h2)] {
            reg.publish_counter("n_total", c);
            reg.publish_gauge("depth_max", g);
            reg.publish_histogram("lat_us", h);
        }
        c1.add(3);
        c2.add(4);
        g1.record_max(7);
        g2.record_max(5);
        h1.record(10);
        h2.record(1000);
        // The shared cell of a published name is a third cell: it adds
        // to the export and never aliases an instance's own count.
        reg.counter("n_total").inc();
        assert_eq!((c1.get(), c2.get()), (3, 4));

        let snap = reg.snapshot();
        assert_eq!(snap.counters, vec![("n_total".to_string(), 8)]);
        assert_eq!(snap.gauges, vec![("depth_max".to_string(), 7)]);
        assert_eq!(
            snap.histograms,
            vec![("lat_us".to_string(), recorded(&[10, 1000]))]
        );
    }

    #[test]
    fn snapshot_keeps_first_publication_order() {
        let reg = MetricsRegistry::default();
        reg.counter("b_total");
        reg.counter("a_total");
        reg.publish_counter("b_total", &Counter::default());
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["b_total", "a_total"]);
    }

    #[test]
    fn percentiles_are_bucket_upper_bounds() {
        assert_eq!(HistogramSnapshot::default().percentile(0.999), None);
        assert_eq!(HistogramSnapshot::default().mean(), None);
        // 90 fast samples at 10, 10 slow ones at 1000: bounds 15 and 1023.
        let mut values = vec![10u64; 90];
        values.extend([1000u64; 10]);
        let h = recorded(&values);
        assert_eq!(h.total, 100);
        assert_eq!(h.percentile(0.5), Some(15));
        assert_eq!(h.percentile(0.95), Some(1023));
        assert_eq!(h.percentile(0.99), Some(1023));
        assert_eq!(h.percentile(0.999), Some(1023));
        assert_eq!(h.mean(), Some(109.0));
        // One sample pins every quantile to its own bucket bound, and a
        // zero lives in bucket 0 with bound exactly 0.
        let one = recorded(&[10]);
        for p in [0.5, 0.95, 0.99, 0.999] {
            assert_eq!(one.percentile(p), Some(15));
        }
        assert_eq!(one.mean(), Some(10.0));
        assert_eq!(recorded(&[0]).percentile(0.999), Some(0));
    }

    #[test]
    fn merge_matches_recording_into_one() {
        let mut a = recorded(&[3, 10, 100, 1000]);
        a.merge(&recorded(&[5, 50, 5000]));
        assert_eq!(a, recorded(&[3, 10, 100, 1000, 5, 50, 5000]));
        // Merging an empty histogram changes nothing; an empty one
        // absorbing a populated one equals it; empty into empty stays
        // empty.
        let before = a.clone();
        a.merge(&HistogramSnapshot::default());
        assert_eq!(a, before);
        let mut absorbed = HistogramSnapshot::default();
        absorbed.merge(&a);
        assert_eq!(absorbed, a);
        let mut empty = HistogramSnapshot::default();
        empty.merge(&HistogramSnapshot::default());
        assert_eq!(empty, HistogramSnapshot::default());
        assert_eq!(empty.percentile(0.999), None);
    }

    #[test]
    fn saturated_counts_stay_sane_instead_of_wrapping() {
        let mut h = recorded(&[10, 1000]);
        // Self-merge doubles every cell; 63 rounds saturate the total at
        // u64::MAX while the per-bucket counts are still exact.
        for _ in 0..63 {
            let copy = h.clone();
            h.merge(&copy);
        }
        assert_eq!((h.total, h.sum), (u64::MAX, u64::MAX));
        assert_eq!(h.percentile(0.5), Some(15));
        assert_eq!(h.percentile(0.999), Some(1023));
        assert!(h.mean().is_some());
        // One more round saturates the buckets themselves; mass pins to
        // the lowest saturated bucket, not a wrap or a None.
        let copy = h.clone();
        h.merge(&copy);
        assert_eq!(h.total, u64::MAX);
        assert_eq!(h.percentile(0.5), Some(15));
        assert!(h.percentile(0.999).is_some());
    }

    proptest! {
        #[test]
        fn recorder_snapshot_equals_sequential_recording(
            small in proptest::collection::vec(0u64..5_000, 0..200),
            wide in proptest::collection::vec(0u64..(1u64 << 50), 0..20),
        ) {
            let recorder = Histogram::default();
            for &v in small.iter().chain(&wide) {
                recorder.record(v);
            }
            let values: Vec<u64> = small.iter().chain(&wide).copied().collect();
            prop_assert_eq!(recorder.count(), values.len() as u64);
            prop_assert_eq!(recorder.snapshot(), recorded(&values));
        }
    }
}
