//! `dlr-obs` — the serving stack's observability plane.
//!
//! One [`Obs`] instance bundles the three recording surfaces and the
//! clock they share:
//!
//! * a [`TraceSink`] of per-stage [`Span`]s (fixed capacity,
//!   overwrite-oldest, sharded by trace id),
//! * a [`MetricsRegistry`] exporting the counter / gauge / log2
//!   histogram cells that serving components own and publish,
//! * a [`DriftTracker`] comparing forecast batch latency (the paper's
//!   Eq. 3/5 cost model) against measured latency.
//!
//! Time is injected: spans carry *server nanos* from the [`NanoClock`]
//! the whole serving stack runs on ([`MonotonicClock`] in production,
//! [`ManualClock`] in tests), so whole traces are bit-reproducible
//! under a deterministic clock. The crate has no dependencies, and the
//! recording paths never allocate, panic, or touch ambient time.
//!
//! Consumers: [`Obs::snapshot_prometheus`] / [`Obs::snapshot_json`] for
//! scraping or shutdown dumps, and [`Obs::trace_dump`] for per-request
//! waterfalls of the slowest traces.

#![forbid(unsafe_code)]

pub mod clock;
pub mod drift;
pub mod export;
pub mod metrics;
pub mod sink;
mod sync;

pub use clock::{ManualClock, MonotonicClock, NanoClock};
pub use drift::{DriftSummary, DriftTracker};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry};
pub use sink::{Span, Stage, TraceSink};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sizing knobs for one [`Obs`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Trace-sink shards (each an independent mutex + ring).
    pub shards: usize,
    /// Span slots per shard; the sink holds `shards × spans_per_shard`
    /// spans before overwrite-oldest kicks in.
    pub spans_per_shard: usize,
    /// Rolling predictor-drift window, in `(predicted, actual)` pairs.
    pub drift_window: usize,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig {
            shards: 8,
            spans_per_shard: 1024,
            drift_window: 1024,
        }
    }
}

/// The assembled observability plane. Cheap to share (`Arc<Obs>`); all
/// recording methods take `&self`.
pub struct Obs {
    clock: Arc<dyn NanoClock>,
    sink: TraceSink,
    metrics: MetricsRegistry,
    drift: DriftTracker,
    /// Trace id the dispatcher is currently executing, so kernel scope
    /// guards deep in `dlr-core` can attribute their spans without
    /// threading ids through every call signature. One dispatcher owns
    /// one engine, so a single cell suffices per server; id 0 means
    /// "unattributed".
    current_trace: AtomicU64,
}

impl Obs {
    /// An observability plane with default sizing over `clock`.
    pub fn new(clock: Arc<dyn NanoClock>) -> Obs {
        Obs::with_config(clock, ObsConfig::default())
    }

    /// An observability plane with explicit sizing over `clock`.
    pub fn with_config(clock: Arc<dyn NanoClock>, config: ObsConfig) -> Obs {
        Obs {
            clock,
            sink: TraceSink::new(config.shards, config.spans_per_shard),
            metrics: MetricsRegistry::default(),
            drift: DriftTracker::new(config.drift_window),
            current_trace: AtomicU64::new(0),
        }
    }

    /// Current server nanos from the injected clock.
    pub fn now_nanos(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// The span storage.
    pub fn sink(&self) -> &TraceSink {
        &self.sink
    }

    /// The metric name space.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The predictor-drift tracker.
    pub fn drift(&self) -> &DriftTracker {
        &self.drift
    }

    /// Shared counter by name (see [`MetricsRegistry::counter`]).
    pub fn counter(&self, name: &str) -> Counter {
        self.metrics.counter(name)
    }

    /// Record one span with caller-supplied server nanos.
    pub fn record_span(
        &self,
        id: u64,
        stage: Stage,
        version: Option<Arc<str>>,
        start_nanos: u64,
        end_nanos: u64,
    ) {
        self.sink.record(Span {
            id,
            stage,
            version,
            start_nanos,
            end_nanos,
        });
    }

    /// Record one `(predicted, actual)` latency pair in nanos.
    pub fn record_drift(&self, predicted_nanos: u64, actual_nanos: u64) {
        self.drift.record(predicted_nanos, actual_nanos);
    }

    /// Attribute subsequent [`scope`](Self::scope) spans to trace `id`.
    pub fn set_current_trace(&self, id: u64) {
        self.current_trace.store(id, Ordering::Relaxed);
    }

    /// The trace id kernel scope guards currently attribute to.
    pub fn current_trace(&self) -> u64 {
        self.current_trace.load(Ordering::Relaxed)
    }

    /// A scope guard that records a span of `stage` — attributed to the
    /// current trace — from now until drop. This is the kernel hook:
    /// two atomic loads and one clock read on entry, one clock read and
    /// one sink write on drop.
    pub fn scope(&self, stage: Stage) -> ScopeGuard<'_> {
        ScopeGuard {
            obs: self,
            stage,
            id: self.current_trace(),
            start_nanos: self.now_nanos(),
        }
    }

    /// Every resident span (allocation happens here, not at record
    /// time).
    pub fn spans(&self) -> Vec<Span> {
        self.sink.spans()
    }

    /// Prometheus-style text snapshot (see [`export::prometheus_text`]).
    pub fn snapshot_prometheus(&self) -> String {
        export::prometheus_text(self)
    }

    /// Machine JSON snapshot (see [`export::json_text`]).
    pub fn snapshot_json(&self) -> String {
        export::json_text(self)
    }

    /// Waterfalls of the `n` slowest resident traces (see
    /// [`export::trace_dump`]).
    pub fn trace_dump(&self, n: usize) -> String {
        export::trace_dump(self, n)
    }

    /// Whether `spans_opened == spans_resident + spans_dropped` — the
    /// sink's conservation law, assertable at any quiescent point.
    pub fn books_balance(&self) -> bool {
        self.sink.spans_opened() == self.sink.spans_resident() + self.sink.spans_dropped()
    }
}

/// Records one span of `stage` over its own lifetime. See
/// [`Obs::scope`].
pub struct ScopeGuard<'a> {
    obs: &'a Obs,
    stage: Stage,
    id: u64,
    start_nanos: u64,
}

impl Drop for ScopeGuard<'_> {
    fn drop(&mut self) {
        let end = self.obs.now_nanos();
        self.obs
            .record_span(self.id, self.stage, None, self.start_nanos, end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_guard_attributes_to_the_current_trace() {
        let clock = Arc::new(ManualClock::at(100));
        let obs = Obs::new(Arc::clone(&clock) as Arc<dyn NanoClock>);
        obs.set_current_trace(42);
        {
            let _g = obs.scope(Stage::KernelGemm);
            clock.advance(75);
        }
        let spans = obs.spans();
        assert_eq!(
            spans,
            vec![Span {
                id: 42,
                stage: Stage::KernelGemm,
                version: None,
                start_nanos: 100,
                end_nanos: 175,
            }]
        );
        assert!(obs.books_balance());
    }

    #[test]
    fn handles_share_cells_across_clones() {
        let obs = Obs::new(Arc::new(ManualClock::default()));
        let c = obs.counter("x_total");
        obs.counter("x_total").add(2);
        c.inc();
        assert_eq!(obs.counter("x_total").get(), 3);
    }

    #[test]
    fn books_balance_across_ring_wrap() {
        let obs = Obs::with_config(
            Arc::new(ManualClock::default()),
            ObsConfig {
                shards: 1,
                spans_per_shard: 4,
                drift_window: 4,
            },
        );
        for i in 0..10 {
            obs.record_span(i, Stage::Dispatch, None, i, i + 1);
        }
        assert_eq!(obs.sink().spans_opened(), 10);
        assert_eq!(obs.sink().spans_dropped(), 6);
        assert!(obs.books_balance());
    }
}
