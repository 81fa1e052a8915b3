//! Counters and gauges for everything the serving front-end did.
//!
//! The server counts in `ServerCells`: one `dlr-obs` cell per
//! counter, gauge and histogram, owned by the server instance and
//! incremented once per event by the submitters and the dispatcher.
//! [`ServerStats`] is a view of those cells, built on request; it is the
//! server-level counterpart of [`dlr_core::serve::ServeStats`]: every
//! admission decision, batch, and terminal response outcome increments
//! exactly one counter, so the overload-path tests can assert the whole
//! block by equality. The cells are relaxed atomics, so a view is exact
//! for everything that happened-before it: the caller's own `submit`s,
//! every response the caller waited for, and — after
//! [`Server::shutdown`](crate::Server::shutdown) joined the dispatcher —
//! everything. After a drain, the books must balance:
//!
//! ```text
//! admitted == scored_primary + scored_fallback + expired + failed
//! submitted == admitted + rejected_full + shed + rejected_shutdown + malformed
//! ```
//!
//! Like `ServeStats`, equality compares counters and high-water gauges
//! only — the latency histogram is measurement noise by nature.

use dlr_core::serve::LatencyHistogram;
use dlr_obs::{Counter, Gauge, Histogram, MetricsRegistry};

/// Per-model-version slice of the server's accounting, maintained only
/// when the engine serves versioned models (a [`ModelRegistry`] engine).
/// Summed over versions, the scored counters equal the server-level ones:
///
/// ```text
/// Σ per_version[i].scored_primary == scored_primary
/// Σ per_version[i].scored_fallback == scored_fallback
/// ```
///
/// Equality compares counters only; the latency histogram is excluded,
/// like [`ServerStats`]'s.
///
/// [`ModelRegistry`]: crate::registry::ModelRegistry
#[derive(Debug, Clone, Default)]
pub struct VersionStats {
    /// The model version string this row accounts for.
    pub version: String,
    /// Micro-batches this version answered.
    pub batches: u64,
    /// Documents across those batches.
    pub docs: u64,
    /// Requests this version answered at full service.
    pub scored_primary: u64,
    /// Requests this version answered degraded (e.g. a canary rescue
    /// falling back to the incumbent).
    pub scored_fallback: u64,
    /// Admission→delivery latency of requests this version answered.
    pub latency: LatencyHistogram,
}

impl PartialEq for VersionStats {
    fn eq(&self, other: &Self) -> bool {
        self.version == other.version
            && self.batches == other.batches
            && self.docs == other.docs
            && self.scored_primary == other.scored_primary
            && self.scored_fallback == other.scored_fallback
    }
}

impl Eq for VersionStats {}

/// Counters for one server's lifetime: a point-in-time view of the
/// server's cells. See the module docs for the accounting identities.
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// Submission attempts, admitted or not.
    pub submitted: u64,
    /// Requests admitted into the queue (each owes exactly one response).
    pub admitted: u64,
    /// Submissions refused because the queue was full (Reject policy).
    pub rejected_full: u64,
    /// Submissions shed by admission control (predicted deadline miss).
    pub shed: u64,
    /// Submissions refused because the server was draining.
    pub rejected_shutdown: u64,
    /// Submissions refused for a malformed feature block.
    pub malformed: u64,
    /// Micro-batches executed (a batch of only expired requests still
    /// counts as formed but not executed).
    pub batches: u64,
    /// Documents across executed micro-batches.
    pub batched_docs: u64,
    /// Requests scored by the primary scorer.
    pub scored_primary: u64,
    /// Requests scored by the fallback (the engine degraded).
    pub scored_fallback: u64,
    /// Requests whose deadline expired in the queue (answered, unscored).
    pub expired: u64,
    /// Requests answered `Failed` because their batch panicked or its
    /// engine returned a typed error.
    pub failed: u64,
    /// Batch executions that panicked (isolated to their own requests).
    pub batch_panics: u64,
    /// High-water mark of queued requests.
    pub max_queue_depth: u64,
    /// High-water mark of queued documents.
    pub max_queued_docs: u64,
    /// Admission→delivery latency of every answered request.
    pub latency: LatencyHistogram,
    /// Queue-wait slice of the request latency (admission → batch take),
    /// recorded for every answered request including expired ones.
    pub queue_wait: LatencyHistogram,
    /// Batch-execute slice (batch take → delivery), recorded for every
    /// request that reached the engine.
    pub execute: LatencyHistogram,
    /// Per-model-version breakdown of the scored counters, in the order
    /// versions first answered traffic. Empty unless the engine serves
    /// versioned models.
    pub per_version: Vec<VersionStats>,
}

impl ServerStats {
    /// Requests scored by either scorer.
    pub fn scored(&self) -> u64 {
        self.scored_primary + self.scored_fallback
    }

    /// Responses delivered (scored, expired or failed).
    pub fn answered(&self) -> u64 {
        self.scored() + self.expired + self.failed
    }

    /// Submissions refused at the door (never admitted, no response).
    pub fn refused(&self) -> u64 {
        self.rejected_full + self.shed + self.rejected_shutdown + self.malformed
    }

    /// The stats row for `version`, if that version ever answered.
    pub fn version(&self, version: &str) -> Option<&VersionStats> {
        self.per_version.iter().find(|v| v.version == version)
    }
}

/// The row for `version`, created at the back on first sight.
pub(crate) fn version_mut<'a>(
    rows: &'a mut Vec<VersionStats>,
    version: &str,
) -> &'a mut VersionStats {
    let idx = match rows.iter().position(|v| v.version == version) {
        Some(i) => i,
        None => {
            rows.push(VersionStats {
                version: version.to_string(),
                ..VersionStats::default()
            });
            rows.len() - 1
        }
    };
    &mut rows[idx]
}

/// One server's cells, one per [`ServerStats`] counter, gauge and
/// histogram. Histograms are in whole microseconds.
#[derive(Default)]
pub(crate) struct ServerCells {
    pub(crate) submitted: Counter,
    pub(crate) admitted: Counter,
    pub(crate) rejected_full: Counter,
    pub(crate) shed: Counter,
    pub(crate) rejected_shutdown: Counter,
    pub(crate) malformed: Counter,
    pub(crate) batches: Counter,
    pub(crate) batched_docs: Counter,
    pub(crate) scored_primary: Counter,
    pub(crate) scored_fallback: Counter,
    pub(crate) expired: Counter,
    pub(crate) failed: Counter,
    pub(crate) batch_panics: Counter,
    pub(crate) max_queue_depth: Gauge,
    pub(crate) max_queued_docs: Gauge,
    pub(crate) latency_us: Histogram,
    pub(crate) queue_wait_us: Histogram,
    pub(crate) execute_us: Histogram,
}

impl ServerCells {
    /// Export every cell under its `serve_*` metric name.
    pub(crate) fn publish(&self, metrics: &MetricsRegistry) {
        for (name, cell) in [
            ("serve_submitted_total", &self.submitted),
            ("serve_admitted_total", &self.admitted),
            ("serve_rejected_full_total", &self.rejected_full),
            ("serve_shed_total", &self.shed),
            ("serve_rejected_shutdown_total", &self.rejected_shutdown),
            ("serve_malformed_total", &self.malformed),
            ("serve_batches_total", &self.batches),
            ("serve_batched_docs_total", &self.batched_docs),
            ("serve_scored_primary_total", &self.scored_primary),
            ("serve_scored_fallback_total", &self.scored_fallback),
            ("serve_expired_total", &self.expired),
            ("serve_failed_total", &self.failed),
            ("serve_batch_panics_total", &self.batch_panics),
        ] {
            metrics.publish_counter(name, cell);
        }
        metrics.publish_gauge("serve_queue_depth_max", &self.max_queue_depth);
        metrics.publish_gauge("serve_queued_docs_max", &self.max_queued_docs);
        metrics.publish_histogram("serve_latency_us", &self.latency_us);
        metrics.publish_histogram("serve_queue_wait_us", &self.queue_wait_us);
        metrics.publish_histogram("serve_execute_us", &self.execute_us);
    }

    /// Read the cells into a [`ServerStats`] carrying `per_version`.
    pub(crate) fn view(&self, per_version: Vec<VersionStats>) -> ServerStats {
        ServerStats {
            submitted: self.submitted.get(),
            admitted: self.admitted.get(),
            rejected_full: self.rejected_full.get(),
            shed: self.shed.get(),
            rejected_shutdown: self.rejected_shutdown.get(),
            malformed: self.malformed.get(),
            batches: self.batches.get(),
            batched_docs: self.batched_docs.get(),
            scored_primary: self.scored_primary.get(),
            scored_fallback: self.scored_fallback.get(),
            expired: self.expired.get(),
            failed: self.failed.get(),
            batch_panics: self.batch_panics.get(),
            max_queue_depth: self.max_queue_depth.get(),
            max_queued_docs: self.max_queued_docs.get(),
            latency: LatencyHistogram(self.latency_us.snapshot()),
            queue_wait: LatencyHistogram(self.queue_wait_us.snapshot()),
            execute: LatencyHistogram(self.execute_us.snapshot()),
            per_version,
        }
    }
}

impl PartialEq for ServerStats {
    fn eq(&self, other: &Self) -> bool {
        self.submitted == other.submitted
            && self.admitted == other.admitted
            && self.rejected_full == other.rejected_full
            && self.shed == other.shed
            && self.rejected_shutdown == other.rejected_shutdown
            && self.malformed == other.malformed
            && self.batches == other.batches
            && self.batched_docs == other.batched_docs
            && self.scored_primary == other.scored_primary
            && self.scored_fallback == other.scored_fallback
            && self.expired == other.expired
            && self.failed == other.failed
            && self.batch_panics == other.batch_panics
            && self.max_queue_depth == other.max_queue_depth
            && self.max_queued_docs == other.max_queued_docs
            && self.per_version == other.per_version
    }
}

impl Eq for ServerStats {}

impl std::fmt::Display for ServerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "submitted {} | admitted {} | rejected-full {} | shed {} | rejected-shutdown {} | malformed {}",
            self.submitted,
            self.admitted,
            self.rejected_full,
            self.shed,
            self.rejected_shutdown,
            self.malformed
        )?;
        writeln!(
            f,
            "batches {} ({} docs) | scored {} (primary {}, fallback {}) | expired {} | failed {} | batch panics {}",
            self.batches,
            self.batched_docs,
            self.scored(),
            self.scored_primary,
            self.scored_fallback,
            self.expired,
            self.failed,
            self.batch_panics
        )?;
        write!(
            f,
            "queue high-water: {} requests, {} docs",
            self.max_queue_depth, self.max_queued_docs
        )?;
        if let (Some(p50), Some(p99), Some(p999)) = (
            self.latency.p50_us(),
            self.latency.p99_us(),
            self.latency.p999_us(),
        ) {
            write!(
                f,
                "\nrequest latency us: p50 <= {p50} | p99 <= {p99} | p999 <= {p999} ({} answered)",
                self.latency.count()
            )?;
        }
        for (label, h) in [
            ("queue-wait", &self.queue_wait),
            ("batch-execute", &self.execute),
        ] {
            if let (Some(mean), Some(p50), Some(p99)) = (h.mean_us(), h.p50_us(), h.p99_us()) {
                write!(
                    f,
                    "\nstage {label} us: mean {mean:.1} | p50 <= {p50} | p99 <= {p99} ({} samples)",
                    h.count()
                )?;
            }
        }
        for v in &self.per_version {
            write!(
                f,
                "\nversion {}: {} batches ({} docs) | primary {} | fallback {}",
                v.version, v.batches, v.docs, v.scored_primary, v.scored_fallback
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn accounting_helpers_sum_their_parts() {
        let s = ServerStats {
            submitted: 10,
            admitted: 6,
            rejected_full: 2,
            shed: 1,
            malformed: 1,
            scored_primary: 3,
            scored_fallback: 1,
            expired: 1,
            failed: 1,
            ..ServerStats::default()
        };
        assert_eq!(s.scored(), 4);
        assert_eq!(s.answered(), 6);
        assert_eq!(s.refused(), 4);
        assert_eq!(s.submitted, s.admitted + s.refused());
        assert_eq!(s.admitted, s.answered());
    }

    #[test]
    fn equality_ignores_the_histogram() {
        let mut a = ServerStats {
            admitted: 3,
            ..ServerStats::default()
        };
        a.latency.record(Duration::from_micros(1));
        let b = ServerStats {
            admitted: 3,
            ..ServerStats::default()
        };
        assert_eq!(a, b);
        assert_eq!(a.latency.count(), 1);
    }

    #[test]
    fn per_version_rows_compare_exactly_but_ignore_latency() {
        let mut a = ServerStats::default();
        {
            let row = version_mut(&mut a.per_version, "v1");
            row.batches = 2;
            row.scored_primary = 5;
            row.latency.record(Duration::from_micros(3));
        }
        let mut b = ServerStats::default();
        {
            let row = version_mut(&mut b.per_version, "v1");
            row.batches = 2;
            row.scored_primary = 5;
        }
        assert_eq!(a, b);
        assert_eq!(a.version("v1").map(|v| v.scored_primary), Some(5));
        assert_eq!(a.version("v2"), None);
        // A diverging counter or an extra version row breaks equality.
        version_mut(&mut b.per_version, "v1").scored_fallback = 1;
        assert_ne!(a, b);
        version_mut(&mut b.per_version, "v1").scored_fallback = 0;
        version_mut(&mut b.per_version, "v2");
        assert_ne!(a, b);
    }

    #[test]
    fn display_covers_counters_gauges_and_percentiles() {
        let mut s = ServerStats {
            admitted: 1,
            scored_primary: 1,
            max_queue_depth: 4,
            ..ServerStats::default()
        };
        s.latency.record(Duration::from_micros(2));
        let text = s.to_string();
        assert!(text.contains("queue high-water: 4 requests"), "{text}");
        assert!(text.contains("p999"), "{text}");
        assert!(text.contains("batch panics 0"), "{text}");
    }
}
