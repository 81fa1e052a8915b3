//! Fault-tolerant serving around any [`DocumentScorer`].
//!
//! The paper's architecture exists to keep neural rankers inside a strict
//! per-query latency budget; this module keeps the *service* inside it
//! when reality misbehaves. [`RobustScorer`] wraps an expensive primary
//! scorer and a cheap fallback (typically a QuickScorer forest) and
//! guarantees that every batch returns a complete, finite score vector:
//!
//! * **Input sanitation** — rows are validated for width and scanned for
//!   NaN/Inf features. [`SanitizePolicy::Reject`] turns bad batches into a
//!   typed [`ScoreError`]; [`SanitizePolicy::Clamp`] repairs them in a
//!   scratch copy and keeps serving.
//! * **Deadline-aware degradation** — each primary batch is timed against
//!   a [`DeadlinePolicy`]. After `trip_after` consecutive misses the
//!   scorer degrades to the fallback, then periodically *probes* the
//!   primary and only restores it after `recover_after` consecutive
//!   on-time probes (hysteresis, so a flapping primary cannot thrash the
//!   service). A [`LatencyForecaster`] — e.g. the `dlr-predictor` budget
//!   forecast — can veto the primary *before* it runs.
//! * **Panic isolation** — the primary runs under
//!   [`std::panic::catch_unwind`]; a poisoned query costs one fallback
//!   rescore, not the process.
//! * **Output sanitation** — the output buffer is pre-filled with a NaN
//!   sentinel, so short writes and NaN scores are both detected and
//!   repaired by a fallback rescore.
//!
//! Every event increments one `dlr-obs` counter cell owned by the scorer;
//! [`RobustScorer::stats`] reads the cells into a [`ServeStats`], which the
//! `reranking_service` example prints and the fault-injection integration
//! suite asserts against exactly, and [`RobustScorer::with_obs`] publishes
//! the same cells as `robust_*` metrics.

use crate::scoring::DocumentScorer;
use dlr_obs::{Counter, Histogram};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Typed failure modes of robust scoring.
#[derive(Debug, Clone, PartialEq)]
pub enum ScoreError {
    /// `rows.len()` is not `out.len() × num_features`.
    BatchShape {
        /// Features per document the scorer expects.
        num_features: usize,
        /// Length of the feature slice received.
        rows_len: usize,
        /// Length of the output slice received.
        out_len: usize,
    },
    /// The batch contains no documents.
    EmptyBatch,
    /// A non-finite feature under [`SanitizePolicy::Reject`].
    NonFinite {
        /// Document index within the batch.
        doc: usize,
        /// 0-based feature index within the document.
        feature: usize,
    },
    /// Two scorers that must share a feature space do not.
    FeatureSpaceMismatch {
        /// Feature count of the first (primary / stage-1) scorer.
        first: usize,
        /// Feature count of the second (fallback / stage-2) scorer.
        second: usize,
    },
}

impl std::fmt::Display for ScoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScoreError::BatchShape {
                num_features,
                rows_len,
                out_len,
            } => write!(
                f,
                "batch shape mismatch: {rows_len} feature values cannot be \
                 {out_len} documents x {num_features} features"
            ),
            ScoreError::EmptyBatch => write!(f, "batch contains no documents"),
            ScoreError::NonFinite { doc, feature } => {
                write!(f, "non-finite feature {feature} in document {doc}")
            }
            ScoreError::FeatureSpaceMismatch { first, second } => {
                write!(f, "scorers disagree on feature count: {first} vs {second}")
            }
        }
    }
}

impl std::error::Error for ScoreError {}

/// Which scorer produced the batch's final output.
///
/// Returned by [`RobustScorer::try_score_batch_deadline`] so a serving
/// front-end can account degradation per batch: [`ServedBy::Fallback`]
/// covers every path where the fallback's scores were delivered —
/// deadline degradation, a forecaster veto, a primary panic, or an
/// output rescue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// The primary scorer's output was delivered.
    Primary,
    /// The fallback scorer's output was delivered.
    Fallback,
}

/// What to do with NaN/Inf feature values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SanitizePolicy {
    /// Return [`ScoreError::NonFinite`] for the whole batch.
    Reject,
    /// Repair in a scratch copy: NaN becomes `0.0`, ±Inf becomes
    /// `±max_abs`, and finite values keep their sign but are clamped into
    /// `[-max_abs, max_abs]`.
    Clamp {
        /// Largest magnitude allowed through to the wrapped scorers.
        max_abs: f32,
    },
}

impl SanitizePolicy {
    /// Clamp policy with a magnitude cap generous enough for any real
    /// LETOR feature while still killing Inf.
    pub fn clamp() -> SanitizePolicy {
        SanitizePolicy::Clamp { max_abs: 1e30 }
    }
}

/// Per-batch deadline and the hysteresis around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlinePolicy {
    /// Wall-clock budget for one primary batch.
    pub deadline: Duration,
    /// Consecutive primary misses before degrading to the fallback.
    pub trip_after: u32,
    /// Fallback batches served between probes of the primary.
    pub probe_after: u32,
    /// Consecutive on-time probes before the primary is restored.
    pub recover_after: u32,
}

impl DeadlinePolicy {
    /// A policy with the given budget and the default hysteresis
    /// (trip after 2 consecutive misses, probe every 8 fallback batches,
    /// recover after 2 consecutive on-time probes).
    pub fn with_deadline(deadline: Duration) -> DeadlinePolicy {
        DeadlinePolicy {
            deadline,
            trip_after: 2,
            probe_after: 8,
            recover_after: 2,
        }
    }
}

/// The serve-time cost model: how long scoring a batch is expected to
/// take, asked *before* the batch runs.
///
/// `dlr-predictor`'s `BudgetForecast` implements this from the paper's
/// Equation 3 dense-time model, closing the loop between the *design-time*
/// predictor and *serve-time* decisions. Three of those are taken from it:
///
/// * [`RobustScorer`] routes a batch to the fallback when the forecast
///   for it exceeds the deadline budget;
/// * `dlr-serve` sheds a deadlined request at admission when the
///   forecast for everything queued plus the request exceeds its budget;
/// * `dlr-serve`'s dispatcher, idle with `d` documents queued and `room`
///   left in the batch, waits for company at most `forecast(d) +
///   forecast(room) − forecast(d + room)` — the service time one batch
///   instead of two would save (`BatchConfig::flush_deadline_nanos`). A
///   forecast linear in `num_docs`, as Eq. 3 is, saves nothing and the
///   dispatcher never waits; one with a fixed per-batch term waits at
///   most that term. No forecast predicts no saving either: a
///   dispatcher without one never waits.
///
/// The contract those callers rely on: `forecast` is a pure, cheap
/// function of `num_docs` that never panics — it runs under the
/// admission-queue lock and on the dispatcher thread, for any count from
/// zero up. `None` abstains, and every caller then behaves as if it held
/// no forecaster: no veto, no shed, no wait. Any `Duration` is a legal
/// answer, `Duration::MAX` included; callers saturate, and the
/// dispatcher reads a forecast past `u64` nanoseconds as an abstention.
pub trait LatencyForecaster {
    /// Expected wall-clock time to score `num_docs` documents, or `None`
    /// when no estimate is available.
    fn forecast(&self, num_docs: usize) -> Option<Duration>;
}

impl<F: Fn(usize) -> Option<Duration>> LatencyForecaster for F {
    fn forecast(&self, num_docs: usize) -> Option<Duration> {
        self(num_docs)
    }
}

/// A latency histogram in whole microseconds: [`dlr_obs::HistogramSnapshot`]
/// (40 power-of-two buckets, so a reported percentile is a bucket upper
/// bound within 2× of the true sample) with the unit in its names.
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram(pub dlr_obs::HistogramSnapshot);

impl LatencyHistogram {
    /// Record one latency, truncated to whole µs.
    pub fn record(&mut self, latency: Duration) {
        self.0.record(micros(latency));
    }

    /// Latencies recorded so far.
    pub fn count(&self) -> u64 {
        self.0.total
    }

    /// Mean recorded latency in µs, or `None` when nothing was recorded.
    pub fn mean_us(&self) -> Option<f64> {
        self.0.mean()
    }

    /// Fold `other`'s samples into this histogram (see
    /// [`dlr_obs::HistogramSnapshot::merge`]).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.0.merge(&other.0);
    }

    /// Median latency in µs, as its bucket's upper bound.
    pub fn p50_us(&self) -> Option<u64> {
        self.0.percentile(0.50)
    }

    /// 95th-percentile latency in µs.
    pub fn p95_us(&self) -> Option<u64> {
        self.0.percentile(0.95)
    }

    /// 99th-percentile latency in µs.
    pub fn p99_us(&self) -> Option<u64> {
        self.0.percentile(0.99)
    }

    /// 99.9th-percentile latency in µs — the tail a serving layer's SLO
    /// actually bounds.
    pub fn p999_us(&self) -> Option<u64> {
        self.0.percentile(0.999)
    }
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Counters for everything the robust layer did: a point-in-time view
/// of the scorer's cells, built by [`RobustScorer::stats`].
///
/// Equality compares the event counters only — the [`latency`]
/// histogram is measurement noise by nature, so two stat blocks with the
/// same counters compare equal regardless of recorded timings (the
/// fault-injection suite relies on exact counter equality).
///
/// [`latency`]: ServeStats::latency
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Batches submitted (including rejected ones).
    pub batches: u64,
    /// Batches served by the primary scorer (incl. probes).
    pub primary_batches: u64,
    /// Batches served by the fallback scorer for any reason.
    pub fallback_batches: u64,
    /// Primary runs that exceeded the deadline.
    pub deadline_misses: u64,
    /// Batches routed to the fallback because the forecaster predicted a
    /// miss before the primary ran.
    pub forecast_degrades: u64,
    /// Primary → degraded transitions.
    pub fallback_activations: u64,
    /// Degraded → primary transitions.
    pub recoveries: u64,
    /// Primary probe runs while degraded.
    pub probes: u64,
    /// Documents whose features were repaired under the clamp policy.
    pub sanitized_rows: u64,
    /// Batches rejected with a [`ScoreError`].
    pub rejected_batches: u64,
    /// Panics caught from a wrapped scorer.
    pub panics_caught: u64,
    /// Batches whose primary output was incomplete or non-finite and was
    /// replaced by a fallback rescore (NaN scores, short writes).
    pub rescued_outputs: u64,
    /// Wall-clock latency of every served (non-rejected) batch.
    pub latency: LatencyHistogram,
}

impl PartialEq for ServeStats {
    fn eq(&self, other: &Self) -> bool {
        self.batches == other.batches
            && self.primary_batches == other.primary_batches
            && self.fallback_batches == other.fallback_batches
            && self.deadline_misses == other.deadline_misses
            && self.forecast_degrades == other.forecast_degrades
            && self.fallback_activations == other.fallback_activations
            && self.recoveries == other.recoveries
            && self.probes == other.probes
            && self.sanitized_rows == other.sanitized_rows
            && self.rejected_batches == other.rejected_batches
            && self.panics_caught == other.panics_caught
            && self.rescued_outputs == other.rescued_outputs
    }
}

impl Eq for ServeStats {}

impl std::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "batches {} (primary {}, fallback {})",
            self.batches, self.primary_batches, self.fallback_batches
        )?;
        writeln!(
            f,
            "deadline misses {} | forecast degrades {} | activations {} | recoveries {} | probes {}",
            self.deadline_misses,
            self.forecast_degrades,
            self.fallback_activations,
            self.recoveries,
            self.probes
        )?;
        write!(
            f,
            "sanitized rows {} | rejected batches {} | panics caught {} | rescued outputs {}",
            self.sanitized_rows, self.rejected_batches, self.panics_caught, self.rescued_outputs
        )?;
        if let (Some(p50), Some(p95), Some(p99), Some(p999)) = (
            self.latency.p50_us(),
            self.latency.p95_us(),
            self.latency.p99_us(),
            self.latency.p999_us(),
        ) {
            write!(
                f,
                "\nbatch latency us: p50 <= {p50} | p95 <= {p95} | p99 <= {p99} | p999 <= {p999} ({} batches)",
                self.latency.count()
            )?;
        }
        Ok(())
    }
}

/// Degradation state machine (see module docs for the transitions).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Serving the primary scorer.
    Primary {
        /// Deadline misses in a row so far.
        consecutive_misses: u32,
    },
    /// Serving the fallback, periodically probing the primary.
    Degraded {
        /// Fallback batches remaining before the next probe.
        batches_until_probe: u32,
        /// On-time probes in a row so far.
        probe_successes: u32,
    },
}

/// The scorer's counters, one cell per [`ServeStats`] field. Events
/// increment these and nothing else.
#[derive(Default)]
struct RobustCells {
    batches: Counter,
    primary_batches: Counter,
    fallback_batches: Counter,
    deadline_misses: Counter,
    forecast_degrades: Counter,
    fallback_activations: Counter,
    recoveries: Counter,
    probes: Counter,
    sanitized_rows: Counter,
    rejected_batches: Counter,
    panics_caught: Counter,
    rescued_outputs: Counter,
    latency_us: Histogram,
}

impl RobustCells {
    fn publish(&self, metrics: &dlr_obs::MetricsRegistry) {
        for (name, cell) in [
            ("robust_batches_total", &self.batches),
            ("robust_primary_batches_total", &self.primary_batches),
            ("robust_fallback_batches_total", &self.fallback_batches),
            ("robust_deadline_misses_total", &self.deadline_misses),
            ("robust_forecast_degrades_total", &self.forecast_degrades),
            (
                "robust_fallback_activations_total",
                &self.fallback_activations,
            ),
            ("robust_recoveries_total", &self.recoveries),
            ("robust_probes_total", &self.probes),
            ("robust_sanitized_rows_total", &self.sanitized_rows),
            ("robust_rejected_batches_total", &self.rejected_batches),
            ("robust_panics_caught_total", &self.panics_caught),
            ("robust_rescued_outputs_total", &self.rescued_outputs),
        ] {
            metrics.publish_counter(name, cell);
        }
        metrics.publish_histogram("robust_latency_us", &self.latency_us);
    }

    fn view(&self) -> ServeStats {
        ServeStats {
            batches: self.batches.get(),
            primary_batches: self.primary_batches.get(),
            fallback_batches: self.fallback_batches.get(),
            deadline_misses: self.deadline_misses.get(),
            forecast_degrades: self.forecast_degrades.get(),
            fallback_activations: self.fallback_activations.get(),
            recoveries: self.recoveries.get(),
            probes: self.probes.get(),
            sanitized_rows: self.sanitized_rows.get(),
            rejected_batches: self.rejected_batches.get(),
            panics_caught: self.panics_caught.get(),
            rescued_outputs: self.rescued_outputs.get(),
            latency: LatencyHistogram(self.latency_us.snapshot()),
        }
    }
}

/// A serving wrapper that never panics, never blows the budget twice in a
/// row, and never returns a non-finite score. See the module docs.
pub struct RobustScorer<P, F> {
    /// The expensive scorer (e.g. the distilled network).
    pub primary: P,
    /// The cheap always-available scorer (e.g. a QuickScorer forest).
    pub fallback: F,
    policy: SanitizePolicy,
    deadline: Option<DeadlinePolicy>,
    forecaster: Option<Box<dyn LatencyForecaster + Send>>,
    mode: Mode,
    cells: RobustCells,
    label: String,
    clean_rows: Vec<f32>,
    /// Where `degrade`/`rescue` event spans and drift pairs go.
    obs: Option<Arc<dlr_obs::Obs>>,
}

impl<P: DocumentScorer, F: DocumentScorer> RobustScorer<P, F> {
    /// Wrap a primary and fallback scorer sharing a feature space.
    ///
    /// Defaults: clamp sanitation, no deadline, no forecaster. Configure
    /// with [`with_sanitize`](Self::with_sanitize),
    /// [`with_deadline`](Self::with_deadline) and
    /// [`with_forecaster`](Self::with_forecaster).
    ///
    /// # Errors
    /// [`ScoreError::FeatureSpaceMismatch`] when the scorers disagree on
    /// feature count.
    pub fn try_new(primary: P, fallback: F, label: impl Into<String>) -> Result<Self, ScoreError> {
        if primary.num_features() != fallback.num_features() {
            return Err(ScoreError::FeatureSpaceMismatch {
                first: primary.num_features(),
                second: fallback.num_features(),
            });
        }
        Ok(RobustScorer {
            primary,
            fallback,
            policy: SanitizePolicy::clamp(),
            deadline: None,
            forecaster: None,
            mode: Mode::Primary {
                consecutive_misses: 0,
            },
            cells: RobustCells::default(),
            label: label.into(),
            clean_rows: Vec::new(),
            obs: None,
        })
    }

    /// [`try_new`](Self::try_new), panicking on feature-space mismatch.
    ///
    /// # Panics
    /// Panics when the scorers disagree on feature count.
    pub fn new(primary: P, fallback: F, label: impl Into<String>) -> Self {
        Self::try_new(primary, fallback, label)
            .unwrap_or_else(|e| panic!("robust scorer stages must share a feature space: {e}"))
    }

    /// Set the NaN/Inf feature policy.
    pub fn with_sanitize(mut self, policy: SanitizePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enable deadline-aware degradation.
    pub fn with_deadline(mut self, policy: DeadlinePolicy) -> Self {
        self.deadline = Some(policy);
        self
    }

    /// Consult `forecaster` before each primary batch; a forecast above
    /// the deadline routes the batch to the fallback preemptively.
    /// (`Send` so a robust scorer can serve as a server batch engine.)
    pub fn with_forecaster(mut self, forecaster: impl LatencyForecaster + Send + 'static) -> Self {
        self.forecaster = Some(Box::new(forecaster));
        self
    }

    /// Publish the counters as `robust_*` metrics of `obs`, and record
    /// `degrade`/`rescue` event spans and forecast-vs-actual drift
    /// samples into it.
    pub fn with_obs(mut self, obs: Arc<dlr_obs::Obs>) -> Self {
        self.cells.publish(obs.metrics());
        self.obs = Some(obs);
        self
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> ServeStats {
        self.cells.view()
    }

    /// Record an instantaneous event span (`start == end == now`)
    /// attributed to the trace the dispatcher is currently executing.
    fn mark(&self, stage: dlr_obs::Stage) {
        if let Some(obs) = &self.obs {
            let now = obs.now_nanos();
            obs.record_span(obs.current_trace(), stage, None, now, now);
        }
    }

    /// Whether the scorer is currently degraded to the fallback.
    pub fn is_degraded(&self) -> bool {
        matches!(self.mode, Mode::Degraded { .. })
    }

    /// Score a batch, returning a typed error instead of panicking on
    /// malformed input. On `Ok(())`, `out` holds one finite score per
    /// document.
    ///
    /// # Errors
    /// [`ScoreError::EmptyBatch`] and [`ScoreError::BatchShape`] on
    /// malformed batches; [`ScoreError::NonFinite`] for NaN/Inf features
    /// under [`SanitizePolicy::Reject`].
    pub fn try_score_batch(&mut self, rows: &[f32], out: &mut [f32]) -> Result<(), ScoreError> {
        self.try_score_batch_deadline(rows, out, None).map(|_| ())
    }

    /// [`try_score_batch`](Self::try_score_batch) with a per-batch
    /// deadline propagated from the caller (e.g. the tightest remaining
    /// request deadline in a coalesced micro-batch).
    ///
    /// The effective budget for this batch is the *minimum* of the
    /// configured [`DeadlinePolicy`] deadline and `deadline`; when no
    /// policy is configured, `deadline` alone drives the degradation
    /// state machine with the default hysteresis
    /// ([`DeadlinePolicy::with_deadline`]). Both the forecaster veto and
    /// miss accounting use the effective budget, so a serving layer's
    /// per-request deadlines flow into the same degrade/probe/recover
    /// path as the static policy.
    ///
    /// Returns which scorer's output was delivered.
    ///
    /// # Errors
    /// See [`try_score_batch`](Self::try_score_batch).
    pub fn try_score_batch_deadline(
        &mut self,
        rows: &[f32],
        out: &mut [f32],
        deadline: Option<Duration>,
    ) -> Result<ServedBy, ScoreError> {
        self.cells.batches.inc();
        let batch_started = Instant::now();
        let effective = match (self.deadline, deadline) {
            (Some(p), Some(d)) => Some(DeadlinePolicy {
                deadline: p.deadline.min(d),
                ..p
            }),
            (Some(p), None) => Some(p),
            (None, Some(d)) => Some(DeadlinePolicy::with_deadline(d)),
            (None, None) => None,
        };
        let rows = match self.validate_and_sanitize(rows, out.len()) {
            Ok(clean) => clean,
            Err(e) => {
                self.cells.rejected_batches.inc();
                return Err(e);
            }
        };
        // Borrow-splitting: the sanitized rows live in self.clean_rows, so
        // route through raw parts captured before the mutable calls below.
        let use_scratch = rows.is_scratch;
        let n = out.len();

        // A budget that is already exhausted at batch start is a
        // trivially-forecast miss: running the primary cannot finish in
        // zero time, so route straight to the fallback (counted as a
        // forecast degrade) without spending the primary's latency. This
        // also suppresses probes — probing with no budget proves nothing.
        let zero_budget = effective.is_some_and(|p| p.deadline.is_zero());
        let run_primary = match self.mode {
            Mode::Primary { .. } => {
                if zero_budget || self.forecast_exceeds_deadline(n, effective) {
                    self.cells.forecast_degrades.inc();
                    false
                } else {
                    true
                }
            }
            Mode::Degraded {
                batches_until_probe,
                ..
            } => batches_until_probe == 0 && !zero_budget,
        };

        let served_by = if run_primary {
            if let Mode::Degraded { .. } = self.mode {
                self.cells.probes.inc();
            }
            self.cells.primary_batches.inc();
            let started = Instant::now();
            let outcome = {
                let rows: &[f32] = if use_scratch {
                    &self.clean_rows
                } else {
                    rows.original
                };
                out.fill(f32::NAN);
                let primary = &mut self.primary;
                catch_unwind(AssertUnwindSafe(|| primary.score_batch(rows, out)))
            };
            let elapsed = started.elapsed();
            if let (Some(obs), Some(f)) = (&self.obs, &self.forecaster) {
                // Predicted (Eq. 3/5 cost model) vs. measured primary
                // latency for this batch size feeds the drift tracker.
                if let Some(predicted) = f.forecast(n) {
                    obs.record_drift(nanos(predicted), nanos(elapsed));
                }
            }
            let mut healthy = true;
            if outcome.is_err() {
                self.cells.panics_caught.inc();
                healthy = false;
            } else if !out.iter().all(|s| s.is_finite()) {
                // NaN scores or a short write left sentinel values behind.
                self.cells.rescued_outputs.inc();
                healthy = false;
            }
            if !healthy {
                self.mark(dlr_obs::Stage::Rescue);
                self.run_fallback(rows.original, use_scratch, out);
            }
            self.note_primary_result(healthy, elapsed, effective);
            if healthy {
                ServedBy::Primary
            } else {
                ServedBy::Fallback
            }
        } else {
            self.run_fallback(rows.original, use_scratch, out);
            if let Mode::Degraded {
                batches_until_probe,
                ..
            } = &mut self.mode
            {
                *batches_until_probe = batches_until_probe.saturating_sub(1);
            }
            ServedBy::Fallback
        };
        self.cells
            .latency_us
            .record(micros(batch_started.elapsed()));
        Ok(served_by)
    }

    /// Advance the degradation state machine after a primary run.
    /// `healthy` means no panic and finite output; a miss is an over-
    /// deadline run or an unhealthy one. `policy` is the effective policy
    /// for this batch (static config merged with the per-batch deadline).
    fn note_primary_result(
        &mut self,
        healthy: bool,
        elapsed: Duration,
        policy: Option<DeadlinePolicy>,
    ) {
        let Some(policy) = policy else {
            return;
        };
        let on_time = healthy && elapsed <= policy.deadline;
        // Count true overruns; panics also degrade but are already counted
        // under panics_caught.
        if elapsed > policy.deadline {
            self.cells.deadline_misses.inc();
        }
        match &mut self.mode {
            Mode::Primary { consecutive_misses } => {
                if on_time {
                    *consecutive_misses = 0;
                } else {
                    *consecutive_misses += 1;
                    if *consecutive_misses >= policy.trip_after {
                        self.mode = Mode::Degraded {
                            batches_until_probe: policy.probe_after,
                            probe_successes: 0,
                        };
                        self.cells.fallback_activations.inc();
                        self.mark(dlr_obs::Stage::Degrade);
                    }
                }
            }
            Mode::Degraded {
                batches_until_probe,
                probe_successes,
            } => {
                if on_time {
                    *probe_successes += 1;
                    if *probe_successes >= policy.recover_after {
                        self.mode = Mode::Primary {
                            consecutive_misses: 0,
                        };
                        self.cells.recoveries.inc();
                    } else {
                        // Probe again on the next batch.
                        *batches_until_probe = 0;
                    }
                } else {
                    *batches_until_probe = policy.probe_after;
                    *probe_successes = 0;
                }
            }
        }
    }

    /// Serve one batch from the fallback, guaranteeing finite output even
    /// if the fallback itself panics or misbehaves.
    fn run_fallback(&mut self, original_rows: &[f32], use_scratch: bool, out: &mut [f32]) {
        self.cells.fallback_batches.inc();
        let rows: &[f32] = if use_scratch {
            &self.clean_rows
        } else {
            original_rows
        };
        out.fill(f32::NAN);
        let fallback = &mut self.fallback;
        let outcome = catch_unwind(AssertUnwindSafe(|| fallback.score_batch(rows, out)));
        if outcome.is_err() {
            self.cells.panics_caught.inc();
        }
        // Last line of defense: whatever happened, emit finite scores.
        for s in out.iter_mut() {
            if !s.is_finite() {
                *s = 0.0;
            }
        }
    }

    /// Shape-check the batch and apply the sanitize policy. Returns which
    /// buffer to score from (original slice or the scratch copy).
    fn validate_and_sanitize<'a>(
        &mut self,
        rows: &'a [f32],
        out_len: usize,
    ) -> Result<SanitizedRows<'a>, ScoreError> {
        let nf = self.primary.num_features();
        if out_len == 0 {
            return Err(ScoreError::EmptyBatch);
        }
        if rows.len() != out_len * nf {
            return Err(ScoreError::BatchShape {
                num_features: nf,
                rows_len: rows.len(),
                out_len,
            });
        }
        let first_bad = rows.iter().position(|v| !v.is_finite());
        match (first_bad, self.policy) {
            (None, SanitizePolicy::Reject) => Ok(SanitizedRows {
                original: rows,
                is_scratch: false,
            }),
            (None, SanitizePolicy::Clamp { max_abs }) => {
                if rows.iter().all(|v| v.abs() <= max_abs) {
                    Ok(SanitizedRows {
                        original: rows,
                        is_scratch: false,
                    })
                } else {
                    self.clamp_into_scratch(rows, nf, max_abs);
                    Ok(SanitizedRows {
                        original: rows,
                        is_scratch: true,
                    })
                }
            }
            (Some(pos), SanitizePolicy::Reject) => Err(ScoreError::NonFinite {
                doc: pos / nf,
                feature: pos % nf,
            }),
            (Some(_), SanitizePolicy::Clamp { max_abs }) => {
                self.clamp_into_scratch(rows, nf, max_abs);
                Ok(SanitizedRows {
                    original: rows,
                    is_scratch: true,
                })
            }
        }
    }

    /// Copy `rows` into the scratch buffer with NaN → 0, ±Inf and
    /// out-of-range values clamped to ±`max_abs`; count repaired docs.
    fn clamp_into_scratch(&mut self, rows: &[f32], nf: usize, max_abs: f32) {
        self.clean_rows.clear();
        self.clean_rows.extend_from_slice(rows);
        for doc in self.clean_rows.chunks_exact_mut(nf) {
            let mut repaired = false;
            for v in doc.iter_mut() {
                if v.is_nan() {
                    *v = 0.0;
                    repaired = true;
                } else if v.abs() > max_abs {
                    *v = v.signum() * max_abs;
                    repaired = true;
                }
            }
            if repaired {
                self.cells.sanitized_rows.inc();
            }
        }
    }

    /// Whether the forecaster predicts this batch to overrun the
    /// effective deadline for this batch.
    fn forecast_exceeds_deadline(&self, num_docs: usize, policy: Option<DeadlinePolicy>) -> bool {
        let (Some(policy), Some(fc)) = (policy, self.forecaster.as_ref()) else {
            return false;
        };
        matches!(fc.forecast(num_docs), Some(t) if t > policy.deadline)
    }
}

/// Which buffer a sanitized batch should be scored from.
struct SanitizedRows<'a> {
    original: &'a [f32],
    is_scratch: bool,
}

impl<P: DocumentScorer, F: DocumentScorer> DocumentScorer for RobustScorer<P, F> {
    fn num_features(&self) -> usize {
        self.primary.num_features()
    }

    /// Never panics: malformed batches are counted in
    /// [`ServeStats::rejected_batches`] and scored as all-zero.
    fn score_batch(&mut self, rows: &[f32], out: &mut [f32]) {
        if self.try_score_batch(rows, out).is_err() {
            out.fill(0.0);
        }
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linear scorer with optional scripted behaviors for these tests.
    struct Stub {
        nf: usize,
        offset: f32,
    }

    impl Stub {
        fn new(nf: usize, offset: f32) -> Stub {
            Stub { nf, offset }
        }
    }

    impl DocumentScorer for Stub {
        fn num_features(&self) -> usize {
            self.nf
        }

        fn score_batch(&mut self, rows: &[f32], out: &mut [f32]) {
            for (row, o) in rows.chunks_exact(self.nf).zip(out.iter_mut()) {
                *o = row.iter().sum::<f32>() + self.offset;
            }
        }

        fn name(&self) -> String {
            "stub".into()
        }
    }

    /// Scorer that always panics.
    struct Panicky {
        nf: usize,
    }

    impl DocumentScorer for Panicky {
        fn num_features(&self) -> usize {
            self.nf
        }

        fn score_batch(&mut self, _rows: &[f32], _out: &mut [f32]) {
            panic!("poisoned query");
        }

        fn name(&self) -> String {
            "panicky".into()
        }
    }

    fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn feature_space_mismatch_is_typed() {
        let err = match RobustScorer::try_new(Stub::new(3, 0.0), Stub::new(2, 0.0), "r") {
            Err(e) => e,
            Ok(_) => panic!("mismatched feature spaces must be rejected"),
        };
        assert_eq!(
            err,
            ScoreError::FeatureSpaceMismatch {
                first: 3,
                second: 2
            }
        );
    }

    #[test]
    fn clean_batches_pass_through_untouched() {
        let mut r = RobustScorer::new(Stub::new(2, 0.0), Stub::new(2, 100.0), "r");
        let mut out = [0.0f32; 2];
        r.try_score_batch(&[1.0, 2.0, 3.0, 4.0], &mut out).unwrap();
        assert_eq!(out, [3.0, 7.0]);
        assert_eq!(r.stats().primary_batches, 1);
        assert_eq!(r.stats().fallback_batches, 0);
        assert_eq!(r.stats().sanitized_rows, 0);
    }

    #[test]
    fn empty_and_misshapen_batches_are_typed_errors() {
        let mut r = RobustScorer::new(Stub::new(2, 0.0), Stub::new(2, 0.0), "r");
        let mut empty: [f32; 0] = [];
        assert_eq!(
            r.try_score_batch(&[], &mut empty),
            Err(ScoreError::EmptyBatch)
        );
        let mut out = [0.0f32; 2];
        assert_eq!(
            r.try_score_batch(&[1.0, 2.0, 3.0], &mut out),
            Err(ScoreError::BatchShape {
                num_features: 2,
                rows_len: 3,
                out_len: 2
            })
        );
        assert_eq!(r.stats().rejected_batches, 2);
    }

    #[test]
    fn trait_entry_point_fills_zeros_instead_of_panicking() {
        let mut r = RobustScorer::new(Stub::new(2, 0.0), Stub::new(2, 0.0), "r");
        let mut out = [9.0f32; 2];
        r.score_batch(&[1.0, 2.0, 3.0], &mut out); // wrong width
        assert_eq!(out, [0.0, 0.0]);
        let mut out = [9.0f32; 1];
        r.score_batch(&[f32::NAN, 1.0], &mut out); // clamped, still scores
        assert!(out[0].is_finite());
    }

    #[test]
    fn reject_policy_reports_doc_and_feature() {
        let mut r = RobustScorer::new(Stub::new(2, 0.0), Stub::new(2, 0.0), "r")
            .with_sanitize(SanitizePolicy::Reject);
        let mut out = [0.0f32; 2];
        let err = r
            .try_score_batch(&[1.0, 2.0, 3.0, f32::INFINITY], &mut out)
            .unwrap_err();
        assert_eq!(err, ScoreError::NonFinite { doc: 1, feature: 1 });
    }

    #[test]
    fn clamp_policy_repairs_and_counts() {
        let mut r = RobustScorer::new(Stub::new(2, 0.0), Stub::new(2, 0.0), "r")
            .with_sanitize(SanitizePolicy::Clamp { max_abs: 10.0 });
        let mut out = [0.0f32; 3];
        r.try_score_batch(
            &[f32::NAN, 1.0, 2.0, 3.0, f32::NEG_INFINITY, 50.0],
            &mut out,
        )
        .unwrap();
        // doc0: NaN→0 + 1 = 1; doc1 untouched = 5; doc2: -10 + 10 = 0.
        assert_eq!(out, [1.0, 5.0, 0.0]);
        assert_eq!(r.stats().sanitized_rows, 2);
    }

    #[test]
    fn panics_are_isolated_and_served_by_fallback() {
        quiet_panics(|| {
            let mut r = RobustScorer::new(Panicky { nf: 1 }, Stub::new(1, 100.0), "r");
            let mut out = [0.0f32; 2];
            r.try_score_batch(&[1.0, 2.0], &mut out).unwrap();
            assert_eq!(out, [101.0, 102.0]);
            assert_eq!(r.stats().panics_caught, 1);
            assert_eq!(r.stats().fallback_batches, 1);
        });
    }

    #[test]
    fn nan_outputs_are_rescued_by_fallback() {
        struct NanScorer;
        impl DocumentScorer for NanScorer {
            fn num_features(&self) -> usize {
                1
            }
            fn score_batch(&mut self, _rows: &[f32], out: &mut [f32]) {
                out.fill(f32::NAN);
            }
            fn name(&self) -> String {
                "nan".into()
            }
        }
        let mut r = RobustScorer::new(NanScorer, Stub::new(1, 0.5), "r");
        let mut out = [0.0f32; 2];
        r.try_score_batch(&[1.0, 2.0], &mut out).unwrap();
        assert_eq!(out, [1.5, 2.5]);
        assert_eq!(r.stats().rescued_outputs, 1);
    }

    #[test]
    fn forecast_veto_routes_to_fallback_preemptively() {
        let mut r = RobustScorer::new(Stub::new(1, 0.0), Stub::new(1, 100.0), "r")
            .with_deadline(DeadlinePolicy::with_deadline(Duration::from_micros(50)))
            .with_forecaster(|n: usize| Some(Duration::from_micros(n as u64)));
        let mut out = [0.0f32; 100];
        let rows = vec![1.0f32; 100];
        r.try_score_batch(&rows, &mut out).unwrap(); // forecast 100µs > 50µs
        assert_eq!(r.stats().forecast_degrades, 1);
        assert_eq!(r.stats().fallback_batches, 1);
        assert_eq!(out[0], 101.0);
        let mut small_out = [0.0f32; 10];
        r.try_score_batch(&rows[..10], &mut small_out).unwrap(); // 10µs fits
        assert_eq!(r.stats().primary_batches, 1);
        assert_eq!(small_out[0], 1.0);
    }

    #[test]
    fn hysteresis_degrades_and_recovers() {
        quiet_panics(|| {
            /// Panics for the first `faulty` calls, then behaves.
            struct Flaky {
                calls: usize,
                faulty: usize,
            }
            impl DocumentScorer for Flaky {
                fn num_features(&self) -> usize {
                    1
                }
                fn score_batch(&mut self, rows: &[f32], out: &mut [f32]) {
                    self.calls += 1;
                    if self.calls <= self.faulty {
                        panic!("still broken");
                    }
                    out.copy_from_slice(rows);
                }
                fn name(&self) -> String {
                    "flaky".into()
                }
            }
            let policy = DeadlinePolicy {
                deadline: Duration::from_secs(1),
                trip_after: 2,
                probe_after: 3,
                recover_after: 2,
            };
            let mut r = RobustScorer::new(
                Flaky {
                    calls: 0,
                    faulty: 2,
                },
                Stub::new(1, 100.0),
                "r",
            )
            .with_deadline(policy);
            let mut out = [0.0f32];
            // Two panicking batches trip the breaker.
            r.try_score_batch(&[1.0], &mut out).unwrap();
            assert!(!r.is_degraded());
            r.try_score_batch(&[1.0], &mut out).unwrap();
            assert!(r.is_degraded());
            assert_eq!(r.stats().fallback_activations, 1);
            // Three fallback batches pass before the next probe.
            for _ in 0..3 {
                r.try_score_batch(&[1.0], &mut out).unwrap();
                assert_eq!(out, [101.0]);
            }
            // Probe 1 (healthy now) and probe 2 → recovery.
            r.try_score_batch(&[2.0], &mut out).unwrap();
            assert_eq!(out, [2.0]);
            assert!(r.is_degraded(), "one good probe is not enough");
            r.try_score_batch(&[3.0], &mut out).unwrap();
            assert_eq!(out, [3.0]);
            assert!(!r.is_degraded());
            assert_eq!(r.stats().recoveries, 1);
            assert_eq!(r.stats().probes, 2);
            assert_eq!(r.stats().panics_caught, 2);
        });
    }

    #[test]
    fn per_batch_deadline_drives_the_forecaster_veto_without_a_policy() {
        // No static DeadlinePolicy: the per-batch deadline alone must
        // arm the forecaster veto and report Fallback.
        let mut r = RobustScorer::new(Stub::new(1, 0.0), Stub::new(1, 100.0), "r")
            .with_forecaster(|n: usize| Some(Duration::from_micros(n as u64)));
        let rows = vec![1.0f32; 100];
        let mut out = [0.0f32; 100];
        let by = r
            .try_score_batch_deadline(&rows, &mut out, Some(Duration::from_micros(50)))
            .unwrap();
        assert_eq!(by, ServedBy::Fallback);
        assert_eq!(r.stats().forecast_degrades, 1);
        assert_eq!(out[0], 101.0);
        // A generous per-batch deadline lets the primary through.
        let by = r
            .try_score_batch_deadline(&rows, &mut out, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(by, ServedBy::Primary);
        assert_eq!(out[0], 1.0);
        // No deadline at all: plain primary serving.
        let by = r.try_score_batch_deadline(&rows, &mut out, None).unwrap();
        assert_eq!(by, ServedBy::Primary);
    }

    #[test]
    fn per_batch_deadline_tightens_but_never_loosens_the_policy() {
        let mut r = RobustScorer::new(Stub::new(1, 0.0), Stub::new(1, 100.0), "r")
            .with_deadline(DeadlinePolicy::with_deadline(Duration::from_micros(80)))
            .with_forecaster(|_n: usize| Some(Duration::from_micros(100)));
        let mut out = [0.0f32; 1];
        // Forecast 100µs > policy 80µs: vetoed even with a loose 1s
        // per-batch deadline (the policy still binds).
        let by = r
            .try_score_batch_deadline(&[1.0], &mut out, Some(Duration::from_secs(1)))
            .unwrap();
        assert_eq!(by, ServedBy::Fallback);
        assert_eq!(r.stats().forecast_degrades, 1);
    }

    #[test]
    fn per_batch_deadline_misses_trip_the_default_hysteresis() {
        quiet_panics(|| {
            // Primary panics; a per-batch deadline (no static policy) must
            // still drive the trip-after-2 default state machine.
            let mut r = RobustScorer::new(Panicky { nf: 1 }, Stub::new(1, 100.0), "r");
            let mut out = [0.0f32; 1];
            let d = Some(Duration::from_secs(1));
            assert_eq!(
                r.try_score_batch_deadline(&[1.0], &mut out, d).unwrap(),
                ServedBy::Fallback
            );
            assert!(!r.is_degraded());
            assert_eq!(
                r.try_score_batch_deadline(&[1.0], &mut out, d).unwrap(),
                ServedBy::Fallback
            );
            assert!(r.is_degraded(), "two unhealthy batches must trip");
            assert_eq!(r.stats().fallback_activations, 1);
        });
    }

    #[test]
    fn zero_budget_takes_fallback_without_calling_primary() {
        /// Panics if ever called — proves the primary was skipped.
        struct MustNotRun;
        impl DocumentScorer for MustNotRun {
            fn num_features(&self) -> usize {
                1
            }
            fn score_batch(&mut self, _rows: &[f32], _out: &mut [f32]) {
                panic!("primary must not run with an already-expired budget");
            }
            fn name(&self) -> String {
                "must-not-run".into()
            }
        }
        let mut r = RobustScorer::new(MustNotRun, Stub::new(1, 100.0), "r");
        let mut out = [0.0f32; 2];
        let by = r
            .try_score_batch_deadline(&[1.0, 2.0], &mut out, Some(Duration::ZERO))
            .unwrap();
        assert_eq!(by, ServedBy::Fallback);
        assert_eq!(out, [101.0, 102.0]);
        // Counted as a (trivially predicted) forecast degrade; the primary
        // never ran, so no panic was caught and no miss was timed.
        let expected = ServeStats {
            batches: 1,
            fallback_batches: 1,
            forecast_degrades: 1,
            ..ServeStats::default()
        };
        assert_eq!(r.stats(), expected);
    }

    #[test]
    fn zero_budget_also_skips_probes_while_degraded() {
        quiet_panics(|| {
            // Trip the breaker with two panicking batches, then reach the
            // probe point with a zero budget: the probe must be deferred,
            // not wasted on a guaranteed miss.
            let policy = DeadlinePolicy {
                deadline: Duration::from_secs(1),
                trip_after: 2,
                probe_after: 1,
                recover_after: 1,
            };
            let mut r = RobustScorer::new(Panicky { nf: 1 }, Stub::new(1, 100.0), "r")
                .with_deadline(policy);
            let mut out = [0.0f32; 1];
            r.try_score_batch(&[1.0], &mut out).unwrap();
            r.try_score_batch(&[1.0], &mut out).unwrap();
            assert!(r.is_degraded());
            // One fallback batch passes; the next would probe…
            r.try_score_batch(&[1.0], &mut out).unwrap();
            // …but a zero budget suppresses it.
            let by = r
                .try_score_batch_deadline(&[1.0], &mut out, Some(Duration::ZERO))
                .unwrap();
            assert_eq!(by, ServedBy::Fallback);
            assert_eq!(r.stats().probes, 0);
            assert_eq!(r.stats().panics_caught, 2);
        });
    }

    #[test]
    fn served_batches_record_latency_but_equality_ignores_it() {
        let mut r = RobustScorer::new(Stub::new(1, 0.0), Stub::new(1, 0.0), "r");
        let mut out = [0.0f32; 2];
        r.try_score_batch(&[1.0, 2.0], &mut out).unwrap();
        assert_eq!(r.stats().latency.count(), 1);
        // Rejected batches are not latency samples.
        let mut empty: [f32; 0] = [];
        let _ = r.try_score_batch(&[], &mut empty);
        assert_eq!(r.stats().latency.count(), 1);
        // Counter equality disregards the histogram.
        let expected = ServeStats {
            batches: 2,
            primary_batches: 1,
            rejected_batches: 1,
            ..ServeStats::default()
        };
        assert_eq!(r.stats(), expected);
        let text = r.stats().to_string();
        assert!(text.contains("batch latency us"), "got: {text}");
    }

    #[test]
    fn stats_display_is_compact() {
        let r = RobustScorer::new(Stub::new(1, 0.0), Stub::new(1, 0.0), "r");
        let text = r.stats().to_string();
        assert!(text.contains("deadline misses"));
        assert!(text.contains("panics caught"));
    }
}
