//! The batch-execution seam between the server and the scoring stack.
//!
//! The dispatcher hands a fully-assembled micro-batch to a
//! [`BatchEngine`] along with the batch's propagated deadline budget.
//! [`RobustScorer`] is the intended engine — its implementation routes
//! the budget into the degradation/fallback state machine via
//! [`RobustScorer::try_score_batch_deadline`] — while [`PlainEngine`]
//! adapts any bare [`DocumentScorer`] for tests and simple deployments
//! (no degradation; panics are still isolated by the dispatcher).
//! [`FaultInjectingEngine`] wraps any engine to inject server-level
//! faults (stalls, batch panics, deadline storms, trace pressure) from
//! outside, so the dispatcher carries no fault hook of its own.

use dlr_core::fault::{FaultPlan, ServerFault, ServerFaultCounters};
use dlr_core::scoring::DocumentScorer;
use dlr_core::serve::{RobustScorer, ScoreError, ServedBy};
use std::sync::Arc;
use std::time::Duration;

/// Per-request context the dispatcher attaches to an assembled batch:
/// where the request's documents sit in the concatenated rows, and its
/// optional relevance labels (for off-path shadow-quality comparison).
#[derive(Debug, Clone, Copy)]
pub struct RequestMeta<'a> {
    /// First document index of this request within the batch.
    pub start: usize,
    /// Number of documents this request contributed.
    pub docs: usize,
    /// Relevance labels, one per document, when the client supplied them.
    pub labels: Option<&'a [f32]>,
}

/// Scores assembled micro-batches under a propagated deadline budget.
pub trait BatchEngine: Send {
    /// Features per document.
    fn num_features(&self) -> usize;

    /// Score a row-major `out.len() × num_features` batch into `out`
    /// under an optional remaining-time budget (the tightest request
    /// deadline in the batch).
    ///
    /// Returning [`ServedBy::Fallback`] marks every request in the batch
    /// as served degraded. A typed error fails the whole batch — each of
    /// its requests is answered `Failed` — and a panic is caught by the
    /// dispatcher with the same per-batch blast radius.
    ///
    /// # Errors
    /// Engine-specific; see the implementor.
    fn score_batch(
        &mut self,
        rows: &[f32],
        out: &mut [f32],
        budget: Option<Duration>,
    ) -> Result<ServedBy, ScoreError>;

    /// [`score_batch`](Self::score_batch) plus per-request metadata.
    /// The dispatcher always calls this entry point; the default
    /// implementation ignores the metadata, so plain engines need not
    /// care. A lifecycle-aware engine uses `metas` to compute off-path
    /// per-query quality comparisons (shadow NDCG) without touching the
    /// response path.
    ///
    /// # Errors
    /// Same contract as [`score_batch`](Self::score_batch).
    fn score_batch_meta(
        &mut self,
        rows: &[f32],
        out: &mut [f32],
        budget: Option<Duration>,
        metas: &[RequestMeta<'_>],
    ) -> Result<ServedBy, ScoreError> {
        let _ = metas;
        self.score_batch(rows, out, budget)
    }

    /// The model version that produced the most recent successfully
    /// scored batch, when this engine serves versioned models. The
    /// dispatcher reads this right after a successful
    /// [`score_batch_meta`](Self::score_batch_meta) to attribute the
    /// batch in the per-version stats breakdown. Engines without a
    /// registry return `None` (the default) and no per-version row is
    /// recorded.
    fn served_version(&self) -> Option<Arc<str>> {
        None
    }
}

impl<P, F> BatchEngine for RobustScorer<P, F>
where
    P: DocumentScorer + Send,
    F: DocumentScorer + Send,
{
    fn num_features(&self) -> usize {
        DocumentScorer::num_features(self)
    }

    fn score_batch(
        &mut self,
        rows: &[f32],
        out: &mut [f32],
        budget: Option<Duration>,
    ) -> Result<ServedBy, ScoreError> {
        self.try_score_batch_deadline(rows, out, budget)
    }
}

/// Adapter giving any [`DocumentScorer`] the [`BatchEngine`] shape: the
/// budget is ignored (no degradation path) and every scored batch
/// reports [`ServedBy::Primary`].
pub struct PlainEngine<S> {
    /// The wrapped scorer.
    pub scorer: S,
}

impl<S: DocumentScorer + Send> PlainEngine<S> {
    /// Wrap a scorer.
    pub fn new(scorer: S) -> PlainEngine<S> {
        PlainEngine { scorer }
    }
}

impl<S: DocumentScorer + Send> BatchEngine for PlainEngine<S> {
    fn num_features(&self) -> usize {
        self.scorer.num_features()
    }

    fn score_batch(
        &mut self,
        rows: &[f32],
        out: &mut [f32],
        _budget: Option<Duration>,
    ) -> Result<ServedBy, ScoreError> {
        self.scorer.score_batch(rows, out);
        Ok(ServedBy::Primary)
    }
}

/// A [`BatchEngine`] wrapper that misbehaves on purpose: before each
/// batch reaches `inner` it draws one [`ServerFault`] from its plan,
/// counts it, and applies it — a stall holds the batch (and so the
/// dispatcher), a batch panic unwinds before `inner` sees the batch, a
/// deadline storm hands `inner` a zero budget, and trace pressure floods
/// the plane given to [`with_obs`](Self::with_obs). The metas and the
/// served version pass through unchanged. The server-level counterpart
/// of `dlr_core::fault::FaultInjectingScorer`, for tests and drills.
pub struct FaultInjectingEngine<E> {
    /// The well-behaved engine underneath.
    pub inner: E,
    plan: FaultPlan<ServerFault>,
    counters: Arc<ServerFaultCounters>,
    obs: Option<Arc<dlr_obs::Obs>>,
}

impl<E: BatchEngine> FaultInjectingEngine<E> {
    /// Wrap `inner`, drawing one fault per batch from `plan`.
    pub fn new(inner: E, plan: FaultPlan<ServerFault>) -> FaultInjectingEngine<E> {
        FaultInjectingEngine {
            inner,
            plan,
            counters: Arc::new(ServerFaultCounters::default()),
            obs: None,
        }
    }

    /// Record trace-pressure bursts into `obs` (without a plane they
    /// are counted and otherwise ignored).
    pub fn with_obs(mut self, obs: Arc<dlr_obs::Obs>) -> FaultInjectingEngine<E> {
        self.obs = Some(obs);
        self
    }

    /// Handle to the injected-fault tallies; stays readable after the
    /// engine moves into a server.
    pub fn counters(&self) -> Arc<ServerFaultCounters> {
        Arc::clone(&self.counters)
    }

    /// Draw, count and apply this batch's fault; returns the budget to
    /// score under.
    fn inject(&mut self, budget: Option<Duration>) -> Option<Duration> {
        let fault = self.plan.next_fault();
        self.counters.record(fault);
        match fault {
            ServerFault::None => budget,
            ServerFault::Stall(stall) => {
                std::thread::sleep(stall);
                budget
            }
            ServerFault::BatchPanic => std::panic::panic_any("injected fault: batch panic"),
            ServerFault::DeadlineStorm => Some(Duration::ZERO),
            ServerFault::TracePressure { spans } => {
                if let Some(obs) = &self.obs {
                    let now = obs.now_nanos();
                    for _ in 0..spans {
                        obs.record_span(0, dlr_obs::Stage::Synthetic, None, now, now);
                    }
                }
                budget
            }
        }
    }
}

impl<E: BatchEngine> BatchEngine for FaultInjectingEngine<E> {
    fn num_features(&self) -> usize {
        self.inner.num_features()
    }

    fn score_batch(
        &mut self,
        rows: &[f32],
        out: &mut [f32],
        budget: Option<Duration>,
    ) -> Result<ServedBy, ScoreError> {
        let budget = self.inject(budget);
        self.inner.score_batch(rows, out, budget)
    }

    fn score_batch_meta(
        &mut self,
        rows: &[f32],
        out: &mut [f32],
        budget: Option<Duration>,
        metas: &[RequestMeta<'_>],
    ) -> Result<ServedBy, ScoreError> {
        let budget = self.inject(budget);
        self.inner.score_batch_meta(rows, out, budget, metas)
    }

    fn served_version(&self) -> Option<Arc<str>> {
        self.inner.served_version()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sum;

    impl DocumentScorer for Sum {
        fn num_features(&self) -> usize {
            2
        }
        fn score_batch(&mut self, rows: &[f32], out: &mut [f32]) {
            for (row, o) in rows.chunks_exact(2).zip(out.iter_mut()) {
                *o = row.iter().sum();
            }
        }
        fn name(&self) -> String {
            "sum".into()
        }
    }

    #[test]
    fn plain_engine_scores_and_reports_primary() {
        let mut e = PlainEngine::new(Sum);
        assert_eq!(BatchEngine::num_features(&e), 2);
        let mut out = [0.0f32; 2];
        let by = e
            .score_batch(&[1.0, 2.0, 3.0, 4.0], &mut out, None)
            .expect("scored");
        assert_eq!(by, ServedBy::Primary);
        assert_eq!(out, [3.0, 7.0]);
    }

    #[test]
    fn robust_scorer_engine_propagates_the_budget() {
        let mut r = RobustScorer::new(Sum, Sum, "r")
            .with_forecaster(|_n: usize| Some(Duration::from_secs(10)));
        let mut out = [0.0f32; 1];
        // Tiny budget + huge forecast: the robust engine must degrade.
        let by =
            BatchEngine::score_batch(&mut r, &[1.0, 2.0], &mut out, Some(Duration::from_nanos(1)))
                .expect("served");
        assert_eq!(by, ServedBy::Fallback);
        assert_eq!(r.stats().forecast_degrades, 1);
    }

    /// Scores a `[query, relevance]` document by `sign · relevance`.
    struct Ranker(f32);

    impl DocumentScorer for Ranker {
        fn num_features(&self) -> usize {
            2
        }
        fn score_batch(&mut self, rows: &[f32], out: &mut [f32]) {
            for (row, o) in rows.chunks_exact(2).zip(out.iter_mut()) {
                *o = self.0 * row[1];
            }
        }
        fn name(&self) -> String {
            "ranker".into()
        }
    }

    /// Four labelled one-request batches into a registry that shadows
    /// v2 (v1's ranking inverted) behind v1, its engine wrapped by
    /// `wrap`: the server's books and the shadow NDCG pairs.
    fn shadow_run<E: BatchEngine + 'static>(
        wrap: impl FnOnce(crate::RegistryEngine) -> E,
    ) -> (crate::ServerStats, Vec<(f64, f64)>) {
        use crate::{ModelRegistry, RolloutConfig, ScoreRequest, Server, ServerConfig};
        let rollout = RolloutConfig {
            min_samples: u64::MAX,
            ..RolloutConfig::default()
        };
        let clock = Arc::new(crate::MonotonicClock::default());
        let (registry, engine) =
            ModelRegistry::with_scorer("v1", Box::new(Ranker(1.0)), Vec::new(), rollout, clock);
        registry
            .load_scorer("v2", Box::new(Ranker(-1.0)), Vec::new())
            .expect("load");
        registry.begin_shadow().expect("shadow");
        let server = Server::start(wrap(engine), ServerConfig::default());
        for q in 0..4 {
            let features = vec![q as f32, 2.0, q as f32, 0.0, q as f32, 1.0];
            let request = ScoreRequest::new(features).with_labels(vec![2.0, 0.0, 1.0]);
            server.submit(request).expect("admit").wait();
        }
        let (_engine, stats) = server.shutdown();
        let report = registry.candidate_report().expect("v2 in shadow");
        assert_eq!(report.stats.shadow_panics, 0);
        (stats, report.stats.ndcg_pairs)
    }

    #[test]
    fn the_fault_wrapper_forwards_metas_and_versions_and_fails_one_batch_per_panic() {
        let (bare, bare_pairs) = shadow_run(|e| e);
        let (wrapped, pairs) =
            shadow_run(|e| FaultInjectingEngine::new(e, FaultPlan::script(Vec::new())));
        assert_eq!(bare.per_version[0].scored_primary, 4);
        assert_eq!(wrapped, bare, "per-version rows included");
        assert_eq!(bare_pairs.len(), 4);
        assert_ne!(bare_pairs[0].0, bare_pairs[0].1);
        assert_eq!(pairs, bare_pairs);

        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut counters = None;
        let (stats, pairs) = shadow_run(|e| {
            let plan = FaultPlan::script(vec![ServerFault::None, ServerFault::BatchPanic]);
            let engine = FaultInjectingEngine::new(e, plan);
            counters = Some(engine.counters());
            engine
        });
        std::panic::set_hook(prev);
        let counters = counters.expect("wrapped");
        let injected = counters
            .batch_panics
            .load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!((injected, stats.batch_panics, stats.failed), (1, 1, 1));
        // The panicked batch never reached the registry: no version row,
        // no shadow pair, no shadow panic.
        assert_eq!(stats.per_version[0].scored_primary, 3);
        assert_eq!(pairs.len(), 3);
    }
}
