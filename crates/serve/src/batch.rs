//! Pure micro-batching arithmetic: the flush rule, expiry, deadline
//! propagation, and the admission-control shed rule.
//!
//! Everything here is a function of its arguments — timestamps come in
//! as server nanos, never from a clock — so the coalescing invariants
//! are unit-testable with hand-picked times and the module stays inside
//! the `NONDETERMINISM` lint fence.

use crate::queue::{tightest_deadline_nanos, Admitted};
use crate::request::SubmitError;
use dlr_core::serve::LatencyForecaster;
use std::time::Duration;

/// A forecast saving below the resolution of every serving histogram
/// (whole microseconds) is no saving. The three `f64` forecasts behind it
/// round independently, so a linear cost model can read ±1 ns — and a
/// timed wait that short costs a syscall plus the host's timer overshoot,
/// and under a frozen test clock never ends.
const MIN_SAVING_NANOS: u64 = 1_000;

/// Micro-batch formation policy: a full batch flushes at once; a partial
/// one waits for company no longer than `min(max_wait, forecast saving,
/// deadline slack)` — the rule is
/// [`flush_deadline_nanos`](BatchConfig::flush_deadline_nanos).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Flush as soon as this many documents are queued. A single request
    /// larger than this forms its own oversized batch.
    pub max_batch_docs: usize,
    /// The ceiling on a forecast wait. The oldest queued request never
    /// waits longer than this for the batch to fill, however much the
    /// forecast says a fuller batch would save; a server holding no
    /// forecast predicts no saving and does not wait at all.
    pub max_wait: Duration,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            max_batch_docs: 256,
            max_wait: Duration::from_millis(1),
        }
    }
}

impl BatchConfig {
    /// The flush rule: the server nanos at which an idle dispatcher stops
    /// waiting for a partial batch of `queued_docs` documents to fill.
    ///
    /// Waiting is worth at most the service time coalescing can still
    /// save. With `f` the server's forecast and `room = max_batch_docs −
    /// queued_docs` documents yet to come, scoring both in one batch
    /// instead of two saves `saving = f(queued_docs) + f(room) −
    /// f(max_batch_docs)`, and waiting must leave the tightest queued
    /// deadline time to be met:
    ///
    /// ```text
    /// flush_at = min(oldest_queued + min(max_wait, saving),
    ///                tightest_deadline − f(queued_docs))
    /// ```
    ///
    /// * A forecast linear in the batch (Eq. 3) saves nothing: no wait,
    ///   the server is work-conserving, and batches are whatever queued
    ///   while the engine was busy. A forecast with a fixed per-batch
    ///   term `c` waits `min(c, max_wait)`.
    /// * A saving under one microsecond is no wait: it is rounding in
    ///   the forecasts, not a prediction.
    /// * No forecaster, one that abstains on any of the three sizes, or
    ///   a forecast that overflows `u64` nanoseconds (`Duration::MAX`)
    ///   is no information, which predicts no saving: no wait, as under
    ///   a linear forecast. A deployment with a fixed per-batch cost
    ///   says so with a forecaster, and then waits exactly that long.
    ///
    /// A result at or before the caller's clock means flush now. All
    /// arithmetic saturates; nothing here can panic.
    pub fn flush_deadline_nanos(
        &self,
        forecast: Option<&(dyn LatencyForecaster + Send + Sync)>,
        queued_docs: usize,
        oldest_queued_nanos: u64,
        tightest_deadline_nanos: Option<u64>,
    ) -> u64 {
        let max_wait = u64::try_from(self.max_wait.as_nanos()).unwrap_or(u64::MAX);
        // (service time of what is queued, what waiting for the rest
        // saves); no information predicts no saving.
        let (service, saving) = forecast
            .and_then(|f| {
                let nanos = |docs: usize| u64::try_from(f.forecast(docs)?.as_nanos()).ok();
                let room = self.max_batch_docs.saturating_sub(queued_docs);
                let alone = nanos(queued_docs)?;
                let apart = alone.saturating_add(nanos(room)?);
                let together = nanos(queued_docs.saturating_add(room))?;
                Some((alone, apart.saturating_sub(together)))
            })
            .unwrap_or((0, 0));
        let wait = if saving < MIN_SAVING_NANOS {
            0
        } else {
            saving.min(max_wait)
        };
        let flush_at = oldest_queued_nanos.saturating_add(wait);
        match tightest_deadline_nanos {
            Some(deadline) => flush_at.min(deadline.saturating_sub(service)),
            None => flush_at,
        }
    }
}

/// Split a taken batch into (live, expired): a request is expired when
/// its absolute deadline is at or before `now_nanos`. Expired requests
/// are answered without scoring; live ones proceed to assembly.
pub(crate) fn split_expired(
    items: Vec<Admitted>,
    now_nanos: u64,
) -> (Vec<Admitted>, Vec<Admitted>) {
    let mut live = Vec::with_capacity(items.len());
    let mut expired = Vec::new();
    for item in items {
        match item.deadline_nanos {
            Some(d) if d <= now_nanos => expired.push(item),
            _ => live.push(item),
        }
    }
    (live, expired)
}

/// The batch's propagated budget: the tightest remaining request
/// deadline at `now_nanos`, or `None` when no live request has one.
/// Expired requests must be split off first; a deadline exactly at `now`
/// propagates as a zero budget.
pub(crate) fn batch_budget(items: &[Admitted], now_nanos: u64) -> Option<Duration> {
    tightest_deadline_nanos(items).map(|d| Duration::from_nanos(d.saturating_sub(now_nanos)))
}

/// Concatenated row-major features of the live requests, plus each
/// request's document range `(start_doc, docs)` into the batch.
pub(crate) fn assemble(items: &[Admitted]) -> (Vec<f32>, Vec<(usize, usize)>) {
    let total: usize = items.iter().map(|i| i.request.features.len()).sum();
    let mut rows = Vec::with_capacity(total);
    let mut ranges = Vec::with_capacity(items.len());
    let mut start = 0usize;
    for item in items {
        rows.extend_from_slice(&item.request.features);
        ranges.push((start, item.docs));
        start += item.docs;
    }
    (rows, ranges)
}

/// The admission-control shed rule: refuse a request whose response is
/// already predicted to miss its deadline behind the queued work.
///
/// `forecast` estimates service time for a document count; the predicted
/// completion is the forecast for everything queued ahead *plus* this
/// request (a conservative single-server estimate that ignores batching
/// overlap). Requests without a deadline are never shed, and a
/// forecaster that returns `None` admits.
pub(crate) fn shed_verdict(
    forecast: Option<&(dyn LatencyForecaster + Send + Sync)>,
    queued_docs: usize,
    request_docs: usize,
    budget: Option<Duration>,
) -> Result<(), SubmitError> {
    let (Some(forecast), Some(budget)) = (forecast, budget) else {
        return Ok(());
    };
    let Some(predicted) = forecast.forecast(queued_docs + request_docs) else {
        return Ok(());
    };
    if predicted > budget {
        return Err(SubmitError::Shed { predicted, budget });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ScoreRequest, Slot};
    use std::sync::Arc;

    fn item(docs: usize, deadline_nanos: Option<u64>) -> Admitted {
        Admitted {
            id: 1,
            docs,
            request: ScoreRequest::new((0..docs).map(|d| d as f32).collect()),
            deadline_nanos,
            queued_nanos: 0,
            slot: Arc::new(Slot::default()),
        }
    }

    const OLDEST: u64 = 5_000;

    fn cfg(max_wait: Duration) -> BatchConfig {
        BatchConfig {
            max_batch_docs: 256,
            max_wait,
        }
    }

    /// How long past `OLDEST` the rule lets the dispatcher wait with
    /// `docs` queued; `None` when it flushes before `OLDEST`.
    fn wait_nanos(
        cfg: BatchConfig,
        forecast: Option<&(dyn LatencyForecaster + Send + Sync)>,
        docs: usize,
        deadline_nanos: Option<u64>,
    ) -> Option<u64> {
        cfg.flush_deadline_nanos(forecast, docs, OLDEST, deadline_nanos)
            .checked_sub(OLDEST)
    }

    #[test]
    fn flush_rule_waits_only_for_a_forecast_saving_under_the_ceiling() {
        let ms = cfg(Duration::from_millis(1));
        let linear = |docs: usize| Some(Duration::from_nanos(7_300 * docs as u64));
        let constant = |_docs: usize| Some(Duration::from_micros(30));
        let abstaining = |_docs: usize| None;
        let partial = |docs: usize| (docs != 256).then_some(Duration::from_micros(30));
        let overflowing = |_docs: usize| Some(Duration::MAX);
        // f(d) + f(room) − f(256) = 999 ns: rounding, not a prediction.
        let sub_micro = |docs: usize| Some(Duration::from_nanos(10 * docs as u64 + 999));
        let micro = |docs: usize| Some(Duration::from_nanos(10 * docs as u64 + 1_000));
        for docs in [1, 64, 255] {
            // Linear (Eq. 3): coalescing saves nothing, so no wait.
            assert_eq!(wait_nanos(ms, Some(&linear), docs, None), Some(0));
            // A fixed per-batch cost is what one fewer batch saves.
            assert_eq!(wait_nanos(ms, Some(&constant), docs, None), Some(30_000));
            // ... capped by the ceiling.
            let tight = cfg(Duration::from_micros(10));
            assert_eq!(wait_nanos(tight, Some(&constant), docs, None), Some(10_000));
            // No information: no predicted saving, so no wait, whatever
            // the ceiling.
            for ceiling in [ms, cfg(Duration::MAX)] {
                assert_eq!(wait_nanos(ceiling, None, docs, None), Some(0));
                assert_eq!(wait_nanos(ceiling, Some(&abstaining), docs, None), Some(0));
                assert_eq!(wait_nanos(ceiling, Some(&partial), docs, None), Some(0));
                assert_eq!(wait_nanos(ceiling, Some(&overflowing), docs, None), Some(0));
            }
            // The resolution floor.
            assert_eq!(wait_nanos(ms, Some(&sub_micro), docs, None), Some(0));
            assert_eq!(wait_nanos(ms, Some(&micro), docs, None), Some(1_000));
        }
        // Saturation, not overflow: a saving that is the whole of `u64`
        // under an unbounded ceiling.
        let forever = cfg(Duration::MAX);
        let cliff = |docs: usize| Some(Duration::from_nanos(if docs < 256 { u64::MAX } else { 0 }));
        assert_eq!(
            wait_nanos(forever, Some(&cliff), 1, None),
            Some(u64::MAX - OLDEST)
        );
    }

    #[test]
    fn flush_rule_leaves_the_tightest_deadline_time_to_be_met() {
        let ms = cfg(Duration::from_millis(1));
        // 30 µs per batch + 1 µs per document: waiting saves 30 µs.
        let affine = |docs: usize| Some(Duration::from_micros(30 + docs as u64));
        let fc: Option<&(dyn LatencyForecaster + Send + Sync)> = Some(&affine);
        // Slack to spare: the deadline does not bind.
        assert_eq!(wait_nanos(ms, fc, 64, Some(OLDEST + 500_000)), Some(30_000));
        // 100 µs away with f(64) = 94 µs of scoring to fit: wait 6 µs.
        assert_eq!(wait_nanos(ms, fc, 64, Some(OLDEST + 100_000)), Some(6_000));
        // Already out of reach: flush now (a time before `OLDEST`).
        assert_eq!(wait_nanos(ms, fc, 64, Some(OLDEST + 50_000)), None);
        // No forecast: no wait, wherever the deadline falls; one already
        // behind the oldest request flushes before it.
        let abstaining = |_docs: usize| None;
        for fc in [
            None,
            Some(&abstaining as &(dyn LatencyForecaster + Send + Sync)),
        ] {
            assert_eq!(wait_nanos(ms, fc, 64, Some(OLDEST + 500_000)), Some(0));
            assert_eq!(wait_nanos(ms, fc, 64, Some(OLDEST)), Some(0));
            assert_eq!(wait_nanos(ms, fc, 64, Some(OLDEST + 1_000_000)), Some(0));
            assert_eq!(wait_nanos(ms, fc, 64, Some(OLDEST - 1)), None);
        }
    }

    #[test]
    fn split_expired_is_boundary_inclusive() {
        let items = vec![item(1, Some(50)), item(2, None), item(3, Some(51))];
        let (live, expired) = split_expired(items, 50);
        // deadline == now counts as expired (the budget would be zero).
        assert_eq!(expired.len(), 1);
        assert_eq!(expired.first().map(|i| i.docs), Some(1));
        assert_eq!(live.len(), 2);
    }

    #[test]
    fn batch_budget_is_the_tightest_remaining_deadline() {
        let items = vec![item(1, Some(900)), item(2, None), item(3, Some(400))];
        assert_eq!(batch_budget(&items, 100), Some(Duration::from_nanos(300)));
        assert_eq!(
            batch_budget(&items[..2], 100),
            Some(Duration::from_nanos(800))
        );
        let no_deadlines = vec![item(1, None)];
        assert_eq!(batch_budget(&no_deadlines, 100), None);
    }

    #[test]
    fn assemble_concatenates_in_order_with_correct_ranges() {
        let items = vec![item(2, None), item(3, None), item(1, None)];
        let (rows, ranges) = assemble(&items);
        assert_eq!(rows, [0.0, 1.0, 0.0, 1.0, 2.0, 0.0]);
        assert_eq!(ranges, [(0, 2), (2, 3), (5, 1)]);
    }

    #[test]
    fn shed_rule_refuses_only_predicted_misses() {
        let forecast = |docs: usize| Some(Duration::from_micros(docs as u64));
        let fc: &(dyn LatencyForecaster + Send + Sync) = &forecast;
        // 40 queued + 10 new = 50µs predicted versus a 30µs budget: shed.
        let err = shed_verdict(Some(fc), 40, 10, Some(Duration::from_micros(30)))
            .expect_err("predicted miss");
        assert_eq!(
            err,
            SubmitError::Shed {
                predicted: Duration::from_micros(50),
                budget: Duration::from_micros(30),
            }
        );
        // Fits the budget: admitted.
        shed_verdict(Some(fc), 10, 10, Some(Duration::from_micros(30))).expect("fits");
        // No deadline, or no forecaster: never shed.
        shed_verdict(Some(fc), 1000, 10, None).expect("no deadline");
        shed_verdict(None, 1000, 10, Some(Duration::from_nanos(1))).expect("no forecaster");
        // Forecaster abstains: admitted.
        let silent = |_docs: usize| None;
        let fc: &(dyn LatencyForecaster + Send + Sync) = &silent;
        shed_verdict(Some(fc), 1000, 10, Some(Duration::from_nanos(1))).expect("abstained");
    }
}
