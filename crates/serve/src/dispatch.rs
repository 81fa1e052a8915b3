//! The dispatcher: the single consumer that coalesces queued requests
//! into micro-batches, executes them, and delivers every response.
//!
//! One dispatcher thread owns the engine. Each turn it waits for work,
//! coalesces until the batch is full or the flush rule on [`BatchConfig`]
//! says more waiting buys nothing — no longer than `min(max_wait,
//! forecast saving, deadline slack)`, which with the linear Eq. 3
//! forecast, or with none, is not at all — takes the batch, and
//! executes it with per-batch panic isolation: a panicking engine fails
//! only the requests coalesced into that batch, and the loop keeps
//! serving. Requests whose deadline expired while queued are answered
//! [`Response::Expired`] without being scored; the tightest surviving
//! deadline propagates to the engine as the batch budget.
//!
//! This module computes with server nanos handed to it by the queue and
//! the injected [`Clock`] — it is inside both lint fences (no panicking
//! calls, no ambient time), which is why injected faults panic via
//! `panic_any` and every slice access is checked.

use crate::batch::{assemble, batch_budget, split_expired, BatchConfig};
use crate::engine::{BatchEngine, RequestMeta};
use crate::queue::{AdmissionQueue, Admitted, Ready};
use crate::request::{Delivery, Response};
use crate::stats::{version_mut, ServerCells, ServerStats, VersionStats};
use crate::sync::Mutex;
use crate::Clock;
use dlr_core::fault::{ServerFault, ServerFaultPlan};
use dlr_core::serve::{LatencyForecaster, ServedBy};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, PoisonError};
use std::time::Duration;

/// State shared between the submitting front-end and the dispatcher.
pub(crate) struct Shared {
    /// The bounded admission queue.
    pub(crate) queue: AdmissionQueue,
    /// Lifetime counters; the dispatcher and submitters both write here.
    pub(crate) cells: ServerCells,
    /// Per-version rows: written by the dispatcher alone, and only when
    /// the engine serves versioned models.
    pub(crate) per_version: Mutex<Vec<VersionStats>>,
    /// The server's one clock (all other modules see only its nanos).
    pub(crate) clock: Arc<dyn Clock>,
    /// The server's one cost model: sheds at admission, bounds the
    /// dispatcher's wait for a fuller batch (the flush rule), and is
    /// paired with each batch's measured execute time (the
    /// predictor-drift signal).
    pub(crate) admission: Option<Box<dyn LatencyForecaster + Send + Sync>>,
    /// Trace-id source for admitted requests (1-based; 0 is synthetic).
    pub(crate) next_id: AtomicU64,
    /// Where spans and drift pairs go, when enabled.
    pub(crate) obs: Option<Arc<dlr_obs::Obs>>,
}

impl Shared {
    /// The counters so far, as a [`ServerStats`].
    pub(crate) fn stats(&self) -> ServerStats {
        // Rows are pushed and bumped whole; recover from poison.
        let rows = self
            .per_version
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.cells.view(rows.clone())
    }
}

/// The dispatcher loop. Runs until the queue is closed *and* fully
/// drained, so every admitted request is answered before this returns —
/// the server's drain guarantee.
pub(crate) fn run<E: BatchEngine>(
    shared: &Shared,
    engine: &mut E,
    cfg: BatchConfig,
    mut faults: Option<ServerFaultPlan>,
) {
    loop {
        match shared.queue.wait_nonempty() {
            Ready::Drained => return,
            Ready::Items => {}
        }
        coalesce(shared, cfg);
        let items = shared.queue.take_batch(cfg.max_batch_docs);
        if items.is_empty() {
            continue;
        }
        let fault = faults
            .as_mut()
            .map_or(ServerFault::None, ServerFaultPlan::next_fault);
        execute(shared, engine, items, fault);
    }
}

/// Wait for the batch to fill, as long as the flush rule on
/// [`BatchConfig`] allows. Each turn takes the queue lock once for
/// everything the rule reads and re-derives the deadline from the clock,
/// so a trickle of admissions cannot postpone a flush — and a server
/// whose forecast is linear, or that holds none, never times a wait.
fn coalesce(shared: &Shared, cfg: BatchConfig) {
    while let Some(queued) = shared.queue.partial_batch(cfg.max_batch_docs) {
        let flush_at = cfg.flush_deadline_nanos(
            shared.admission.as_deref(),
            queued.docs,
            queued.oldest_queued_nanos,
            queued.tightest_deadline_nanos,
        );
        let now = shared.clock.now_nanos();
        if now >= flush_at {
            return;
        }
        shared
            .queue
            .wait_docs_or_timeout(cfg.max_batch_docs, Duration::from_nanos(flush_at - now));
    }
}

/// Execute one taken batch end-to-end: apply the injected fault, expire,
/// assemble, score under `catch_unwind`, account, and deliver exactly one
/// response per request.
fn execute<E: BatchEngine>(
    shared: &Shared,
    engine: &mut E,
    items: Vec<Admitted>,
    fault: ServerFault,
) {
    if let ServerFault::QueueStall(stall) = fault {
        // Injected: the consumer deschedules holding the batch, so the
        // requests age exactly as under a real queue stall.
        std::thread::sleep(stall);
    }

    let now = shared.clock.now_nanos();
    if let ServerFault::TracePressure { spans } = fault {
        // Injected: a synthetic span burst forces the trace ring to wrap
        // mid-dispatch, proving overwrite-oldest never blocks this loop.
        if let Some(obs) = &shared.obs {
            for _ in 0..spans {
                obs.record_span(0, dlr_obs::Stage::Synthetic, None, now, now);
            }
        }
    }
    let cells = &shared.cells;
    let (live, expired) = split_expired(items, now);
    for item in &expired {
        let waited = now.saturating_sub(item.queued_nanos);
        cells.expired.inc();
        cells.latency_us.record(waited / 1_000);
        cells.queue_wait_us.record(waited / 1_000);
        if let Some(obs) = &shared.obs {
            obs.record_span(
                item.id,
                dlr_obs::Stage::QueueWait,
                None,
                item.queued_nanos,
                now,
            );
            obs.record_span(item.id, dlr_obs::Stage::Expired, None, now, now);
        }
    }
    for item in expired {
        item.slot.deliver(Delivery {
            response: Response::Expired,
            latency_nanos: now.saturating_sub(item.queued_nanos),
        });
    }
    if live.is_empty() {
        return;
    }

    let mut budget = batch_budget(&live, now);
    if fault == ServerFault::DeadlineStorm {
        // Injected: every deadline in the batch collapses to "now".
        budget = Some(Duration::ZERO);
    }
    let (rows, ranges) = assemble(&live);
    let docs: usize = live.iter().map(|i| i.docs).sum();
    let metas: Vec<RequestMeta<'_>> = live
        .iter()
        .zip(ranges.iter())
        .map(|(item, &(start, n))| RequestMeta {
            start,
            docs: n,
            labels: item.request.labels.as_deref(),
        })
        .collect();
    let mut out = vec![0.0f32; docs];
    // Batch-formation timestamp: only read when the plane is on — the
    // disabled path pays zero extra clock reads.
    let assembled = match &shared.obs {
        Some(obs) => {
            // Kernel scope guards deep in the engine attribute to the
            // batch's lead request.
            obs.set_current_trace(live.first().map_or(0, |item| item.id));
            shared.clock.now_nanos()
        }
        None => now,
    };
    let poisoned = fault == ServerFault::BatchPanic;
    let result = catch_unwind(AssertUnwindSafe(|| {
        if poisoned {
            std::panic::panic_any("injected fault: batch panic");
        }
        engine.score_batch_meta(&rows, &mut out, budget, &metas)
    }));
    drop(metas);
    if let ServerFault::SlowConsumer(lag) = fault {
        std::thread::sleep(lag);
    }
    let done = shared.clock.now_nanos();
    // Which model version answered, when the engine serves versioned
    // models (a registry): only meaningful after a successful score.
    let version = match &result {
        Ok(Ok(_)) => engine.served_version(),
        _ => None,
    };

    // Every count, span and drift pair lands before any delivery, so a
    // caller that observed a response sees that request fully accounted.
    let requests = live.len() as u64;
    cells.batches.inc();
    cells.batched_docs.add(docs as u64);
    match &result {
        Ok(Ok(ServedBy::Primary)) => cells.scored_primary.add(requests),
        Ok(Ok(ServedBy::Fallback)) => cells.scored_fallback.add(requests),
        Ok(Err(_)) => cells.failed.add(requests),
        Err(_) => {
            cells.batch_panics.inc();
            cells.failed.add(requests);
        }
    }
    for item in &live {
        cells
            .queue_wait_us
            .record(now.saturating_sub(item.queued_nanos) / 1_000);
        cells.execute_us.record(done.saturating_sub(now) / 1_000);
        cells
            .latency_us
            .record(done.saturating_sub(item.queued_nanos) / 1_000);
    }
    if let (Some(version), Ok(Ok(served_by))) = (&version, &result) {
        let mut rows = shared
            .per_version
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let row = version_mut(&mut rows, version);
        row.batches += 1;
        row.docs += docs as u64;
        match served_by {
            ServedBy::Primary => row.scored_primary += requests,
            ServedBy::Fallback => row.scored_fallback += requests,
        }
        for item in &live {
            row.latency
                .record(Duration::from_nanos(done.saturating_sub(item.queued_nanos)));
        }
    }

    if let Some(obs) = &shared.obs {
        let failed = !matches!(&result, Ok(Ok(_)));
        for item in &live {
            obs.record_span(
                item.id,
                dlr_obs::Stage::QueueWait,
                None,
                item.queued_nanos,
                now,
            );
            obs.record_span(item.id, dlr_obs::Stage::Batch, None, now, assembled);
            obs.record_span(
                item.id,
                dlr_obs::Stage::Dispatch,
                version.clone(),
                assembled,
                done,
            );
            if failed {
                obs.record_span(item.id, dlr_obs::Stage::Failed, None, done, done);
            }
        }
        if let Some(forecaster) = &shared.admission {
            // Predicted (Eq. 3/5 cost model) vs. measured dispatch time
            // for this batch size: the drift the future auto-tuner reads.
            if let Some(predicted) = forecaster.forecast(docs) {
                obs.record_drift(
                    u64::try_from(predicted.as_nanos()).unwrap_or(u64::MAX),
                    done.saturating_sub(assembled),
                );
            }
        }
    }

    match result {
        Ok(Ok(served_by)) => {
            for (item, (start, n)) in live.into_iter().zip(ranges) {
                let scores = out
                    .get(start..start.saturating_add(n))
                    .map(<[f32]>::to_vec)
                    .unwrap_or_default();
                item.slot.deliver(Delivery {
                    response: Response::Scored { scores, served_by },
                    latency_nanos: done.saturating_sub(item.queued_nanos),
                });
            }
        }
        Ok(Err(_)) | Err(_) => {
            for item in live {
                let latency_nanos = done.saturating_sub(item.queued_nanos);
                item.slot.deliver(Delivery {
                    response: Response::Failed,
                    latency_nanos,
                });
            }
        }
    }
}
