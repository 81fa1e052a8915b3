//! The server front-end: concurrent submission, admission control, and
//! graceful drain.
//!
//! [`Server::start`] spawns one dispatcher thread that owns the engine;
//! any number of client threads call [`Server::submit`] concurrently.
//! [`Server::shutdown`] closes admission, waits for the dispatcher to
//! drain every queued request, and hands the engine back — after it
//! returns, `admitted == answered` exactly (no lost or duplicated
//! responses).

use crate::batch::shed_verdict;
use crate::dispatch::{self, Shared};
use crate::engine::BatchEngine;
use crate::queue::{AdmissionQueue, Admitted, Backpressure};
use crate::request::{ResponseHandle, ScoreRequest, Slot, SubmitError};
use crate::stats::{ServerCells, ServerStats};
use crate::sync::thread::JoinHandle;
use crate::sync::{thread, Mutex};
use crate::{BatchConfig, Clock, MonotonicClock};
use dlr_core::fault::ServerFaultPlan;
use dlr_core::serve::LatencyForecaster;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Everything tunable about a server.
///
/// Not `Clone`: the admission forecaster and fault plan are owned moves.
pub struct ServerConfig {
    /// Micro-batch formation policy.
    pub batch: BatchConfig,
    /// Admission queue capacity in requests (clamped to ≥ 1).
    pub queue_capacity: usize,
    /// What [`Server::submit`] does when the queue is full.
    pub backpressure: Backpressure,
    /// Admission-control forecaster: a submission with a deadline is shed
    /// when the forecast for the queued documents plus its own exceeds
    /// its budget. `None` disables shedding.
    pub admission: Option<Box<dyn LatencyForecaster + Send + Sync>>,
    /// Injected server faults, drawn once per taken batch. `None` in
    /// production.
    pub faults: Option<ServerFaultPlan>,
    /// The server-nanos source. `None` uses a fresh [`MonotonicClock`];
    /// tests inject a [`ManualClock`](crate::ManualClock) to drive the
    /// queue, batcher, and every trace span deterministically.
    pub clock: Option<Arc<dyn Clock>>,
    /// The observability plane: the server's counters are published as
    /// its `serve_*` metrics, and spans and drift pairs are recorded
    /// into it. `None` (production default until opted in) records no
    /// spans; share the same `Arc` with the engine's `with_obs` builders
    /// to get kernel spans in the same traces.
    pub obs: Option<Arc<dlr_obs::Obs>>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            batch: BatchConfig::default(),
            queue_capacity: 1024,
            backpressure: Backpressure::Reject,
            admission: None,
            faults: None,
            clock: None,
            obs: None,
        }
    }
}

/// A running reranking server. See the crate docs for the lifecycle.
pub struct Server<E: BatchEngine + 'static> {
    shared: Arc<Shared>,
    num_features: usize,
    policy: Backpressure,
    dispatcher: Option<JoinHandle<E>>,
}

impl<E: BatchEngine + 'static> Server<E> {
    /// Start a server: spawns the dispatcher thread, which owns `engine`
    /// until [`shutdown`](Self::shutdown) returns it.
    pub fn start(mut engine: E, config: ServerConfig) -> Server<E> {
        let num_features = engine.num_features().max(1);
        let cells = ServerCells::default();
        if let Some(obs) = &config.obs {
            cells.publish(obs.metrics());
        }
        let shared = Arc::new(Shared {
            queue: AdmissionQueue::new(config.queue_capacity),
            cells,
            per_version: Mutex::new(Vec::new()),
            clock: config
                .clock
                .unwrap_or_else(|| Arc::new(MonotonicClock::default())),
            admission: config.admission,
            next_id: AtomicU64::new(1),
            obs: config.obs,
        });
        let batch = config.batch;
        let faults = config.faults;
        let dispatcher = thread::spawn({
            let shared = Arc::clone(&shared);
            move || {
                dispatch::run(&shared, &mut engine, batch, faults);
                engine
            }
        });
        Server {
            shared,
            num_features,
            policy: config.backpressure,
            dispatcher: Some(dispatcher),
        }
    }

    /// Submit one query for scoring. On success the request is admitted
    /// and the returned handle will receive exactly one response; on
    /// error it was refused at the door and no response will ever arrive.
    ///
    /// Under [`Backpressure::Block`] this blocks while the queue is full;
    /// under [`Backpressure::Reject`] it returns
    /// [`SubmitError::QueueFull`] instead.
    ///
    /// # Errors
    /// [`SubmitError::BadShape`] for a feature block that is not a
    /// positive multiple of the engine's feature count;
    /// [`SubmitError::Shed`] when admission control predicts a deadline
    /// miss; [`SubmitError::QueueFull`] / [`SubmitError::ShuttingDown`]
    /// per queue state.
    pub fn submit(&self, request: ScoreRequest) -> Result<ResponseHandle, SubmitError> {
        let cells = &self.shared.cells;
        cells.submitted.inc();
        let len = request.features.len();
        if len == 0 || !len.is_multiple_of(self.num_features) {
            cells.malformed.inc();
            return Err(SubmitError::BadShape {
                num_features: self.num_features,
                features_len: len,
            });
        }
        let docs = len / self.num_features;
        let budget = request.deadline;
        let now = self.shared.clock.now_nanos();
        let deadline_nanos =
            budget.map(|d| now.saturating_add(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)));
        let slot = Arc::new(Slot::default());
        let handle = ResponseHandle {
            slot: Arc::clone(&slot),
        };
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let item = Admitted {
            id,
            docs,
            request,
            deadline_nanos,
            queued_nanos: now,
            slot,
        };
        let admission = self.shared.admission.as_deref();
        let outcome = self.shared.queue.admit(item, self.policy, |queued_docs| {
            shed_verdict(admission, queued_docs, docs, budget)
        });
        match outcome {
            Ok((depth, queued_docs)) => {
                cells.admitted.inc();
                cells.max_queue_depth.record_max(depth as u64);
                cells.max_queued_docs.record_max(queued_docs as u64);
                Ok(handle)
            }
            Err(err) => {
                match &err {
                    SubmitError::QueueFull => cells.rejected_full.inc(),
                    SubmitError::Shed { .. } => {
                        cells.shed.inc();
                        // A shed request has exactly one span: the
                        // refusal itself, at submit time.
                        if let Some(obs) = &self.shared.obs {
                            obs.record_span(id, dlr_obs::Stage::Shed, None, now, now);
                        }
                    }
                    SubmitError::ShuttingDown => cells.rejected_shutdown.inc(),
                    SubmitError::BadShape { .. } => cells.malformed.inc(),
                }
                Err(err)
            }
        }
    }

    /// The lifetime counters so far. Requests in flight may make a live
    /// view transiently unbalanced; it is exact for the caller's own
    /// submissions and every response the caller has waited for, and
    /// after [`shutdown`](Self::shutdown) the accounting identities
    /// hold exactly.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Live queue depth: (queued requests, queued documents).
    pub fn queue_depth(&self) -> (usize, usize) {
        self.shared.queue.depth()
    }

    /// Features per document the engine expects.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Admission queue capacity in requests.
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue.capacity()
    }

    /// Drain and stop: close admission, answer everything still queued,
    /// join the dispatcher, and return the engine with the final stats.
    ///
    /// If the dispatcher thread itself panicked (a server bug — batch
    /// panics are isolated and do not escape the loop), the panic is
    /// resumed on the caller.
    pub fn shutdown(mut self) -> (E, ServerStats) {
        self.shared.queue.close();
        let engine = match self.dispatcher.take() {
            Some(handle) => join_engine(handle),
            // `shutdown` consumes the server, so the handle can only have
            // been taken by `Drop`, which cannot run before this.
            None => unreachable!("dispatcher already joined"),
        };
        // Joining the dispatcher ordered its every count before this read.
        (engine, self.shared.stats())
    }
}

impl<E: BatchEngine + 'static> Drop for Server<E> {
    /// Dropping a server without [`Server::shutdown`] still drains: every
    /// admitted request is answered before the dispatcher exits.
    fn drop(&mut self) {
        if let Some(handle) = self.dispatcher.take() {
            self.shared.queue.close();
            drop(handle.join());
        }
    }
}

fn join_engine<E>(handle: JoinHandle<E>) -> E {
    match handle.join() {
        Ok(engine) => engine,
        // Surface a dispatcher-loop bug to the caller unchanged.
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PlainEngine;
    use dlr_core::scoring::DocumentScorer;
    use std::time::Duration;

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
    fn round_trip_scores_and_books_balance() {
        let server = Server::start(PlainEngine::new(Sum), ServerConfig::default());
        let a = server
            .submit(ScoreRequest::new(vec![1.0, 2.0, 3.0, 4.0]))
            .expect("admit a");
        let b = server
            .submit(ScoreRequest::new(vec![10.0, 20.0]))
            .expect("admit b");
        let got_a = a.wait();
        let got_b = b.wait();
        assert_eq!(got_a.response.scores(), Some(&[3.0, 7.0][..]));
        assert_eq!(got_b.response.scores(), Some(&[30.0][..]));
        let (_engine, stats) = server.shutdown();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.scored_primary, 2);
        assert_eq!(stats.answered(), stats.admitted);
        assert_eq!(stats.latency.count(), 2);
    }

    #[test]
    fn bad_shape_is_refused_and_counted() {
        let server = Server::start(PlainEngine::new(Sum), ServerConfig::default());
        let err = server
            .submit(ScoreRequest::new(vec![1.0, 2.0, 3.0]))
            .expect_err("odd length");
        assert_eq!(
            err,
            SubmitError::BadShape {
                num_features: 2,
                features_len: 3
            }
        );
        let err = server
            .submit(ScoreRequest::new(Vec::new()))
            .expect_err("empty");
        assert!(matches!(err, SubmitError::BadShape { .. }));
        let (_engine, stats) = server.shutdown();
        assert_eq!(stats.malformed, 2);
        assert_eq!(stats.admitted, 0);
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let server = Server::start(PlainEngine::new(Sum), ServerConfig::default());
        server.shared.queue.close();
        let err = server
            .submit(ScoreRequest::new(vec![1.0, 2.0]))
            .expect_err("closed");
        assert_eq!(err, SubmitError::ShuttingDown);
        let (_engine, stats) = server.shutdown();
        assert_eq!(stats.rejected_shutdown, 1);
        assert_eq!(stats.answered(), 0);
    }

    #[test]
    fn drop_without_shutdown_still_answers_everything() {
        let server = Server::start(PlainEngine::new(Sum), ServerConfig::default());
        let handle = server
            .submit(ScoreRequest::new(vec![1.0, 2.0]))
            .expect("admit");
        drop(server);
        assert_eq!(handle.wait().response.scores(), Some(&[3.0][..]));
    }

    #[test]
    fn deadline_zero_expires_in_queue() {
        let server = Server::start(PlainEngine::new(Sum), ServerConfig::default());
        let handle = server
            .submit(ScoreRequest::new(vec![1.0, 2.0]).with_deadline(Duration::ZERO))
            .expect("admit");
        assert_eq!(handle.wait().response, crate::Response::Expired);
        let (_engine, stats) = server.shutdown();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.scored(), 0);
        assert_eq!(stats.answered(), stats.admitted);
    }
}
