//! `dlr-serve` — overload-safe serving front-end for the reranking
//! stack.
//!
//! The scoring crates answer *"how fast can one batch go?"*; this crate
//! answers *"what happens when requests arrive faster than that?"*. It
//! wraps any [`BatchEngine`] (a [`RobustScorer`] in production) in a
//! concurrent front-end built from four overload defenses:
//!
//! 1. **Dynamic micro-batching** — single-query [`ScoreRequest`]s
//!    coalesce into batches of up to [`BatchConfig::max_batch_docs`]
//!    documents. A partial batch waits for company no longer than
//!    `min(max_wait, forecast saving, deadline slack)`: only while the
//!    server's latency forecast says one batch instead of two would
//!    still save service time, never so long that a queued deadline
//!    could no longer be met, and never past [`BatchConfig::max_wait`].
//!    Under the linear Eq. 3 forecast the saving is zero, as it is with
//!    no forecast at all, so the server is work-conserving: batches are
//!    whatever queued while the engine was busy, and throughput scales
//!    with load at no idle-time latency.
//! 2. **Bounded admission with explicit backpressure** — the queue
//!    never grows without bound; overflow either rejects the submitter
//!    ([`Backpressure::Reject`]) or blocks it ([`Backpressure::Block`]),
//!    and shedding is a typed, counted event, never a silent drop.
//! 3. **Admission control and deadline propagation** — the same
//!    forecaster (the Eq. 3 budget predictor) sheds requests predicted
//!    to miss their deadline before they waste queue space; deadlines
//!    that survive admission ride into the engine as the batch budget,
//!    where [`RobustScorer`] can degrade to its fallback instead of
//!    missing them.
//! 4. **Isolation and graceful drain** — a panicking batch fails only
//!    its own requests; [`Server::shutdown`] closes admission and
//!    answers everything already admitted. After a drain the books
//!    balance exactly: `admitted == scored + expired + failed`.
//!
//! ```
//! use dlr_serve::{PlainEngine, ScoreRequest, Server, ServerConfig};
//! use dlr_core::scoring::DocumentScorer;
//!
//! struct Sum;
//! impl DocumentScorer for Sum {
//!     fn num_features(&self) -> usize { 2 }
//!     fn score_batch(&mut self, rows: &[f32], out: &mut [f32]) {
//!         for (row, o) in rows.chunks_exact(2).zip(out.iter_mut()) {
//!             *o = row.iter().sum();
//!         }
//!     }
//!     fn name(&self) -> String { "sum".into() }
//! }
//!
//! let server = Server::start(PlainEngine::new(Sum), ServerConfig::default());
//! let handle = server.submit(ScoreRequest::new(vec![1.0, 2.0])).unwrap();
//! assert_eq!(handle.wait().response.scores(), Some(&[3.0][..]));
//! let (_engine, stats) = server.shutdown();
//! assert_eq!(stats.scored(), 1);
//! ```
//!
//! [`RobustScorer`]: dlr_core::serve::RobustScorer

#![forbid(unsafe_code)]

pub mod batch;
mod dispatch;
pub mod engine;
pub mod queue;
pub mod registry;
pub mod request;
mod server;
pub mod stats;
mod sync;

pub use batch::BatchConfig;
pub use dlr_obs::{ManualClock, MonotonicClock, NanoClock as Clock};
pub use engine::{BatchEngine, FaultInjectingEngine, PlainEngine, RequestMeta};
pub use queue::Backpressure;
pub use registry::{
    CandidateOutcome, CandidateReport, CandidateStats, LifecycleError, LifecycleEvent,
    ModelRegistry, RegistryEngine, RollbackReason, RolloutConfig, Stage,
};
pub use request::{Delivery, Response, ResponseHandle, ScoreRequest, SubmitError};
pub use server::{Server, ServerConfig};
pub use stats::{ServerStats, VersionStats};
