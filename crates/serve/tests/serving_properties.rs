//! Property coverage for the coalescing invariants.
//!
//! For random mixes of query sizes, batch limits, admission forecasters
//! (each kind sends the flush rule down a different branch), and
//! injected batch panics, the server must uphold:
//!
//! 1. every admitted request gets **exactly one** response (all handles
//!    are ready when shutdown returns — none lost, none duplicated);
//! 2. responses map to the **right query** (scores carry a query tag);
//! 3. **order within a query** is preserved (per-document scores come
//!    back in submission order);
//! 4. the accounting identities balance exactly, panics included.

use dlr_core::fault::{FaultPlan, ServerFault};
use dlr_core::scoring::DocumentScorer;
use dlr_core::serve::LatencyForecaster;
use dlr_serve::{
    BatchConfig, FaultInjectingEngine, PlainEngine, Response, ScoreRequest, Server, ServerConfig,
};
use proptest::prelude::*;
use std::time::Duration;

/// Two features per document; score = 1000·query + doc, so a response
/// betrays both which query it belongs to and its document order.
struct Tagged;

impl DocumentScorer for Tagged {
    fn num_features(&self) -> usize {
        2
    }
    fn score_batch(&mut self, rows: &[f32], out: &mut [f32]) {
        for (row, o) in rows.chunks_exact(2).zip(out.iter_mut()) {
            *o = row[0] * 1000.0 + row[1];
        }
    }
    fn name(&self) -> String {
        "tagged".into()
    }
}

fn tagged_request(query: usize, docs: usize) -> ScoreRequest {
    let mut features = Vec::with_capacity(docs * 2);
    for doc in 0..docs {
        features.push(query as f32);
        features.push(doc as f32);
    }
    ScoreRequest::new(features)
}

fn expected_scores(query: usize, docs: usize) -> Vec<f32> {
    (0..docs)
        .map(|doc| query as f32 * 1000.0 + doc as f32)
        .collect()
}

/// The forecaster kinds the flush rule sees: none (no information, so
/// never wait), linear (never wait), a fixed cost per batch (wait that
/// long, up to `max_wait`), abstaining (as none). No request carries a
/// deadline, so none of them sheds.
fn forecaster(kind: usize) -> Option<Box<dyn LatencyForecaster + Send + Sync>> {
    match kind {
        0 => None,
        1 => Some(Box::new(|docs: usize| {
            Some(Duration::from_micros(5 * docs as u64))
        })),
        2 => Some(Box::new(|_docs: usize| Some(Duration::from_micros(30)))),
        _ => Some(Box::new(|_docs: usize| None)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Clean path: every query's scores come back intact, in order, and
    /// exactly once, for any mix of request sizes and batch limits.
    #[test]
    fn every_query_is_answered_exactly_once_in_order(
        query_docs in proptest::collection::vec(1usize..6, 1..24),
        max_batch_docs in 1usize..12,
        max_wait_us in 0u64..300,
        forecaster_kind in 0usize..4,
    ) {
        let server = Server::start(
            PlainEngine::new(Tagged),
            ServerConfig {
                batch: BatchConfig {
                    max_batch_docs,
                    max_wait: Duration::from_micros(max_wait_us),
                },
                admission: forecaster(forecaster_kind),
                ..ServerConfig::default()
            },
        );
        let handles: Vec<_> = query_docs
            .iter()
            .enumerate()
            .map(|(query, &docs)| {
                server
                    .submit(tagged_request(query, docs))
                    .expect("capacity 1024 is never reached")
            })
            .collect();
        let (_engine, stats) = server.shutdown();
        for (query, (handle, &docs)) in handles.into_iter().zip(&query_docs).enumerate() {
            // Exactly one response, already delivered by the drain.
            prop_assert!(handle.is_ready(), "query {query} unanswered after drain");
            let got = handle.wait();
            // The right query's scores, in document order.
            // The right query's scores, in document order — a mismatch
            // here means cross-query corruption or reordering.
            prop_assert_eq!(got.response.scores(), Some(&expected_scores(query, docs)[..]));
        }
        let total_queries = query_docs.len() as u64;
        let total_docs: usize = query_docs.iter().sum();
        prop_assert_eq!(stats.admitted, total_queries);
        prop_assert_eq!(stats.scored_primary, total_queries);
        prop_assert_eq!(stats.batched_docs, total_docs as u64);
        prop_assert_eq!(stats.expired + stats.failed, 0);
        prop_assert_eq!(stats.latency.count(), total_queries);
    }

    /// Poisoned path: with batch panics injected on a random schedule,
    /// every request is still answered exactly once — either with its
    /// own correct scores or `Failed` — and the books still balance.
    #[test]
    fn injected_batch_panics_never_lose_or_corrupt_responses(
        query_docs in proptest::collection::vec(1usize..6, 1..24),
        max_batch_docs in 1usize..12,
        panic_mask in proptest::collection::vec(0u64..2, 64),
        forecaster_kind in 0usize..4,
    ) {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let schedule: Vec<ServerFault> = panic_mask
            .iter()
            .map(|&poison| if poison == 1 { ServerFault::BatchPanic } else { ServerFault::None })
            .collect();
        let engine = FaultInjectingEngine::new(PlainEngine::new(Tagged), FaultPlan::script(schedule));
        let counters = engine.counters();
        let server = Server::start(
            engine,
            ServerConfig {
                batch: BatchConfig {
                    max_batch_docs,
                    max_wait: Duration::from_micros(50),
                },
                admission: forecaster(forecaster_kind),
                ..ServerConfig::default()
            },
        );
        let handles: Vec<_> = query_docs
            .iter()
            .enumerate()
            .map(|(query, &docs)| {
                server
                    .submit(tagged_request(query, docs))
                    .expect("capacity 1024 is never reached")
            })
            .collect();
        let (_engine, stats) = server.shutdown();
        std::panic::set_hook(prev);
        let mut failed = 0u64;
        for (query, (handle, &docs)) in handles.into_iter().zip(&query_docs).enumerate() {
            prop_assert!(handle.is_ready(), "query {query} unanswered after drain");
            match handle.wait().response {
                Response::Scored { scores, .. } => {
                    // A surviving response is never corrupted by a
                    // neighbouring batch's panic.
                    prop_assert_eq!(scores, expected_scores(query, docs));
                }
                Response::Failed => failed += 1,
                Response::Expired => {
                    prop_assert!(false, "no deadlines were set; query {} expired", query);
                }
            }
        }
        // Exactly-once, panics included: the books balance.
        prop_assert_eq!(stats.admitted, query_docs.len() as u64);
        prop_assert_eq!(stats.failed, failed);
        prop_assert_eq!(stats.scored_primary + stats.failed, stats.admitted);
        prop_assert_eq!(
            stats.batch_panics,
            counters.batch_panics.load(std::sync::atomic::Ordering::Relaxed)
        );
        prop_assert!(stats.batch_panics <= stats.batches);
    }
}
