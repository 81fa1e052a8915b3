//! `ServerStats` is a view over per-instance atomic cells: concurrent
//! submitters and the dispatcher each increment once, no count is lost,
//! and servers sharing one `Obs` keep their own books while the export
//! combines them.

use dlr_core::scoring::DocumentScorer;
use dlr_obs::{ManualClock, Obs};
use dlr_serve::{
    Backpressure, BatchConfig, PlainEngine, ScoreRequest, Server, ServerConfig, SubmitError,
};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// One feature per document; score = the feature.
struct Echo;

impl DocumentScorer for Echo {
    fn num_features(&self) -> usize {
        1
    }
    fn score_batch(&mut self, rows: &[f32], out: &mut [f32]) {
        out.copy_from_slice(rows);
    }
    fn name(&self) -> String {
        "echo".into()
    }
}

#[test]
fn concurrent_submitters_lose_no_count() {
    const THREADS: usize = 4;
    const CALLS: usize = 2_000;
    const MALFORMED_EVERY: usize = 50;
    // A queue smaller than a batch on a server whose forecast charges a
    // fixed 200 µs per batch: one batch instead of two saves that much,
    // so the flush rule waits `min(200 µs, max_wait)` for documents that
    // cannot fit, and the queue sits full while the submitters race it
    // and most submissions are refused. No request carries a deadline,
    // so the forecast sheds nothing.
    let server = Server::start(
        PlainEngine::new(Echo),
        ServerConfig {
            batch: BatchConfig {
                max_batch_docs: 8,
                max_wait: Duration::from_micros(200),
            },
            queue_capacity: 2,
            backpressure: Backpressure::Reject,
            admission: Some(Box::new(|_docs: usize| Some(Duration::from_micros(200)))),
            ..ServerConfig::default()
        },
    );
    let start = Barrier::new(THREADS);
    let (admitted, full) = std::thread::scope(|scope| {
        let submitters: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    let (mut admitted, mut full) = (0u64, 0u64);
                    for call in 0..CALLS {
                        let features = if call % MALFORMED_EVERY == 0 {
                            Vec::new()
                        } else {
                            vec![call as f32]
                        };
                        match server.submit(ScoreRequest::new(features)) {
                            Ok(_handle) => admitted += 1,
                            Err(SubmitError::QueueFull) => full += 1,
                            Err(SubmitError::BadShape { .. }) => {}
                            Err(other) => panic!("unexpected refusal: {other:?}"),
                        }
                    }
                    (admitted, full)
                })
            })
            .collect();
        submitters
            .into_iter()
            .map(|t| t.join().expect("submitter"))
            .fold((0, 0), |(a, f), (da, df)| (a + da, f + df))
    });
    let (_engine, stats) = server.shutdown();

    assert_eq!(stats.submitted, (THREADS * CALLS) as u64);
    assert_eq!(stats.malformed, (THREADS * CALLS / MALFORMED_EVERY) as u64);
    assert_eq!(stats.admitted, admitted);
    assert_eq!(stats.rejected_full, full);
    assert!(full > 0 && admitted > 0, "{stats}");
    assert_eq!(stats.submitted, stats.admitted + stats.refused(), "{stats}");
    assert_eq!(stats.admitted, stats.answered(), "{stats}");
    assert_eq!(stats.scored_primary, admitted);
    assert_eq!(stats.latency.count(), admitted);
    assert!(stats.max_queue_depth <= 2);
}

#[test]
fn servers_sharing_one_obs_keep_their_own_books() {
    let obs = Arc::new(Obs::new(Arc::new(ManualClock::default())));
    let start = || {
        Server::start(
            PlainEngine::new(Echo),
            ServerConfig {
                obs: Some(Arc::clone(&obs)),
                ..ServerConfig::default()
            },
        )
    };
    let (a, b) = (start(), start());
    // `a`: three one-document requests, one at a time. `b`: one
    // three-document request and one malformed block.
    for q in 0..3 {
        let reply = a.submit(ScoreRequest::new(vec![q as f32])).expect("admit");
        assert_eq!(reply.wait().response.scores(), Some(&[q as f32][..]));
    }
    let reply = b
        .submit(ScoreRequest::new(vec![7.0, 8.0, 9.0]))
        .expect("admit");
    assert_eq!(reply.wait().response.scores(), Some(&[7.0, 8.0, 9.0][..]));
    b.submit(ScoreRequest::new(Vec::new()))
        .expect_err("malformed");
    let (_, a) = a.shutdown();
    let (_, b) = b.shutdown();

    assert_eq!((a.submitted, a.scored_primary, a.malformed), (3, 3, 0));
    assert_eq!((b.submitted, b.scored_primary, b.malformed), (2, 1, 1));
    assert_eq!((a.max_queued_docs, b.max_queued_docs), (1, 3));
    assert_eq!((a.latency.count(), b.latency.count()), (3, 1));

    // One name, two publishers: counters sum, high-water gauges take
    // the max, histograms merge.
    let snap = obs.metrics().snapshot();
    let counter = |name: &str| snap.counters.iter().find(|(n, _)| n == name).map(|r| r.1);
    assert_eq!(counter("serve_submitted_total"), Some(5));
    assert_eq!(counter("serve_scored_primary_total"), Some(4));
    assert_eq!(counter("serve_malformed_total"), Some(1));
    assert_eq!(counter("serve_batched_docs_total"), Some(6));
    assert_eq!(
        snap.gauges
            .iter()
            .find(|(n, _)| n == "serve_queued_docs_max"),
        Some(&("serve_queued_docs_max".to_string(), 3))
    );
    let mut merged = a.latency.clone();
    merged.merge(&b.latency);
    assert_eq!(
        snap.histograms
            .iter()
            .find(|(n, _)| n == "serve_latency_us"),
        Some(&("serve_latency_us".to_string(), merged.0))
    );
    // Names, not instances, are what the export lists.
    assert_eq!(snap.counters.len(), 13);
}
