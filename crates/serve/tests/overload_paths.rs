//! Exact-count accounting for every overload path the server defends.
//!
//! Each test drives one failure mode with injected faults or rigged
//! forecasters, then asserts the full [`ServerStats`] block by equality
//! (counters and high-water gauges; the latency histogram is excluded by
//! `PartialEq`). The invariant under test everywhere: **no admitted
//! request is ever lost or answered twice** — after a drain,
//! `admitted == scored + expired + failed` exactly.
//!
//! Determinism notes: sequential submit-and-wait with
//! `max_batch_docs = 1` makes batch boundaries (and so fault-schedule
//! indices and queue high-water marks) exact; expiry uses stalls much
//! longer than the deadline; shedding uses a forecaster that always
//! predicts far over budget.

use dlr_core::fault::{ServerFault, ServerFaultPlan};
use dlr_core::scoring::DocumentScorer;
use dlr_core::serve::{LatencyForecaster, RobustScorer, ServedBy};
use dlr_obs::{Obs, ObsConfig};
use dlr_serve::{
    Backpressure, BatchConfig, BatchEngine, Delivery, ManualClock, PlainEngine, Response,
    ResponseHandle, ScoreRequest, Server, ServerConfig, ServerStats, SubmitError,
};
use std::sync::Arc;
use std::time::Duration;

/// Two features per document; score = 1000·f0 + f1.
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

/// Fallback that answers a constant, so degraded responses are visible.
struct Const(f32);

impl DocumentScorer for Const {
    fn num_features(&self) -> usize {
        2
    }
    fn score_batch(&mut self, _rows: &[f32], out: &mut [f32]) {
        out.fill(self.0);
    }
    fn name(&self) -> String {
        "const".into()
    }
}

fn one_doc_batches() -> BatchConfig {
    BatchConfig {
        max_batch_docs: 1,
        max_wait: Duration::from_millis(1),
    }
}

fn req(q: u32) -> ScoreRequest {
    ScoreRequest::new(vec![q as f32, 0.0])
}

/// Expected stats must match ACTUAL exactly, except the histogram which
/// equality already ignores.
fn assert_books(actual: &ServerStats, expected: &ServerStats) {
    assert_eq!(
        actual, expected,
        "\nactual:\n{actual}\nexpected:\n{expected}"
    );
    assert_eq!(
        actual.admitted,
        actual.scored_primary + actual.scored_fallback + actual.expired + actual.failed,
        "admitted requests must all be answered exactly once"
    );
    assert_eq!(
        actual.submitted,
        actual.admitted + actual.refused(),
        "every submission is admitted or refused"
    );
}

/// Overload path 1 — **shed**: admission control refuses requests whose
/// deadline the forecaster says cannot be met; requests without a
/// deadline sail through. Zero admitted requests are lost.
#[test]
fn admission_control_sheds_predicted_deadline_misses() {
    let server = Server::start(
        PlainEngine::new(Tagged),
        ServerConfig {
            batch: one_doc_batches(),
            admission: Some(Box::new(|_docs: usize| Some(Duration::from_secs(10)))),
            ..ServerConfig::default()
        },
    );
    for q in 0..3 {
        let err = server
            .submit(req(q).with_deadline(Duration::from_millis(1)))
            .expect_err("predicted to miss its deadline");
        assert_eq!(
            err,
            SubmitError::Shed {
                predicted: Duration::from_secs(10),
                budget: Duration::from_millis(1),
            }
        );
    }
    for q in 0..2 {
        let got = server
            .submit(req(q))
            .expect("no deadline, never shed")
            .wait();
        assert_eq!(got.response.scores(), Some(&[q as f32 * 1000.0][..]));
    }
    let (_engine, stats) = server.shutdown();
    let expected = ServerStats {
        submitted: 5,
        admitted: 2,
        shed: 3,
        batches: 2,
        batched_docs: 2,
        scored_primary: 2,
        max_queue_depth: 1,
        max_queued_docs: 1,
        ..ServerStats::default()
    };
    assert_books(&stats, &expected);
}

/// Overload path 2 — **degrade**: a deadline that survives admission
/// propagates into the robust engine, whose forecaster veto routes the
/// batch to the fallback instead of missing the deadline. The response
/// is marked [`ServedBy::Fallback`] and carries the fallback's scores.
#[test]
fn propagated_deadlines_degrade_to_the_fallback() {
    let engine = RobustScorer::new(Tagged, Const(7.0), "degrade-test")
        .with_forecaster(|_docs: usize| Some(Duration::from_secs(10)));
    let server = Server::start(
        engine,
        ServerConfig {
            batch: one_doc_batches(),
            ..ServerConfig::default()
        },
    );
    for q in 0..3 {
        let got = server
            .submit(req(q).with_deadline(Duration::from_secs(5)))
            .expect("admitted: no admission forecaster configured")
            .wait();
        match got.response {
            Response::Scored { scores, served_by } => {
                assert_eq!(served_by, ServedBy::Fallback);
                assert_eq!(scores, [7.0]);
            }
            other => panic!("expected degraded scores, got {other:?}"),
        }
    }
    let (engine, stats) = server.shutdown();
    let expected = ServerStats {
        submitted: 3,
        admitted: 3,
        batches: 3,
        batched_docs: 3,
        scored_fallback: 3,
        max_queue_depth: 1,
        max_queued_docs: 1,
        ..ServerStats::default()
    };
    assert_books(&stats, &expected);
    assert_eq!(engine.stats().fallback_batches, 3);
}

/// Overload path 3 — **drain**: shutdown closes admission but answers
/// everything already admitted; nothing is lost, nothing scored twice.
#[test]
fn shutdown_drains_every_admitted_request() {
    let server = Server::start(PlainEngine::new(Tagged), ServerConfig::default());
    let handles: Vec<_> = (0..40)
        .map(|q| server.submit(req(q)).expect("admitted"))
        .collect();
    let (_engine, stats) = server.shutdown();
    // The drain guarantee: every handle is already answered when
    // shutdown returns — wait() cannot block.
    for (q, handle) in handles.into_iter().enumerate() {
        assert!(handle.is_ready(), "request {q} unanswered after drain");
        assert_eq!(
            handle.wait().response.scores(),
            Some(&[q as f32 * 1000.0][..])
        );
    }
    assert_eq!(stats.submitted, 40);
    assert_eq!(stats.admitted, 40);
    assert_eq!(stats.scored_primary, 40);
    assert_eq!(stats.expired + stats.failed, 0);
    assert_eq!(stats.batched_docs, 40, "every admitted doc is batched once");
    assert!(stats.batches >= 1 && stats.batches <= 40);
    assert_eq!(stats.latency.count(), 40);
}

/// Overload path 4 — **isolated batch panic**: a poisoned batch fails
/// only its own requests; the batches before and after it score
/// normally on the same dispatcher thread.
#[test]
fn a_panicking_batch_fails_only_itself() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let plan = ServerFaultPlan::from_schedule(vec![ServerFault::None, ServerFault::BatchPanic]);
    let counters = plan.counters();
    let server = Server::start(
        PlainEngine::new(Tagged),
        ServerConfig {
            batch: one_doc_batches(),
            faults: Some(plan),
            ..ServerConfig::default()
        },
    );
    let r0 = server.submit(req(0)).expect("admitted").wait();
    let r1 = server.submit(req(1)).expect("admitted").wait();
    let r2 = server.submit(req(2)).expect("admitted").wait();
    std::panic::set_hook(prev);
    assert_eq!(r0.response.scores(), Some(&[0.0][..]));
    assert_eq!(r1.response, Response::Failed);
    assert_eq!(r2.response.scores(), Some(&[2000.0][..]));
    let (_engine, stats) = server.shutdown();
    let expected = ServerStats {
        submitted: 3,
        admitted: 3,
        batches: 3,
        batched_docs: 3,
        scored_primary: 2,
        failed: 1,
        batch_panics: 1,
        max_queue_depth: 1,
        max_queued_docs: 1,
        ..ServerStats::default()
    };
    assert_books(&stats, &expected);
    assert_eq!(
        counters
            .batch_panics
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
}

/// Injected **deadline storm**: the batch budget collapses to zero, so a
/// robust engine with any nonzero forecast degrades; the next batch is
/// served primary again.
#[test]
fn deadline_storm_degrades_one_batch() {
    let plan = ServerFaultPlan::from_schedule(vec![ServerFault::DeadlineStorm]);
    let engine = RobustScorer::new(Tagged, Const(7.0), "storm-test")
        .with_forecaster(|_docs: usize| Some(Duration::from_micros(1)));
    let server = Server::start(
        engine,
        ServerConfig {
            batch: one_doc_batches(),
            faults: Some(plan),
            ..ServerConfig::default()
        },
    );
    let stormed = server.submit(req(1)).expect("admitted").wait();
    assert_eq!(stormed.response.scores(), Some(&[7.0][..]));
    let calm = server.submit(req(2)).expect("admitted").wait();
    assert_eq!(calm.response.scores(), Some(&[2000.0][..]));
    let (_engine, stats) = server.shutdown();
    let expected = ServerStats {
        submitted: 2,
        admitted: 2,
        batches: 2,
        batched_docs: 2,
        scored_primary: 1,
        scored_fallback: 1,
        max_queue_depth: 1,
        max_queued_docs: 1,
        ..ServerStats::default()
    };
    assert_books(&stats, &expected);
}

/// Injected **queue stall**: the consumer deschedules long enough for a
/// queued deadline to lapse; the request is answered `Expired` without
/// being scored, and is still fully accounted.
#[test]
fn queue_stall_expires_deadlined_requests() {
    let plan =
        ServerFaultPlan::from_schedule(vec![ServerFault::QueueStall(Duration::from_millis(50))]);
    let counters = plan.counters();
    let server = Server::start(
        PlainEngine::new(Tagged),
        ServerConfig {
            batch: one_doc_batches(),
            faults: Some(plan),
            ..ServerConfig::default()
        },
    );
    let got = server
        .submit(req(1).with_deadline(Duration::from_millis(5)))
        .expect("admitted")
        .wait();
    assert_eq!(got.response, Response::Expired);
    assert!(
        got.latency_nanos >= 5_000_000,
        "expiry cannot precede the deadline; measured {}ns",
        got.latency_nanos
    );
    let (_engine, stats) = server.shutdown();
    let expected = ServerStats {
        submitted: 1,
        admitted: 1,
        expired: 1,
        max_queue_depth: 1,
        max_queued_docs: 1,
        ..ServerStats::default()
    };
    assert_books(&stats, &expected);
    assert_eq!(
        counters
            .queue_stalls
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
}

/// **Idle server, live deadline**: a lone request whose deadline falls
/// before the `max_wait` ceiling is scored, not expired. With no
/// forecaster nothing predicts a saving from company, so the dispatcher
/// does not wait for any, and the ceiling never comes into play.
#[test]
fn an_idle_server_scores_a_request_whose_deadline_precedes_the_ceiling() {
    let server = Server::start(
        PlainEngine::new(Tagged),
        ServerConfig {
            batch: BatchConfig {
                max_batch_docs: 256,
                max_wait: Duration::from_millis(400),
            },
            ..ServerConfig::default()
        },
    );
    let got = server
        .submit(req(3).with_deadline(Duration::from_millis(200)))
        .expect("admitted")
        .wait();
    assert_eq!(got.response.scores(), Some(&[3000.0][..]));
    let (_engine, stats) = server.shutdown();
    let expected = ServerStats {
        submitted: 1,
        admitted: 1,
        batches: 1,
        batched_docs: 1,
        scored_primary: 1,
        max_queue_depth: 1,
        max_queued_docs: 1,
        ..ServerStats::default()
    };
    assert_books(&stats, &expected);
}

/// `handle.wait()`, failing the test instead of hanging it when the
/// server never answers.
fn wait_bounded(handle: ResponseHandle) -> Delivery {
    let (tx, rx) = std::sync::mpsc::channel();
    let waiter = std::thread::spawn(move || tx.send(handle.wait()));
    let got = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("the server never answered");
    waiter.join().expect("waiter").expect("receiver alive");
    got
}

/// **The flush rule on a frozen clock**: a quarter-full batch on a server
/// whose forecast is linear (Eq. 3) is scored without the clock ever
/// moving — coalescing saves nothing, so no wait is timed — while a
/// forecast with a fixed 30 µs per batch holds it until exactly that much
/// server time has passed.
#[test]
fn a_linear_forecast_never_waits_and_a_constant_one_waits_out_its_saving() {
    let quarter_batch = || ScoreRequest::new((0..64).flat_map(|doc| [7.0, doc as f32]).collect());
    let start = |forecast: Box<dyn LatencyForecaster + Send + Sync>| {
        let clock = Arc::new(ManualClock::at(0));
        let server = Server::start(
            PlainEngine::new(Tagged),
            ServerConfig {
                batch: BatchConfig::default(),
                admission: Some(forecast),
                clock: Some(Arc::clone(&clock) as Arc<dyn dlr_serve::Clock>),
                ..ServerConfig::default()
            },
        );
        (clock, server)
    };

    let (_frozen, server) = start(Box::new(|docs: usize| {
        Some(Duration::from_nanos(4_690 * docs as u64))
    }));
    let got = wait_bounded(server.submit(quarter_batch()).expect("admitted"));
    assert_eq!(got.response.scores().map(<[f32]>::len), Some(64));
    assert_eq!(got.latency_nanos, 0);
    drop(server);

    let (clock, server) = start(Box::new(|_docs: usize| Some(Duration::from_micros(30))));
    let handle = server.submit(quarter_batch()).expect("admitted");
    // Only detection rests on this sleep: a correct server cannot answer
    // while the clock stands still.
    std::thread::sleep(Duration::from_millis(20));
    assert!(
        !handle.is_ready(),
        "flushed before the saving was waited out"
    );
    clock.advance(30_000);
    let got = wait_bounded(handle);
    assert_eq!(got.response.scores().map(<[f32]>::len), Some(64));
    assert_eq!(got.latency_nanos, 30_000);
}

/// **No forecast, no wait**: a server holding no forecaster has nothing
/// that predicts a saving from a fuller batch, so it treats the saving as
/// zero — a partial batch is scored on a frozen clock, and the default
/// 1 ms `max_wait` is never slept out.
#[test]
fn a_server_without_a_forecast_never_waits() {
    let clock = Arc::new(ManualClock::at(0));
    let server = Server::start(
        PlainEngine::new(Tagged),
        ServerConfig {
            batch: BatchConfig::default(),
            admission: None,
            clock: Some(Arc::clone(&clock) as Arc<dyn dlr_serve::Clock>),
            ..ServerConfig::default()
        },
    );
    let got = wait_bounded(server.submit(req(5)).expect("admitted"));
    assert_eq!(got.response.scores(), Some(&[5000.0][..]));
    assert_eq!(got.latency_nanos, 0);
}

/// **Backpressure (Reject)**: with the dispatcher stalled, submissions
/// beyond the queue capacity are refused with a typed error and exact
/// counts; everything admitted is still answered.
#[test]
fn reject_backpressure_bounds_the_queue_exactly() {
    let plan =
        ServerFaultPlan::from_schedule(vec![ServerFault::QueueStall(Duration::from_millis(60))]);
    let server = Server::start(
        PlainEngine::new(Tagged),
        ServerConfig {
            batch: one_doc_batches(),
            queue_capacity: 2,
            backpressure: Backpressure::Reject,
            faults: Some(plan),
            ..ServerConfig::default()
        },
    );
    // First request: taken by the dispatcher, which then stalls 60ms.
    let h0 = server.submit(req(0)).expect("admitted");
    let start = std::time::Instant::now();
    while server.queue_depth().0 > 0 {
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "dispatcher never took r0"
        );
        std::thread::yield_now();
    }
    // Queue (capacity 2) fills behind the stalled dispatcher.
    let h1 = server.submit(req(1)).expect("fits");
    let h2 = server.submit(req(2)).expect("fits");
    let err = server.submit(req(3)).expect_err("queue is full");
    assert_eq!(err, SubmitError::QueueFull);
    for (q, h) in [(0u32, h0), (1, h1), (2, h2)] {
        assert_eq!(h.wait().response.scores(), Some(&[q as f32 * 1000.0][..]));
    }
    let (_engine, stats) = server.shutdown();
    assert_eq!(stats.submitted, 4);
    assert_eq!(stats.admitted, 3);
    assert_eq!(stats.rejected_full, 1);
    assert_eq!(stats.scored_primary, 3);
    assert_eq!(stats.max_queue_depth, 2);
    assert_eq!(stats.answered(), stats.admitted);
}

/// **Backpressure (Block)**: a submitter over capacity parks instead of
/// being refused, and completes once the dispatcher frees space — the
/// closed-loop alternative to rejection.
#[test]
fn block_backpressure_parks_the_submitter() {
    let plan =
        ServerFaultPlan::from_schedule(vec![ServerFault::QueueStall(Duration::from_millis(40))]);
    let server = std::sync::Arc::new(Server::start(
        PlainEngine::new(Tagged),
        ServerConfig {
            batch: one_doc_batches(),
            queue_capacity: 1,
            backpressure: Backpressure::Block,
            faults: Some(plan),
            ..ServerConfig::default()
        },
    ));
    let h0 = server.submit(req(0)).expect("admitted");
    let start = std::time::Instant::now();
    while server.queue_depth().0 > 0 {
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "dispatcher never took r0"
        );
        std::thread::yield_now();
    }
    let h1 = server.submit(req(1)).expect("fills the queue");
    let blocked = std::thread::spawn({
        let server = std::sync::Arc::clone(&server);
        move || server.submit(req(2)).expect("admitted after space frees")
    });
    let h2 = blocked.join().expect("blocked submitter");
    for (q, h) in [(0u32, h0), (1, h1), (2, h2)] {
        assert_eq!(h.wait().response.scores(), Some(&[q as f32 * 1000.0][..]));
    }
    let server = std::sync::Arc::into_inner(server).expect("sole owner");
    let (_engine, stats) = server.shutdown();
    assert_eq!(stats.admitted, 3);
    assert_eq!(stats.rejected_full, 0);
    assert_eq!(stats.scored_primary, 3);
}

/// The stages of every span recorded for one trace id, in sink order.
fn stages_of(obs: &Obs, id: u64) -> Vec<dlr_obs::Stage> {
    obs.spans()
        .into_iter()
        .filter(|s| s.id == id)
        .map(|s| s.stage)
        .collect()
}

/// A frozen clock and a 64-slot single-shard plane over it.
fn frozen_obs() -> (Arc<ManualClock>, Arc<Obs>) {
    let clock = Arc::new(ManualClock::at(0));
    let obs = Arc::new(Obs::with_config(
        Arc::clone(&clock) as Arc<dyn dlr_obs::NanoClock>,
        ObsConfig {
            shards: 1,
            spans_per_shard: 64,
            drift_window: 16,
        },
    ));
    (clock, obs)
}

/// One request down each path, in trace-id order: 1 shed, 2 expired,
/// 3 failed by an injected batch panic, 4 scored.
fn shed_expire_panic_score<E: BatchEngine + 'static>(
    engine: E,
    clock: &Arc<ManualClock>,
    obs: &Arc<Obs>,
) -> Server<E> {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    // Batch #1 is the expired request (a taken batch even though nothing
    // is scored), batch #2 the panic victim, batch #3 the healthy one.
    let plan = ServerFaultPlan::from_schedule(vec![ServerFault::None, ServerFault::BatchPanic]);
    let server = Server::start(
        engine,
        ServerConfig {
            batch: one_doc_batches(),
            // Forecasts only multi-doc requests, so the one-doc expiry
            // victim below is admitted rather than shed at the door.
            admission: Some(Box::new(|docs: usize| {
                (docs >= 2).then(|| Duration::from_secs(10))
            })),
            faults: Some(plan),
            clock: Some(Arc::clone(clock) as Arc<dyn dlr_serve::Clock>),
            obs: Some(Arc::clone(obs)),
            ..ServerConfig::default()
        },
    );

    // id 1 — shed at submit: two docs trip the forecaster.
    let err = server
        .submit(ScoreRequest::new(vec![1.0, 0.0, 2.0, 0.0]).with_deadline(Duration::from_millis(1)))
        .expect_err("predicted miss");
    assert!(matches!(err, SubmitError::Shed { .. }));
    // id 2 — expires in the queue: a zero deadline lapses immediately
    // under the frozen clock.
    let expired = server
        .submit(req(0).with_deadline(Duration::ZERO))
        .expect("admitted")
        .wait();
    assert_eq!(expired.response, Response::Expired);
    // id 3 — its batch draws the injected panic.
    let failed = server.submit(req(1)).expect("admitted").wait();
    assert_eq!(failed.response, Response::Failed);
    // id 4 — scores normally after the panic.
    let scored = server.submit(req(2)).expect("admitted").wait();
    std::panic::set_hook(prev);
    assert_eq!(scored.response.scores(), Some(&[2000.0][..]));
    server
}

/// What [`shed_expire_panic_score`] must leave in the server's books.
fn shed_expire_panic_score_books() -> ServerStats {
    ServerStats {
        submitted: 4,
        admitted: 3,
        shed: 1,
        expired: 1,
        batches: 2,
        batched_docs: 2,
        scored_primary: 1,
        failed: 1,
        batch_panics: 1,
        max_queue_depth: 1,
        max_queued_docs: 1,
        ..ServerStats::default()
    }
}

/// Every refusal and failure path leaves a correctly-tagged trace: shed
/// requests get exactly one `Shed` span at the door, expired requests a
/// `QueueWait` + `Expired` pair, panicked batches a full waterfall
/// capped with `Failed` — and the sink's conservation law
/// (`spans_opened == spans_resident + spans_dropped`) holds throughout.
#[test]
fn overload_paths_produce_correctly_tagged_spans() {
    use dlr_obs::Stage::{Batch, Dispatch, Expired, Failed, QueueWait, Shed};
    let (clock, obs) = frozen_obs();
    let server = shed_expire_panic_score(PlainEngine::new(Tagged), &clock, &obs);

    assert_eq!(stages_of(&obs, 1), vec![Shed]);
    assert_eq!(stages_of(&obs, 2), vec![QueueWait, Expired]);
    assert_eq!(stages_of(&obs, 3), vec![QueueWait, Batch, Dispatch, Failed]);
    assert_eq!(stages_of(&obs, 4), vec![QueueWait, Batch, Dispatch]);
    assert!(obs.books_balance(), "span accounting must balance");
    assert_eq!(obs.sink().spans_dropped(), 0, "ring never wrapped");

    let (_engine, stats) = server.shutdown();
    assert_books(&stats, &shed_expire_panic_score_books());
}

/// The export is the stats, field for field: after the same scenario
/// over a [`RobustScorer`], every counter, gauge and histogram of
/// [`ServerStats`] and `ServeStats` is exported under its metric name
/// with the view's value, and nothing else is exported.
#[test]
fn every_stats_field_is_exported_under_its_metric_name() {
    let (clock, obs) = frozen_obs();
    let engine = RobustScorer::new(Tagged, Const(-1.0), "robust").with_obs(Arc::clone(&obs));
    let server = shed_expire_panic_score(engine, &clock, &obs);
    let (engine, s) = server.shutdown();
    assert_books(&s, &shed_expire_panic_score_books());
    // The panicked batch never reached the engine.
    let r = engine.stats();
    assert_eq!((r.batches, r.primary_batches), (1, 1));

    // In publication order: the engine's cells, then the server's.
    let counters = [
        ("robust_batches_total", r.batches),
        ("robust_primary_batches_total", r.primary_batches),
        ("robust_fallback_batches_total", r.fallback_batches),
        ("robust_deadline_misses_total", r.deadline_misses),
        ("robust_forecast_degrades_total", r.forecast_degrades),
        ("robust_fallback_activations_total", r.fallback_activations),
        ("robust_recoveries_total", r.recoveries),
        ("robust_probes_total", r.probes),
        ("robust_sanitized_rows_total", r.sanitized_rows),
        ("robust_rejected_batches_total", r.rejected_batches),
        ("robust_panics_caught_total", r.panics_caught),
        ("robust_rescued_outputs_total", r.rescued_outputs),
        ("serve_submitted_total", s.submitted),
        ("serve_admitted_total", s.admitted),
        ("serve_rejected_full_total", s.rejected_full),
        ("serve_shed_total", s.shed),
        ("serve_rejected_shutdown_total", s.rejected_shutdown),
        ("serve_malformed_total", s.malformed),
        ("serve_batches_total", s.batches),
        ("serve_batched_docs_total", s.batched_docs),
        ("serve_scored_primary_total", s.scored_primary),
        ("serve_scored_fallback_total", s.scored_fallback),
        ("serve_expired_total", s.expired),
        ("serve_failed_total", s.failed),
        ("serve_batch_panics_total", s.batch_panics),
    ];
    let gauges = [
        ("serve_queue_depth_max", s.max_queue_depth),
        ("serve_queued_docs_max", s.max_queued_docs),
    ];
    let histograms = [
        ("robust_latency_us", &r.latency),
        ("serve_latency_us", &s.latency),
        ("serve_queue_wait_us", &s.queue_wait),
        ("serve_execute_us", &s.execute),
    ];
    let named = |rows: &[(&str, u64)]| -> Vec<(String, u64)> {
        rows.iter().map(|&(n, v)| (n.to_string(), v)).collect()
    };
    let snap = obs.metrics().snapshot();
    assert_eq!(snap.counters, named(&counters));
    assert_eq!(snap.gauges, named(&gauges));
    assert_eq!(snap.histograms.len(), histograms.len());
    for ((name, exported), (want_name, want)) in snap.histograms.iter().zip(histograms) {
        assert_eq!(name, want_name);
        assert_eq!(exported, &want.0, "{name}");
        assert!(want.count() > 0, "{name} recorded nothing");
    }
    let prom = obs.snapshot_prometheus();
    for (name, value) in counters.iter().chain(&gauges) {
        assert!(prom.contains(&format!("\n{name} {value}\n")), "{name}");
    }
}

/// Injected **trace pressure**: a synthetic span burst wraps the ring
/// mid-dispatch. Overwrite-oldest must never block or reorder the
/// dispatcher — both requests still score, in order, and the
/// conservation law accounts for every overwritten span.
#[test]
fn trace_pressure_wraps_the_ring_without_blocking_the_dispatcher() {
    let clock = Arc::new(ManualClock::at(0));
    // A deliberately tiny ring: 8 slots against a 64-span burst.
    let obs = Arc::new(Obs::with_config(
        Arc::clone(&clock) as Arc<dyn dlr_obs::NanoClock>,
        ObsConfig {
            shards: 1,
            spans_per_shard: 8,
            drift_window: 16,
        },
    ));
    let plan = ServerFaultPlan::from_schedule(vec![ServerFault::TracePressure { spans: 64 }]);
    let counters = plan.counters();
    let server = Server::start(
        PlainEngine::new(Tagged),
        ServerConfig {
            batch: one_doc_batches(),
            faults: Some(plan),
            clock: Some(Arc::clone(&clock) as Arc<dyn dlr_serve::Clock>),
            obs: Some(Arc::clone(&obs)),
            ..ServerConfig::default()
        },
    );
    let r1 = server.submit(req(1)).expect("admitted").wait();
    let r2 = server.submit(req(2)).expect("admitted").wait();
    assert_eq!(r1.response.scores(), Some(&[1000.0][..]));
    assert_eq!(r2.response.scores(), Some(&[2000.0][..]));

    // 64 synthetic + 3 spans per scored request = 70 opened; the ring
    // keeps the newest 8 and the books still balance exactly.
    assert_eq!(obs.sink().spans_opened(), 70);
    assert_eq!(obs.sink().spans_dropped(), 62);
    assert!(obs.books_balance(), "wrap must not lose accounting");
    // The survivors are the newest spans in recording order: the tail
    // of the burst, then request 1's waterfall, then request 2's —
    // proving the wrap reordered nothing.
    let ids: Vec<u64> = obs.spans().iter().map(|s| s.id).collect();
    assert_eq!(ids, vec![0, 0, 1, 1, 1, 2, 2, 2]);

    let (_engine, stats) = server.shutdown();
    assert_eq!(stats.scored_primary, 2);
    assert_eq!(
        counters
            .trace_pressure
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
}
