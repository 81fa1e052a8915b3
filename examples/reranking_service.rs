//! A simulated query-time reranking service — the deployment scenario the
//! paper's latency numbers are about.
//!
//! Web search rerankers score ~100 candidate documents per query inside a
//! strict budget. This example builds both model families and replays a
//! stream of queries through each, reporting per-query latency percentiles
//! (p50/p95/p99) and the quality delta — the view an SRE actually cares
//! about, built from the same components as the paper's µs/doc tables.
//! It then puts the distilled net behind the `dlr-serve` front-end and
//! replays the stream open-loop with injected scorer *and* server faults,
//! demonstrating micro-batching, admission control, and per-request
//! deadlines degrading to the forest fallback instead of missing.
//!
//! ```sh
//! cargo run --release --example reranking_service
//! ```

use distilled_ltr::obs::Obs;
use distilled_ltr::prelude::*;
use distilled_ltr::serve::{
    BatchConfig, Clock, FaultInjectingEngine, MonotonicClock, Response, ScoreRequest, Server,
    ServerConfig,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let mut cfg = SyntheticConfig::msn30k_like(120);
    cfg.docs_per_query = 100; // realistic rerank depth
    let data = cfg.generate();
    let split = Split::by_query(&data, SplitRatios::PAPER, 7).unwrap();

    println!("training the forest model (200 trees x 64 leaves)...");
    let forest = NeuralEngineering::train_forest(&split.train, Some(&split.valid), 200, 64, 0.1);

    println!("distilling + pruning the neural model (128x64x32, 95% sparse L1)...");
    let mut hyper = DistillHyper::msn30k().scaled_down(4);
    hyper.gamma_steps = vec![15, 20];
    let ne = NeuralEngineering::new(PipelineConfig {
        distill: DistillConfig {
            hyper,
            batch_size: 256,
            ..Default::default()
        },
        prune: PruneConfig::first_layer_level(0.95),
        ..Default::default()
    });
    let student = ne.distill_and_prune(&forest, &split.train, &[128, 64, 32]);

    let mut forest_scorer = QuickScorerScorer::compile(&forest, "forest/QuickScorer");
    let mut net_scorer = HybridScorer::new(
        student.hybrid.clone(),
        student.dense.normalizer.clone(),
        "net/sparse-L1",
    );

    println!(
        "\nreplaying {} test queries through each scorer...\n",
        split.test.num_queries()
    );
    println!(
        "{:<20} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "model", "NDCG@10", "p50 us", "p95 us", "p99 us", "max us"
    );
    for scorer in [
        &mut forest_scorer as &mut dyn DocumentScorer,
        &mut net_scorer,
    ] {
        let (lat, ndcg) = replay(scorer, &split.test);
        println!(
            "{:<20} {:>9.4} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            scorer.name(),
            ndcg,
            pct(&lat, 0.50),
            pct(&lat, 0.95),
            pct(&lat, 0.99),
            lat.last().copied().unwrap_or(0.0),
        );
    }
    println!("\nper-QUERY latency = (docs per query) x (us/doc); the paper's 0.5 us/doc");
    println!("low-latency budget is ~50 us per 100-doc query at rerank time.");

    // The same net scorer behind the full serving front-end: dynamic
    // micro-batching, admission control, backpressure, and per-request
    // deadline propagation into the robust degradation path. Faults are
    // injected at BOTH levels — scorer faults (latency spikes, NaNs,
    // panics, short writes) wrapped around the scorer, and server faults
    // (stalls, batch panics, deadline storms) wrapped around the engine —
    // standing in for the failures a long-running reranker actually sees.
    println!("\nserving the same stream through the dlr-serve front-end");
    println!("(micro-batching + admission control + deadline propagation)");
    println!("with injected scorer AND server faults (net primary, forest fallback)...\n");
    silence_injected_panic_messages();
    // One clock for the server and the observability plane, so spans,
    // drift pairs, and queue timestamps share a time base. Everything
    // below publishes into this one `Obs`: the kernel scope guards, the
    // robust engine's lifecycle markers, and the dispatcher's waterfall.
    let clock = Arc::new(MonotonicClock::default());
    let obs = Arc::new(Obs::new(
        Arc::clone(&clock) as Arc<dyn distilled_ltr::obs::NanoClock>
    ));
    let faulty_net = FaultInjectingScorer::seeded(
        HybridScorer::new(
            student.hybrid.clone(),
            student.dense.normalizer.clone(),
            "net/sparse-L1",
        )
        .with_obs(Arc::clone(&obs)),
        42,
        FaultConfig {
            p_spike: 0.10,
            spike: Duration::from_millis(5),
            p_nan: 0.08,
            p_panic: 0.04,
            p_short: 0.04,
        },
    );
    let injected = faulty_net.counters();
    // Equation 3 predictors, both at admission (shed requests that cannot
    // meet their deadline behind the queue) and inside the engine (degrade
    // to the fallback when the propagated budget cannot be met).
    let engine_forecast =
        BudgetForecast::pruned(DensePredictor::paper_i9_9900k(), 136, vec![128, 64, 32])
            .with_safety_factor(1.5);
    let admission_forecast =
        BudgetForecast::pruned(DensePredictor::paper_i9_9900k(), 136, vec![128, 64, 32])
            .with_safety_factor(1.5);
    let robust = RobustScorer::new(
        faulty_net,
        QuickScorerScorer::compile(&forest, "forest/fallback"),
        "net/robust",
    )
    .with_sanitize(SanitizePolicy::clamp())
    .with_forecaster(engine_forecast.into_forecaster())
    .with_obs(Arc::clone(&obs));

    let server_faults = ServerFaultConfig {
        p_stall: 0.20,
        // Longer than the deadline: requests queued behind it expire.
        stall: Duration::from_millis(3),
        p_panic: 0.05,
        p_storm: 0.10,
    };
    let faulty_engine = FaultInjectingEngine::new(robust, server_faults.plan(7));
    let server_counters = faulty_engine.counters();
    let server = Server::start(
        faulty_engine,
        ServerConfig {
            batch: BatchConfig {
                max_batch_docs: 200, // coalesce up to two 100-doc queries
                // The ceiling only. A partial batch waits no longer than
                // min(max_wait, forecast saving, deadline slack), and the
                // Eq. 3 forecast this server holds (`admission`) is linear
                // in the batch: coalescing saves nothing, so it never
                // waits — queries coalesce while the engine is busy.
                max_wait: Duration::from_micros(500),
            },
            queue_capacity: 16,
            admission: Some(Box::new(admission_forecast.into_forecaster())),
            clock: Some(Arc::clone(&clock) as Arc<dyn Clock>),
            obs: Some(Arc::clone(&obs)),
            ..ServerConfig::default()
        },
    );

    // Open-loop: submit every test query with a 2ms deadline, never
    // waiting for responses — overload surfaces as typed refusals and
    // degraded responses, not as an invisible upstream queue. Arrivals
    // are paced (with every fourth query arriving in a burst) so the
    // dispatcher interleaves even on a single-core host.
    let deadline = Duration::from_millis(2);
    let mut handles = Vec::new();
    let mut refused = 0u64;
    for q in 0..split.test.num_queries() {
        let query = split.test.query(q).expect("valid query index");
        match server.submit(ScoreRequest::new(query.features.to_vec()).with_deadline(deadline)) {
            Ok(handle) => handles.push(handle),
            Err(_) => refused += 1,
        }
        if q % 4 != 3 {
            std::thread::sleep(Duration::from_micros(700));
        }
    }
    let (engine, stats) = server.shutdown();

    let (mut primary, mut fallback, mut expired, mut failed) = (0u64, 0u64, 0u64, 0u64);
    for handle in handles {
        match handle.wait().response {
            Response::Scored {
                served_by: ServedBy::Primary,
                ..
            } => primary += 1,
            Response::Scored {
                served_by: ServedBy::Fallback,
                ..
            } => fallback += 1,
            Response::Expired => expired += 1,
            Response::Failed => failed += 1,
        }
    }
    println!(
        "request outcomes: {primary} primary, {fallback} degraded-to-fallback, {expired} expired, {failed} failed, {refused} refused at the door"
    );
    println!("\nserver stats (p50/p99/p999 + queue high-water gauges):\n{stats}");

    use std::sync::atomic::Ordering;
    println!(
        "\ninjected scorer faults: {} (spikes {}, nan batches {}, panics {}, short writes {})",
        injected.total_faults(),
        injected.latency_spikes.load(Ordering::Relaxed),
        injected.nan_batches.load(Ordering::Relaxed),
        injected.panics.load(Ordering::Relaxed),
        injected.short_writes.load(Ordering::Relaxed),
    );
    println!(
        "injected server faults: {} (stalls {}, batch panics {}, deadline storms {})",
        server_counters.total_faults(),
        server_counters.stalls.load(Ordering::Relaxed),
        server_counters.batch_panics.load(Ordering::Relaxed),
        server_counters.deadline_storms.load(Ordering::Relaxed),
    );
    println!(
        "\nrobust engine stats after drain:\n{}",
        engine.inner.stats()
    );

    // The shutdown dump: the same snapshot a scraper would pull from a
    // live process, plus waterfalls of the three slowest requests.
    println!("\n--- obs snapshot (prometheus text) ---");
    print!("{}", obs.snapshot_prometheus());
    println!("--- obs snapshot (json) ---");
    println!("{}", obs.snapshot_json());
    println!("--- slowest request waterfalls ---");
    print!("{}", obs.trace_dump(3));
    assert!(obs.books_balance(), "span accounting must balance");

    // The drain guarantee, checked: every admitted request was answered
    // exactly once, whatever the injected chaos did.
    assert_eq!(
        stats.admitted,
        primary + fallback + expired + failed,
        "admitted requests must balance answered outcomes exactly"
    );
}

/// Keep injected-fault panics (caught and absorbed by the robust layer)
/// from spamming stderr with backtraces; everything else reports normally.
fn silence_injected_panic_messages() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.contains("injected fault") {
            default(info);
        }
    }));
}

/// Score every query individually (as a service would), returning sorted
/// per-query latencies (µs) and the mean NDCG@10.
fn replay(scorer: &mut dyn DocumentScorer, test: &Dataset) -> (Vec<f64>, f64) {
    let mut all_scores = vec![0.0f32; test.num_docs()];
    let mut latencies = Vec::with_capacity(test.num_queries());
    for q in 0..test.num_queries() {
        let range = test.query_range(q);
        let query = test.query(q).expect("valid query index");
        let out = &mut all_scores[range];
        // Warm pass then timed pass, per query.
        scorer.score_batch(query.features, out);
        let t = Instant::now();
        scorer.score_batch(query.features, out);
        latencies.push(t.elapsed().as_secs_f64() * 1e6);
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let ndcg = evaluate_scores(&all_scores, test).mean_ndcg10();
    (latencies, ndcg)
}

fn pct(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}
