//! Open-loop load benchmark for the `dlr-serve` front-end.
//!
//! Drives the server with seeded Poisson arrivals plus heavy-tail
//! bursts at a ladder of offered QPS levels and reports, per level:
//! delivered QPS, end-to-end latency percentiles (p50/p99/p999), shed
//! rate, and degradation rate — then the **max sustainable QPS**: the
//! highest offered level that loses < 1% of submissions and keeps p99
//! under the request deadline. Emits `BENCH_serving.json`.
//!
//! ```text
//! cargo run --release -p dlr-bench --bin bench-serving            # full ladder
//! cargo run --release -p dlr-bench --bin bench-serving -- --check # CI smoke
//! ```
//!
//! Open-loop means arrivals never wait for responses: when the
//! generator falls behind schedule it submits in catch-up bursts, so
//! overload shows up as queueing, shedding, and degradation instead of
//! silently throttled offered load. The admission and degradation
//! forecasters are calibrated from measured per-document service time
//! (the Eq. 3 linear model) before the sweep.

use dlr_core::scoring::DocumentScorer;
use dlr_core::serve::RobustScorer;
use dlr_metrics::GateConfig;
use dlr_obs::Obs;
use dlr_serve::{
    BatchConfig, Clock, ModelRegistry, MonotonicClock, Response, RolloutConfig, ScoreRequest,
    Server, ServerConfig, ServerStats, SubmitError,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Primary scorer: one dot product per document — enough arithmetic for
/// service time to scale with batched documents.
struct DotScorer {
    weights: Vec<f32>,
}

impl DotScorer {
    fn new(nf: usize) -> DotScorer {
        DotScorer {
            weights: (0..nf).map(|i| ((i % 13) as f32 - 6.0) * 0.1).collect(),
        }
    }
}

impl DocumentScorer for DotScorer {
    fn num_features(&self) -> usize {
        self.weights.len()
    }
    fn score_batch(&mut self, rows: &[f32], out: &mut [f32]) {
        for (row, o) in rows.chunks_exact(self.weights.len()).zip(out.iter_mut()) {
            *o = row.iter().zip(&self.weights).map(|(x, w)| x * w).sum();
        }
    }
    fn name(&self) -> String {
        "dot".into()
    }
}

/// Fallback: first feature only — the cheap degraded path.
struct FirstFeature {
    nf: usize,
}

impl DocumentScorer for FirstFeature {
    fn num_features(&self) -> usize {
        self.nf
    }
    fn score_batch(&mut self, rows: &[f32], out: &mut [f32]) {
        for (row, o) in rows.chunks_exact(self.nf).zip(out.iter_mut()) {
            *o = row.first().copied().unwrap_or(0.0);
        }
    }
    fn name(&self) -> String {
        "first-feature".into()
    }
}

struct Sizes {
    mode: &'static str,
    /// Documents per query (every request is one query).
    docs: usize,
    /// Features per document.
    feats: usize,
    /// Per-request latency budget.
    deadline: Duration,
    /// Offered-QPS ladder, ascending.
    levels: Vec<f64>,
    /// Seconds of offered load per level.
    window_secs: f64,
}

impl Sizes {
    fn from_args() -> Sizes {
        let check = std::env::args().any(|a| a == "--check");
        if check {
            Sizes {
                mode: "check",
                docs: 4,
                feats: 8,
                deadline: Duration::from_millis(10),
                levels: vec![500.0, 2_000.0],
                window_secs: 0.15,
            }
        } else {
            Sizes {
                mode: "full",
                docs: 16,
                feats: 32,
                deadline: Duration::from_millis(2),
                levels: vec![1_000.0, 4_000.0, 16_000.0, 64_000.0, 256_000.0],
                window_secs: 1.0,
            }
        }
    }
}

/// Measured linear service-time model `t(docs) = base + per_doc · docs`
/// (the Eq. 3 shape), calibrated by timing the primary scorer directly.
#[derive(Clone, Copy)]
struct LinearModel {
    base_secs: f64,
    per_doc_secs: f64,
}

impl LinearModel {
    fn calibrate(nf: usize) -> LinearModel {
        let mut scorer = DotScorer::new(nf);
        let time_batch = |scorer: &mut DotScorer, docs: usize| -> f64 {
            let rows = vec![0.5f32; docs * nf];
            let mut out = vec![0.0f32; docs];
            let reps = 200;
            let t0 = Instant::now();
            for _ in 0..reps {
                scorer.score_batch(&rows, &mut out);
            }
            t0.elapsed().as_secs_f64() / reps as f64
        };
        let small = 16usize;
        let large = 512usize;
        let t_small = time_batch(&mut scorer, small);
        let t_large = time_batch(&mut scorer, large);
        let per_doc = ((t_large - t_small) / (large - small) as f64).max(1e-9);
        LinearModel {
            base_secs: (t_small - per_doc * small as f64).max(0.0),
            per_doc_secs: per_doc,
        }
    }

    fn forecast(self, docs: usize) -> Duration {
        Duration::from_secs_f64(self.base_secs + self.per_doc_secs * docs as f64)
    }
}

/// One offered-load level's outcome.
struct LevelReport {
    offered_qps: f64,
    delivered_qps: f64,
    stats: ServerStats,
    /// (shed + rejected + expired + failed) / submitted.
    loss_rate: f64,
    shed_rate: f64,
    /// fallback-scored / scored.
    degrade_rate: f64,
    p50_us: u64,
    p99_us: u64,
    p999_us: u64,
    wall_secs: f64,
}

impl LevelReport {
    fn print(&self) {
        println!(
            "offered {:>9.0} qps | delivered {:>9.0} qps | shed {:>6.2}% | degraded {:>6.2}% | lost {:>6.2}% | p50 {:>6}us p99 {:>6}us p999 {:>6}us",
            self.offered_qps,
            self.delivered_qps,
            self.shed_rate * 100.0,
            self.degrade_rate * 100.0,
            self.loss_rate * 100.0,
            self.p50_us,
            self.p99_us,
            self.p999_us,
        );
    }

    fn json(&self) -> String {
        format!(
            "{{\"offered_qps\":{:.1},\"delivered_qps\":{:.1},\"submitted\":{},\"admitted\":{},\"shed\":{},\"rejected_full\":{},\"scored_primary\":{},\"scored_fallback\":{},\"expired\":{},\"failed\":{},\"loss_rate\":{:.5},\"shed_rate\":{:.5},\"degrade_rate\":{:.5},\"p50_us\":{},\"p99_us\":{},\"p999_us\":{},\"wall_secs\":{:.4}}}",
            self.offered_qps,
            self.delivered_qps,
            self.stats.submitted,
            self.stats.admitted,
            self.stats.shed,
            self.stats.rejected_full,
            self.stats.scored_primary,
            self.stats.scored_fallback,
            self.stats.expired,
            self.stats.failed,
            self.loss_rate,
            self.shed_rate,
            self.degrade_rate,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.wall_secs,
        )
    }
}

/// Drive one offered-QPS level open-loop and account the outcome. With
/// `with_obs`, the full tracing plane records every span and drift pair
/// (the overhead-measurement arm); without, every hook is the no-op
/// branch (the baseline arm and the ladder).
fn run_level(
    sz: &Sizes,
    model: LinearModel,
    offered_qps: f64,
    seed: u64,
    with_obs: bool,
) -> (LevelReport, Option<Arc<Obs>>) {
    let clock = Arc::new(MonotonicClock::default());
    let obs =
        with_obs.then(|| Arc::new(Obs::new(Arc::clone(&clock) as Arc<dyn dlr_obs::NanoClock>)));
    let mut engine = RobustScorer::new(
        DotScorer::new(sz.feats),
        FirstFeature { nf: sz.feats },
        "bench-serving",
    )
    .with_forecaster(move |docs: usize| Some(model.forecast(docs)));
    if let Some(obs) = &obs {
        engine = engine.with_obs(Arc::clone(obs));
    }
    let server = Server::start(
        engine,
        ServerConfig {
            batch: BatchConfig {
                max_batch_docs: 256,
                max_wait: Duration::from_micros(200),
            },
            queue_capacity: 512,
            admission: Some(Box::new(move |docs: usize| Some(model.forecast(docs)))),
            clock: Some(clock as Arc<dyn Clock>),
            obs: obs.clone(),
            ..ServerConfig::default()
        },
    );

    let mut rng = StdRng::seed_from_u64(seed);
    let features = vec![0.5f32; sz.docs * sz.feats];
    let mut handles = Vec::new();
    let start = Instant::now();
    let mut arrival = 0.0f64;
    while arrival < sz.window_secs {
        let target = Duration::from_secs_f64(arrival);
        let elapsed = start.elapsed();
        if target > elapsed {
            std::thread::sleep(target - elapsed);
        }
        // Heavy tail: ~1 arrival in 64 is a 32-query burst at one instant.
        let burst = if rng.random_bool(1.0 / 64.0) { 32 } else { 1 };
        for _ in 0..burst {
            match server.submit(ScoreRequest::new(features.clone()).with_deadline(sz.deadline)) {
                Ok(handle) => handles.push(handle),
                Err(SubmitError::Shed { .. } | SubmitError::QueueFull) => {}
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        // Poisson: exponential inter-arrival at the offered rate.
        let u: f64 = rng.random();
        arrival += -(1.0 - u).ln().max(f64::MIN_POSITIVE.ln()) / offered_qps;
    }
    let (_engine, stats) = server.shutdown();
    let wall_secs = start.elapsed().as_secs_f64();

    // Drain guarantee: every handle is answered; waiting cannot block.
    let mut delivered = 0u64;
    for handle in handles {
        match handle.wait().response {
            Response::Scored { .. } => delivered += 1,
            Response::Expired | Response::Failed => {}
        }
    }
    assert_eq!(
        delivered,
        stats.scored(),
        "per-handle and stats accounting disagree"
    );

    let lost = stats.refused() + stats.expired + stats.failed;
    let report = LevelReport {
        offered_qps,
        delivered_qps: delivered as f64 / wall_secs,
        loss_rate: lost as f64 / stats.submitted.max(1) as f64,
        shed_rate: (stats.shed + stats.rejected_full) as f64 / stats.submitted.max(1) as f64,
        degrade_rate: stats.scored_fallback as f64 / stats.scored().max(1) as f64,
        p50_us: stats.latency.p50_us().unwrap_or(0),
        p99_us: stats.latency.p99_us().unwrap_or(0),
        p999_us: stats.latency.p999_us().unwrap_or(0),
        wall_secs,
        stats,
    };
    (report, obs)
}

/// One lifecycle run's latency outcome.
struct LifecycleReport {
    swaps: usize,
    final_version: String,
    delivered: u64,
    p50_us: u64,
    p99_us: u64,
    p999_us: u64,
}

impl LifecycleReport {
    fn json(&self) -> String {
        format!(
            "{{\"swaps\":{},\"final_version\":\"{}\",\"delivered\":{},\"p50_us\":{},\"p99_us\":{},\"p999_us\":{}}}",
            self.swaps, self.final_version, self.delivered, self.p50_us, self.p99_us, self.p999_us
        )
    }
}

/// The swap-pause measurement: drive one open-loop window through a
/// [`ModelRegistry`] engine, optionally hot-swapping the active model
/// `swaps` times mid-run (load → shadow → promote, each settling through
/// a short hold), and report the end-to-end percentiles. Comparing the
/// `swaps == 0` and `swaps > 0` runs isolates what an atomic model swap
/// costs the tail: the state handoff lands *between* micro-batches, so
/// the pause a request can observe is bounded by one batch execution.
fn run_lifecycle(sz: &Sizes, offered_qps: f64, seed: u64, swaps: usize) -> LifecycleReport {
    // Watchdog parked (this run swaps identical models to measure the
    // mechanism, not the policy) and the promotion gate left permissive:
    // no labels flow, so the gate sees zero NDCG pairs.
    let config = RolloutConfig {
        min_samples: u64::MAX,
        hold_batches: 4,
        gate: GateConfig {
            min_queries: 0,
            ..GateConfig::default()
        },
        ..RolloutConfig::default()
    };
    let (registry, engine) = ModelRegistry::with_scorer(
        "v1",
        Box::new(DotScorer::new(sz.feats)),
        Vec::new(),
        config,
        Arc::new(MonotonicClock::default()),
    );
    let server = Server::start(
        engine,
        ServerConfig {
            batch: BatchConfig {
                max_batch_docs: 256,
                max_wait: Duration::from_micros(200),
            },
            queue_capacity: 512,
            ..ServerConfig::default()
        },
    );

    let mut rng = StdRng::seed_from_u64(seed);
    let features = vec![0.5f32; sz.docs * sz.feats];

    // Warm the freshly spawned dispatcher (thread scheduling, first-batch
    // allocations) before the measured window, so cold-start stragglers
    // don't masquerade as swap pause in whichever variant runs first.
    let mut warm_scored = 0u64;
    for _ in 0..32 {
        let handle = server
            .submit(ScoreRequest::new(features.clone()).with_deadline(sz.deadline))
            .expect("idle server admits the warmup");
        if matches!(handle.wait().response, Response::Scored { .. }) {
            warm_scored += 1;
        }
    }

    let mut handles = Vec::new();
    let mut swapped = 0usize;
    let start = Instant::now();
    let mut arrival = 0.0f64;
    while arrival < sz.window_secs {
        let target = Duration::from_secs_f64(arrival);
        let elapsed = start.elapsed();
        if target > elapsed {
            std::thread::sleep(target - elapsed);
        }
        // Evenly spaced mid-run swaps: the (k+1)-th fires once the
        // arrival clock crosses window·(k+1)/(swaps+1).
        if swapped < swaps && arrival >= sz.window_secs * (swapped + 1) as f64 / (swaps + 1) as f64
        {
            let version = format!("v{}", swapped + 2);
            // The previous promotion may still be holding; give its
            // settle a brief window before skipping this swap point.
            for _ in 0..50 {
                if registry
                    .load_scorer(&version, Box::new(DotScorer::new(sz.feats)), Vec::new())
                    .is_ok()
                {
                    registry.begin_shadow().expect("Loaded -> Shadow");
                    registry.promote().expect("permissive gate");
                    swapped += 1;
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        match server.submit(ScoreRequest::new(features.clone()).with_deadline(sz.deadline)) {
            Ok(handle) => handles.push(handle),
            Err(SubmitError::Shed { .. } | SubmitError::QueueFull) => {}
            Err(e) => panic!("unexpected submit error: {e}"),
        }
        let u: f64 = rng.random();
        arrival += -(1.0 - u).ln().max(f64::MIN_POSITIVE.ln()) / offered_qps;
    }
    let (_engine, stats) = server.shutdown();

    // Exact (unbucketed) per-request latencies from the measured window
    // only — finer resolution than the histogram, which matters when the
    // swap pause under test is smaller than a power-of-two bucket.
    let mut latencies_us: Vec<u64> = Vec::with_capacity(handles.len());
    for handle in handles {
        let delivery = handle.wait();
        if matches!(delivery.response, Response::Scored { .. }) {
            latencies_us.push(delivery.latency_nanos / 1_000);
        }
    }
    latencies_us.sort_unstable();
    let delivered = latencies_us.len() as u64;
    let pct = |p: f64| -> u64 {
        latencies_us.last().map_or(0, |_| {
            let idx = ((latencies_us.len() as f64 - 1.0) * p).round() as usize;
            latencies_us[idx.min(latencies_us.len() - 1)]
        })
    };
    // The hot-swap identities, revalidated under bench load: everything
    // admitted was answered, and the per-version rows sum to the totals.
    assert_eq!(
        delivered + warm_scored,
        stats.scored(),
        "accounting disagrees"
    );
    assert_eq!(
        stats.answered(),
        stats.admitted,
        "drain answered everything"
    );
    let per_version: u64 = stats
        .per_version
        .iter()
        .map(|v| v.scored_primary + v.scored_fallback)
        .sum();
    assert_eq!(
        per_version,
        stats.scored(),
        "per-version rows sum to totals"
    );
    assert_eq!(swapped, swaps, "every scheduled swap must have landed");

    LifecycleReport {
        swaps: swapped,
        final_version: registry.active_version(),
        delivered,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        p999_us: pct(0.999),
    }
}

fn main() {
    let sz = Sizes::from_args();
    let host = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "=== bench-serving ({} mode, host parallelism {}) ===",
        sz.mode, host
    );
    let model = LinearModel::calibrate(sz.feats);
    println!(
        "calibrated service model: {:.2}us + {:.4}us/doc | {} docs/query, {} features, deadline {:?}\n",
        model.base_secs * 1e6,
        model.per_doc_secs * 1e6,
        sz.docs,
        sz.feats,
        sz.deadline,
    );

    let deadline_us = sz.deadline.as_micros() as u64;
    let mut reports = Vec::new();
    let mut max_sustainable = 0.0f64;
    for (i, &qps) in sz.levels.iter().enumerate() {
        let (report, _) = run_level(&sz, model, qps, 0xD15711ED + i as u64, false);
        report.print();
        // Sustainable: < 1% of submissions lost and p99 within deadline.
        if report.loss_rate < 0.01 && report.p99_us <= deadline_us {
            max_sustainable = max_sustainable.max(qps);
        }
        reports.push(report);
    }
    println!("\nmax sustainable qps (loss < 1%, p99 <= deadline): {max_sustainable:.0}");

    // Swap-pause measurement: the same offered load with and without
    // mid-run hot swaps; the p999 delta is what a model rollout costs
    // the latency tail.
    let lifecycle_qps = sz.levels[sz.levels.len() / 2];
    let baseline = run_lifecycle(&sz, lifecycle_qps, 0x11FEC, 0);
    let swapped = run_lifecycle(&sz, lifecycle_qps, 0x11FEC, 3);
    println!(
        "\nlifecycle @ {:.0} qps: no swap p999 {}us | {} mid-run hot swaps p999 {}us (final {})",
        lifecycle_qps, baseline.p999_us, swapped.swaps, swapped.p999_us, swapped.final_version,
    );

    // Observability overhead: the same seeded offered load with the
    // tracing plane off and on. The documented budget (README/DESIGN
    // "Observability"): tracing-on p99 must stay within 5× the
    // tracing-off p99 plus a 5 ms allowance — generous because both
    // arms are single short seeded windows on a shared host, where
    // scheduler noise dwarfs the cost of recording spans.
    let obs_qps = sz.levels[sz.levels.len() / 2];
    let (obs_off, _) = run_level(&sz, model, obs_qps, 0x0B5_0FF, false);
    let (obs_on, plane) = run_level(&sz, model, obs_qps, 0x0B5_0FF, true);
    let plane = plane.expect("obs arm returns its plane");
    assert!(plane.books_balance(), "span accounting must balance");
    let drift_recorded = plane.drift().summary().recorded;
    let bound_p99_us = 5 * obs_off.p99_us + 5_000;
    let within_bound = obs_on.p99_us <= bound_p99_us;
    println!(
        "\nobs overhead @ {:.0} qps: off p50 {}us p99 {}us | on p50 {}us p99 {}us | {} spans, {} drift pairs | bound p99 <= {}us: {}",
        obs_qps,
        obs_off.p50_us,
        obs_off.p99_us,
        obs_on.p50_us,
        obs_on.p99_us,
        plane.sink().spans_opened(),
        drift_recorded,
        bound_p99_us,
        if within_bound { "ok" } else { "EXCEEDED" },
    );

    let levels: Vec<String> = reports.iter().map(LevelReport::json).collect();
    let json = format!(
        "{{\"bench\":\"serving\",\"mode\":\"{}\",\"host_parallelism\":{},\"docs_per_query\":{},\"features\":{},\"deadline_us\":{},\"max_batch_docs\":256,\"max_wait_us\":200,\"queue_capacity\":512,\"model_base_us\":{:.3},\"model_per_doc_us\":{:.5},\"max_sustainable_qps\":{:.1},\"lifecycle\":{{\"offered_qps\":{:.1},\"no_swap\":{},\"with_swap\":{}}},\"obs\":{{\"offered_qps\":{:.1},\"off\":{{\"p50_us\":{},\"p99_us\":{}}},\"on\":{{\"p50_us\":{},\"p99_us\":{},\"spans_opened\":{},\"spans_dropped\":{},\"drift_recorded\":{}}},\"bound\":\"p99_on <= 5*p99_off + 5000us\",\"bound_p99_us\":{},\"within_bound\":{}}},\"levels\":[{}]}}\n",
        sz.mode,
        host,
        sz.docs,
        sz.feats,
        deadline_us,
        model.base_secs * 1e6,
        model.per_doc_secs * 1e6,
        max_sustainable,
        lifecycle_qps,
        baseline.json(),
        swapped.json(),
        obs_qps,
        obs_off.p50_us,
        obs_off.p99_us,
        obs_on.p50_us,
        obs_on.p99_us,
        plane.sink().spans_opened(),
        plane.sink().spans_dropped(),
        drift_recorded,
        bound_p99_us,
        within_bound,
        levels.join(",")
    );
    std::fs::write("BENCH_serving.json", &json).expect("write BENCH_serving.json");
    println!("wrote BENCH_serving.json ({} mode)", sz.mode);
}
