//! Exact-count coverage of the model-lifecycle state machine: hot-swap,
//! shadow isolation, canary routing and rescue, every automatic-rollback
//! trigger, the Fisher promotion gate, and swap-during-drain — plus a
//! property test that every request is answered exactly once by exactly
//! one model version across repeated swaps racing shutdown.
//!
//! Determinism notes: scorers tag their scores with the model version
//! (`score = tag·10000 + query·100 + doc`), so a response betrays which
//! version answered it. `max_batch_docs = 1` with sequential
//! submit-and-wait makes batch boundaries — and so the deterministic
//! shadow/canary fraction accumulators and watchdog trip points — exact.
//! Latency-based triggers are driven through the engine directly with a
//! hand-advanced [`ManualClock`].

use dlr_core::fault::{ServerFault, ServerFaultPlan};
use dlr_core::scoring::DocumentScorer;
use dlr_core::serve::ServedBy;
use dlr_metrics::GateConfig;
use dlr_obs::Obs;
use dlr_serve::{
    BatchConfig, BatchEngine, CandidateOutcome, CandidateReport, CandidateStats, LifecycleError,
    LifecycleEvent, ManualClock, ModelRegistry, MonotonicClock, RegistryEngine, RequestMeta,
    RollbackReason, RolloutConfig, ScoreRequest, Server, ServerConfig, Stage,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Two features per document (`[query, doc]`); the score encodes the
/// model version alongside the query and document.
struct Versioned {
    tag: f32,
}

impl DocumentScorer for Versioned {
    fn num_features(&self) -> usize {
        2
    }
    fn score_batch(&mut self, rows: &[f32], out: &mut [f32]) {
        for (row, o) in rows.chunks_exact(2).zip(out.iter_mut()) {
            *o = self.tag * 10000.0 + row[0] * 100.0 + row[1];
        }
    }
    fn name(&self) -> String {
        format!("versioned {}", self.tag)
    }
}

/// Candidate that always produces non-finite scores.
struct NanScorer;

impl DocumentScorer for NanScorer {
    fn num_features(&self) -> usize {
        2
    }
    fn score_batch(&mut self, _rows: &[f32], out: &mut [f32]) {
        out.fill(f32::NAN);
    }
    fn name(&self) -> String {
        "nan".into()
    }
}

/// Candidate that panics on every batch.
struct PanicScorer;

impl DocumentScorer for PanicScorer {
    fn num_features(&self) -> usize {
        2
    }
    fn score_batch(&mut self, _rows: &[f32], _out: &mut [f32]) {
        panic!("injected: candidate scorer panic");
    }
    fn name(&self) -> String {
        "panics".into()
    }
}

/// Healthy for the first `healthy_calls` batches, NaN afterwards — a
/// candidate that turns bad only after promotion.
struct Turncoat {
    tag: f32,
    healthy_calls: u32,
    calls: u32,
}

impl DocumentScorer for Turncoat {
    fn num_features(&self) -> usize {
        2
    }
    fn score_batch(&mut self, rows: &[f32], out: &mut [f32]) {
        self.calls += 1;
        if self.calls > self.healthy_calls {
            out.fill(f32::NAN);
            return;
        }
        for (row, o) in rows.chunks_exact(2).zip(out.iter_mut()) {
            *o = self.tag * 10000.0 + row[0] * 100.0 + row[1];
        }
    }
    fn name(&self) -> String {
        "turncoat".into()
    }
}

/// Scores like [`Versioned`] but advances a [`ManualClock`] by a fixed
/// amount per batch, so scoring latency is exact and hand-controlled.
struct SlowVersioned {
    tag: f32,
    clock: Arc<ManualClock>,
    advance_nanos: u64,
}

impl DocumentScorer for SlowVersioned {
    fn num_features(&self) -> usize {
        2
    }
    fn score_batch(&mut self, rows: &[f32], out: &mut [f32]) {
        self.clock.advance(self.advance_nanos);
        for (row, o) in rows.chunks_exact(2).zip(out.iter_mut()) {
            *o = self.tag * 10000.0 + row[0] * 100.0 + row[1];
        }
    }
    fn name(&self) -> String {
        "slow".into()
    }
}

fn request(query: usize, docs: usize) -> ScoreRequest {
    let mut features = Vec::with_capacity(docs * 2);
    for doc in 0..docs {
        features.push(query as f32);
        features.push(doc as f32);
    }
    ScoreRequest::new(features)
}

fn expected(tag: u32, query: usize, docs: usize) -> Vec<f32> {
    (0..docs)
        .map(|doc| tag as f32 * 10000.0 + query as f32 * 100.0 + doc as f32)
        .collect()
}

/// Which version tag produced these scores, when one version answered
/// every document consistently.
fn version_of(scores: &[f32], query: usize) -> Option<u32> {
    let mut tag = None;
    for (doc, &s) in scores.iter().enumerate() {
        let t = (s - query as f32 * 100.0 - doc as f32) / 10000.0;
        let rounded = t.round();
        if (t - rounded).abs() > 1e-3 || rounded < 0.0 {
            return None;
        }
        let rounded = rounded as u32;
        match tag {
            None => tag = Some(rounded),
            Some(existing) if existing == rounded => {}
            Some(_) => return None,
        }
    }
    tag
}

fn one_doc_batches() -> BatchConfig {
    BatchConfig {
        max_batch_docs: 1,
        max_wait: Duration::from_millis(1),
    }
}

/// A config whose watchdog never fires and whose gate never blocks.
fn quiet_config() -> RolloutConfig {
    RolloutConfig {
        min_samples: u64::MAX,
        gate: GateConfig {
            min_queries: 0,
            ..GateConfig::default()
        },
        ..RolloutConfig::default()
    }
}

fn start_registry_server(config: RolloutConfig) -> (ModelRegistry, Server<RegistryEngine>) {
    let (registry, engine) = ModelRegistry::with_scorer(
        "v1",
        Box::new(Versioned { tag: 1.0 }),
        b"artifact v1".to_vec(),
        config,
        Arc::new(MonotonicClock::default()),
    );
    let server = Server::start(
        engine,
        ServerConfig {
            batch: one_doc_batches(),
            ..ServerConfig::default()
        },
    );
    (registry, server)
}

#[test]
fn shadow_mirrors_exact_fraction_and_never_answers() {
    let config = RolloutConfig {
        shadow_fraction: 0.5,
        ..quiet_config()
    };
    let (registry, server) = start_registry_server(config);
    registry
        .load_scorer(
            "v2",
            Box::new(Versioned { tag: 2.0 }),
            b"artifact v2".to_vec(),
        )
        .expect("load");
    registry.begin_shadow().expect("shadow");

    for q in 0..8 {
        let got = server.submit(request(q, 1)).expect("admit").wait();
        // Every response is the incumbent's, even on mirrored batches.
        assert_eq!(got.response.scores(), Some(&expected(1, q, 1)[..]));
    }
    let report = registry.candidate_report().expect("candidate in flight");
    assert_eq!(report.stage, Stage::Shadow);
    // fraction 0.5 over 8 single-doc batches: exactly 4 mirrored.
    assert_eq!(report.stats.shadow_batches, 4);
    assert_eq!(report.stats.shadow_docs, 4);
    assert_eq!(report.stats.compared_docs, 4);
    // v2's scores differ by 10000 — every compared doc diverges.
    assert_eq!(report.stats.divergent_docs, 4);
    assert_eq!(report.stats.shadow_nan_batches, 0);
    assert_eq!(report.stats.shadow_panics, 0);
    assert_eq!(report.stats.canary_batches, 0);
    assert_eq!(report.stats.rescues, 0);

    let (_engine, stats) = server.shutdown();
    assert_eq!(stats.admitted, 8);
    assert_eq!(stats.scored_primary, 8);
    assert_eq!(stats.answered(), stats.admitted);
    // Every scored batch is attributed to the incumbent.
    assert_eq!(stats.version("v1").map(|v| v.scored_primary), Some(8));
    assert_eq!(stats.version("v2"), None);
}

#[test]
fn shadow_candidate_panic_and_nan_are_isolated_off_path() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    // Panicking candidate: responses unaffected, panics counted.
    let (registry, server) = start_registry_server(quiet_config());
    registry
        .load_scorer("v2", Box::new(PanicScorer), Vec::new())
        .expect("load");
    registry.begin_shadow().expect("shadow");
    for q in 0..5 {
        let got = server.submit(request(q, 1)).expect("admit").wait();
        assert_eq!(got.response.scores(), Some(&expected(1, q, 1)[..]));
    }
    let report = registry.candidate_report().expect("in flight");
    assert_eq!(report.stats.shadow_batches, 5);
    assert_eq!(report.stats.shadow_panics, 5);
    assert_eq!(report.stats.compared_docs, 0);
    let (_engine, stats) = server.shutdown();
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.batch_panics, 0);
    assert_eq!(stats.scored_primary, 5);

    // NaN candidate: counted as NaN batches, never compared.
    let (registry, server) = start_registry_server(quiet_config());
    registry
        .load_scorer("v2", Box::new(NanScorer), Vec::new())
        .expect("load");
    registry.begin_shadow().expect("shadow");
    for q in 0..5 {
        let got = server.submit(request(q, 1)).expect("admit").wait();
        assert_eq!(got.response.scores(), Some(&expected(1, q, 1)[..]));
    }
    let report = registry.candidate_report().expect("in flight");
    assert_eq!(report.stats.shadow_batches, 5);
    assert_eq!(report.stats.shadow_nan_batches, 5);
    assert_eq!(report.stats.shadow_panics, 0);
    assert_eq!(report.stats.compared_docs, 0);
    let (_engine, stats) = server.shutdown();
    assert_eq!(stats.failed, 0);

    std::panic::set_hook(prev);
}

#[test]
fn canary_routes_a_deterministic_slice_to_the_candidate() {
    let config = RolloutConfig {
        canary_fraction: 0.25,
        ..quiet_config()
    };
    let (registry, server) = start_registry_server(config);
    registry
        .load_scorer(
            "v2",
            Box::new(Versioned { tag: 2.0 }),
            b"artifact v2".to_vec(),
        )
        .expect("load");
    registry.begin_shadow().expect("shadow");
    registry.begin_canary().expect("canary");

    let mut by_candidate = Vec::new();
    for q in 0..8 {
        let got = server.submit(request(q, 1)).expect("admit").wait();
        let scores = got.response.scores().expect("scored");
        match version_of(scores, q) {
            Some(2) => by_candidate.push(q),
            Some(1) => {}
            other => panic!("query {q} answered by unexpected version {other:?}"),
        }
    }
    // fraction 0.25: the accumulator fires on exactly the 4th and 8th
    // batches (0-indexed queries 3 and 7).
    assert_eq!(by_candidate, vec![3, 7]);
    let report = registry.candidate_report().expect("in flight");
    assert_eq!(report.stats.canary_batches, 2);
    assert_eq!(report.stats.rescues, 0);

    let (_engine, stats) = server.shutdown();
    assert_eq!(stats.scored_primary, 8);
    assert_eq!(stats.version("v1").map(|v| v.scored_primary), Some(6));
    assert_eq!(stats.version("v2").map(|v| v.scored_primary), Some(2));
    assert_eq!(
        stats.per_version.iter().map(|v| v.batches).sum::<u64>(),
        stats.batches
    );
}

#[test]
fn unhealthy_canary_batches_are_rescued_by_the_incumbent() {
    let config = RolloutConfig {
        canary_fraction: 0.25,
        ..quiet_config()
    };
    let (registry, server) = start_registry_server(config);
    registry
        .load_scorer("v2", Box::new(NanScorer), Vec::new())
        .expect("load");
    registry.begin_shadow().expect("shadow");
    registry.begin_canary().expect("canary");

    for q in 0..8 {
        let got = server.submit(request(q, 1)).expect("admit").wait();
        // Rescued or not, the client always sees finite incumbent scores.
        assert_eq!(got.response.scores(), Some(&expected(1, q, 1)[..]));
        let expected_by = if q == 3 || q == 7 {
            ServedBy::Fallback
        } else {
            ServedBy::Primary
        };
        match got.response {
            dlr_serve::Response::Scored { served_by, .. } => {
                assert_eq!(served_by, expected_by, "query {q} wrong served_by")
            }
            other => panic!("query {q}: {other:?}"),
        }
    }
    let report = registry.candidate_report().expect("in flight");
    assert_eq!(report.stats.canary_batches, 2);
    assert_eq!(report.stats.rescues, 2);

    let (_engine, stats) = server.shutdown();
    assert_eq!(stats.scored_primary, 6);
    assert_eq!(stats.scored_fallback, 2);
    assert_eq!(stats.answered(), stats.admitted);
    let v1 = stats.version("v1").expect("v1 row");
    assert_eq!((v1.scored_primary, v1.scored_fallback), (6, 2));
    assert_eq!(stats.version("v2"), None);
}

#[test]
fn watchdog_rolls_back_on_score_divergence() {
    let config = RolloutConfig {
        min_samples: 4,
        max_divergence_rate: 0.1,
        ..RolloutConfig::default()
    };
    let (registry, server) = start_registry_server(config);
    registry
        .load_scorer("v2", Box::new(Versioned { tag: 2.0 }), Vec::new())
        .expect("load");
    registry.begin_shadow().expect("shadow");

    for q in 0..6 {
        let got = server.submit(request(q, 1)).expect("admit").wait();
        assert_eq!(got.response.scores(), Some(&expected(1, q, 1)[..]));
    }
    // The 4th mirrored batch reached min_samples with 100% divergence:
    // the candidate is gone and the incumbent still serves.
    assert_eq!(registry.candidate_version(), None);
    assert_eq!(registry.active_version(), "v1");
    let report = registry.last_report().expect("ended journey");
    assert_eq!(report.version, "v2");
    assert_eq!(report.stats.shadow_batches, 4);
    assert_eq!(report.stats.divergent_docs, 4);
    assert!(
        matches!(
            report.outcome,
            CandidateOutcome::RolledBack(RollbackReason::Divergence { .. })
        ),
        "{:?}",
        report.outcome
    );
    assert!(registry.events().iter().any(
        |e| matches!(e, LifecycleEvent::RolledBack { version, restored, .. }
            if version == "v2" && restored == "v1")
    ));

    let (_engine, stats) = server.shutdown();
    assert_eq!(stats.scored_primary, 6);
    assert_eq!(stats.answered(), stats.admitted);
}

#[test]
fn watchdog_rolls_back_on_nan_rate() {
    let config = RolloutConfig {
        min_samples: 4,
        max_nan_rescue_rate: 0.25,
        ..RolloutConfig::default()
    };
    let (registry, server) = start_registry_server(config);
    registry
        .load_scorer("v2", Box::new(NanScorer), Vec::new())
        .expect("load");
    registry.begin_shadow().expect("shadow");

    for q in 0..4 {
        let got = server.submit(request(q, 1)).expect("admit").wait();
        assert_eq!(got.response.scores(), Some(&expected(1, q, 1)[..]));
    }
    assert_eq!(registry.candidate_version(), None);
    let report = registry.last_report().expect("ended journey");
    assert_eq!(report.stats.shadow_nan_batches, 4);
    assert!(
        matches!(
            report.outcome,
            CandidateOutcome::RolledBack(RollbackReason::NanRescue { .. })
        ),
        "{:?}",
        report.outcome
    );
    drop(server);
}

#[test]
fn watchdog_rolls_back_on_deadline_degradation() {
    // Driven through the engine directly so a ManualClock controls the
    // candidate's scoring time exactly.
    let clock = Arc::new(ManualClock::at(0));
    let config = RolloutConfig {
        min_samples: 2,
        max_deadline_degradation_rate: 0.25,
        ..RolloutConfig::default()
    };
    let (registry, mut engine) = ModelRegistry::with_scorer(
        "v1",
        Box::new(Versioned { tag: 1.0 }),
        Vec::new(),
        config,
        Arc::clone(&clock) as Arc<dyn dlr_serve::Clock>,
    );
    registry
        .load_scorer(
            "v2",
            Box::new(SlowVersioned {
                tag: 1.0,
                clock: Arc::clone(&clock),
                advance_nanos: 10_000_000, // 10ms per batch
            }),
            Vec::new(),
        )
        .expect("load");
    registry.begin_shadow().expect("shadow");

    let budget = Some(Duration::from_millis(1));
    let mut out = [0.0f32; 1];
    for q in 0..2 {
        let rows = [q as f32, 0.0];
        engine
            .score_batch_meta(&rows, &mut out, budget, &[])
            .expect("served");
    }
    // Both mirrored batches blew the 1ms budget by 10×: rate 1.0 > 0.25.
    assert_eq!(registry.candidate_version(), None);
    let report = registry.last_report().expect("ended journey");
    assert_eq!(report.stats.deadline_degraded, 2);
    assert!(
        matches!(
            report.outcome,
            CandidateOutcome::RolledBack(RollbackReason::DeadlineDegradation { .. })
        ),
        "{:?}",
        report.outcome
    );
}

#[test]
fn watchdog_rolls_back_on_p99_regression() {
    let clock = Arc::new(ManualClock::at(0));
    let config = RolloutConfig {
        min_samples: 8,
        max_p99_ratio: 3.0,
        ..RolloutConfig::default()
    };
    let (registry, mut engine) = ModelRegistry::with_scorer(
        "v1",
        Box::new(SlowVersioned {
            tag: 1.0,
            clock: Arc::clone(&clock),
            advance_nanos: 1_000_000, // incumbent: 1ms per batch
        }),
        Vec::new(),
        config,
        Arc::clone(&clock) as Arc<dyn dlr_serve::Clock>,
    );
    registry
        .load_scorer(
            "v2",
            Box::new(SlowVersioned {
                tag: 1.0, // identical scores: only latency regresses
                clock: Arc::clone(&clock),
                advance_nanos: 10_000_000, // candidate: 10ms per batch
            }),
            Vec::new(),
        )
        .expect("load");
    registry.begin_shadow().expect("shadow");

    let mut out = [0.0f32; 1];
    for q in 0..8 {
        let rows = [q as f32, 0.0];
        engine
            .score_batch_meta(&rows, &mut out, None, &[])
            .expect("served");
    }
    // Identical scores (no divergence), no NaN, no budget — only the
    // p99 ratio (≈16×) can have fired.
    assert_eq!(registry.candidate_version(), None);
    let report = registry.last_report().expect("ended journey");
    assert_eq!(report.stats.divergent_docs, 0);
    assert!(
        matches!(
            report.outcome,
            CandidateOutcome::RolledBack(RollbackReason::LatencyRegression { ratio }) if ratio > 3.0
        ),
        "{:?}",
        report.outcome
    );
}

#[test]
fn promotion_holds_then_settles_and_supports_manual_rollback() {
    let config = RolloutConfig {
        hold_batches: 3,
        ..quiet_config()
    };
    let (registry, server) = start_registry_server(config);
    registry
        .load_scorer(
            "v2",
            Box::new(Versioned { tag: 2.0 }),
            b"artifact v2".to_vec(),
        )
        .expect("load");
    registry.begin_shadow().expect("shadow");
    // One mirrored batch, then promote (gate passes: min_queries 0).
    server.submit(request(0, 1)).expect("admit").wait();
    registry.promote().expect("promote");
    assert_eq!(registry.active_version(), "v2");
    assert_eq!(registry.candidate_stage(), Some(Stage::Hold));

    // Three clean hold batches settle the rollout; v2 answers them.
    for q in 1..4 {
        let got = server.submit(request(q, 1)).expect("admit").wait();
        assert_eq!(got.response.scores(), Some(&expected(2, q, 1)[..]));
    }
    assert_eq!(registry.candidate_version(), None);
    let report = registry.last_report().expect("ended journey");
    assert_eq!(report.outcome, CandidateOutcome::Settled);
    assert_eq!(report.stats.hold_batches, 3);
    assert!(registry
        .events()
        .iter()
        .any(|e| matches!(e, LifecycleEvent::Settled { version } if version == "v2")));

    // Post-settle manual rollback flips back to the retained incumbent.
    registry.rollback().expect("manual rollback");
    assert_eq!(registry.active_version(), "v1");
    let got = server.submit(request(9, 1)).expect("admit").wait();
    assert_eq!(got.response.scores(), Some(&expected(1, 9, 1)[..]));

    let (_engine, stats) = server.shutdown();
    assert_eq!(stats.answered(), stats.admitted);
    assert_eq!(stats.version("v1").map(|v| v.scored_primary), Some(2));
    assert_eq!(stats.version("v2").map(|v| v.scored_primary), Some(3));
}

#[test]
fn hold_rollback_under_storm_restores_the_incumbent() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    // Candidate healthy through shadow + promotion, NaN afterwards —
    // while injected deadline storms squeeze every batch's budget.
    let config = RolloutConfig {
        min_samples: 4,
        max_nan_rescue_rate: 0.25,
        hold_batches: 100,
        gate: GateConfig {
            min_queries: 0,
            ..GateConfig::default()
        },
        ..RolloutConfig::default()
    };
    let (registry, engine) = ModelRegistry::with_scorer(
        "v1",
        Box::new(Versioned { tag: 1.0 }),
        b"artifact v1".to_vec(),
        config,
        Arc::new(MonotonicClock::default()),
    );
    registry
        .load_scorer(
            "v2",
            Box::new(Turncoat {
                tag: 2.0,
                healthy_calls: 2,
                calls: 0,
            }),
            b"artifact v2".to_vec(),
        )
        .expect("load");
    let server = Server::start(
        engine,
        ServerConfig {
            batch: one_doc_batches(),
            faults: Some(ServerFaultPlan::from_schedule(vec![
                ServerFault::None,
                ServerFault::DeadlineStorm,
                ServerFault::None,
                ServerFault::DeadlineStorm,
                ServerFault::DeadlineStorm,
                ServerFault::None,
                ServerFault::DeadlineStorm,
                ServerFault::None,
            ])),
            ..ServerConfig::default()
        },
    );
    registry.begin_shadow().expect("shadow");
    // Two healthy mirrored batches, then promote into Hold.
    for q in 0..2 {
        let got = server.submit(request(q, 1)).expect("admit").wait();
        assert_eq!(got.response.scores(), Some(&expected(1, q, 1)[..]));
    }
    registry.promote().expect("promote");
    assert_eq!(registry.active_version(), "v2");

    // The candidate now NaNs every batch; the reference rescues each one
    // until the watchdog trips, then v1 is active again. Every request
    // is answered with finite scores throughout.
    for q in 2..8 {
        let got = server.submit(request(q, 1)).expect("admit").wait();
        assert_eq!(
            got.response.scores(),
            Some(&expected(1, q, 1)[..]),
            "query {q}"
        );
    }
    assert_eq!(registry.active_version(), "v1");
    assert_eq!(registry.candidate_version(), None);
    let report = registry.last_report().expect("ended journey");
    assert_eq!(report.stage, Stage::Hold);
    assert!(
        matches!(report.outcome, CandidateOutcome::RolledBack(_)),
        "{:?}",
        report.outcome
    );
    assert!(registry.events().iter().any(
        |e| matches!(e, LifecycleEvent::RolledBack { version, restored, .. }
            if version == "v2" && restored == "v1")
    ));

    let (_engine, stats) = server.shutdown();
    // Drain-exact identities hold across promote + automatic rollback.
    assert_eq!(stats.admitted, 8);
    assert_eq!(stats.answered(), stats.admitted);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.scored(), 8);
    assert_eq!(
        stats
            .per_version
            .iter()
            .map(|v| v.scored_primary + v.scored_fallback)
            .sum::<u64>(),
        stats.scored()
    );

    std::panic::set_hook(prev);
}

#[test]
fn fisher_gate_blocks_a_significantly_worse_candidate() {
    // Incumbent ranks perfectly (score = label); the candidate inverts
    // the ranking. Shadow NDCG pairs feed the gate, which must refuse.
    struct LabelScorer {
        sign: f32,
    }
    impl DocumentScorer for LabelScorer {
        fn num_features(&self) -> usize {
            2
        }
        fn score_batch(&mut self, rows: &[f32], out: &mut [f32]) {
            for (row, o) in rows.chunks_exact(2).zip(out.iter_mut()) {
                *o = self.sign * row[1];
            }
        }
        fn name(&self) -> String {
            "label".into()
        }
    }

    let config = RolloutConfig {
        min_samples: u64::MAX,
        gate: GateConfig {
            min_queries: 16,
            ..GateConfig::default()
        },
        ..RolloutConfig::default()
    };
    let (registry, engine) = ModelRegistry::with_scorer(
        "v1",
        Box::new(LabelScorer { sign: 1.0 }),
        Vec::new(),
        config,
        Arc::new(MonotonicClock::default()),
    );
    let server = Server::start(
        engine,
        ServerConfig {
            batch: one_doc_batches(),
            ..ServerConfig::default()
        },
    );
    registry
        .load_scorer("v2", Box::new(LabelScorer { sign: -1.0 }), Vec::new())
        .expect("load");
    registry.begin_shadow().expect("shadow");

    // Too few labeled queries: the gate refuses with a typed error.
    for q in 0..4 {
        let features = vec![q as f32, 3.0, q as f32, 2.0, q as f32, 1.0, q as f32, 0.0];
        let labels = vec![3.0, 2.0, 1.0, 0.0];
        server
            .submit(ScoreRequest::new(features).with_labels(labels))
            .expect("admit")
            .wait();
    }
    assert_eq!(
        registry.promote(),
        Err(LifecycleError::InsufficientData { have: 4, need: 16 })
    );

    // Enough pairs: blocked as significantly worse.
    for q in 4..40 {
        let features = vec![q as f32, 3.0, q as f32, 2.0, q as f32, 1.0, q as f32, 0.0];
        let labels = vec![3.0, 2.0, 1.0, 0.0];
        server
            .submit(ScoreRequest::new(features).with_labels(labels))
            .expect("admit")
            .wait();
    }
    let err = registry.promote().expect_err("gate must block");
    assert!(
        matches!(err, LifecycleError::GateBlocked { mean_diff, .. } if mean_diff < 0.0),
        "{err:?}"
    );
    assert!(registry
        .events()
        .iter()
        .any(|e| matches!(e, LifecycleEvent::PromotionBlocked { version, .. } if version == "v2")));
    // The candidate survives a blocked promotion; the incumbent serves.
    assert_eq!(registry.candidate_stage(), Some(Stage::Shadow));
    assert_eq!(registry.active_version(), "v1");
    drop(server);
}

#[test]
fn fisher_gate_passes_an_equivalent_candidate() {
    let config = RolloutConfig {
        min_samples: u64::MAX,
        gate: GateConfig {
            min_queries: 8,
            ..GateConfig::default()
        },
        ..RolloutConfig::default()
    };
    let (registry, server) = start_registry_server(config);
    // Identical ranking behaviour (constant tag offset preserves order).
    registry
        .load_scorer("v2", Box::new(Versioned { tag: 2.0 }), Vec::new())
        .expect("load");
    registry.begin_shadow().expect("shadow");
    for q in 0..10 {
        let features = vec![q as f32, 2.0, q as f32, 1.0, q as f32, 0.0];
        let labels = vec![2.0, 1.0, 0.0];
        server
            .submit(ScoreRequest::new(features).with_labels(labels))
            .expect("admit")
            .wait();
    }
    let pairs = registry
        .candidate_report()
        .expect("in flight")
        .stats
        .ndcg_pairs;
    assert_eq!(pairs.len(), 10);
    registry.promote().expect("equivalent candidate passes");
    assert_eq!(registry.active_version(), "v2");
    drop(server);
}

#[test]
fn swap_during_drain_answers_every_request_exactly_once() {
    let (registry, server) = start_registry_server(quiet_config());
    registry
        .load_scorer("v2", Box::new(Versioned { tag: 2.0 }), Vec::new())
        .expect("load");
    registry.begin_shadow().expect("shadow");

    // Queue a backlog, swap mid-drain, then shut down: the dispatcher
    // must answer every request exactly once, each by exactly one
    // version.
    let handles: Vec<_> = (0..24)
        .map(|q| server.submit(request(q, 2)).expect("admit"))
        .collect();
    registry.promote().expect("promote mid-drain");
    let (_engine, stats) = server.shutdown();

    let mut by_version = [0u64; 3];
    for (q, handle) in handles.into_iter().enumerate() {
        assert!(handle.is_ready(), "query {q} unanswered after drain");
        let got = handle.wait();
        let scores = got.response.scores().expect("scored");
        match version_of(scores, q) {
            Some(tag @ (1 | 2)) => by_version[tag as usize] += 1,
            other => panic!("query {q} answered by unexpected version {other:?}"),
        }
    }
    assert_eq!(by_version[1] + by_version[2], 24);
    assert_eq!(stats.admitted, 24);
    assert_eq!(stats.scored_primary, 24);
    assert_eq!(stats.answered(), stats.admitted);
    // The per-version breakdown agrees with the client-visible tags.
    assert_eq!(
        stats.version("v1").map_or(0, |v| v.scored_primary),
        by_version[1]
    );
    assert_eq!(
        stats.version("v2").map_or(0, |v| v.scored_primary),
        by_version[2]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Across repeated load→shadow→promote swaps (and one rollback)
    /// racing live traffic and shutdown, every admitted request is
    /// answered exactly once, by exactly one version, and the books
    /// balance with the per-version breakdown.
    #[test]
    fn every_request_is_answered_exactly_once_by_exactly_one_version(
        query_docs in proptest::collection::vec(1usize..5, 8..32),
        max_batch_docs in 1usize..8,
        submit_stagger_us in 0u64..120,
    ) {
        let config = RolloutConfig {
            hold_batches: 2,
            ..quiet_config()
        };
        let (registry, engine) = ModelRegistry::with_scorer(
            "v1",
            Box::new(Versioned { tag: 1.0 }),
            Vec::new(),
            config,
            Arc::new(MonotonicClock::default()),
        );
        let server = Server::start(
            engine,
            ServerConfig {
                batch: BatchConfig {
                    max_batch_docs,
                    max_wait: Duration::from_micros(100),
                },
                ..ServerConfig::default()
            },
        );

        // Control plane: three promote swaps plus one mid-flight
        // rollback, racing the traffic below and the final drain.
        let ctl = std::thread::spawn({
            let registry = registry.clone();
            move || {
                for (tag, version) in [(2.0f32, "v2"), (3.0, "v3"), (4.0, "v4")] {
                    for _ in 0..400 {
                        match registry.load_scorer(
                            version,
                            Box::new(Versioned { tag }),
                            Vec::new(),
                        ) {
                            Ok(()) => break,
                            // A prior candidate is still in Hold; give
                            // the traffic a moment to settle it.
                            Err(_) => std::thread::sleep(Duration::from_micros(100)),
                        }
                    }
                    if registry.begin_shadow().is_ok() {
                        let _ = registry.promote();
                    }
                }
                // One rollback racing the drain.
                let _ = registry.rollback();
            }
        });

        let handles: Vec<_> = query_docs
            .iter()
            .enumerate()
            .map(|(q, &docs)| {
                if submit_stagger_us > 0 {
                    std::thread::sleep(Duration::from_micros(submit_stagger_us));
                }
                server.submit(request(q, docs)).expect("capacity never reached")
            })
            .collect();
        let (_engine, stats) = server.shutdown();
        ctl.join().expect("control thread");

        let mut client_scored = 0u64;
        for (q, (handle, &docs)) in handles.into_iter().zip(&query_docs).enumerate() {
            prop_assert!(handle.is_ready(), "query {q} unanswered after drain");
            let got = handle.wait();
            let scores = got.response.scores().expect("scored");
            prop_assert!(scores.len() == docs, "query {} wrong doc count", q);
            // Exactly one installed version produced this response.
            let tag = version_of(scores, q);
            prop_assert!(
                matches!(tag, Some(1..=4)),
                "query {} scored by unexpected version {:?}", q, tag
            );
            client_scored += 1;
        }
        // Books balance exactly across every swap and the rollback.
        prop_assert_eq!(stats.admitted, query_docs.len() as u64);
        prop_assert_eq!(stats.scored(), client_scored);
        prop_assert_eq!(stats.answered(), stats.admitted);
        prop_assert_eq!(stats.expired + stats.failed, 0);
        let per_version: u64 = stats
            .per_version
            .iter()
            .map(|v| v.scored_primary + v.scored_fallback)
            .sum();
        prop_assert_eq!(per_version, stats.scored());
    }
}

/// Like [`SlowVersioned`], but its `n`th call (1-based) advances the
/// clock by `n · step_nanos`, so every latency sample names the call
/// that produced it; the calls listed in `nan_calls` / `panic_calls`
/// advance the clock and then go non-finite / panic.
struct Scripted {
    tag: f32,
    clock: Arc<ManualClock>,
    step_nanos: u64,
    nan_calls: Vec<u32>,
    panic_calls: Vec<u32>,
    calls: u32,
}

impl DocumentScorer for Scripted {
    fn num_features(&self) -> usize {
        2
    }
    fn score_batch(&mut self, rows: &[f32], out: &mut [f32]) {
        self.calls += 1;
        self.clock.advance(u64::from(self.calls) * self.step_nanos);
        if self.panic_calls.contains(&self.calls) {
            panic!("injected: scripted scorer panic on call {}", self.calls);
        }
        if self.nan_calls.contains(&self.calls) {
            out.fill(f32::NAN);
            return;
        }
        for (row, o) in rows.chunks_exact(2).zip(out.iter_mut()) {
            *o = self.tag * 10000.0 + row[0] * 100.0 + row[1];
        }
    }
    fn name(&self) -> String {
        format!("scripted {}", self.tag)
    }
}

/// One request of a transcript batch: `(query, docs, labels)`.
type Req = (usize, usize, Option<&'static [f32]>);

/// Score one batch of `reqs` through the engine under `budget_us`;
/// returns how it was served, by which version, and the scores.
fn transcript_batch(
    engine: &mut RegistryEngine,
    reqs: &[Req],
    budget_us: Option<u64>,
) -> (ServedBy, String, Vec<f32>) {
    let mut rows = Vec::new();
    let mut metas = Vec::new();
    for &(query, docs, labels) in reqs {
        metas.push(RequestMeta {
            start: rows.len() / 2,
            docs,
            labels,
        });
        for doc in 0..docs {
            rows.extend([query as f32, doc as f32]);
        }
    }
    let mut out = vec![0.0f32; rows.len() / 2];
    let by = engine
        .score_batch_meta(
            &rows,
            &mut out,
            budget_us.map(Duration::from_micros),
            &metas,
        )
        .expect("served");
    let version = engine.served_version().expect("version").to_string();
    (by, version, out)
}

/// The transcript row for `reqs` answered by version `tag`.
fn answered(by: ServedBy, tag: u32, reqs: &[Req]) -> (ServedBy, String, Vec<f32>) {
    let scores = reqs
        .iter()
        .flat_map(|&(query, docs, _)| expected(tag, query, docs))
        .collect();
    (by, format!("v{tag}"), scores)
}

/// A latency histogram holding exactly these µs samples.
fn histogram(samples_us: &[u64]) -> dlr_obs::HistogramSnapshot {
    let mut h = dlr_obs::HistogramSnapshot::default();
    for &us in samples_us {
        h.record(us);
    }
    h
}

/// Golden transcript of two scripted rollouts under a [`ManualClock`]:
/// the first goes Loaded → Shadow (labelled requests, one NaN batch,
/// one panicking batch) → Canary (one rescue) → promote → Hold →
/// settled; the second is rolled back by the watchdog in Hold. Every
/// served-by/version pair, score, event, report (latency histograms and
/// NDCG pairs included) and lifecycle counter is pinned exactly.
#[test]
fn golden_rollout_transcript() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let clock = Arc::new(ManualClock::at(0));
    let scripted = |tag: f32, step_us: u64, nan_calls: &[u32], panic_calls: &[u32]| {
        Box::new(Scripted {
            tag,
            clock: Arc::clone(&clock),
            step_nanos: step_us * 1000,
            nan_calls: nan_calls.to_vec(),
            panic_calls: panic_calls.to_vec(),
            calls: 0,
        })
    };
    let config = RolloutConfig {
        shadow_fraction: 0.5,
        canary_fraction: 0.5,
        max_divergence_rate: 1.0,
        max_nan_rescue_rate: 0.55,
        max_deadline_degradation_rate: 1.0,
        max_p99_ratio: 1000.0,
        min_samples: 4,
        hold_batches: 4,
        gate: GateConfig {
            min_queries: 2,
            ..GateConfig::default()
        },
        ..RolloutConfig::default()
    };
    // v1's third call (the second batch in Loaded) panics.
    let (registry, mut engine) = ModelRegistry::with_scorer(
        "v1",
        scripted(1.0, 100, &[], &[3]),
        b"artifact v1".to_vec(),
        config,
        Arc::clone(&clock) as Arc<dyn dlr_serve::Clock>,
    );
    let obs = Arc::new(Obs::new(Arc::clone(&clock) as Arc<dyn dlr_obs::NanoClock>));
    registry.attach_obs(Arc::clone(&obs));

    let mut got = Vec::new();
    let mut want = Vec::new();
    let mut step = |engine: &mut RegistryEngine, reqs: &[Req], budget_us, by, tag| {
        got.push(transcript_batch(engine, reqs, budget_us));
        want.push(answered(by, tag, reqs));
    };
    use ServedBy::{Fallback, Primary};

    // --- Rollout 1: v2 (30 µs per call step; call 2 NaN, call 3 panics).
    step(&mut engine, &[(0, 2, None)], None, Primary, 1);
    registry
        .load_scorer(
            "v2",
            scripted(2.0, 30, &[2, 6], &[3]),
            b"artifact v2".to_vec(),
        )
        .expect("load v2");
    step(&mut engine, &[(1, 1, None)], None, Primary, 1);
    // An incumbent panic propagates to the caller (the dispatcher turns
    // it into `batch_panics`); the last served version is unchanged.
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        transcript_batch(&mut engine, &[(99, 1, None)], None)
    }));
    assert!(panicked.is_err(), "incumbent panic must propagate");
    assert_eq!(engine.served_version().as_deref(), Some("v1"));

    registry.begin_shadow().expect("shadow v2");
    const S2: &[Req] = &[(3, 3, Some(&[2.0, 0.0, 1.0])), (4, 2, Some(&[0.0, 1.0]))];
    const S8: &[Req] = &[(10, 3, Some(&[1.0, 0.0, 0.0])), (11, 1, None)];
    step(&mut engine, &[(2, 2, None)], None, Primary, 1);
    step(&mut engine, S2, None, Primary, 1); // mirrored: healthy, 2 NDCG pairs
    step(&mut engine, &[(5, 1, None)], None, Primary, 1);
    step(&mut engine, &[(6, 2, None)], Some(100), Primary, 1); // mirrored: NaN
    step(&mut engine, &[(7, 1, None)], None, Primary, 1);
    step(&mut engine, &[(8, 2, None)], Some(100), Primary, 1); // mirrored: panic
    step(&mut engine, &[(9, 1, None)], None, Primary, 1);
    step(&mut engine, S8, Some(100), Primary, 1); // mirrored: over budget

    registry.begin_canary().expect("canary v2");
    step(&mut engine, &[(12, 1, None)], Some(100), Primary, 1);
    step(&mut engine, &[(13, 2, None)], Some(100), Primary, 2); // canary
    step(&mut engine, &[(14, 1, None)], None, Primary, 1);
    step(&mut engine, &[(15, 2, None)], None, Fallback, 1); // canary NaN: rescued

    registry.promote().expect("promote v2 from canary");
    step(&mut engine, &[(16, 1, None)], None, Primary, 2);
    step(&mut engine, &[(17, 2, None)], None, Primary, 2); // v1 mirrored
    step(&mut engine, &[(18, 1, None)], Some(100), Primary, 2);
    step(&mut engine, &[(19, 2, None)], None, Primary, 2); // v1 mirrored; settles
    assert_eq!(registry.candidate_version(), None);
    let settled = registry.last_report().expect("v2 journey");
    step(&mut engine, &[(20, 1, None)], None, Primary, 2);

    // --- Rollout 2: two rejected loads, then v3 (50 µs step), NaN from
    // its third call, rolled back by the watchdog in Hold.
    assert!(matches!(
        registry.load_artifact("v3-corrupt", b"dlr-mlp v9 garbage"),
        Err(LifecycleError::ArtifactRejected { .. })
    ));
    assert!(matches!(
        registry.load_scorer("v3-wide", Box::new(Wide), Vec::new()),
        Err(LifecycleError::ArtifactRejected { .. })
    ));
    registry
        .load_scorer(
            "v3",
            scripted(3.0, 50, &[3, 4, 5], &[]),
            b"artifact v3".to_vec(),
        )
        .expect("load v3");
    registry.begin_shadow().expect("shadow v3");
    assert_eq!(
        registry.promote(),
        Err(LifecycleError::InsufficientData { have: 0, need: 2 })
    );
    const RS2: &[Req] = &[(22, 2, Some(&[1.0, 0.0])), (23, 2, Some(&[0.0, 1.0]))];
    step(&mut engine, &[(21, 1, None)], None, Primary, 2);
    step(&mut engine, RS2, None, Primary, 2); // mirrored: 2 NDCG pairs
    registry.promote().expect("promote v3 from shadow");
    step(&mut engine, &[(24, 1, None)], None, Primary, 3);
    step(&mut engine, &[(25, 1, None)], None, Fallback, 2); // rescued by v2
    step(&mut engine, &[(26, 1, None)], None, Fallback, 2);
    step(&mut engine, &[(27, 1, None)], None, Fallback, 2); // watchdog trips
    let rolled_back = registry.last_report().expect("v3 journey");
    assert_eq!(registry.active_version(), "v2");
    step(&mut engine, &[(28, 1, None)], None, Primary, 2);
    assert_eq!(registry.rollback(), Err(LifecycleError::NothingToRollBack));

    assert_eq!(got, want);

    let version = |v: &str| v.to_string();
    assert_eq!(
        registry.events(),
        vec![
            LifecycleEvent::Loaded {
                version: version("v2")
            },
            LifecycleEvent::ShadowStarted {
                version: version("v2")
            },
            LifecycleEvent::CanaryStarted {
                version: version("v2")
            },
            LifecycleEvent::Promoted {
                version: version("v2"),
                replaced: version("v1"),
            },
            LifecycleEvent::Settled {
                version: version("v2")
            },
            LifecycleEvent::LoadRejected {
                version: version("v3-corrupt"),
                reason: LOAD_REJECTED_CORRUPT.to_string(),
            },
            LifecycleEvent::LoadRejected {
                version: version("v3-wide"),
                reason: "artifact for v3-wide rejected: feature dimension 3 does not match \
                         the registry's 2"
                    .to_string(),
            },
            LifecycleEvent::Loaded {
                version: version("v3")
            },
            LifecycleEvent::ShadowStarted {
                version: version("v3")
            },
            LifecycleEvent::PromotionBlocked {
                version: version("v3"),
                reason: "promotion gate: 0 NDCG pairs, need 2".to_string(),
            },
            LifecycleEvent::Promoted {
                version: version("v3"),
                replaced: version("v2"),
            },
            LifecycleEvent::RolledBack {
                version: version("v3"),
                restored: version("v2"),
                reason: RollbackReason::NanRescue { rate: 0.6 },
            },
        ]
    );

    // v2: 4 mirrored shadow batches (13 docs; S2 + S8 compared, S4 NaN,
    // S6 panicked), 2 canary batches (1 rescue), 4 hold batches (2 with
    // v1 mirrored); over budget on S8, C2 and H3.
    assert_eq!(
        settled,
        CandidateReport {
            version: version("v2"),
            stage: Stage::Hold,
            stats: CandidateStats {
                shadow_batches: 4,
                shadow_docs: 13,
                compared_docs: 13,
                divergent_docs: 13,
                shadow_nan_batches: 1,
                shadow_panics: 1,
                canary_batches: 2,
                rescues: 1,
                hold_batches: 4,
                deadline_degraded: 3,
                ..CandidateStats::default()
            },
            outcome: CandidateOutcome::Settled,
        }
    );
    // Candidate samples: v2 calls 1, 2, 4..10 (call 3 panicked).
    assert_eq!(
        settled.stats.candidate_latency.0,
        histogram(&[30, 60, 120, 150, 180, 210, 240, 270, 300])
    );
    // Incumbent samples: v1 paired with completed mirrors (calls 5, 7,
    // 11), the canary control arm (12, 13), the rescue (14) and the hold
    // mirrors (15, 16).
    assert_eq!(
        settled.stats.incumbent_latency.0,
        histogram(&[500, 700, 1100, 1200, 1300, 1400, 1500, 1600])
    );
    assert_eq!(settled.stats.ndcg_pairs, NDCG_PAIRS_V2.to_vec());

    assert_eq!(
        rolled_back,
        CandidateReport {
            version: version("v3"),
            stage: Stage::Hold,
            stats: CandidateStats {
                shadow_batches: 1,
                shadow_docs: 4,
                compared_docs: 4,
                divergent_docs: 4,
                rescues: 3,
                hold_batches: 4,
                ..CandidateStats::default()
            },
            outcome: CandidateOutcome::RolledBack(RollbackReason::NanRescue { rate: 0.6 }),
        }
    );
    assert_eq!(
        rolled_back.stats.candidate_latency.0,
        histogram(&[50, 100, 150, 200, 250])
    );
    // v2 as reference: paired with the mirror (call 13), then three
    // rescues (14..16).
    assert_eq!(
        rolled_back.stats.incumbent_latency.0,
        histogram(&[390, 420, 450, 480])
    );
    assert_eq!(rolled_back.stats.ndcg_pairs, NDCG_PAIRS_V3.to_vec());

    let counter = |name: &str| obs.counter(name).get();
    assert_eq!(
        [
            counter("registry_shadow_batches_total"),
            counter("registry_canary_batches_total"),
            counter("registry_rescues_total"),
            counter("registry_promotions_total"),
            counter("registry_rollbacks_total"),
            counter("registry_loads_rejected_total"),
        ],
        [5, 2, 4, 2, 1, 2]
    );

    std::panic::set_hook(prev);
}

/// A three-feature scorer: rejected by a two-feature registry.
struct Wide;

impl DocumentScorer for Wide {
    fn num_features(&self) -> usize {
        3
    }
    fn score_batch(&mut self, _rows: &[f32], out: &mut [f32]) {
        out.fill(0.0);
    }
    fn name(&self) -> String {
        "wide".into()
    }
}

const LOAD_REJECTED_CORRUPT: &str = "artifact for v3-corrupt rejected: not a dlr-mlp file";
const NDCG_PAIRS_V2: &[(f64, f64)] = &[
    (0.6885288809404666, 0.6885288809404666),
    (1.0, 1.0),
    (0.5, 0.5),
];
const NDCG_PAIRS_V3: &[(f64, f64)] = &[(0.6309297535714575, 0.6309297535714575), (1.0, 1.0)];
