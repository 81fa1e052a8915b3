//! Live model lifecycle under fire: hot-swap, shadow, canary, promote,
//! and automatic rollback — while paced open-loop traffic with deadlines
//! flows through the server and injected server faults (queue stalls,
//! slow consumers, batch panics, deadline storms) try to knock it over.
//!
//! The script this example runs:
//!
//! 1. Serve `dlr-mlp v2` artifact **v1**.
//! 2. Reject a bit-flipped and a truncated candidate artifact at load
//!    time (the incumbent keeps serving untouched).
//! 3. Roll **ten** freshly trained candidates through the full staged
//!    path — load → shadow (mirrored off the response path) → canary
//!    (a deterministic slice of real traffic) → promote → hold →
//!    settled — hot-swapping the active model ten times under load.
//! 4. Load one more candidate that turns out to be broken (NaN scores):
//!    the shadow watchdog trips and rolls it back automatically.
//! 5. Drain, then check the books: every admitted request was answered
//!    exactly once, and the per-version breakdown sums to the totals.
//!
//! The final active artifact is bit-deterministic for a given `--seed`,
//! whatever the fault timing did — CI runs this twice and `cmp`s the
//! two `--out` files.
//!
//! ```sh
//! cargo run --release --example model_lifecycle -- --seed 42 --out /tmp/active.dlr
//! ```

use distilled_ltr::core::fault::{
    corrupt_artifact, ArtifactCorruption, ServerFaultConfig, ServerFaultPlan,
};
use distilled_ltr::core::scoring::DocumentScorer;
use distilled_ltr::metrics::GateConfig;
use distilled_ltr::nn::{write_mlp, Mlp};
use distilled_ltr::obs::Obs;
use distilled_ltr::serve::{
    BatchConfig, Clock, LifecycleEvent, ModelRegistry, MonotonicClock, RegistryEngine, Response,
    ResponseHandle, RolloutConfig, ScoreRequest, Server, ServerConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

const NUM_FEATURES: usize = 25;
const DOCS_PER_QUERY: usize = 8;
const DEADLINE: Duration = Duration::from_millis(10);
const PROMOTIONS: usize = 10;

/// A candidate that looked fine offline but emits NaN in production.
struct BrokenScorer;

impl DocumentScorer for BrokenScorer {
    fn num_features(&self) -> usize {
        NUM_FEATURES
    }
    fn score_batch(&mut self, _rows: &[f32], out: &mut [f32]) {
        out.fill(f32::NAN);
    }
    fn name(&self) -> String {
        "broken".into()
    }
}

/// Serialize version `v`'s model: a freshly initialised MLP whose bytes
/// depend only on `(seed, v)` — so the final active artifact is
/// bit-reproducible across runs regardless of fault timing.
fn artifact(seed: u64, v: u64) -> Vec<u8> {
    let mlp = Mlp::from_hidden(NUM_FEATURES, &[16, 8], seed.wrapping_add(v));
    let mut bytes = Vec::new();
    write_mlp(&mlp, &mut bytes).expect("in-memory serialization cannot fail");
    bytes
}

struct Traffic {
    rng: StdRng,
    handles: Vec<ResponseHandle>,
    refused: u64,
    next_query: u64,
}

impl Traffic {
    /// Submit `n` paced queries open-loop (never waiting for responses):
    /// random features, graded labels for the shadow NDCG comparison,
    /// and a per-request deadline.
    fn drive(&mut self, server: &Server<RegistryEngine>, n: usize) {
        for _ in 0..n {
            self.next_query += 1;
            let mut features = Vec::with_capacity(DOCS_PER_QUERY * NUM_FEATURES);
            let mut labels = Vec::with_capacity(DOCS_PER_QUERY);
            for doc in 0..DOCS_PER_QUERY {
                for _ in 0..NUM_FEATURES {
                    features.push(self.rng.random_range(0.0f32..1.0));
                }
                labels.push(3.0f32 - (doc.min(3) as f32));
            }
            let request = ScoreRequest::new(features)
                .with_deadline(DEADLINE)
                .with_labels(labels);
            match server.submit(request) {
                Ok(handle) => self.handles.push(handle),
                Err(_) => self.refused += 1,
            }
            std::thread::sleep(Duration::from_micros(150));
        }
    }
}

/// Drive traffic until the in-flight candidate's journey ends (settled
/// or rolled back), with a hard cap so a bug cannot hang the example.
fn drive_until_resolved(
    traffic: &mut Traffic,
    server: &Server<RegistryEngine>,
    reg: &ModelRegistry,
) {
    for _ in 0..400 {
        if reg.candidate_version().is_none() {
            return;
        }
        traffic.drive(server, 2);
    }
    panic!("candidate {:?} never resolved", reg.candidate_version());
}

fn main() {
    let mut seed = 42u64;
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed <u64>")
            }
            "--out" => out_path = Some(args.next().expect("--out <path>")),
            other => panic!("unknown argument {other:?}"),
        }
    }
    silence_injected_panic_messages();

    // Watchdog tuned for the demo: NaN output is the tripwire; score
    // divergence between differently-initialised candidates is expected
    // and must not fire, so those thresholds are parked above 100%.
    let config = RolloutConfig {
        shadow_fraction: 1.0,
        canary_fraction: 0.25,
        min_samples: 8,
        max_nan_rescue_rate: 0.5,
        max_divergence_rate: 1.1,
        max_deadline_degradation_rate: 1.1,
        max_p99_ratio: 1e9,
        hold_batches: 4,
        gate: GateConfig {
            min_queries: 0,
            alpha: 0.0, // synthetic models: exercise the gate, never block
            ..GateConfig::default()
        },
        ..RolloutConfig::default()
    };
    // One clock feeds the registry, the server, and the obs plane, so
    // shadow/canary spans share the dispatcher waterfall's time base.
    let clock = Arc::new(MonotonicClock::default());
    let obs = Arc::new(Obs::new(
        Arc::clone(&clock) as Arc<dyn distilled_ltr::obs::NanoClock>
    ));
    let (registry, engine) =
        ModelRegistry::new("v1", artifact(seed, 1), config, Arc::clone(&clock) as _)
            .expect("v1 artifact is valid");
    registry.attach_obs(Arc::clone(&obs));

    let faults = ServerFaultPlan::seeded(
        seed ^ 0xFA017,
        ServerFaultConfig {
            p_stall: 0.05,
            stall: Duration::from_millis(2),
            p_slow: 0.05,
            slow: Duration::from_micros(500),
            p_panic: 0.03,
            p_storm: 0.08,
        },
    );
    let fault_counters = faults.counters();
    let server = Server::start(
        engine,
        ServerConfig {
            batch: BatchConfig {
                max_batch_docs: 4 * DOCS_PER_QUERY,
                // A partial batch waits no longer than min(max_wait,
                // forecast saving, deadline slack). This server holds no
                // forecaster, so nothing predicts a saving and it never
                // waits: this ceiling only bounds a forecast wait.
                max_wait: Duration::from_micros(300),
            },
            queue_capacity: 64,
            faults: Some(faults),
            clock: Some(Arc::clone(&clock) as Arc<dyn Clock>),
            obs: Some(Arc::clone(&obs)),
            ..ServerConfig::default()
        },
    );
    let mut traffic = Traffic {
        rng: StdRng::seed_from_u64(seed ^ 0x7AFF1C),
        handles: Vec::new(),
        refused: 0,
        next_query: 0,
    };

    println!("=== model lifecycle under injected server faults (seed {seed}) ===\n");
    traffic.drive(&server, 8);
    println!(
        "serving v1 ({} features, {} docs/query)",
        NUM_FEATURES, DOCS_PER_QUERY
    );

    // --- Corrupt and truncated artifacts are rejected at the door. ---
    let bit_flipped = corrupt_artifact(
        &artifact(seed, 2),
        ArtifactCorruption::FlipByte { offset: 40 },
    );
    let err = registry
        .load_artifact("v2-bitflip", &bit_flipped)
        .expect_err("bit-flipped artifact must be rejected");
    println!("rejected bit-flipped candidate: {err}");
    let torn = corrupt_artifact(
        &artifact(seed, 2),
        ArtifactCorruption::Truncate { keep: 33 },
    );
    let err = registry
        .load_artifact("v2-torn", &torn)
        .expect_err("truncated artifact must be rejected");
    println!("rejected truncated candidate:   {err}");
    assert_eq!(
        registry.active_version(),
        "v1",
        "incumbent untouched by rejected loads"
    );
    traffic.drive(&server, 4);

    // --- Ten staged rollouts: load → shadow → canary → promote → settle. ---
    for v in 2..=(1 + PROMOTIONS as u64) {
        let version = format!("v{v}");
        registry
            .load_artifact(&version, &artifact(seed, v))
            .expect("valid candidate artifact");
        registry.begin_shadow().expect("Loaded -> Shadow");
        traffic.drive(&server, 12);
        registry.begin_canary().expect("Shadow -> Canary");
        traffic.drive(&server, 8);
        registry.promote().expect("gate passes in demo config");
        drive_until_resolved(&mut traffic, &server, &registry);
        assert_eq!(
            registry.active_version(),
            version,
            "promotion settled on {version}"
        );
        let report = registry.last_report().expect("journey recorded");
        println!(
            "{version}: shadowed {} batches ({} docs compared), canaried {}, held {}, now active",
            report.stats.shadow_batches,
            report.stats.compared_docs,
            report.stats.canary_batches,
            report.stats.hold_batches,
        );
    }
    let last_good = registry.active_version();

    // --- A broken candidate: the shadow watchdog rolls it back. ---
    registry
        .load_scorer("v12-broken", Box::new(BrokenScorer), Vec::new())
        .expect("load succeeds; the model only misbehaves at runtime");
    registry.begin_shadow().expect("Loaded -> Shadow");
    drive_until_resolved(&mut traffic, &server, &registry);
    let report = registry.last_report().expect("journey recorded");
    println!(
        "\nv12-broken: {} NaN shadow batches -> outcome {:?}",
        report.stats.shadow_nan_batches, report.outcome
    );
    assert!(
        registry.events().iter().any(
            |e| matches!(e, LifecycleEvent::RolledBack { version, .. } if version == "v12-broken")
        ),
        "watchdog must have rolled the broken candidate back"
    );
    assert_eq!(
        registry.active_version(),
        last_good,
        "rollback kept {last_good} active"
    );
    traffic.drive(&server, 8);

    // --- Drain and audit the books. ---
    let (_engine, stats) = server.shutdown();
    let (mut scored, mut expired, mut failed) = (0u64, 0u64, 0u64);
    for handle in traffic.handles.drain(..) {
        match handle.wait().response {
            Response::Scored { .. } => scored += 1,
            Response::Expired => expired += 1,
            Response::Failed => failed += 1,
        }
    }
    // The lifecycle tally twice: from the event log and from the obs
    // counters. The hot-swap-soak CI job checks the two lines agree.
    let events = registry.events();
    let tally = |pred: fn(&LifecycleEvent) -> bool| events.iter().filter(|e| pred(e)).count();
    let from_events = [
        tally(|e| matches!(e, LifecycleEvent::Promoted { .. })),
        tally(|e| matches!(e, LifecycleEvent::RolledBack { .. })),
        tally(|e| matches!(e, LifecycleEvent::LoadRejected { .. })),
    ];
    let from_counters = [
        "registry_promotions_total",
        "registry_rollbacks_total",
        "registry_loads_rejected_total",
    ]
    .map(|name| obs.counter(name).get() as usize);
    let line = |[promoted, rolled_back, rejected]: [usize; 3]| {
        format!("{promoted} promotions, {rolled_back} rollback(s), {rejected} rejected load(s)")
    };
    println!("\nlifecycle: {}", line(from_counters));
    println!("lifecycle event log: {}", line(from_events));
    println!(
        "traffic: {} submitted | {} scored, {} expired, {} failed, {} refused at the door",
        traffic.next_query, scored, expired, failed, traffic.refused
    );
    use std::sync::atomic::Ordering;
    println!(
        "injected server faults: {} (stalls {}, slow consumers {}, batch panics {}, deadline storms {})",
        fault_counters.total_faults(),
        fault_counters.queue_stalls.load(Ordering::Relaxed),
        fault_counters.slow_consumers.load(Ordering::Relaxed),
        fault_counters.batch_panics.load(Ordering::Relaxed),
        fault_counters.deadline_storms.load(Ordering::Relaxed),
    );
    println!("\nserver stats after drain:\n{stats}");

    // Shutdown snapshot: the scrape a monitoring system would have seen,
    // plus the slowest request waterfalls. The registry's lifecycle
    // counters must agree exactly with the event log tallied above.
    println!("\n--- obs snapshot (json) ---");
    println!("{}", obs.snapshot_json());
    println!("--- slowest request waterfalls ---");
    print!("{}", obs.trace_dump(2));
    assert!(obs.books_balance(), "span accounting must balance");
    assert_eq!(
        from_counters, from_events,
        "lifecycle counters must match the event log"
    );

    // Drain-exact identities, across ten hot swaps and a rollback:
    // every admitted request answered exactly once...
    assert_eq!(
        stats.admitted,
        scored + expired + failed,
        "books must balance"
    );
    assert_eq!(
        stats.answered(),
        stats.admitted,
        "drain answered everything"
    );
    assert_eq!(
        stats.submitted,
        stats.admitted + stats.refused(),
        "door accounting"
    );
    // ...and every scored request attributed to exactly one version.
    let per_version: u64 = stats
        .per_version
        .iter()
        .map(|v| v.scored_primary + v.scored_fallback)
        .sum();
    assert_eq!(
        per_version,
        stats.scored(),
        "per-version rows sum to the totals"
    );

    assert_eq!(from_events[0], PROMOTIONS);
    println!("final-active {}", registry.active_version());
    if let Some(path) = out_path {
        std::fs::write(&path, registry.active_artifact()).expect("write --out artifact");
        println!("wrote active artifact to {path}");
    }
}

/// Keep injected-fault panics (absorbed by batch isolation) from
/// spamming stderr with backtraces; real panics report normally.
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
