//! The five workloads. Each synthesizes the corpus, trains its models
//! through the public training calls, deploys them, and measures one
//! deployment under traffic drawn from the seed: direct scoring, the server
//! in front of `RobustScorer`, the server in front of the model registry, or
//! the training itself.

use crate::layers;
use crate::load::{
    closed_loop, direct_phase, open_loop, DirectOutcome, Outcome, Plan, Pool, Reply, BLOCK,
    DEADLINE,
};
use crate::models::{
    self, forward_tolerance, naive_forward, synthesize, Data, Sizes, Student, Trained, FEATURES,
    PAPER_HIDDEN, QUERY_DOCS,
};
use crate::schedule::{audit_sample, poisson_arrivals, request_sizes, rollout_step, RolloutStep};
use crate::stats::{block_percentiles, median, percentile, quiet_decile};
use crate::trace::{durations_us, EngineMeter, TimedEngine, TimedScorer, Tracer};
use dlr_core::scoring::{DocumentScorer, HybridScorer, QuickScorerScorer};
use dlr_core::serve::RobustScorer;
use dlr_nn::{read_mlp_bytes, write_mlp, Mlp, MlpWorkspace};
use dlr_obs::Obs;
use dlr_predictor::{calibrate_dense, BudgetForecast};
use dlr_quickscorer::{BlockwiseQuickScorer, QuickScorer, VectorizedQuickScorer};
use dlr_serve::{
    BatchConfig, BatchEngine, Clock, ModelRegistry, MonotonicClock, RolloutConfig, Server,
    ServerConfig, ServerStats,
};
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups made in one run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Pool documents held against the oracle (plain-loop forward or per-tree
/// traversal) in every run.
const ORACLE_DOCS: usize = 1024;

/// Open-loop rates are constants, never derived from a timing of the run:
/// latency is a steep function of utilisation near the knee, so a rate that
/// follows a measured capacity would carry that measurement's noise into
/// every latency. Both sit under 40% of the closed-loop capacity of the
/// reference host (2 cores: ≈2,700 and ≈38,000 requests per second).
const RERANK_RATE: f64 = 700.0;
const SWAP_RATE: f64 = 4_000.0;
/// A run fails when its fixed rate exceeds this share of the capacity it
/// measured: beyond it the latencies describe the knee, not the system.
const MAX_UTILISATION: f64 = 0.40;

/// Requests the closed-loop client keeps outstanding: enough documents to
/// fill micro-batches back to back, so that capacity is what the dispatcher
/// can execute and not how long its batch timer sleeps. Eight 4-document
/// requests never fill a batch; every batch then waits out `max_wait`, and
/// on the reference host that timer alone moved capacity between 7,400 and
/// 13,000 requests per second.
const RERANK_OUTSTANDING: usize = 8;
const SWAP_OUTSTANDING: usize = 128;

/// serve-rerank request sizes: 64-document queries, short lists, and deep
/// lists that fill a micro-batch alone.
const RERANK_MIX: [(usize, f64); 3] = [(64, 0.7), (16, 0.2), (256, 0.1)];
/// serve-swap requests are small enough that the batcher coalesces them.
const SWAP_MIX: [(usize, f64); 1] = [(4, 1.0)];
const SCORE_MIX: [(usize, f64); 1] = [(QUERY_DOCS, 1.0)];
/// One serve-swap request in eight carries relevance labels, as clicked
/// results would: `promote` holds the registry lock through a Fisher test
/// over the labelled pairs, 38 ms when every request is labelled, which is
/// longer than the requests queued behind it have.
const SWAP_LABEL_EVERY: usize = 8;

fn batch_config() -> BatchConfig {
    BatchConfig {
        max_batch_docs: 256,
        max_wait: Duration::from_micros(200),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScoreHybrid,
    ScoreForest,
    ServeRerank,
    ServeSwap,
    TrainDistill,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ScoreHybrid,
        Workload::ScoreForest,
        Workload::ServeRerank,
        Workload::ServeSwap,
        Workload::TrainDistill,
    ];

    pub fn name(self) -> &'static str {
        crate::spec::WORKLOADS[self as usize].name
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Data and training sizes. Full sizes put 4 to 13 s of training in a
    /// run; `check` sizes let the smoke test finish in a second.
    pub(crate) fn sizes(self, check: bool) -> Sizes {
        if check {
            return Sizes {
                train_queries: 16,
                heldout_queries: 24,
                pool_queries: 12,
                trees: 6,
                leaves: 8,
                hidden: if self == Workload::ScoreForest {
                    &[]
                } else {
                    &[24, 12]
                },
                epochs: [1, 1, 1],
            };
        }
        let base = Sizes {
            train_queries: 100,
            heldout_queries: 280,
            pool_queries: 256,
            trees: 40,
            leaves: 32,
            hidden: &PAPER_HIDDEN,
            epochs: [6, 3, 2],
        };
        match self {
            Workload::ScoreHybrid | Workload::ServeSwap => base,
            Workload::ScoreForest => Sizes {
                trees: 200,
                leaves: 32,
                hidden: &[],
                ..base
            },
            // The teacher is also the 100-tree QuickScorer fallback.
            Workload::ServeRerank => Sizes { trees: 100, ..base },
            Workload::TrainDistill => Sizes {
                train_queries: 200,
                trees: 100,
                leaves: 64,
                hidden: &[200, 100, 100, 50],
                epochs: [14, 8, 4],
                ..base
            },
        }
    }

    /// Shares of `--seconds` given to direct scoring, the open loop and the
    /// closed loop.
    fn shares(self) -> [f64; 3] {
        match self {
            Workload::ScoreHybrid | Workload::ScoreForest => [1.0, 0.0, 0.0],
            // The open loop gets the most: it collects the fewest samples a
            // second.
            Workload::ServeRerank | Workload::ServeSwap => [0.0, 0.7, 0.3],
            // Training is this workload's long phase; its size is fixed.
            Workload::TrainDistill => [0.3, 0.0, 0.0],
        }
    }
}

pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke sizes: tiny models, no validity gates on the measurements.
    pub check: bool,
}

/// Everything one run found.
#[derive(Default)]
pub struct Report {
    /// End-to-end metrics of an untraced run, per-layer metrics of a traced
    /// one, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts and other context printed beside the metrics.
    pub info: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks and measurement-validity gates that did not hold.
    pub violations: Vec<String>,
    /// Benchmark-side spans of a traced run.
    pub tracer: Option<Arc<Tracer>>,
}

impl Report {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.info.push((name.to_string(), value, unit));
    }

    fn require(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.violations.push(what());
        }
    }
}

/// `f`'s product and the seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let product = f();
    (product, t0.elapsed().as_secs_f64())
}

/// Seconds each of `extra` more runs of `f` takes, every product dropped at
/// once. The set-up a run measures on is its first; the others come after
/// the measured phases and after `peak_rss_mb` is read, so that neither
/// sees what they leave in the allocator.
fn set_up_again<T>(extra: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    (0..extra).map(|_| timed(&mut f).1).collect()
}

/// `VmHWM` of this process in megabytes; `None` where `/proc` has none.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// The pool as `scorer` scores it: one warm-up pass in 64-document batches
/// whose output every later call and response is compared with.
fn pool_of(rows: Vec<f32>, labels: Vec<f32>, scorer: &mut dyn DocumentScorer) -> Pool {
    let mut expected = vec![0.0f32; labels.len()];
    for (rows, out) in rows
        .chunks(QUERY_DOCS * FEATURES)
        .zip(expected.chunks_mut(QUERY_DOCS))
    {
        scorer.score_batch(rows, out);
    }
    Pool {
        rows,
        labels,
        expected,
    }
}

fn hybrid_scorer(student: &Student) -> HybridScorer {
    HybridScorer::new(student.hybrid(), student.normalizer.clone(), "hybrid")
}

/// The registry's private artifact scorer, rebuilt from the same bytes: the
/// network over already-normalized rows.
struct ArtifactScorer {
    mlp: Mlp,
    ws: MlpWorkspace,
}

impl DocumentScorer for ArtifactScorer {
    fn num_features(&self) -> usize {
        self.mlp.input_dim()
    }
    fn score_batch(&mut self, rows: &[f32], out: &mut [f32]) {
        self.mlp.score_batch_with(rows, out, &mut self.ws);
    }
    fn name(&self) -> String {
        "artifact".into()
    }
}

/// Hybrid scores against the plain-loop dense forward of the same weights,
/// within the documented fused-multiply-add bound.
fn check_against_forward(report: &mut Report, student: &Student, data: &Data, pool: &Pool) {
    let docs = ORACLE_DOCS.min(pool.docs());
    let mut want = vec![0.0f32; docs];
    naive_forward(
        &student.mlp,
        &student.normalizer,
        data.rows(0, docs),
        &mut want,
    );
    let off = want
        .iter()
        .zip(&pool.expected)
        .filter(|(w, g)| (*w - *g).abs() > forward_tolerance(&student.mlp, **w))
        .count();
    report.attempted += docs as u64;
    report.failed += off as u64;
    report.require(off == 0, || {
        format!("{off} of {docs} scores are outside the k_cb half-ULP bound of the dense forward")
    });
}

/// Every QuickScorer variant bit-equal to per-tree traversal.
fn check_against_traversal(report: &mut Report, trained: &Trained, data: &Data, pool: &Pool) {
    let docs = ORACLE_DOCS.min(pool.docs());
    let rows = data.rows(0, docs);
    let want: Vec<f32> = rows
        .chunks_exact(FEATURES)
        .map(|row| trained.teacher.predict(row))
        .collect();
    let mut variants: Vec<(String, Vec<f32>)> =
        vec![("deployed".into(), pool.expected[..docs].to_vec())];
    let mut got = vec![0.0f32; docs];
    QuickScorer::compile(&trained.teacher)
        .expect("forest fits QuickScorer")
        .score_batch(rows, &mut got);
    variants.push(("qs".into(), got.clone()));
    BlockwiseQuickScorer::compile(&trained.teacher, 50)
        .expect("forest fits BWQS")
        .score_batch(rows, &mut got);
    variants.push(("bwqs".into(), got.clone()));
    let vqs = VectorizedQuickScorer::compile(&trained.teacher).expect("forest fits vQS");
    for isa in dlr_simd::Isa::ALL {
        if dlr_simd::supported(isa) {
            vqs.score_batch_with_isa(isa, rows, &mut got);
            variants.push((format!("vqs.{isa}"), got.clone()));
        }
    }
    for (name, got) in variants {
        // BWQS adds up block by block, a different order of the same float
        // additions; it is held to the tolerance the product's own tests use.
        let slack = if name == "bwqs" { 1e-4 } else { 0.0 };
        let off = want
            .iter()
            .zip(&got)
            .filter(|(w, g)| (*w - *g).abs() > slack)
            .count();
        report.attempted += docs as u64;
        report.failed += off as u64;
        report.require(off == 0, || {
            format!("{name}: {off} of {docs} scores differ from per-tree traversal")
        });
    }
}

/// `latency_p50_us` from samples in send order: the median of each block of
/// [`BLOCK`], then over the blocks the quiet decile. Over eight runs of one
/// build in a busy hour of the reference host the pooled median of
/// serve-rerank spread 12% (third quartile − first ÷ median), this 8%.
fn quiet_p50_us(latency_ns: &[u64]) -> f64 {
    quiet_decile(&block_percentiles(latency_ns, BLOCK, 0.50), true) / 1e3
}

/// The latency metric, with the pooled percentiles and their sample count
/// beside it. The pooled p99 is context, not a metric: on the reference host
/// it is the length of the hypervisor's stalls (2.7 to 14 ms on serve-rerank,
/// run to run), and no statistic of the tail repeated within a quarter.
fn latency_metrics(report: &mut Report, latency_ns: &[u64]) -> f64 {
    let p50_us = quiet_p50_us(latency_ns);
    report.set("latency_p50_us", p50_us);
    let mut sorted = latency_ns.to_vec();
    sorted.sort_unstable();
    report.note("latency_samples", sorted.len() as f64, "count");
    report.note(
        "pooled_latency_p50_us",
        percentile(&sorted, 0.50) as f64 / 1e3,
        "us",
    );
    report.note(
        "pooled_latency_p99_us",
        percentile(&sorted, 0.99) as f64 / 1e3,
        "us",
    );
    p50_us
}

/// The direct phase's numbers as end-to-end metrics: a call is a request.
fn direct_metrics(report: &mut Report, direct: &DirectOutcome) {
    let calls = direct.call_ns.len() as u64;
    let blocks: Vec<(f64, f64)> = direct
        .call_ns
        .chunks(BLOCK)
        .zip(direct.call_docs.chunks(BLOCK))
        .map(|(ns, docs)| {
            let busy_ns = ns.iter().sum::<u64>() as f64;
            let docs = docs.iter().sum::<usize>() as f64;
            (busy_ns / 1e3 / docs, ns.len() as f64 * 1e9 / busy_ns)
        })
        .collect();
    let us_per_doc: Vec<f64> = blocks.iter().map(|b| b.0).collect();
    let calls_per_s: Vec<f64> = blocks.iter().map(|b| b.1).collect();
    report.set("us_per_doc", quiet_decile(&us_per_doc, true));
    report.set("capacity_qps", quiet_decile(&calls_per_s, false));
    latency_metrics(report, &direct.call_ns);
    let late = direct
        .call_ns
        .iter()
        .filter(|&&ns| ns > DEADLINE.as_nanos() as u64)
        .count() as u64;
    report.set("goodput_ratio", (calls - late) as f64 / calls as f64);
    report.note("blocks", blocks.len() as f64, "count");
    report.note("deadline_misses", late as f64, "count");
    report.attempted += calls;
    report.failed += direct.wrong;
    report.require(direct.wrong == 0, || {
        format!(
            "{} direct calls did not reproduce the pool's scores",
            direct.wrong
        )
    });
}

/// What the served phases of one run produced.
pub struct Served {
    pub open: Vec<Reply>,
    pub closed: Vec<Reply>,
    pub closed_block_qps: Vec<f64>,
    pub closed_block_us_per_doc: Vec<f64>,
    pub stats: ServerStats,
}

/// Open-loop and closed-loop numbers as end-to-end metrics, with the
/// accounting and validity checks that go with them.
///
/// `goodput_ratio` is over every request the open loop sent. A request that
/// misses it is printed as `info deadline_misses` and is not a failed
/// operation: on the reference host one run in ten meets a hypervisor stall
/// of over 100 ms. Failed operations are the ones no stall explains, scores
/// that differ from direct scoring and `Failed` responses, and they fail the
/// run.
fn served_metrics(report: &mut Report, served: &Served, rate: f64, check: bool) {
    report.set(
        "us_per_doc",
        quiet_decile(&served.closed_block_us_per_doc, true),
    );
    let latency: Vec<u64> = served.open.iter().map(Reply::latency_ns).collect();
    let p50_us = latency_metrics(report, &latency);
    let mut late: Vec<u64> = served.open.iter().map(|r| r.late_ns).collect();
    late.sort_unstable();
    let late_us = |p: f64| percentile(&late, p) as f64 / 1e3;
    let (late_p50_us, late_p99_us) = (late_us(0.50), late_us(0.99));
    let missed = served.open.iter().filter(|r| !r.good()).count() as u64;
    let sent = served.open.len() as u64;
    let capacity = quiet_decile(&served.closed_block_qps, false);
    report.set("capacity_qps", capacity);
    report.set("goodput_ratio", (sent - missed) as f64 / sent as f64);
    report.note("open_loop_rate", rate, "1/s");
    report.note("gen_late_p50_us", late_p50_us, "us");
    report.note("gen_late_p99_us", late_p99_us, "us");
    report.note("deadline_misses", missed as f64, "count");
    report.note("closed_loop_requests", served.closed.len() as f64, "count");
    report.note(
        "closed_loop_blocks",
        served.closed_block_qps.len() as f64,
        "count",
    );

    let all = || served.open.iter().chain(&served.closed);
    let count = |outcome: Outcome| all().filter(|r| r.outcome == outcome).count() as u64;
    let (wrong, failed) = (count(Outcome::Wrong), count(Outcome::Failed));
    report.attempted += all().count() as u64;
    report.failed += wrong + failed;
    report.require(wrong == 0, || {
        format!("{wrong} audited responses differ from direct scoring of the same rows")
    });
    report.require(failed == 0, || {
        format!("{failed} requests were answered Failed")
    });
    let s = &served.stats;
    report.require(
        s.admitted == s.scored_primary + s.scored_fallback + s.expired + s.failed,
        || format!("books do not balance after drain: {s:?}"),
    );
    if !check {
        // The median, not the tail: two arrivals closer than one `submit`
        // takes make the second late however fast the generator is.
        report.require(late_p50_us <= p50_us / 10.0, || {
            format!("generator ran late: {late_p50_us:.1} us at the median against a p50 of {p50_us:.1} us")
        });
        report.require(rate <= MAX_UTILISATION * capacity, || {
            format!("fixed rate {rate} exceeds 40% of the measured capacity {capacity:.0}")
        });
    }
}

/// Median latency of a short open loop on `server`, the same schedule
/// whoever calls: the traced and the untraced deployment each run it once,
/// and the difference is what tracing costs.
fn overhead_probe<E: BatchEngine + 'static>(
    cfg: &Config,
    server: &Server<TimedEngine<E>>,
    pool: &Pool,
    mix: &[(usize, f64)],
    rate: f64,
    label_every: usize,
) -> f64 {
    let due = poisson_arrivals(cfg.seed ^ 0x0B5, rate, 0.2 * cfg.seconds);
    let plan = Plan {
        pool,
        sizes: request_sizes(cfg.seed ^ 0x0B5, mix, due.len().max(1)),
        audit: vec![false],
        label_every,
    };
    // Numbered far from the run's own requests, which rollouts count.
    let replies = open_loop(server, &plan, &due, 1 << 40, None, &mut |_| {});
    let latency: Vec<u64> = replies.iter().map(Reply::latency_ns).collect();
    quiet_p50_us(&latency)
}

/// The open loop at `rate` and then the closed loop of `outstanding`
/// requests on `server`, which is shut down afterwards and its engine given
/// back. `on_sent` is told each open-loop request's number, from 1, and how
/// many the loop sends.
#[allow(clippy::too_many_arguments)]
fn served_phases<E: BatchEngine + 'static>(
    cfg: &Config,
    pool: &Pool,
    server: Server<TimedEngine<E>>,
    meter: &EngineMeter,
    mix: &[(usize, f64)],
    rate: f64,
    outstanding: usize,
    label_every: usize,
    tracer: Option<&Tracer>,
    on_sent: &mut dyn FnMut(u64, u64),
) -> (Served, E) {
    let [_, open_s, closed_s] = cfg.workload.shares().map(|share| share * cfg.seconds);
    let plan = |seed: u64, count: usize| Plan {
        pool,
        sizes: request_sizes(seed, mix, count),
        audit: audit_sample(seed, count),
        label_every,
    };
    let due = poisson_arrivals(cfg.seed, rate, open_s);
    let total = due.len() as u64;
    let open = open_loop(
        &server,
        &plan(cfg.seed, due.len().max(1)),
        &due,
        1,
        tracer,
        &mut |number| on_sent(number, total),
    );
    let closed = closed_loop(
        &server,
        &plan(cfg.seed ^ 0xC105ED, 8192),
        outstanding,
        closed_s,
        // A block is every outstanding request answered four times over.
        4 * outstanding,
        total + 1,
        tracer,
        meter,
    );
    let (engine, stats) = server.shutdown();
    let served = Served {
        open,
        closed: closed.replies,
        closed_block_qps: closed.block_qps,
        closed_block_us_per_doc: closed.block_us_per_doc,
        stats,
    };
    (served, engine.inner)
}

/// What the control plane did during serve-swap.
#[derive(Default)]
struct RolloutLog {
    load_us: Vec<f64>,
    promote_us: Vec<f64>,
    promoted: u64,
    errors: Vec<String>,
}

/// The control plane of serve-swap: a thread of its own, as an operator's
/// would be, taking each rollout step when told its request count was
/// reached.
fn control_plane(
    registry: ModelRegistry,
    artifact: Vec<u8>,
    steps: mpsc::Receiver<(u64, RolloutStep)>,
) -> std::thread::JoinHandle<RolloutLog> {
    std::thread::spawn(move || {
        let mut log = RolloutLog::default();
        for (rollout, step) in steps {
            // As an operator's script would, a step the registry is not
            // ready for (too few labelled pairs yet, the last rollout still
            // in its hold window) is tried again for a while. At full
            // length the steps are a quarter of a second apart and none
            // needs it; a smoke run's are milliseconds apart.
            let mut tries = 0;
            let (result, us) = loop {
                let (result, secs) = timed(|| match step {
                    RolloutStep::Load => {
                        registry.load_artifact(&format!("v{}", rollout + 1), &artifact)
                    }
                    RolloutStep::Shadow => registry.begin_shadow(),
                    RolloutStep::Canary => registry.begin_canary(),
                    RolloutStep::Promote => registry.promote(),
                });
                tries += 1;
                if result.is_ok() || tries == 200 {
                    break (result, secs * 1e6);
                }
                std::thread::sleep(Duration::from_millis(1));
            };
            match (step, result) {
                (RolloutStep::Load, Ok(())) => log.load_us.push(us),
                (RolloutStep::Promote, Ok(())) => {
                    log.promote_us.push(us);
                    log.promoted += 1;
                }
                (_, Ok(())) => {}
                (_, Err(e)) => log.errors.push(format!("rollout {rollout} {step:?}: {e}")),
            }
        }
        log
    })
}

/// The artifact scorer behind the student's normalizer, so held-out raw
/// rows can be ranked by what the registry serves.
struct Normalizing<'a> {
    inner: &'a mut ArtifactScorer,
    student: &'a Student,
    buf: Vec<f32>,
}

impl DocumentScorer for Normalizing<'_> {
    fn num_features(&self) -> usize {
        FEATURES
    }
    fn score_batch(&mut self, rows: &[f32], out: &mut [f32]) {
        self.buf.clear();
        self.buf.extend_from_slice(rows);
        self.student.normalizer.apply_matrix(&mut self.buf);
        self.inner.score_batch(&self.buf, out);
    }
    fn name(&self) -> String {
        "artifact".into()
    }
}

/// What a workload's deployment and load phases add to the run's report.
struct Deployed {
    /// Seconds each set-up after training took, the measured one first.
    deploy_s: Vec<f64>,
    /// `VmHWM` when the measured phases ended.
    peak_rss_mb: Option<f64>,
    /// Held-out NDCG@10 of the scorer the workload measures.
    ndcg10: f64,
    /// Seconds the held-out evaluation of that scorer took.
    eval_s: f64,
}

impl Deployed {
    /// Close a workload's run once its load phases are over: read `VmHWM`,
    /// then time the remaining set-ups.
    fn after_phases<T>(
        first_deploy_s: f64,
        setups: usize,
        ndcg10: f64,
        eval_s: f64,
        deploy: impl FnMut() -> T,
    ) -> Deployed {
        let peak_rss_mb = peak_rss_mb();
        let mut deploy_s = vec![first_deploy_s];
        deploy_s.extend(set_up_again(setups - 1, deploy));
        Deployed {
            deploy_s,
            peak_rss_mb,
            ndcg10,
            eval_s,
        }
    }
}

fn score_directly(
    cfg: &Config,
    setups: usize,
    data: &Data,
    trained: &Trained,
    tracer: &Option<Arc<Tracer>>,
    report: &mut Report,
    layer: &mut layers::Layers,
) -> Deployed {
    let student = trained.student.as_ref();
    let deploy = || {
        let scorer: Box<dyn DocumentScorer + Send> = match student {
            Some(student) => Box::new(hybrid_scorer(student)),
            None => Box::new(QuickScorerScorer::compile_vectorized(
                &trained.teacher,
                "forest",
            )),
        };
        let mut scorer = TimedScorer::new(scorer, tracer.clone(), "core.scoring.score_batch");
        let pool = pool_of(data.pool.clone(), data.pool_labels.clone(), &mut scorer);
        (scorer, pool)
    };
    let ((mut scorer, pool), first_s) = timed(deploy);
    match student {
        Some(student) => check_against_forward(report, student, data, &pool),
        None => check_against_traversal(report, trained, data, &pool),
    }
    let (ndcg10, eval_s) = timed(|| models::ndcg10(&mut scorer, &data.heldout));
    let plan = Plan {
        pool: &pool,
        sizes: request_sizes(cfg.seed, &SCORE_MIX, 1),
        audit: vec![false],
        label_every: 0,
    };
    let seconds = cfg.workload.shares()[0] * cfg.seconds;
    let direct = direct_phase(&mut scorer, &plan, seconds);
    direct_metrics(report, &direct);
    if cfg.trace {
        layers::replay(cfg, data, trained, layer);
        if cfg.workload == Workload::TrainDistill {
            layer.insert("prune.student_us_per_doc", report.metrics["us_per_doc"]);
        }
    }
    drop((scorer, pool));
    Deployed::after_phases(first_s, setups, ndcg10, eval_s, deploy)
}

fn serve_rerank(
    cfg: &Config,
    setups: usize,
    data: &Data,
    trained: &Trained,
    tracer: &Option<Arc<Tracer>>,
    report: &mut Report,
    layer: &mut layers::Layers,
) -> Deployed {
    let student = trained.student.as_ref().expect("rerank trains a student");
    let hidden = student.mlp.hidden_sizes();
    let clock = Arc::new(MonotonicClock::default());
    let obs = cfg
        .trace
        .then(|| Arc::new(Obs::new(Arc::clone(&clock) as Arc<dyn dlr_obs::NanoClock>)));
    let deploy = |traced: bool| {
        let tracer = tracer.clone().filter(|_| traced);
        let obs = obs.clone().filter(|_| traced);
        let (predictor, calibrate_s) = timed(|| calibrate_dense(true));
        let forecast =
            BudgetForecast::pruned(predictor, FEATURES, hidden.clone()).with_safety_factor(1.5);
        let mut primary = hybrid_scorer(student);
        let mut fallback = QuickScorerScorer::compile(&trained.teacher, "fallback");
        if let Some(obs) = &obs {
            primary = primary.with_obs(Arc::clone(obs));
            fallback = fallback.with_obs(Arc::clone(obs));
        }
        let mut engine = RobustScorer::new(
            TimedScorer::new(Box::new(primary), tracer.clone(), "core.serve.primary"),
            TimedScorer::new(Box::new(fallback), tracer.clone(), "core.serve.fallback"),
            "rerank",
        )
        .with_forecaster(forecast.clone().into_forecaster());
        if let Some(obs) = &obs {
            engine = engine.with_obs(Arc::clone(obs));
        }
        let engine = TimedEngine::new(engine, tracer);
        let meter = engine.meter();
        let server = Server::start(
            engine,
            ServerConfig {
                batch: batch_config(),
                admission: Some(Box::new(forecast.clone().into_forecaster())),
                clock: Some(Arc::clone(&clock) as Arc<dyn Clock>),
                obs,
                ..ServerConfig::default()
            },
        );
        let mut direct = hybrid_scorer(student);
        let pool = pool_of(data.pool.clone(), data.pool_labels.clone(), &mut direct);
        (direct, pool, server, meter, forecast, calibrate_s)
    };
    let untraced_p50_us = cfg.trace.then(|| {
        let (_, pool, server, ..) = deploy(false);
        overhead_probe(cfg, &server, &pool, &RERANK_MIX, RERANK_RATE, 0)
    });
    let ((mut direct, pool, server, meter, forecast, calibrate_s), first_s) =
        timed(|| deploy(cfg.trace));
    check_against_forward(report, student, data, &pool);
    let (ndcg10, eval_s) = timed(|| models::ndcg10(&mut direct, &data.heldout));
    let traced_p50_us = cfg
        .trace
        .then(|| overhead_probe(cfg, &server, &pool, &RERANK_MIX, RERANK_RATE, 0));
    let (served, engine) = served_phases(
        cfg,
        &pool,
        server,
        &meter,
        &RERANK_MIX,
        RERANK_RATE,
        RERANK_OUTSTANDING,
        0,
        tracer.as_deref(),
        &mut |_, _| {},
    );
    served_metrics(report, &served, RERANK_RATE, cfg.check);
    if let (Some(tracer), Some(untraced), Some(traced)) = (tracer, untraced_p50_us, traced_p50_us) {
        layer.insert("predictor.calibrate_s", calibrate_s);
        layer.insert(
            "core.serve.degraded",
            engine.stats().fallback_batches as f64,
        );
        layer.insert("core.serve.rescued", engine.stats().rescued_outputs as f64);
        let overhead_pct = (traced - untraced) / untraced * 100.0;
        layers::served(cfg, &served, overhead_pct, tracer, obs.as_deref(), layer);
        layers::forecast(cfg, &forecast, &mut direct, &pool, layer);
    }
    drop((direct, pool));
    Deployed::after_phases(first_s, setups, ndcg10, eval_s, || deploy(cfg.trace))
}

fn serve_swap(
    cfg: &Config,
    setups: usize,
    data: &Data,
    trained: &Trained,
    tracer: &Option<Arc<Tracer>>,
    report: &mut Report,
    layer: &mut layers::Layers,
) -> Deployed {
    let student = trained.student.as_ref().expect("swap trains a student");
    let mut artifact = Vec::new();
    write_mlp(&student.mlp, &mut artifact).expect("writing to memory cannot fail");
    let rollout = RolloutConfig {
        // Candidate and incumbent are the same network, so only the
        // divergence and NaN triggers could ever be right to fire. The two
        // timing triggers fire on host noise: one hypervisor stall in a
        // candidate batch reads as a deadline overrun and rolls it back.
        max_p99_ratio: f64::INFINITY,
        max_deadline_degradation_rate: f64::INFINITY,
        hold_batches: if cfg.check { 4 } else { 64 },
        ..RolloutConfig::default()
    };
    // A smoke run's rollouts are fifty times shorter, so it labels every
    // request to give the promotion gate its sixteen pairs.
    let (period, label_every) = if cfg.check {
        (200, 1)
    } else {
        (8_000, SWAP_LABEL_EVERY)
    };
    let clock = Arc::new(MonotonicClock::default());
    let obs = cfg
        .trace
        .then(|| Arc::new(Obs::new(Arc::clone(&clock) as Arc<dyn dlr_obs::NanoClock>)));
    let deploy = |traced: bool| {
        let tracer = tracer.clone().filter(|_| traced);
        let obs = obs.clone().filter(|_| traced);
        let clock = Arc::clone(&clock) as Arc<dyn Clock>;
        let (registry, engine) =
            ModelRegistry::new("v1", artifact.clone(), rollout, Arc::clone(&clock))
                .expect("the artifact was just written");
        if let Some(obs) = &obs {
            registry.attach_obs(Arc::clone(obs));
        }
        let engine = TimedEngine::new(engine, tracer);
        let meter = engine.meter();
        let server = Server::start(
            engine,
            ServerConfig {
                batch: batch_config(),
                clock: Some(clock),
                obs,
                ..ServerConfig::default()
            },
        );
        let (mlp, read_mlp_s) = timed(|| read_mlp_bytes(&artifact));
        let mlp = mlp.expect("the artifact was just written");
        let mut direct = ArtifactScorer {
            mlp,
            ws: MlpWorkspace::default(),
        };
        // The registry's artifacts take normalized rows.
        let mut rows = data.pool.clone();
        student.normalizer.apply_matrix(&mut rows);
        let pool = pool_of(rows, data.pool_labels.clone(), &mut direct);
        (direct, pool, server, meter, registry, read_mlp_s)
    };
    let untraced_p50_us = cfg.trace.then(|| {
        let (_, pool, server, ..) = deploy(false);
        overhead_probe(cfg, &server, &pool, &SWAP_MIX, SWAP_RATE, label_every)
    });
    let ((mut direct, pool, server, meter, registry, read_mlp_s), first_s) =
        timed(|| deploy(cfg.trace));
    // `naive_forward` normalizes, so it takes the raw rows the pool was made of.
    check_against_forward(report, student, data, &pool);
    let (ndcg10, eval_s) = timed(|| {
        let mut ranked = Normalizing {
            inner: &mut direct,
            student,
            buf: Vec::new(),
        };
        models::ndcg10(&mut ranked, &data.heldout)
    });
    let traced_p50_us = cfg
        .trace
        .then(|| overhead_probe(cfg, &server, &pool, &SWAP_MIX, SWAP_RATE, label_every));

    let (steps, inbox) = mpsc::channel();
    let control = control_plane(registry, artifact.clone(), inbox);
    // Request number at which each rollout's `Load` was sent.
    let mut begun_at: Vec<u64> = Vec::new();
    let mut active = None;
    let mut on_sent = |sent: u64, total: u64| {
        let Some((rollout, step)) = rollout_step(sent, period) else {
            return;
        };
        // A rollout starts only while what is left of the open loop is long
        // enough to see it promoted and its hold window settled, so that
        // none is in flight while the closed loop measures capacity.
        if step == RolloutStep::Load {
            active = (sent + period * 6 / 8 <= total).then_some(rollout);
            if active.is_some() {
                begun_at.push(sent);
            }
        }
        if active == Some(rollout) {
            steps
                .send((begun_at.len() as u64, step))
                .expect("control plane is alive");
        }
    };
    let (served, _engine) = served_phases(
        cfg,
        &pool,
        server,
        &meter,
        &SWAP_MIX,
        SWAP_RATE,
        SWAP_OUTSTANDING,
        label_every,
        tracer.as_deref(),
        &mut on_sent,
    );
    drop(steps);
    let log = control.join().expect("control plane does not panic");
    served_metrics(report, &served, SWAP_RATE, cfg.check);
    let begun = begun_at.len() as u64;
    report.attempted += begun;
    report.failed += begun - log.promoted.min(begun);
    report.note("rollouts", begun as f64, "count");
    report.note("rollouts_promoted", log.promoted as f64, "count");
    report.require(log.errors.is_empty() && log.promoted == begun, || {
        format!(
            "{} of {begun} rollouts promoted: {:?}",
            log.promoted, log.errors
        )
    });
    if let (Some(tracer), Some(untraced), Some(traced)) = (tracer, untraced_p50_us, traced_p50_us) {
        layer.insert("nn.read_mlp_us", read_mlp_s * 1e6);
        layer.insert("serve.registry.rollouts", log.promoted as f64);
        if !log.promote_us.is_empty() {
            layer.insert("serve.registry.load_us", median(&log.load_us));
            layer.insert("serve.registry.promote_us", median(&log.promote_us));
        }
        let overhead_pct = (traced - untraced) / untraced * 100.0;
        layers::served(cfg, &served, overhead_pct, tracer, obs.as_deref(), layer);
        layers::rollout_tail(&served.open, &begun_at, period, layer);
    }
    drop((direct, pool));
    Deployed::after_phases(first_s, setups, ndcg10, eval_s, || deploy(cfg.trace))
}

/// Run one workload.
pub fn run(cfg: &Config) -> Report {
    let sizes = cfg.workload.sizes(cfg.check);
    let tracer = cfg.trace.then(Tracer::new);
    // A traced run reports no `setup_s`, so it sets up once.
    let setups = if cfg.trace { 1 } else { SETUPS };
    let mut report = Report::default();
    let mut layer = layers::Layers::new();

    let (data, first_synth_s) = timed(|| synthesize(cfg.seed, &sizes));
    let trained = models::train(&sizes, &data.train);
    report.attempted += trained.epochs_run;
    report.failed += trained.diverged_epochs;
    report.require(trained.diverged_epochs == 0, || {
        format!("{} training epochs diverged", trained.diverged_epochs)
    });
    let (teacher_ndcg, teacher_eval_s) =
        timed(|| models::teacher_ndcg10(&trained.teacher, &data.heldout));

    let deploy = match cfg.workload {
        Workload::ScoreHybrid | Workload::ScoreForest | Workload::TrainDistill => score_directly,
        Workload::ServeRerank => serve_rerank,
        Workload::ServeSwap => serve_swap,
    };
    let deployed = deploy(
        cfg,
        setups,
        &data,
        &trained,
        &tracer,
        &mut report,
        &mut layer,
    );

    let mut synth_s = vec![first_synth_s];
    synth_s.extend(set_up_again(setups - 1, || synthesize(cfg.seed, &sizes)));

    if cfg.trace {
        layer.insert("data.synth_s", median(&synth_s));
        layer.insert("gbdt.train_s", trained.gbdt_s);
        layer.insert("distill.session_new_s", trained.session_new_s);
        layer.insert("distill.epochs", trained.epochs_run as f64);
        layer.insert("prune.prune_s", trained.prune_s);
        layer.insert("metrics.eval_s", teacher_eval_s + deployed.eval_s);
        layer.insert("metrics.teacher_ndcg10", teacher_ndcg);
        if let Some(student) = &trained.student {
            layer.insert("prune.sparsity", student.sparsity);
            layer.insert("metrics.student_ndcg10", deployed.ndcg10);
        }
        if let Some(tracer) = &tracer {
            let spans = tracer.spans();
            report.note("spans", spans.len() as f64, "count");
            report.note("spans_dropped", tracer.dropped() as f64, "count");
            let calls = durations_us(&spans, "core.scoring.score_batch");
            if !calls.is_empty() {
                report.note("core.scoring.score_batch_us", median(&calls), "us");
            }
        }
        // A traced run reports the per-layer metrics, every one of them; a
        // layer this workload does not run reads 0. What it measured end to
        // end, with tracing on, is printed as context only.
        for (name, value) in std::mem::take(&mut report.metrics) {
            report.note(&format!("traced.{name}"), value, crate::spec::unit_of(name));
        }
        for spec in &crate::spec::PER_LAYER {
            report.set(spec.name, layer.get(spec.name).copied().unwrap_or(0.0));
        }
    } else {
        let setup: Vec<f64> = synth_s
            .iter()
            .zip(&deployed.deploy_s)
            .map(|(a, b)| a + b)
            .collect();
        report.set("setup_s", median(&setup));
        report.set("train_s", trained.train_s);
        report.set("ndcg10_ratio", deployed.ndcg10 / teacher_ndcg);
        match deployed.peak_rss_mb {
            Some(mb) => report.set("peak_rss_mb", mb),
            None => report.require(false, || {
                "peak_rss_mb: /proc/self/status has no VmHWM on this host".into()
            }),
        }
        report.note("setups", setups as f64, "count");
        report.note("teacher_ndcg10", teacher_ndcg, "ratio");
        report.note("deployed_ndcg10", deployed.ndcg10, "ratio");
    }
    report.tracer = tracer;
    report
}
