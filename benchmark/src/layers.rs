//! Per-layer numbers of a traced run. Two sources: the spans and server
//! counters of the workload itself, and a replay that runs the workload's
//! batch shapes through each layer's public entry points directly.
//! ISA-suffixed metrics go through the explicit-ISA entry points for every
//! ISA the host has, never through `DLR_SIMD`; one the host lacks reads 0.

use crate::load::{Pool, Reply};
use crate::models::{Data, Student, Trained, FEATURES, QUERY_DOCS};
use crate::stats::{median, percentile, quiet_decile};
use crate::trace::{durations_us, self_times_ns, Tracer};
use crate::workloads::{Config, Served, Workload};
use dlr_core::parallel::{par_bwqs, par_gemm, par_spmm};
use dlr_core::pool::WorkPool;
use dlr_core::scoring::{DocumentScorer, HybridScorer};
use dlr_dense::{gemm_with_prepacked_a, GemmWorkspace, GotoParams, PrepackedA, PrepackedB};
use dlr_distill::DistillSession;
use dlr_nn::hybrid::HybridWorkspace;
use dlr_nn::train::SgdTrainer;
use dlr_nn::{MlpWorkspace, StepLr};
use dlr_obs::Obs;
use dlr_predictor::{BudgetForecast, CsrShapeStats, HostCalibration};
use dlr_quickscorer::{BlockwiseQuickScorer, QuickScorer, VectorizedQuickScorer};
use dlr_simd::Isa;
use dlr_sparse::{spmm_naive, spmm_xsmm, PackedB};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

pub type Layers = BTreeMap<&'static str, f64>;

/// How one replayed call is timed: over `blocks` blocks, each of enough
/// calls to last `block_ns`; the call's time is the quiet quartile of the
/// block means.
#[derive(Clone, Copy)]
struct Timer {
    blocks: usize,
    block_ns: f64,
}

impl Timer {
    /// Thirty blocks of two milliseconds; a smoke run times three short ones.
    fn new(check: bool) -> Timer {
        if check {
            Timer {
                blocks: 3,
                block_ns: 1e5,
            }
        } else {
            Timer {
                blocks: 30,
                block_ns: 2e6,
            }
        }
    }

    fn ns(self, mut f: impl FnMut()) -> f64 {
        f();
        let t0 = Instant::now();
        f();
        let once = t0.elapsed().as_nanos().max(1) as f64;
        let reps = ((self.block_ns / once) as usize).clamp(1, 5_000_000);
        let blocks: Vec<f64> = (0..self.blocks)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..reps {
                    f();
                }
                t0.elapsed().as_nanos() as f64 / reps as f64
            })
            .collect();
        quiet_decile(&blocks, true)
    }

    fn us(self, f: impl FnMut()) -> f64 {
        self.ns(f) / 1e3
    }

    /// Microseconds by which one call of `outer` exceeds one call of
    /// `inner`: the two alternate block by block, so the host's drift lands
    /// on both, and the result is the median of the per-block differences.
    fn excess_us(self, mut outer: impl FnMut(), mut inner: impl FnMut()) -> f64 {
        let mean_ns = |f: &mut dyn FnMut()| {
            let reps = 8;
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            t0.elapsed().as_nanos() as f64 / reps as f64
        };
        let excess: Vec<f64> = (0..self.blocks * 8)
            .map(|_| (mean_ns(&mut outer) - mean_ns(&mut inner)) / 1e3)
            .collect();
        median(&excess)
    }
}

/// Per-ISA metric names, indexed by `Isa as usize` (scalar, sse2, avx2).
const GEMM_TILE_NS: [&str; 3] = [
    "simd.gemm_tile_ns.scalar",
    "simd.gemm_tile_ns.sse2",
    "simd.gemm_tile_ns.avx2",
];
const SDMM_ROW_NS: [&str; 3] = [
    "simd.sdmm_row_ns.scalar",
    "simd.sdmm_row_ns.sse2",
    "simd.sdmm_row_ns.avx2",
];
const QS_MASK_NS: [&str; 3] = [
    "simd.qs_mask_ns.scalar",
    "simd.qs_mask_ns.sse2",
    "simd.qs_mask_ns.avx2",
];

fn filler(len: usize, salt: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i * 31 + salt * 7) % 23) as f32 / 11.0 - 1.0)
        .collect()
}

/// `simd`: the three micro-kernels at the shapes the workloads give them.
fn simd_net(timer: Timer, out: &mut Layers) {
    const K: usize = 200;
    let (astrip, bstrip) = (filler(K * 8, 1), filler(K * 8, 2));
    let mut c = vec![0.0f32; 64];
    // One 98.7%-sparse row of the 400×136 first layer holds about four
    // non-zeros; 64 lanes is one query.
    let (cols, vals) = ([3u32, 40, 77, 120], [0.5f32, -0.25, 0.125, 1.5]);
    let bdata = filler(FEATURES * QUERY_DOCS, 3);
    let mut c_row = vec![0.0f32; QUERY_DOCS];
    for isa in Isa::ALL.into_iter().filter(|&isa| dlr_simd::supported(isa)) {
        out.insert(
            GEMM_TILE_NS[isa as usize],
            timer.ns(|| {
                dlr_simd::gemm::micro_kernel_8x8(isa, &astrip, &bstrip, K, &mut c, 8, 0, 0, 8, 8);
                black_box(&mut c);
            }),
        );
        out.insert(
            SDMM_ROW_NS[isa as usize],
            timer.ns(|| {
                dlr_simd::sdmm::row_kernel(
                    isa, &cols, &vals, &bdata, QUERY_DOCS, QUERY_DOCS, &mut c_row,
                );
                black_box(&mut c_row);
            }),
        );
    }
}

fn simd_qs(timer: Timer, out: &mut Layers) {
    let xf = [0.1f32, 0.9, 0.4, 0.6, 0.2, 0.8, 0.3, 0.7];
    let mut dst = [u64::MAX; 8];
    for isa in Isa::ALL.into_iter().filter(|&isa| dlr_simd::supported(isa)) {
        out.insert(
            QS_MASK_NS[isa as usize],
            timer.ns(|| {
                dlr_simd::qs::mask_step(isa, black_box(&xf), 0.5, 0xFFFF_0000_FFFF_0000, &mut dst);
                black_box(&mut dst);
            }),
        );
    }
}

/// One 64-document query, normalized and feature-major, as the layers
/// below the scorer wrapper receive it.
fn feature_major(student: &Student, rows: &[f32]) -> (Vec<f32>, Vec<f32>) {
    let mut normalized = rows.to_vec();
    student.normalizer.apply_matrix(&mut normalized);
    let n = normalized.len() / FEATURES;
    let mut fm = vec![0.0f32; normalized.len()];
    for (d, row) in normalized.chunks_exact(FEATURES).enumerate() {
        for (j, &v) in row.iter().enumerate() {
            fm[j * n + d] = v;
        }
    }
    (normalized, fm)
}

/// `data`, `sparse`, `dense`, `nn`, `core.scoring`, `predictor`: the hybrid
/// forward pass taken apart at 64 documents.
fn net(timer: Timer, student: &Student, data: &Data, out: &mut Layers) {
    let n = QUERY_DOCS;
    let raw = data.rows(0, n);
    let (normalized, input_fm) = feature_major(student, raw);

    let mut buf = Vec::with_capacity(raw.len());
    let normalize_us = timer.us(|| {
        buf.clear();
        buf.extend_from_slice(raw);
        student.normalizer.apply_matrix(&mut buf);
        black_box(&mut buf);
    });
    out.insert("data.normalize_us", normalize_us);

    let hybrid = student.hybrid();
    let first = hybrid.first_weights();
    let mut c = vec![0.0f32; first.rows() * n];
    let sdmm_us = timer.us(|| spmm_xsmm(first, &input_fm, n, black_box(&mut c)));
    out.insert("sparse.sdmm_us", sdmm_us);
    out.insert(
        "sparse.sdmm_naive_us",
        timer.us(|| spmm_naive(first, &input_fm, n, black_box(&mut c))),
    );
    let mut packed = PackedB::pack(&input_fm, FEATURES, n);
    out.insert(
        "sparse.pack_b_us",
        timer.us(|| black_box(&mut packed).pack_into(&input_fm, FEATURES, n)),
    );
    out.insert("sparse.nnz", first.nnz() as f64);
    out.insert("sparse.active_rows", first.active_rows() as f64);
    out.insert("sparse.active_cols", first.active_cols() as f64);

    let mut gemm_sum_us = 0.0;
    let mut ws = GemmWorkspace::default();
    for (i, layer) in student.mlp.layers().iter().enumerate().skip(1) {
        let (m, k) = (layer.out_features(), layer.in_features());
        let pa = PrepackedA::pack(layer.weights.as_slice(), m, k, GotoParams::default());
        let b = filler(k * n, i);
        let mut c = vec![0.0f32; m * n];
        let us = timer.us(|| gemm_with_prepacked_a(n, &pa, &b, black_box(&mut c), &mut ws));
        gemm_sum_us += us;
        let name = match i {
            1 => "dense.gemm_l2_us",
            2 => "dense.gemm_l3_us",
            3 => "dense.gemm_l4_us",
            4 => "dense.gemm_l5_us",
            _ => continue,
        };
        out.insert(name, us);
        if i == 1 {
            out.insert("dense.gemm_l2_gflops", (2 * m * k * n) as f64 / (us * 1e3));
            out.insert(
                "dense.pack_a_us",
                timer.us(|| {
                    black_box(PrepackedA::pack(
                        layer.weights.as_slice(),
                        m,
                        k,
                        GotoParams::default(),
                    ));
                }),
            );
        }
    }

    let mut scores = vec![0.0f32; n];
    let mut hws = HybridWorkspace::default();
    let hybrid_us =
        timer.us(|| hybrid.score_batch_with(&normalized, black_box(&mut scores), &mut hws));
    out.insert("nn.hybrid_forward_us", hybrid_us);
    let mut dense = student.mlp.clone();
    dense.pack_weights();
    let mut mws = MlpWorkspace::default();
    let dense_us =
        timer.us(|| dense.score_batch_with(&normalized, black_box(&mut scores), &mut mws));
    out.insert("nn.dense_forward_us", dense_us);
    out.insert("nn.layer_sum_ratio", (sdmm_us + gemm_sum_us) / hybrid_us);
    for (docs, name) in [
        (1, "nn.hybrid_us_per_doc_b1"),
        (16, "nn.hybrid_us_per_doc_b16"),
        (256, "nn.hybrid_us_per_doc_b256"),
        (1000, "nn.hybrid_us_per_doc_b1000"),
    ] {
        let docs = docs.min(data.pool_docs());
        let (rows, _) = feature_major(student, data.rows(0, docs));
        let mut scores = vec![0.0f32; docs];
        let us = timer.us(|| hybrid.score_batch_with(&rows, black_box(&mut scores), &mut hws));
        out.insert(name, us / docs as f64);
    }

    // What the scorer wrapper adds to the two calls it makes.
    let mut scorer = HybridScorer::new(student.hybrid(), student.normalizer.clone(), "hybrid");
    let mut wrapped = vec![0.0f32; n];
    let wrapper_us = timer.excess_us(
        || scorer.score_batch(raw, black_box(&mut wrapped)),
        || {
            buf.clear();
            buf.extend_from_slice(raw);
            student.normalizer.apply_matrix(&mut buf);
            hybrid.score_batch_with(&buf, black_box(&mut scores), &mut hws);
        },
    );
    out.insert("core.scoring.wrapper_us", wrapper_us);

    // Eq. 3 and Eq. 5 predictions over what was just measured.
    let hidden = student.mlp.hidden_sizes();
    let host = HostCalibration::measure(true);
    let dense_pred_us = host.dense.predict_forward_us_per_doc(FEATURES, &hidden, n) * n as f64;
    out.insert("predictor.dense_ratio", dense_pred_us / dense_us);
    let sparse_pred_us = host.sparse.predict_us(CsrShapeStats::of(first), n);
    out.insert("predictor.sparse_ratio", sparse_pred_us / sdmm_us);
    let forecast = BudgetForecast::pruned(host.dense, FEATURES, hidden);
    out.insert(
        "predictor.forecast_ratio",
        forecast.forecast_batch_secs(n) * 1e6 / hybrid_us,
    );
}

/// `nn::train`: one Adam step on a 256-row minibatch.
fn train_step(timer: Timer, student: &Student, data: &Data, out: &mut Layers) {
    let rows_n = 256.min(data.pool_docs());
    let (rows, _) = feature_major(student, data.rows(0, rows_n));
    let targets = filler(rows_n, 5);
    let mut mlp = student.mlp.clone();
    let mut trainer = SgdTrainer::new(&mlp, 0.0, 1);
    out.insert(
        "nn.train_step_us",
        timer.us(|| {
            black_box(trainer.train_batch(&mut mlp, &rows, &targets, 1e-4, None));
        }),
    );
}

/// `core.pool` and `core.parallel`: serial time over `par_*` time on two
/// workers at the workload shapes, 256 documents. Overhead only on a host
/// with fewer than two cores; no workload dispatches through them today.
fn parallel_net(timer: Timer, student: &Student, out: &mut Layers) {
    let pool = WorkPool::new(2);
    out.insert(
        "core.pool.dispatch_us",
        timer.us(|| pool.run(2, |_| {}).expect("empty job")),
    );
    let n = 256;
    let layer = &student.mlp.layers()[1];
    let (m, k) = (layer.out_features(), layer.in_features());
    let b = filler(k * n, 9);
    let mut c = vec![0.0f32; m * n];
    let pa = PrepackedA::pack(layer.weights.as_slice(), m, k, GotoParams::default());
    let mut ws = GemmWorkspace::default();
    let serial = timer.us(|| gemm_with_prepacked_a(n, &pa, &b, black_box(&mut c), &mut ws));
    let pb = PrepackedB::pack(&b, k, n, GotoParams::default());
    let parallel = timer.us(|| {
        par_gemm(&pool, m, layer.weights.as_slice(), &pb, black_box(&mut c)).expect("par_gemm")
    });
    out.insert("core.parallel.gemm_speedup_t2", serial / parallel);

    let hybrid = student.hybrid();
    let first = hybrid.first_weights();
    let input = filler(FEATURES * n, 4);
    let packed = PackedB::pack(&input, FEATURES, n);
    let mut c = vec![0.0f32; first.rows() * n];
    let mut sws = dlr_sparse::SpmmWorkspace::default();
    let serial =
        timer.us(|| dlr_sparse::spmm_xsmm_packed(first, &packed, black_box(&mut c), &mut sws));
    let parallel =
        timer.us(|| par_spmm(&pool, first, &packed, black_box(&mut c)).expect("par_spmm"));
    out.insert("core.parallel.spmm_speedup_t2", serial / parallel);
}

/// `quickscorer`, `simd::qs`, `gbdt` prediction: every traversal of the
/// forest on one 64-document query.
fn forest(timer: Timer, trained: &Trained, data: &Data, out: &mut Layers) {
    let n = QUERY_DOCS;
    let rows = data.rows(0, n);
    let mut scores = vec![0.0f32; n];
    let teacher = &trained.teacher;
    let per_doc = |us: f64| us / n as f64;
    let naive = per_doc(timer.us(|| teacher.predict_batch(rows, black_box(&mut scores))));
    out.insert("quickscorer.naive_us_per_doc", naive);
    out.insert("gbdt.predict_us_per_doc", naive);
    let qs = QuickScorer::compile(teacher).expect("forest fits QuickScorer");
    out.insert(
        "quickscorer.qs_us_per_doc",
        per_doc(timer.us(|| qs.score_batch(rows, black_box(&mut scores)))),
    );
    let bw = BlockwiseQuickScorer::compile(teacher, 50).expect("forest fits BWQS");
    out.insert(
        "quickscorer.bwqs_us_per_doc",
        per_doc(timer.us(|| bw.score_batch(rows, black_box(&mut scores)))),
    );
    let t0 = Instant::now();
    let vqs = VectorizedQuickScorer::compile(teacher).expect("forest fits vQS");
    out.insert("quickscorer.compile_ms", t0.elapsed().as_secs_f64() * 1e3);
    out.insert(
        "quickscorer.vqs_us_per_doc",
        per_doc(timer.us(|| vqs.score_batch(rows, black_box(&mut scores)))),
    );
    for (isa, name) in [
        (Isa::Scalar, "quickscorer.vqs_us_per_doc.scalar"),
        (Isa::Avx2, "quickscorer.vqs_us_per_doc.avx2"),
    ] {
        if dlr_simd::supported(isa) {
            let us = timer.us(|| vqs.score_batch_with_isa(isa, rows, black_box(&mut scores)));
            out.insert(name, per_doc(us));
        }
    }
    let pool = WorkPool::new(2);
    let docs = 256.min(data.pool_docs());
    let rows = data.rows(0, docs);
    let mut scores = vec![0.0f32; docs];
    let serial = timer.us(|| bw.score_batch(rows, black_box(&mut scores)));
    let parallel =
        timer.us(|| par_bwqs(&pool, &bw, rows, black_box(&mut scores)).expect("par_bwqs"));
    out.insert("core.parallel.bwqs_speedup_t2", serial / parallel);
}

/// `distill`: five more single epochs on a copy of the student, timed one
/// by one, since the training loop keeps its epochs to itself.
fn distill_epochs(
    cfg: &Config,
    student: &Student,
    trained: &Trained,
    data: &Data,
    out: &mut Layers,
) {
    let dcfg = crate::models::distill_config(&cfg.workload.sizes(cfg.check));
    let session = DistillSession::new(&trained.teacher, &data.train, dcfg);
    let mut mlp = student.mlp.clone();
    let schedule = StepLr::new(1e-4, 1.0, &[]);
    let epochs: Vec<f64> = (0..5)
        .map(|e| {
            let t0 = Instant::now();
            black_box(session.run_epochs(&mut mlp, &schedule, e..e + 1, None));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    out.insert("distill.epoch_s", median(&epochs));
}

/// The layer replay of a direct-scoring workload.
pub fn replay(cfg: &Config, data: &Data, trained: &Trained, out: &mut Layers) {
    let timer = Timer::new(cfg.check);
    match &trained.student {
        Some(student) => {
            simd_net(timer, out);
            net(timer, student, data, out);
            parallel_net(timer, student, out);
            train_step(timer, student, data, out);
            if cfg.workload == Workload::TrainDistill {
                distill_epochs(cfg, student, trained, data, out);
                let teacher = &trained.teacher;
                let rows = data.rows(0, QUERY_DOCS);
                let mut scores = vec![0.0f32; QUERY_DOCS];
                let us = timer.us(|| teacher.predict_batch(rows, black_box(&mut scores)));
                out.insert("gbdt.predict_us_per_doc", us / QUERY_DOCS as f64);
            }
        }
        None => {
            simd_qs(timer, out);
            forest(timer, trained, data, out);
        }
    }
}

/// `predictor.forecast_ratio` of a serving deployment: its admission
/// forecast for one query over the primary's measured time for it.
pub fn forecast(
    cfg: &Config,
    forecast: &BudgetForecast,
    primary: &mut dyn DocumentScorer,
    pool: &Pool,
    out: &mut Layers,
) {
    let timer = Timer::new(cfg.check);
    let rows = &pool.rows[..QUERY_DOCS * FEATURES];
    let mut scores = vec![0.0f32; QUERY_DOCS];
    let us = timer.us(|| primary.score_batch(rows, black_box(&mut scores)));
    out.insert(
        "predictor.forecast_ratio",
        forecast.forecast_batch_secs(QUERY_DOCS) * 1e6 / us,
    );
}

/// `serve`, `core.serve` and `obs`: the server's own counters and the spans
/// recorded around `submit` and around the engine.
pub fn served(
    cfg: &Config,
    served: &Served,
    overhead_pct: f64,
    tracer: &Tracer,
    obs: Option<&Obs>,
    out: &mut Layers,
) {
    let timer = Timer::new(cfg.check);
    let spans = tracer.spans();
    let stats = &served.stats;
    out.insert(
        "serve.submit_us",
        median_or_zero(&durations_us(&spans, "serve.submit")),
    );
    out.insert(
        "serve.queue_wait_mean_us",
        stats.queue_wait.mean_us().unwrap_or(0.0),
    );
    out.insert(
        "serve.execute_mean_us",
        stats.execute.mean_us().unwrap_or(0.0),
    );
    let batches = stats.batches.max(1) as f64;
    out.insert("serve.batch_docs_mean", stats.batched_docs as f64 / batches);
    out.insert("serve.batch_reqs_mean", stats.scored() as f64 / batches);
    out.insert("serve.max_queue_depth", stats.max_queue_depth as f64);
    out.insert("serve.shed", stats.shed as f64);
    out.insert("serve.rejected_full", stats.rejected_full as f64);
    out.insert("serve.expired", stats.expired as f64);
    out.insert("serve.failed", stats.failed as f64);
    out.insert("serve.scored_fallback", stats.scored_fallback as f64);

    let mut latency: Vec<u64> = served.open.iter().map(Reply::latency_ns).collect();
    if !latency.is_empty() {
        latency.sort_unstable();
        out.insert(
            "serve.latency_p99_us",
            percentile(&latency, 0.99) as f64 / 1e3,
        );
    }
    let mut late: Vec<u64> = served.open.iter().map(|r| r.late_ns).collect();
    if !late.is_empty() {
        late.sort_unstable();
        out.insert(
            "serve.gen_late_p99_us",
            percentile(&late, 0.99) as f64 / 1e3,
        );
    }
    let clock: Vec<f64> = served
        .closed
        .iter()
        .map(|r| (r.client_ns as f64 - r.server_ns as f64) / 1e3)
        .collect();
    out.insert("serve.clock_check_us", median_or_zero(&clock));

    // A request's stack time is its latency minus the engine span that
    // answered it: the last one to end before the reply was delivered.
    let mut engine: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.name == "serve.engine")
        .map(|s| (s.end_ns, s.duration_ns()))
        .collect();
    engine.sort_unstable();
    let stack: Vec<f64> = served
        .open
        .iter()
        .filter(|r| r.server_ns > 0)
        .filter_map(|r| {
            let delivered = r.submit_ns + r.server_ns;
            let at = engine.partition_point(|&(end, _)| end <= delivered);
            let (_, busy) = *engine.get(at.checked_sub(1)?)?;
            Some(r.server_ns.saturating_sub(busy) as f64 / 1e3)
        })
        .collect();
    out.insert("serve.stack_us", median_or_zero(&stack));

    // What `RobustScorer` adds around its primary: the engine span's self
    // time where a primary span lies inside it.
    let own = self_times_ns(&spans);
    let has_primary = spans.iter().any(|s| s.name == "core.serve.primary");
    if has_primary {
        let overhead: Vec<f64> = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == "serve.engine")
            .map(|(_, &ns)| ns as f64 / 1e3)
            .collect();
        out.insert("core.serve.robust_overhead_us", median_or_zero(&overhead));
    }

    out.insert("obs.overhead_pct", overhead_pct);
    if let Some(obs) = obs {
        out.insert("obs.spans_opened", obs.sink().spans_opened() as f64);
        out.insert("obs.spans_dropped", obs.sink().spans_dropped() as f64);
        out.insert(
            "obs.drift_ratio",
            obs.drift().summary().drift_ratio.unwrap_or(0.0),
        );
        out.insert(
            "serve.registry.shadow_batches",
            obs.counter("registry_shadow_batches_total").get() as f64,
        );
        // Last, since timing it opens spans of its own.
        out.insert(
            "obs.scope_ns",
            timer.ns(|| drop(black_box(obs.scope(dlr_obs::Stage::Synthetic)))),
        );
    }
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// `serve.registry`: p99 of the requests sent while a rollout was between
/// its load and the end of its hold window against p99 of the rest, each
/// over the pooled samples. `begun_at` holds the request number at which
/// each rollout that ran was loaded; it is promoted four eighths of a period
/// later and given one more to settle.
pub fn rollout_tail(open: &[Reply], begun_at: &[u64], period: u64, out: &mut Layers) {
    let span = period / 8 * 5;
    let in_rollout = |r: &&Reply| {
        begun_at
            .iter()
            .any(|&load| (load..load + span).contains(&r.number))
    };
    let p99_us = |mut latency: Vec<u64>| {
        latency.sort_unstable();
        (latency.len() >= 100).then(|| percentile(&latency, 0.99) as f64 / 1e3)
    };
    let during = open.iter().filter(in_rollout).map(Reply::latency_ns);
    let steady = open
        .iter()
        .filter(|r| !in_rollout(r))
        .map(Reply::latency_ns);
    if let (Some(during), Some(steady)) = (p99_us(during.collect()), p99_us(steady.collect())) {
        out.insert("serve.registry.rollout_p99_us", during);
        out.insert("serve.registry.steady_p99_us", steady);
    }
}
