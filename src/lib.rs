#![forbid(unsafe_code)]
//! # distilled-ltr
//!
//! A Rust reproduction of *"Distilled Neural Networks for Efficient
//! Learning to Rank"* (Nardini, Rulli, Trani, Venturini — ICDE 2024 /
//! IEEE TKDE): distill LambdaMART ensembles into shallow feed-forward
//! networks, prune the first layer, score it with a sparse-dense matrix
//! kernel, and use analytic matmul-time predictors to design
//! architectures that fit a latency budget *before* training them.
//!
//! This crate is a thin facade over the workspace:
//!
//! | Crate | What it is |
//! |---|---|
//! | [`data`] | LTR datasets, LETOR parser, synthetic generators, Z-normalization |
//! | [`metrics`] | NDCG/MAP + Fisher randomization test |
//! | [`gbdt`] | LambdaMART / MART training (LightGBM stand-in) |
//! | [`quickscorer`] | QuickScorer traversal (plain, block-wise, vectorized over 32-leaf slices) |
//! | [`dense`] | Goto-algorithm blocked GEMM (oneDNN stand-in) |
//! | [`sparse`] | CSR + LIBXSMM-style SDMM kernel |
//! | [`nn`] | MLPs, Adam, dropout, hybrid sparse/dense inference |
//! | [`distill`] | Score-approximation distillation with midpoint augmentation |
//! | [`prune`] | Magnitude pruning, sensitivity analysis, prune/fine-tune schedules |
//! | [`predictor`] | Dense & sparse scoring-time predictors + architecture search |
//! | [`simd`] | Runtime-dispatched SSE2/AVX2 micro-kernels with scalar fallback |
//! | [`core`] | The end-to-end methodology, Pareto frontiers, scenarios |
//! | [`serve`] | Overload-safe serving: micro-batching, admission control, drain |
//! | [`obs`] | Tracing & metrics plane: per-stage spans, predictor drift, exporters |
//!
//! ## Quickstart
//!
//! ```
//! use distilled_ltr::prelude::*;
//!
//! // A small MSN30K-shaped dataset (the real one drops in via LETOR files).
//! let mut cfg = SyntheticConfig::msn30k_like(30);
//! cfg.docs_per_query = 20;
//! let data = cfg.generate();
//! let split = Split::by_query(&data, SplitRatios::PAPER, 42).unwrap();
//!
//! // Teacher forest.
//! let teacher = NeuralEngineering::train_forest(&split.train, None, 10, 16, 0.1);
//!
//! // Distill a small student and check it ranks.
//! let mut hyper = DistillHyper::msn30k().scaled_down(10);
//! hyper.train_epochs = 5;
//! let ne = NeuralEngineering::new(PipelineConfig {
//!     distill: DistillConfig { hyper, batch_size: 128, ..Default::default() },
//!     ..Default::default()
//! });
//! let student = ne.distill(&teacher, &split.train, &[16, 8]);
//! let mut scores = vec![0.0; split.test.num_docs()];
//! student.score_batch(split.test.features(), &mut scores);
//! let ndcg = evaluate_scores(&scores, &split.test).mean_ndcg10();
//! assert!(ndcg > 0.0 && ndcg <= 1.0);
//! ```

pub use dlr_core as core;
pub use dlr_data as data;
pub use dlr_dense as dense;
pub use dlr_distill as distill;
pub use dlr_gbdt as gbdt;
pub use dlr_metrics as metrics;
pub use dlr_nn as nn;
pub use dlr_obs as obs;
pub use dlr_predictor as predictor;
pub use dlr_prune as prune;
pub use dlr_quickscorer as quickscorer;
pub use dlr_serve as serve;
pub use dlr_simd as simd;
pub use dlr_sparse as sparse;

/// One-stop imports (re-exported from [`dlr_core::prelude`]).
pub mod prelude {
    pub use dlr_core::prelude::*;
    pub use dlr_distill::DistillConfig;
}
