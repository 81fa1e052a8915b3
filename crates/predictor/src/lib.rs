#![forbid(unsafe_code)]
//! Analytic scoring-time predictors for neural rankers (§4.2, §4.4).
//!
//! The paper's methodological contribution: estimate the forward-pass time
//! of a feed-forward network *before training it*, from nothing but the
//! architecture (layer sizes) and per-layer sparsity. Two predictors:
//!
//! * [`DensePredictor`] — Equation 3. The total time is dominated by the
//!   per-layer GEMMs, `T ≈ t_m · (f·l₁ + Σ l_i·l_{i−1} + l_d)`, where
//!   `t_m = 1/GFLOPS` is *not* constant: measured GFLOPS depend strongly
//!   on the reduction dimension `k` (Figures 4–6). The predictor therefore
//!   keeps a small lookup table of GFLOPS zones keyed by `k`, either the
//!   paper's i9-9900K values (130/110/90 GFLOPS for k ≥ 512 / 128–512 /
//!   ≤ 128) or values calibrated on the host with
//!   [`calibrate::calibrate_dense`].
//! * [`SparsePredictor`] — Equation 5,
//!   `T = |a_r|·L_c + nnz·L_a + |a_c|·L_b`, with the three coefficients
//!   recovered *by difference* from three specially-structured matrices
//!   (single-column `A_c`, one-nonzero-per-row-and-column `A_rd`,
//!   two-column `A_2c`), exactly the §4.4 procedure.
//!
//! [`search`] turns the predictors into the paper's §5.2 design loop:
//! enumerate architectures, predict dense and pruned-first-layer times,
//! and train *only* the candidates that fit the latency budget.

pub mod budget;
pub mod calibrate;
pub mod dense_pred;
pub mod search;
pub mod sparse_pred;

pub use budget::BudgetForecast;
pub use calibrate::{calibrate_dense, calibrate_sparse, HostCalibration};
pub use dense_pred::DensePredictor;
pub use search::{design_architectures, ArchCandidate, SearchSpace};
pub use sparse_pred::{CsrShapeStats, SparsePredictor};
