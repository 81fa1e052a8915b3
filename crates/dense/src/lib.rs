#![forbid(unsafe_code)]
//! Dense matrices and high-performance dense-dense matrix multiplication.
//!
//! This crate is the workspace's stand-in for oneDNN's `dnnl_sgemm` (§4.1
//! and §4.2 of the paper). It provides:
//!
//! * [`Matrix`] — a row-major flat `f32` matrix;
//! * [`gemm::naive`] — the reference triple loop, used for correctness
//!   checks and as the "unoptimized" end of ablation benchmarks;
//! * [`gemm::blocked`] — a Goto-algorithm GEMM with cache-aware blocking,
//!   panel packing that reads either operand as stored or transposed
//!   (BLAS `transa`/`transb`), `dlr-simd`'s 6×16 register tile (12×8 for a
//!   last strip of at most 8 columns), and the oneDNN-style `rnd_up`
//!   parameter refinement for small shapes;
//! * [`measure`] — wall-clock GFLOPS measurement used to calibrate the
//!   dense time predictor (Figures 4–6 of the paper).
//!
//! The multiplication convention matches the paper's framing of a neural
//! layer: `C = A·B` with `A` an `m×k` weight matrix, `B` a `k×n` batch of
//! `n` input columns, `C` the `m×n` output.

pub mod gemm;
pub mod matrix;
pub mod measure;

pub use gemm::blocked::{
    gemm, gemm_into, gemm_rows_with, gemm_trans_with, gemm_with, gemm_with_prepacked_a,
    try_gemm_into, try_gemm_with, try_gemm_with_prepacked_a, GemmWorkspace, GotoParams, PrepackedA,
    PrepackedB, Trans,
};
pub use gemm::naive::naive_gemm;
pub use gemm::GemmShapeError;
pub use matrix::Matrix;
pub use measure::{measure_gemm_gflops, time_gemm};
