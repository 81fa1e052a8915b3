//! Explicit x86-64 SIMD micro-kernels behind safe, runtime-dispatched
//! wrappers.
//!
//! The paper's efficiency story rests on vectorized kernels: oneDNN-style
//! blocked GEMM for dense layers (§4.1–4.2), LIBXSMM-style SDMM for the
//! pruned sparse layer (§4.3), and AVX2 vectorized QuickScorer for tree
//! ensembles (§2.2). The rest of the workspace expresses those kernels as
//! auto-vectorizable safe Rust; this crate supplies the hand-written
//! `std::arch` versions and is the **only** crate in the workspace allowed
//! to contain `unsafe` SIMD code (every other crate keeps
//! `#![forbid(unsafe_code)]`; the `dlr-lint` `SIMD_TARGET_FEATURE` rule
//! fences intrinsics to this crate).
//!
//! Three kernels, one dispatch discipline. A level has a hand-written
//! path only where the traced benchmark runs (`simd.*` in
//! `results/benchmark/`) do not show it losing to the portable loop; a
//! level without one runs scalar:
//!
//! * [`gemm::micro_kernel_6x16`] and [`gemm::micro_kernel_12x8`] — the
//!   Goto micro-kernel: a register tile of `f32` accumulated as `kcb`
//!   rank-1 updates over packed A/B strips, 6×16 for a full B strip and
//!   12×8 for a strip of at most 8 columns, 12 accumulators each
//!   ([`gemm::micro_kernel_8x8`], the former tile, is kept for the
//!   benchmark). Paths: scalar, SSE2, AVX2+FMA, one body per path with the
//!   shape as const parameters, plus an AVX2 body for a 12×8 tile over
//!   1–6 columns that broadcasts only those columns against the A strips
//!   (`2·cols` FMAs per step, not 12). The AVX2 paths use FMA, so their
//!   results differ from scalar by bounded rounding (see the ULP policy
//!   below); the SSE2 path is mul-then-add and bit-identical to scalar.
//! * [`sdmm::row_kernel`] — the LIBXSMM sparse-row kernel: broadcast one
//!   non-zero, multiply-add against packed B rows. Paths: scalar, AVX2.
//!   Both use separate multiply and add (never FMA) in the same per-lane
//!   order, so **every level is bit-identical** to scalar.
//! * [`qs::scan_group`] — the vQS condition scan: every QuickScorer
//!   condition of a forest against a group of up to 32 document lanes,
//!   clearing a node's left-subtree leaves in the lanes that go right
//!   (value above the threshold, or NaN), over a structure-of-arrays
//!   [`qs::ConditionTable`] over `u32` words, each a slice of 32 leaves
//!   of a tree (one ymm per 8 lanes of a slice). Paths: the portable lane
//!   loop at scalar and SSE2, one AVX2 kernel per group, generic over its
//!   1–4 registers a slice. Compare and bit logic only, so **every level
//!   is bit-identical**.
//!
//! # Dispatch
//!
//! [`dispatch::active`] detects the best supported [`Isa`] once (cached in
//! an atomic, `OnceLock`-style), capped by the `DLR_SIMD` environment
//! variable (`auto`/`scalar`/`sse2`/`avx2`). Every kernel also takes an
//! explicit [`Isa`] so tests and benchmarks can pin a path without global
//! state; [`dispatch::force`] overrides the cached choice process-wide for
//! debugging (`DLR_SIMD=scalar cargo test` keeps the fallback arm green in
//! CI).
//!
//! # ULP policy for GEMM-FMA
//!
//! An FMA fuses `a*b + c` with a single rounding, so each of the `kcb`
//! accumulation steps of the AVX2 GEMM path can differ from the scalar
//! mul-then-add result by at most half an ULP of the intermediate. Errors
//! compound linearly: over a length-`k` reduction the scalar and FMA
//! results differ by at most `k` ULP-scale steps. The equivalence suite
//! (`tests/simd_equivalence.rs`) therefore accepts
//! `|scalar − fma| ≤ k · ε · Σᵢ|aᵢ·bᵢ|` per output element — the standard
//! forward-error envelope — instead of bit-equality, and this is the only
//! kernel/path pair allowed any deviation at all.
//!
//! # Non-x86 fallback
//!
//! On non-x86-64 targets the intrinsic modules compile to nothing,
//! [`dispatch::detect_best`] reports [`Isa::Scalar`], and every wrapper
//! routes to the portable scalar kernel, keeping such builds green without
//! `cfg` leakage into caller crates.

pub mod dispatch;
pub mod gemm;
pub mod qs;
pub mod sdmm;

pub use dispatch::{active, detect_best, force, supported, Isa};

/// Register width the kernels block on: 8 × f32 = 256 bits (AVX2), the
/// configuration the paper analyzes. Callers pack panels to multiples of
/// this width.
pub const LANES: usize = 8;
