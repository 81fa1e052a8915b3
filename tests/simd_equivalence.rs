//! Scalar-vs-SIMD equivalence of the three runtime-dispatched kernels.
//!
//! The dispatch layer's numeric contract (see `dlr-simd`'s crate docs):
//!
//! * **SDMM** and **QuickScorer** are *bit-identical* across every path —
//!   the SDMM kernels keep a separate multiply and add per element in
//!   non-zero order, and the QS mask step is an ordered compare plus pure
//!   bitwise arithmetic. `assert_eq!` on raw `f32`/`u64` output, not an
//!   epsilon.
//! * **GEMM** on AVX2 fuses the multiply-add (one rounding per reduction
//!   step instead of two), so its output may differ from scalar by a
//!   bounded number of half-ULP steps — at most `kcb` per element. The
//!   SSE2 GEMM path keeps the separate multiply/add and stays bit-exact.
//!   This holds for each of the three tiles: 6×16 and 12×8, which the
//!   blocked GEMM runs, and 8×8, which the benchmark times.
//!
//! Both arms are exercised: explicit-ISA entry points (no global state,
//! proptest-friendly) and the process-wide `force()` dispatch the
//! production code paths actually take.

use distilled_ltr::dense::{gemm_with, GemmWorkspace, GotoParams, Matrix};
use distilled_ltr::gbdt::tree::leaf_ref;
use distilled_ltr::gbdt::{Ensemble, RegressionTree};
use distilled_ltr::quickscorer::{QuickScorer, VectorizedQuickScorer};
use distilled_ltr::simd::gemm::{micro_kernel_12x8, micro_kernel_6x16, micro_kernel_8x8, MR};
use distilled_ltr::simd::Isa;
use distilled_ltr::sparse::xsmm::spmm_xsmm_rows_with_isa;
use distilled_ltr::sparse::{spmm_xsmm_packed, CsrMatrix, PackedB};
use proptest::prelude::*;
use std::sync::Mutex;

/// The non-scalar paths this host can run (empty on non-x86-64).
fn simd_isas() -> Vec<Isa> {
    Isa::ALL
        .into_iter()
        .filter(|&i| i != Isa::Scalar && distilled_ltr::simd::supported(i))
        .collect()
}

fn sparse_matrix(m: usize, k: usize, keep_every: usize, seed: u64) -> CsrMatrix {
    let mut d = Matrix::random(m, k, 1.0, seed);
    for (idx, v) in d.as_mut_slice().iter_mut().enumerate() {
        if idx % keep_every != 0 {
            *v = 0.0;
        }
    }
    CsrMatrix::from_dense(&d, 0.0)
}

/// Depth-2 trees (three internal nodes, four leaves) with varied splits.
fn small_ensemble(trees: usize, nf: usize, seed: u64) -> Ensemble {
    let mut e = Ensemble::new(nf, 0.2);
    for t in 0..trees {
        let s = seed + t as u64;
        let f0 = (s % nf as u64) as u32;
        let f1 = ((s * 3 + 1) % nf as u64) as u32;
        e.push(RegressionTree::from_raw(
            vec![f0, f1, f1],
            vec![
                (s % 9) as f32 * 0.1,
                (s % 4) as f32 * 0.2 - 0.3,
                (s % 6) as f32 * 0.15,
            ],
            vec![1, leaf_ref(0), leaf_ref(2)],
            vec![2, leaf_ref(1), leaf_ref(3)],
            vec![0.05 * (s % 7) as f32, -0.1, 0.2, -0.03 * (s % 5) as f32],
        ));
    }
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SDMM: every SIMD path is bit-identical to scalar for arbitrary
    /// shapes — odd widths that end in ragged tails, empty rows from
    /// aggressive sparsification, single-row and zero-row matrices.
    #[test]
    fn sdmm_paths_bit_identical(
        m in 0usize..24, k in 1usize..40, n in 1usize..70,
        keep_every in 1usize..9, seed in 0u64..500
    ) {
        let a = sparse_matrix(m, k, keep_every, seed);
        let b = Matrix::random(k, n, 1.0, seed + 1);
        let packed = PackedB::pack(b.as_slice(), k, n);
        let mut want = vec![f32::NAN; m * n];
        spmm_xsmm_rows_with_isa(Isa::Scalar, &a, &packed, 0, &mut want);
        for isa in simd_isas() {
            let mut got = vec![f32::NAN; m * n];
            spmm_xsmm_rows_with_isa(isa, &a, &packed, 0, &mut got);
            prop_assert!(want == got, "{} m={} k={} n={}", isa, m, k, n);
        }
    }

    /// QuickScorer: the vectorized mask step is bit-identical to the
    /// scalar traversal on every path, full groups and ragged tails alike.
    #[test]
    fn quickscorer_paths_bit_identical(
        trees in 1usize..24, nf in 1usize..10, docs in 0usize..40,
        seed in 0u64..500
    ) {
        let e = small_ensemble(trees, nf, seed);
        let scalar = QuickScorer::compile(&e).unwrap();
        let v = VectorizedQuickScorer::compile(&e).unwrap();
        let feats = Matrix::random(docs.max(1), nf, 2.0, seed + 7);
        let feats = &feats.as_slice()[..docs * nf];
        let mut want = vec![0.0f32; docs];
        scalar.score_batch(feats, &mut want);
        for isa in [Isa::Scalar].into_iter().chain(simd_isas()) {
            let mut got = vec![0.0f32; docs];
            v.score_batch_with_isa(isa, feats, &mut got);
            prop_assert!(want == got, "{} trees={} docs={}", isa, trees, docs);
        }
    }

    /// The 8×8 GEMM tile: SSE2 is bit-identical to scalar; AVX2's fused
    /// multiply-add stays within the documented per-element ULP budget
    /// (`kcb` fusions, each saving one rounding).
    #[test]
    fn gemm_tile_paths_match_scalar(
        kcb in 0usize..40, rows in 1usize..9, cols in 1usize..9,
        seed in 0u64..500
    ) {
        check_tile(micro_kernel_8x8, (8, 8), kcb, rows, cols, seed)?;
    }

    /// The tiles the blocked GEMM runs — 6×16 for full B strips, 12×8 for
    /// narrow ones — under the same contract, at every edge.
    #[test]
    fn gemm_product_tile_paths_match_scalar(
        kcb in 0usize..40, rows in 1usize..13, cols in 1usize..17,
        seed in 0u64..500
    ) {
        check_tile(micro_kernel_6x16, (MR, 16), kcb, rows.min(MR), cols, seed)?;
        check_tile(micro_kernel_12x8, (2 * MR, 8), kcb, rows, cols.min(8), seed)?;
    }
}

type Tile = fn(Isa, &[f32], &[f32], usize, &mut [f32], usize, usize, usize, usize, usize);

/// Run `tile` (of `tr × tc`) on every supported ISA over random strips
/// and dirty C: SSE2 bit-identical to scalar, AVX2 inside the ULP budget.
fn check_tile(
    tile: Tile,
    (tr, tc): (usize, usize),
    kcb: usize,
    rows: usize,
    cols: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let astrip = Matrix::random(kcb.max(1), tr, 1.0, seed);
    let bstrip = Matrix::random(kcb.max(1), tc, 1.0, seed + 3);
    let ldc = tc + 2;
    let run = |isa: Isa| {
        let mut c = vec![1.0f32; tr * ldc];
        tile(
            isa,
            astrip.as_slice(),
            bstrip.as_slice(),
            kcb,
            &mut c,
            ldc,
            0,
            0,
            rows,
            cols,
        );
        c
    };
    let want = run(Isa::Scalar);
    for isa in simd_isas() {
        let got = run(isa);
        if isa == Isa::Avx2 {
            for (w, g) in want.iter().zip(&got) {
                let tol = kcb as f32 * f32::EPSILON * 16.0 * w.abs().max(1.0);
                prop_assert!(
                    (w - g).abs() <= tol,
                    "avx2 {}x{} kcb={}: {} vs {}",
                    tr,
                    tc,
                    kcb,
                    w,
                    g
                );
            }
        } else {
            prop_assert!(want == got, "{} {}x{} kcb={}", isa, tr, tc, kcb);
        }
    }
    Ok(())
}

/// `force()` mutates process-wide dispatch state; the forced-arm tests
/// serialize on this lock so concurrent test threads never observe each
/// other's pin.
static FORCE_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with the dispatch pinned to each supported ISA in turn,
/// collecting one result per ISA (scalar first).
fn with_each_forced<T>(mut f: impl FnMut() -> T) -> Vec<(Isa, T)> {
    let mut out = Vec::new();
    for isa in Isa::ALL {
        if !distilled_ltr::simd::supported(isa) {
            continue;
        }
        let prev = distilled_ltr::simd::force(isa).expect("forcing a supported ISA");
        out.push((isa, f()));
        distilled_ltr::simd::force(prev).expect("restoring dispatch");
    }
    out
}

/// Forced-dispatch arm: the *public* SDMM entry point (which reads the
/// process-wide choice) produces bit-identical output under every pin.
#[test]
fn forced_dispatch_sdmm_is_bit_identical() {
    let _guard = FORCE_LOCK.lock().expect("force lock");
    let a = sparse_matrix(37, 29, 5, 11);
    let b = Matrix::random(29, 53, 1.0, 12);
    let packed = PackedB::pack(b.as_slice(), 29, 53);
    let mut ws = Default::default();
    let results = with_each_forced(|| {
        let mut c = vec![f32::NAN; 37 * 53];
        spmm_xsmm_packed(&a, &packed, &mut c, &mut ws);
        c
    });
    let (_, want) = &results[0];
    for (isa, got) in &results[1..] {
        assert_eq!(want, got, "forced {isa}");
    }
}

/// Forced-dispatch arm: `VectorizedQuickScorer::score_batch` under every
/// pin matches the scalar `QuickScorer` bit for bit.
#[test]
fn forced_dispatch_quickscorer_is_bit_identical() {
    let _guard = FORCE_LOCK.lock().expect("force lock");
    let e = small_ensemble(17, 6, 23);
    let scalar = QuickScorer::compile(&e).unwrap();
    let v = VectorizedQuickScorer::compile(&e).unwrap();
    let docs = 43usize; // five full 8-lane groups + a ragged tail
    let feats = Matrix::random(docs, 6, 2.0, 24);
    let mut want = vec![0.0f32; docs];
    scalar.score_batch(feats.as_slice(), &mut want);
    for (isa, got) in with_each_forced(|| {
        let mut got = vec![0.0f32; docs];
        v.score_batch(feats.as_slice(), &mut got);
        got
    }) {
        assert_eq!(want, got, "forced {isa}");
    }
}

/// Forced-dispatch arm: the full blocked GEMM through the public driver.
/// Scalar and SSE2 agree exactly; AVX2 stays within the ULP budget scaled
/// by the reduction depth `k`.
#[test]
fn forced_dispatch_gemm_respects_ulp_policy() {
    let _guard = FORCE_LOCK.lock().expect("force lock");
    let (m, k, n) = (45, 67, 38);
    let a = Matrix::random(m, k, 1.0, 31);
    let b = Matrix::random(k, n, 1.0, 32);
    let params = GotoParams::default();
    let results = with_each_forced(|| {
        let mut ws = GemmWorkspace::default();
        let mut c = vec![0.0f32; m * n];
        gemm_with(m, k, n, a.as_slice(), b.as_slice(), &mut c, params, &mut ws);
        c
    });
    let (_, want) = &results[0];
    for (isa, got) in &results[1..] {
        match isa {
            Isa::Avx2 => {
                for (w, g) in want.iter().zip(got) {
                    let tol = k as f32 * f32::EPSILON * 16.0 * w.abs().max(1.0);
                    assert!((w - g).abs() <= tol, "forced avx2: {w} vs {g}");
                }
            }
            _ => assert_eq!(want, got, "forced {isa}"),
        }
    }
}
