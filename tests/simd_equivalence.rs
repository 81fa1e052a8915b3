//! Scalar-vs-SIMD equivalence of the three runtime-dispatched kernels.
//!
//! The dispatch layer's numeric contract (see `dlr-simd`'s crate docs):
//!
//! * **SDMM** and **QuickScorer** are *bit-identical* across every path —
//!   the SDMM kernels keep a separate multiply and add per element in
//!   non-zero order, and the QS condition scan is an ordered compare plus
//!   pure bitwise arithmetic. `assert_eq!` on raw `f32` output bits, not
//!   an epsilon.
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
use distilled_ltr::quickscorer::{BlockwiseQuickScorer, QuickScorer, VectorizedQuickScorer};
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

/// SplitMix64: a fixed stream that depends on nothing but this file, so
/// the golden fingerprint below survives any change to `rand`.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[-1, 1)`, a multiple of 2⁻²³.
    fn signed_unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }
}

/// Split thresholds come from this grid, so many conditions tie and an
/// edge document can sit exactly on one.
fn grid_threshold(k: usize) -> f32 {
    (k % 17) as f32 * 0.25 - 2.0
}

/// A forest of `trees` trees of exactly `leaves` leaves each, grown by
/// splitting random leaves, over `nf` features.
fn grown_forest(trees: usize, nf: usize, leaves: usize, seed: u64) -> Ensemble {
    enum Node {
        Leaf(f32),
        Split(u32, f32, usize, usize),
    }
    /// `RegressionTree::from_raw`'s arrays, filled in pre-order.
    #[derive(Default)]
    struct Flat {
        feature: Vec<u32>,
        threshold: Vec<f32>,
        left: Vec<i32>,
        right: Vec<i32>,
        values: Vec<f32>,
    }
    fn emit(arena: &[Node], at: usize, tree: &mut Flat) -> i32 {
        match arena[at] {
            Node::Leaf(v) => {
                tree.values.push(v);
                leaf_ref(tree.values.len() - 1)
            }
            Node::Split(f, t, l, r) => {
                let me = tree.feature.len();
                tree.feature.push(f);
                tree.threshold.push(t);
                tree.left.push(0);
                tree.right.push(0);
                tree.left[me] = emit(arena, l, tree);
                tree.right[me] = emit(arena, r, tree);
                me as i32
            }
        }
    }
    let mut mix = Mix(seed);
    let mut e = Ensemble::new(nf, 0.3);
    for _ in 0..trees {
        let mut arena = vec![Node::Leaf(mix.signed_unit())];
        let mut open = vec![0usize];
        while open.len() < leaves {
            let slot = open.swap_remove(mix.below(open.len()));
            let (l, r) = (arena.len(), arena.len() + 1);
            arena.push(Node::Leaf(mix.signed_unit()));
            arena.push(Node::Leaf(mix.signed_unit()));
            let f = mix.below(nf) as u32;
            arena[slot] = Node::Split(f, grid_threshold(mix.below(17)), l, r);
            open.extend([l, r]);
        }
        let mut t = Flat::default();
        emit(&arena, 0, &mut t);
        e.push(RegressionTree::from_raw(
            t.feature,
            t.threshold,
            t.left,
            t.right,
            t.values,
        ));
    }
    e
}

/// `n` documents whose features sit on the edges of the scan: exactly on
/// a grid threshold or one ulp either side of it, ±0, ±∞, subnormal, or
/// NaN when `nan` is set, mixed with plain values. Document 3 of every 11
/// is all +∞ (its lane never exits a condition list early) and document
/// 4 all −∞ (its lane exits every list at once), so the two share groups
/// at every lane offset.
fn edge_docs(n: usize, nf: usize, nan: bool, seed: u64) -> Vec<f32> {
    let mut mix = Mix(seed);
    let mut docs = Vec::with_capacity(n * nf);
    for d in 0..n {
        for _ in 0..nf {
            let t = grid_threshold(mix.below(17));
            let v = match (d % 11, mix.below(if nan { 10 } else { 9 })) {
                (3, _) => f32::INFINITY,
                (4, _) => f32::NEG_INFINITY,
                (_, 0 | 1) => t,
                (_, 2) => t.next_up(),
                (_, 3) => t.next_down(),
                (_, 4) => [0.0, -0.0][mix.below(2)],
                (_, 5) => [f32::INFINITY, f32::NEG_INFINITY][mix.below(2)],
                (_, 6) => [1e-40, -1e-40, f32::MIN_POSITIVE][mix.below(3)],
                (_, 9) => f32::NAN,
                _ => 2.5 * mix.signed_unit(),
            };
            docs.push(v);
        }
    }
    docs
}

/// Leaf counts around vQS's 32-leaf slice, up to the scalar QuickScorer's
/// 64: a tree of at most 32 leaves is one slice, 33 to 64 two.
const QS_LEAVES: [usize; 4] = [8, 32, 33, 64];

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

    /// QuickScorer: vQS on every path is bit-identical to the scalar
    /// traversal, at one slice and two, full groups and ragged tails
    /// alike.
    #[test]
    fn quickscorer_paths_bit_identical(
        trees in 1usize..24, nf in 1usize..10, docs in 0usize..72,
        width in 0usize..QS_LEAVES.len(), seed in 0u64..500
    ) {
        let leaves = QS_LEAVES[width];
        let e = grown_forest(trees, nf, leaves, seed);
        let scalar = QuickScorer::compile(&e).unwrap();
        let v = VectorizedQuickScorer::compile(&e).unwrap();
        let feats = Matrix::random(docs.max(1), nf, 2.0, seed + 7);
        let feats = &feats.as_slice()[..docs * nf];
        let mut want = vec![0.0f32; docs];
        scalar.score_batch(feats, &mut want);
        for isa in [Isa::Scalar].into_iter().chain(simd_isas()) {
            let mut got = vec![0.0f32; docs];
            v.score_batch_with_isa(isa, feats, &mut got);
            prop_assert!(want == got, "{} trees={} leaves={} docs={}", isa, trees, leaves, docs);
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
/// pin matches the scalar `QuickScorer` bit for bit, at one slice and two.
#[test]
fn forced_dispatch_quickscorer_is_bit_identical() {
    let _guard = FORCE_LOCK.lock().expect("force lock");
    for leaves in [4, 64] {
        let e = grown_forest(17, 6, leaves, 23);
        let scalar = QuickScorer::compile(&e).unwrap();
        let v = VectorizedQuickScorer::compile(&e).unwrap();
        let docs = 43usize; // one full 32-document group + an 11-document tail
        let feats = Matrix::random(docs, 6, 2.0, 24);
        let mut want = vec![0.0f32; docs];
        scalar.score_batch(feats.as_slice(), &mut want);
        for (isa, got) in with_each_forced(|| {
            let mut got = vec![0.0f32; docs];
            v.score_batch(feats.as_slice(), &mut got);
            got
        }) {
            assert_eq!(want, got, "forced {isa}, {leaves} leaves");
        }
    }
}

/// Every path's vQS scores on [`edge_docs`] against per-tree traversal
/// (`Ensemble::predict`), bit for bit, at one to eight 32-leaf slices a
/// tree (256 leaves, a paper teacher's size) and at batch sizes around
/// every register count of the 32-document group and its tails; the
/// scalar `QuickScorer` likewise up to its 64 leaves. NaN documents
/// included: QuickScorer's test `x <= γ` is false on NaN at every node,
/// so a NaN feature goes right, as traversal sends it.
#[test]
fn vqs_matches_traversal_on_edge_inputs() {
    let nf = 7;
    for leaves in QS_LEAVES.into_iter().chain([65, 96, 256]) {
        let e = grown_forest(20, nf, leaves, leaves as u64);
        let qs = (leaves <= 64).then(|| QuickScorer::compile(&e).unwrap());
        let v = VectorizedQuickScorer::compile(&e).unwrap();
        for n in [1, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 40, 63, 64, 65, 1000] {
            for nan in [false, true] {
                let docs = edge_docs(n, nf, nan, (n as u64) << 8 | leaves as u64);
                let want: Vec<u32> = docs
                    .chunks_exact(nf)
                    .map(|row| e.predict(row).to_bits())
                    .collect();
                if let Some(qs) = &qs {
                    for (row, &w) in docs.chunks_exact(nf).zip(&want) {
                        assert_eq!(qs.score(row).to_bits(), w, "QS leaves={leaves} {row:?}");
                    }
                }
                for isa in [Isa::Scalar].into_iter().chain(simd_isas()) {
                    let mut got = vec![f32::NAN; n];
                    v.score_batch_with_isa(isa, &docs, &mut got);
                    let got: Vec<u32> = got.iter().map(|g| g.to_bits()).collect();
                    assert_eq!(want, got, "{isa} leaves={leaves} n={n} nan={nan}");
                }
            }
        }
    }
}

/// BWQS on [`edge_docs`], NaN and ±∞ included, against per-tree
/// traversal: at one tree a block it adds the trees to the base score in
/// traversal's order, so it reads `Ensemble::predict`'s bits; at larger
/// blocks it sums per block, so it agrees within rounding.
#[test]
fn bwqs_matches_traversal_on_edge_inputs() {
    let nf = 7;
    for leaves in QS_LEAVES {
        let e = grown_forest(20, nf, leaves, leaves as u64);
        let docs = edge_docs(100, nf, true, leaves as u64);
        for block in [1, 7] {
            let bw = BlockwiseQuickScorer::compile(&e, block).unwrap();
            let mut got = vec![f32::NAN; 100];
            bw.score_batch(&docs, &mut got);
            for (row, g) in docs.chunks_exact(nf).zip(&got) {
                let want = e.predict(row);
                if block == 1 {
                    assert_eq!(g.to_bits(), want.to_bits(), "leaves={leaves} {row:?}");
                } else {
                    assert!((g - want).abs() <= 1e-4, "leaves={leaves} {row:?}");
                }
            }
        }
    }
}

/// FNV-1a over the output bits of vQS on the [`edge_docs`] (NaN included)
/// of one forest per [`QS_LEAVES`] width, 1000 documents each. The value
/// is the fingerprint of `Ensemble::predict` over the same documents,
/// which the test checks too; every path must read it.
const VQS_GOLDEN: u64 = 0x8e92_5191_5c47_9145;

/// The forests and documents of [`VQS_GOLDEN`], scored by `score`.
fn edge_fingerprint(mut score: impl FnMut(&Ensemble, &[f32], &mut [f32])) -> u64 {
    let nf = 9;
    let mut fnv: u64 = 0xcbf2_9ce4_8422_2325;
    for leaves in QS_LEAVES {
        let e = grown_forest(40, nf, leaves, 0x5eed + leaves as u64);
        let docs = edge_docs(1000, nf, true, 0xf00d + leaves as u64);
        let mut out = vec![0.0f32; 1000];
        score(&e, &docs, &mut out);
        for byte in out.iter().flat_map(|o| o.to_bits().to_le_bytes()) {
            fnv ^= u64::from(byte);
            fnv = fnv.wrapping_mul(0x0100_0000_01b3);
        }
    }
    fnv
}

#[test]
fn vqs_output_bits_keep_their_fingerprint() {
    let traversal = edge_fingerprint(|e, docs, out| {
        for (row, o) in docs.chunks_exact(e.num_features()).zip(out) {
            *o = e.predict(row);
        }
    });
    assert_eq!(
        traversal, VQS_GOLDEN,
        "traversal's output bits moved ({traversal:#018x})"
    );
    for isa in [Isa::Scalar].into_iter().chain(simd_isas()) {
        let fnv = edge_fingerprint(|e, docs, out| {
            let v = VectorizedQuickScorer::compile(e).unwrap();
            v.score_batch_with_isa(isa, docs, out);
        });
        assert_eq!(
            fnv, VQS_GOLDEN,
            "{isa}: vQS output bits moved ({fnv:#018x})"
        );
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
