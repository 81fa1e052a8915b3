//! The vQS condition scan (§2.2): score the QuickScorer conditions of a
//! forest against a group of 8 documents, one document per lane.
//!
//! For each feature the scan takes the 8 lane values once, then walks the
//! feature's conditions in ascending threshold order: a lane whose value
//! exceeds a node's threshold clears the node's left-subtree leaves from
//! its copy of the tree's leaf bitvector, and the walk stops once no lane
//! exceeds the threshold (the vectorized analogue of QuickScorer's early
//! exit). The conditions live in a [`ConditionTable`], structure of
//! arrays, at the narrowest [`LeafWord`] that holds the forest's widest
//! tree: `u32` up to 32 leaves, so a tree's 8 lanes are one 256-bit
//! register — the layout the paper's AVX2 vQS uses — and `u64` up to 64,
//! two registers.
//!
//! Two paths, one semantics:
//!
//! * [`Isa::Avx2`] runs the whole group in one `#[target_feature]`
//!   kernel: per condition one `vcmpps` (`_CMP_GT_OQ`, false on NaN, so a
//!   NaN lane keeps its bits), one and/and-not against the broadcast
//!   left-subtree bits, and one load/store of the tree's lanes (two for
//!   `u64`, the compare widened by `vpmovsxdq`). A kernel per *condition*
//!   read slower than the lane loop, because a `#[target_feature]`
//!   function cannot inline into a caller built without AVX2 and every
//!   condition paid a call; at the group the call is paid once per 8
//!   documents, as the GEMM tiles pay it once per k-loop.
//! * every other level runs the portable lane loop ([`mask_step`]'s
//!   body), which the compiler vectorizes for the build target. It is the
//!   reference the kernel is tested against.
//!
//! The update is a float compare followed by pure bitwise arithmetic and
//! both paths stop each list at the same condition, so every level yields
//! the same bitvectors, bit for bit.

use crate::dispatch::{supported, Isa};
use crate::LANES;
use std::fmt::Debug;
use std::ops::{BitAndAssign, Not};

mod sealed {
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
}

/// A leaf bitvector word: bit `i` set while leaf `i` of a tree is still
/// reachable. `u32` holds trees of up to 32 leaves, `u64` up to 64.
pub trait LeafWord:
    sealed::Sealed + Copy + Default + Eq + Debug + BitAndAssign + Not<Output = Self>
{
    /// Width in bits: the most leaves a tree encoded in this word can have.
    const BITS: u32;

    /// The low [`Self::BITS`] bits of `bits`.
    fn from_low_bits(bits: u64) -> Self;

    /// The word zero-extended to 64 bits.
    fn to_u64(self) -> u64;
}

impl LeafWord for u32 {
    const BITS: u32 = u32::BITS;

    #[inline]
    fn from_low_bits(bits: u64) -> u32 {
        // Truncation is the point: the caller keeps only the low bits.
        bits as u32
    }

    #[inline]
    fn to_u64(self) -> u64 {
        u64::from(self)
    }
}

impl LeafWord for u64 {
    const BITS: u32 = u64::BITS;

    #[inline]
    fn from_low_bits(bits: u64) -> u64 {
        bits
    }

    #[inline]
    fn to_u64(self) -> u64 {
        self
    }
}

/// A forest's QuickScorer conditions as structure of arrays, grouped by
/// feature: the conditions of feature `f` are the indices
/// `feat_offsets[f]..feat_offsets[f + 1]`, thresholds ascending, and
/// condition `c` tests `threshold[c]` in tree `tree[c]`, clearing
/// `left_leaves[c]` (the complement of QuickScorer's node mask) when the
/// document's value exceeds it.
///
/// [`ConditionTable::new`] checks every index the scan follows once, so
/// [`scan_group`] indexes without bounds checks.
#[derive(Debug, Clone)]
pub struct ConditionTable<W> {
    num_trees: usize,
    feat_offsets: Vec<usize>,
    thresholds: Vec<f32>,
    trees: Vec<u32>,
    left_leaves: Vec<W>,
}

impl<W: LeafWord> ConditionTable<W> {
    /// Build a table over `num_trees` trees and `feat_offsets.len() - 1`
    /// features from per-condition `thresholds`, `trees` and
    /// `left_leaves`. Within a feature the thresholds must ascend (as
    /// [`f32::total_cmp`] orders them) for the early exit to be exact;
    /// that is the caller's encoding, not checked here.
    ///
    /// # Panics
    /// Panics when the three condition arrays differ in length, when
    /// `feat_offsets` is empty, does not start at 0, descends or does not
    /// end at the condition count, or when a tree id is not below
    /// `num_trees`: a table built from a QuickScorer encoding never does.
    pub fn new(
        num_trees: usize,
        feat_offsets: Vec<usize>,
        thresholds: Vec<f32>,
        trees: Vec<u32>,
        left_leaves: Vec<W>,
    ) -> ConditionTable<W> {
        let n = thresholds.len();
        assert!(
            trees.len() == n && left_leaves.len() == n,
            "condition arrays differ in length"
        );
        assert!(
            feat_offsets.first() == Some(&0)
                && feat_offsets.last() == Some(&n)
                && feat_offsets.windows(2).all(|w| w[0] <= w[1]),
            "feature offsets must ascend from 0 to the condition count"
        );
        assert!(
            trees.iter().all(|&t| (t as usize) < num_trees),
            "a condition names a tree outside the forest"
        );
        ConditionTable {
            num_trees,
            feat_offsets,
            thresholds,
            trees,
            left_leaves,
        }
    }

    /// Number of features the conditions test.
    pub fn num_features(&self) -> usize {
        self.feat_offsets.len() - 1
    }
}

/// Scan every condition of `table` for one group of 1–8 documents.
///
/// `rows` holds the group's documents row-major, `num_features` values
/// each; lane `l` scores document `min(l, docs − 1)`, so a short group's
/// spare lanes repeat its last document and the caller reads only the
/// first `docs` lanes. `leafidx[t * LANES + l]` is tree `t`'s bitvector
/// in lane `l`: the caller arms it with every tree's leaves and reads the
/// exit leaves from it afterwards. [`Isa::Avx2`] runs the group kernel;
/// every other level, or an `isa` this host lacks, the lane loop.
///
/// # Panics
/// Panics when `leafidx` is not `num_trees · LANES` words, or when `rows`
/// does not hold 1 to [`LANES`] whole documents (a table over no features
/// reads no rows).
pub fn scan_group<W: LeafWord>(
    isa: Isa,
    table: &ConditionTable<W>,
    rows: &[f32],
    leafidx: &mut [W],
) {
    assert_eq!(
        leafidx.len(),
        table.num_trees * LANES,
        "one bitvector per tree and lane"
    );
    let nf = table.num_features();
    if nf == 0 {
        return;
    }
    let docs = rows.len() / nf;
    assert!(
        (1..=LANES).contains(&docs) && rows.len() == docs * nf,
        "a group is 1 to {LANES} whole documents"
    );
    let lane_rows: [usize; LANES] = std::array::from_fn(|l| l.min(docs - 1) * nf);
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 if supported(Isa::Avx2) => {
            // SAFETY: AVX2 was checked just above. `ConditionTable::new`
            // proved every offset lies in the condition arrays and every
            // tree id is below `num_trees`, so each `tree · LANES` group
            // of `leafidx` (asserted `num_trees · LANES` long) is in
            // bounds; every `lane_rows[l] + f` is below `docs · nf ==
            // rows.len()` for `f < nf`.
            unsafe { x86::scan_group_avx2(table, rows, &lane_rows, leafidx) }
        }
        _ => scan_group_lanes(table, rows, &lane_rows, leafidx),
    }
}

/// The portable path of [`scan_group`]: the lane loop per condition.
fn scan_group_lanes<W: LeafWord>(
    table: &ConditionTable<W>,
    rows: &[f32],
    lane_rows: &[usize; LANES],
    leafidx: &mut [W],
) {
    for (f, bounds) in table.feat_offsets.windows(2).enumerate() {
        let xf: [f32; LANES] = std::array::from_fn(|l| rows[lane_rows[l] + f]);
        let max_xf = xf.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let list = bounds[0]..bounds[1];
        let conditions = table.thresholds[list.clone()]
            .iter()
            .zip(&table.trees[list.clone()])
            .zip(&table.left_leaves[list]);
        for ((&threshold, &tree), &left) in conditions {
            if max_xf <= threshold {
                // Every lane tests true from here on.
                break;
            }
            // Always-Some: tree ids are below `num_trees`.
            if let Some(dst) = leafidx[tree as usize * LANES..].first_chunk_mut::<LANES>() {
                clear_lanes(&xf, threshold, left, dst);
            }
        }
    }
}

/// Apply one QuickScorer condition to the 8 traversal bitvectors:
/// `dst[lane] &= if xf[lane] > threshold { mask } else { !0 }`.
///
/// This is the portable path's step, run at every `isa` level: the
/// argument is kept for the callers that sweep [`Isa::ALL`]. vQS itself
/// scans through [`scan_group`], whose AVX2 kernel holds the step inline.
pub fn mask_step(_isa: Isa, xf: &[f32; LANES], threshold: f32, mask: u64, dst: &mut [u64; LANES]) {
    clear_lanes(xf, threshold, !mask, dst);
}

/// The auto-vectorizable lane loop: clear `left` from the lanes whose
/// value exceeds `threshold`; `>` is false on NaN, so a NaN lane keeps its
/// bits.
#[inline]
fn clear_lanes<W: LeafWord>(xf: &[f32; LANES], threshold: f32, left: W, dst: &mut [W; LANES]) {
    for lane in 0..LANES {
        let keep = if xf[lane] > threshold {
            !left
        } else {
            !W::default()
        };
        dst[lane] &= keep;
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The group kernel. Private: callable only through the dispatch
    //! wrapper above (enforced by dlr-lint's `SIMD_TARGET_FEATURE` rule).

    use super::{ConditionTable, LeafWord};
    use crate::LANES;
    use core::arch::x86_64::*;

    /// AVX2 condition scan of one group: the lane loop of
    /// `scan_group_lanes` with the 8 lanes in one ymm of `f32`, and each
    /// tree's 8 bitvectors in one ymm (`u32`) or two (`u64`). The early
    /// exit compares the same lane maximum as the lane loop (NaN lanes
    /// skipped), so both stop every list at the same condition.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available, `leafidx` is
    /// `table.num_trees · LANES` words, and `lane_rows[l] + f <
    /// rows.len()` for every lane `l` and feature `f`.
    #[target_feature(enable = "avx2")]
    unsafe fn scan_group_impl<W: LeafWord>(
        table: &ConditionTable<W>,
        rows: &[f32],
        lane_rows: &[usize; LANES],
        leafidx: &mut [W],
    ) {
        let offsets = table.feat_offsets.as_ptr();
        let thresholds = table.thresholds.as_ptr();
        let trees = table.trees.as_ptr();
        let left_leaves = table.left_leaves.as_ptr();
        let rows = rows.as_ptr();
        let leafidx = leafidx.as_mut_ptr();
        let neg_inf = _mm256_set1_ps(f32::NEG_INFINITY);
        for f in 0..table.feat_offsets.len() - 1 {
            let x = _mm256_setr_ps(
                *rows.add(lane_rows[0] + f),
                *rows.add(lane_rows[1] + f),
                *rows.add(lane_rows[2] + f),
                *rows.add(lane_rows[3] + f),
                *rows.add(lane_rows[4] + f),
                *rows.add(lane_rows[5] + f),
                *rows.add(lane_rows[6] + f),
                *rows.add(lane_rows[7] + f),
            );
            // `maxps` returns its second operand when the first is NaN,
            // so NaN lanes count as −∞, as `f32::max` skips them.
            let max_xf = horizontal_max(_mm256_max_ps(x, neg_inf));
            for c in *offsets.add(f)..*offsets.add(f + 1) {
                let threshold = *thresholds.add(c);
                if max_xf <= threshold {
                    break;
                }
                let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(x, _mm256_set1_ps(threshold));
                let dst = leafidx
                    .add(*trees.add(c) as usize * LANES)
                    .cast::<__m256i>();
                let left = (*left_leaves.add(c)).to_u64();
                if W::BITS == 32 {
                    clear(dst, _mm256_castps_si256(gt), _mm256_set1_epi32(left as i32));
                } else {
                    let gt = _mm256_castps_si256(gt);
                    let left = _mm256_set1_epi64x(left as i64);
                    clear(dst, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(gt)), left);
                    let hi = _mm256_extracti128_si256::<1>(gt);
                    clear(dst.add(1), _mm256_cvtepi32_epi64(hi), left);
                }
            }
        }
    }

    /// `*dst &= !(gt & left)`: clear the left-subtree bits in the lanes
    /// whose test was true.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and `dst` is readable and
    /// writable for 32 bytes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn clear(dst: *mut __m256i, gt: __m256i, left: __m256i) {
        let bits = _mm256_loadu_si256(dst);
        _mm256_storeu_si256(dst, _mm256_andnot_si256(_mm256_and_si256(gt, left), bits));
    }

    /// Largest of the 8 lanes of a NaN-free vector.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn horizontal_max(v: __m256) -> f32 {
        let m = _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps::<1>(v));
        let m = _mm_max_ps(m, _mm_movehl_ps(m, m));
        _mm_cvtss_f32(_mm_max_ss(m, _mm_shuffle_ps::<1>(m, m)))
    }

    /// Dispatch-table entry for the group kernel.
    ///
    /// # Safety
    /// Same contract as [`scan_group_impl`].
    pub(super) unsafe fn scan_group_avx2<W: LeafWord>(
        table: &ConditionTable<W>,
        rows: &[f32],
        lane_rows: &[usize; LANES],
        leafidx: &mut [W],
    ) {
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { scan_group_impl(table, rows, lane_rows, leafidx) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch;

    fn run(isa: Isa, xf: [f32; LANES], threshold: f32, mask: u64, init: [u64; LANES]) -> [u64; 8] {
        let mut dst = init;
        mask_step(isa, &xf, threshold, mask, &mut dst);
        dst
    }

    #[test]
    fn all_supported_paths_are_bit_identical() {
        let cases: &[([f32; 8], f32, u64)] = &[
            (
                [0.5, -1.0, 2.0, 0.0, 3.5, -0.1, 0.1, 9.0],
                0.0,
                0xDEAD_BEEF_F00D_u64,
            ),
            ([1.0; 8], 1.0, 0b1010),
            ([-1.0; 8], -2.0, u64::MAX - 1),
            (
                [
                    f32::NAN,
                    1.0,
                    f32::NAN,
                    -1.0,
                    0.0,
                    2.0,
                    f32::INFINITY,
                    f32::NEG_INFINITY,
                ],
                0.5,
                0x0F0F,
            ),
            (
                [f32::MIN, f32::MAX, 0.0, -0.0, 1e-38, -1e-38, 7.0, -7.0],
                -0.0,
                1,
            ),
        ];
        let init = [
            u64::MAX,
            0xAAAA_5555_AAAA_5555,
            0,
            1,
            u64::MAX >> 1,
            0xFF00_FF00_FF00_FF00,
            42,
            u64::MAX,
        ];
        for &(xf, th, mask) in cases {
            let want = run(Isa::Scalar, xf, th, mask, init);
            for isa in [Isa::Sse2, Isa::Avx2] {
                if !dispatch::supported(isa) {
                    continue;
                }
                assert_eq!(
                    want,
                    run(isa, xf, th, mask, init),
                    "{isa} xf={xf:?} th={th}"
                );
            }
        }
    }

    #[test]
    fn scalar_semantics_match_the_definition() {
        let xf = [1.0, 0.0, 2.0, -3.0, 0.5, 0.5, 10.0, -10.0];
        let got = run(Isa::Scalar, xf, 0.5, 0b0110, [u64::MAX; 8]);
        for (lane, &g) in got.iter().enumerate() {
            let expect = if xf[lane] > 0.5 { 0b0110 } else { u64::MAX };
            assert_eq!(g, expect, "lane {lane}");
        }
    }

    #[test]
    fn nan_lanes_test_false_on_every_path() {
        let xf = [f32::NAN; 8];
        for isa in Isa::ALL {
            if !dispatch::supported(isa) {
                continue;
            }
            // NaN > t is false: every lane keeps its bits.
            let got = run(isa, xf, f32::NEG_INFINITY, 0, [0xABCD; 8]);
            assert_eq!(got, [0xABCD; 8], "{isa}");
        }
    }

    /// Two trees over two features; the left-subtree bits use the top bit
    /// of the word, so a `u32` kernel that widened wrongly would show.
    fn table<W: LeafWord>() -> ConditionTable<W> {
        let top = W::from_low_bits(1 << (W::BITS - 1));
        ConditionTable::new(
            2,
            vec![0, 3, 5],
            vec![-1.0, 0.0, 0.0, 0.5, 2.0],
            vec![0, 1, 0, 1, 0],
            vec![
                W::from_low_bits(0b1),
                top,
                W::from_low_bits(0b10),
                top,
                W::from_low_bits(0b100),
            ],
        )
    }

    fn scan<W: LeafWord>(isa: Isa, rows: &[f32]) -> Vec<W> {
        let t = table::<W>();
        let mut leafidx = vec![!W::default(); 2 * LANES];
        scan_group(isa, &t, rows, &mut leafidx);
        leafidx
    }

    fn group_scans_agree<W: LeafWord>() {
        let values = [
            -2.0,
            -1.0,
            -0.0,
            0.0,
            0.25,
            0.5,
            3.0,
            f32::NAN,
            f32::INFINITY,
            1e-40,
        ];
        for docs in 1..=LANES {
            for shift in 0..values.len() {
                let rows: Vec<f32> = (0..2 * docs)
                    .map(|i| values[(i * 7 + shift) % values.len()])
                    .collect();
                let want = scan::<W>(Isa::Scalar, &rows);
                // Spare lanes repeat the last document.
                for t in 0..2 {
                    for l in docs..LANES {
                        assert_eq!(want[t * LANES + l], want[t * LANES + docs - 1]);
                    }
                }
                for isa in [Isa::Sse2, Isa::Avx2] {
                    if dispatch::supported(isa) {
                        assert_eq!(want, scan::<W>(isa, &rows), "{isa} docs={docs}");
                    }
                }
            }
        }
    }

    #[test]
    fn group_scan_is_bit_identical_on_every_path_and_word() {
        group_scans_agree::<u32>();
        group_scans_agree::<u64>();
    }

    #[test]
    fn group_scan_applies_the_definition() {
        // Lane 0 exceeds every threshold, lane 1 none; lane 2 sits on the
        // thresholds (`x > t` false) and lane 3 is NaN.
        let rows = [5.0, 5.0, -5.0, -5.0, 0.0, 0.5, f32::NAN, f32::NAN];
        let got = scan::<u32>(Isa::Scalar, &rows);
        let top = 1u32 << 31;
        assert_eq!(got[0], !(0b111));
        assert_eq!(got[LANES], !top);
        for l in 1..4 {
            let want0 = if l == 2 { !0b1 } else { !0 };
            assert_eq!((got[l], got[LANES + l]), (want0, !0), "lane {l}");
        }
    }

    #[test]
    #[should_panic(expected = "outside the forest")]
    fn tables_reject_tree_ids_past_the_forest() {
        ConditionTable::<u32>::new(1, vec![0, 1], vec![0.0], vec![1], vec![1]);
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn tables_reject_offsets_past_the_conditions() {
        ConditionTable::<u64>::new(1, vec![0, 2], vec![0.0], vec![0], vec![1]);
    }
}
