//! The vQS condition scan (§2.2): score the QuickScorer conditions of a
//! forest against a group of up to [`MAX_GROUP`] = 32 documents, one
//! document per lane, in registers of [`LANES`] = 8 lanes.
//!
//! For each feature the scan takes the group's lane values once, then
//! walks the feature's conditions in ascending threshold order: a lane
//! whose node test `x <= threshold` is false (the value exceeds the
//! threshold or is NaN, and traversal goes right) clears the node's
//! left-subtree leaves from its copy of the slice's leaf bitvector, and
//! the walk stops once every lane tests true (the vectorized analogue of
//! QuickScorer's early exit): at the first threshold that reaches the
//! group's maximum, which is NaN, and so reached by none, while a lane is
//! NaN. The conditions live in a [`ConditionTable`], structure of arrays,
//! over `u32` words: each word is one *slice* of 32 leaves of a tree, so
//! 8 lanes of a slice are one 256-bit register — the layout the paper's
//! AVX2 vQS uses. The caller cuts a larger tree into several slices; the
//! scan sees only slices.
//!
//! Two paths, one semantics:
//!
//! * [`Isa::Avx2`] runs the whole group in one `#[target_feature]`
//!   kernel, generic over the `R` = 1 to 4 registers of 8 lanes that a
//!   group of `docs` documents fills (`R = ⌈docs / 8⌉`). Per condition it
//!   loads the threshold, slice id and left-subtree bits once, broadcasts
//!   them once and tests the early exit once, then for each of the `R`
//!   registers does one compare (`_CMP_NLE_UQ`, `!(x <= t)`, true on NaN),
//!   one and/and-not against the left-subtree bits and one load/store of
//!   the slice's lanes. The scalar work is thus paid once per 32
//!   documents, not once per 8: score-forest's `us_per_doc` fell to about
//!   0.66× of the 8-document kernel's. A kernel per *condition* read
//!   slower than the lane loop, because a `#[target_feature]` function
//!   cannot inline into a caller built without AVX2 and every condition
//!   paid a call; at the group the call is paid once per group, as the
//!   GEMM tiles pay it once per k-loop.
//! * every other level runs the portable lane loop, 8 lanes at a time,
//!   which the compiler vectorizes for the build target. It is the
//!   reference the kernel is tested against.
//!
//! The update is a float compare followed by pure bitwise arithmetic and
//! both paths stop each list at the same condition, so every level yields
//! the same bitvectors, bit for bit.

use crate::dispatch::{supported, Isa};
use crate::LANES;

/// A forest's QuickScorer conditions as structure of arrays, grouped by
/// feature: the conditions of feature `f` are the indices
/// `feat_offsets[f]..feat_offsets[f + 1]`, thresholds ascending, and
/// condition `c` tests `threshold[c]` in slice `slices[c]`, clearing
/// `left_leaves[c]` (the complement of QuickScorer's node mask) when the
/// document's value exceeds it or is NaN. A slice is one `u32` leaf
/// bitvector: a tree of up to 32 leaves, or 32 leaves of a larger one.
///
/// [`ConditionTable::new`] checks every index the scan follows once, so
/// [`scan_group`] indexes without bounds checks.
#[derive(Debug, Clone)]
pub struct ConditionTable {
    num_slices: usize,
    feat_offsets: Vec<usize>,
    thresholds: Vec<f32>,
    slices: Vec<u32>,
    left_leaves: Vec<u32>,
}

impl ConditionTable {
    /// Build a table over `num_slices` slices and `feat_offsets.len() - 1`
    /// features from per-condition `thresholds`, `slices` and
    /// `left_leaves`. Within a feature the thresholds must ascend (as
    /// [`f32::total_cmp`] orders them) for the early exit to be exact;
    /// that is the caller's encoding, not checked here.
    ///
    /// # Panics
    /// Panics when the three condition arrays differ in length, when
    /// `feat_offsets` is empty, does not start at 0, descends or does not
    /// end at the condition count, or when a slice id is not below
    /// `num_slices`: a table built from a QuickScorer encoding never does.
    pub fn new(
        num_slices: usize,
        feat_offsets: Vec<usize>,
        thresholds: Vec<f32>,
        slices: Vec<u32>,
        left_leaves: Vec<u32>,
    ) -> ConditionTable {
        let n = thresholds.len();
        assert!(
            slices.len() == n && left_leaves.len() == n,
            "condition arrays differ in length"
        );
        assert!(
            feat_offsets.first() == Some(&0)
                && feat_offsets.last() == Some(&n)
                && feat_offsets.windows(2).all(|w| w[0] <= w[1]),
            "feature offsets must ascend from 0 to the condition count"
        );
        assert!(
            slices.iter().all(|&s| (s as usize) < num_slices),
            "a condition names a slice outside the forest"
        );
        ConditionTable {
            num_slices,
            feat_offsets,
            thresholds,
            slices,
            left_leaves,
        }
    }

    /// Number of features the conditions test.
    pub fn num_features(&self) -> usize {
        self.feat_offsets.len() - 1
    }

    /// Number of conditions: one per node and slice its left subtree
    /// touches.
    pub fn num_conditions(&self) -> usize {
        self.thresholds.len()
    }
}

/// The most documents one [`scan_group`] call scans: four registers of
/// [`LANES`] lanes per slice.
pub const MAX_GROUP: usize = 4 * LANES;

/// Scan every condition of `table` for one group of 1 to [`MAX_GROUP`]
/// documents.
///
/// `rows` holds the group's documents row-major, `num_features` values
/// each. The group spans `lanes = 8 · ⌈docs / 8⌉` lanes, and lane `l`
/// scores document `min(l, docs − 1)`, so a group's spare lanes repeat its
/// last document and the caller reads only the first `docs` lanes.
/// `leafidx[s * lanes + l]` is slice `s`'s bitvector in lane `l`: the
/// caller arms it with every slice's leaves and reads the exit leaves from
/// it afterwards. [`Isa::Avx2`] runs the group kernel; every other level,
/// or an `isa` this host lacks, the lane loop. A table over no features
/// has no conditions: it reads no rows and clears no bit.
///
/// # Panics
/// Panics when `rows` does not hold 1 to [`MAX_GROUP`] whole documents, or
/// when `leafidx` is not `num_slices · lanes` words.
pub fn scan_group(isa: Isa, table: &ConditionTable, rows: &[f32], leafidx: &mut [u32]) {
    let nf = table.num_features();
    if nf == 0 {
        return;
    }
    let docs = rows.len() / nf;
    assert!(
        (1..=MAX_GROUP).contains(&docs) && rows.len() == docs * nf,
        "a group is 1 to {MAX_GROUP} whole documents"
    );
    let regs = docs.div_ceil(LANES);
    assert_eq!(
        leafidx.len(),
        table.num_slices * regs * LANES,
        "one bitvector per slice and lane"
    );
    let lane_rows: [usize; MAX_GROUP] = std::array::from_fn(|l| l.min(docs - 1) * nf);
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 if supported(Isa::Avx2) => {
            // SAFETY: AVX2 was checked just above. `ConditionTable::new`
            // proved every offset lies in the condition arrays and every
            // slice id is below `num_slices`, so each slice's `regs · LANES`
            // words of `leafidx` (asserted `num_slices · regs · LANES`
            // long) are in bounds; every `lane_rows[l] + f` is below
            // `docs · nf == rows.len()` for `f < nf`.
            unsafe {
                match regs {
                    1 => x86::scan_group_avx2::<1>(table, rows, &lane_rows, leafidx),
                    2 => x86::scan_group_avx2::<2>(table, rows, &lane_rows, leafidx),
                    3 => x86::scan_group_avx2::<3>(table, rows, &lane_rows, leafidx),
                    _ => x86::scan_group_avx2::<4>(table, rows, &lane_rows, leafidx),
                }
            }
        }
        _ => scan_group_lanes(table, rows, &lane_rows[..regs * LANES], leafidx),
    }
}

/// The portable path of [`scan_group`]: the lane loop per condition, 8
/// lanes at a time over the group's `lane_rows.len()` lanes.
fn scan_group_lanes(
    table: &ConditionTable,
    rows: &[f32],
    lane_rows: &[usize],
    leafidx: &mut [u32],
) {
    let lanes = lane_rows.len();
    let mut group = [0.0f32; MAX_GROUP];
    for (f, bounds) in table.feat_offsets.windows(2).enumerate() {
        let xf = &mut group[..lanes];
        for (x, &row) in xf.iter_mut().zip(lane_rows) {
            *x = rows[row + f];
        }
        let max_xf = if xf.iter().any(|x| x.is_nan()) {
            f32::NAN
        } else {
            xf.iter().copied().fold(f32::NEG_INFINITY, f32::max)
        };
        let (xf, _) = xf.as_chunks::<LANES>();
        let list = bounds[0]..bounds[1];
        let conditions = table.thresholds[list.clone()]
            .iter()
            .zip(&table.slices[list.clone()])
            .zip(&table.left_leaves[list]);
        for ((&threshold, &slice), &left) in conditions {
            if max_xf <= threshold {
                // Every lane tests true from here on; a NaN maximum never
                // does.
                break;
            }
            // Always-Some: slice ids are below `num_slices`.
            if let Some(dst) = leafidx[slice as usize * lanes..].get_mut(..lanes) {
                for (x, dst) in xf.iter().zip(dst.as_chunks_mut::<LANES>().0) {
                    clear_lanes(x, threshold, left, dst);
                }
            }
        }
    }
}

/// Apply one QuickScorer condition to 8 traversal bitvectors of a tree of
/// up to 64 leaves: `dst[lane] &= if xf[lane] <= threshold { !0 } else {
/// mask }`.
///
/// vQS does not call it: it scans through [`scan_group`], over `u32`
/// slices. This lane loop exists only for the benchmark's
/// `simd.qs_mask_ns` metric, until a change to the benchmark retires
/// both. Its `isa` argument selects nothing: every level runs this one
/// loop, so the metric's per-ISA readings time the same code.
pub fn mask_step(_isa: Isa, xf: &[f32; LANES], threshold: f32, mask: u64, dst: &mut [u64; LANES]) {
    for (&x, dst) in xf.iter().zip(dst) {
        *dst &= if x <= threshold { u64::MAX } else { mask };
    }
}

/// The auto-vectorizable lane loop: clear `left` from the lanes whose
/// node test `x <= threshold` is false, which a NaN lane's is, so NaN goes
/// right as in per-tree traversal.
#[inline]
fn clear_lanes(xf: &[f32; LANES], threshold: f32, left: u32, dst: &mut [u32; LANES]) {
    for lane in 0..LANES {
        let keep = if xf[lane] <= threshold { !0 } else { !left };
        dst[lane] &= keep;
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The group kernel. Private: callable only through the dispatch
    //! wrapper above (enforced by dlr-lint's `SIMD_TARGET_FEATURE` rule).

    use super::{ConditionTable, MAX_GROUP};
    use crate::LANES;
    use core::arch::x86_64::*;

    /// AVX2 condition scan of one group of `R · 8` lanes: the lane loop
    /// of `scan_group_lanes` with the lanes in `R` ymm of `f32` and each
    /// slice's bitvectors in `R` ymm of `u32`. Each condition's threshold,
    /// slice and left-subtree bits are loaded and broadcast once and
    /// applied to all `R` registers. The early exit compares the maximum
    /// over all the group's lanes (NaN when one is), as the lane loop
    /// does, so both stop every list at the same condition.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available, `leafidx` is
    /// `table.num_slices · R · LANES` words, and `lane_rows[l] + f <
    /// rows.len()` for every lane `l < R · LANES` and feature `f`.
    #[target_feature(enable = "avx2")]
    unsafe fn scan_group_impl<const R: usize>(
        table: &ConditionTable,
        rows: &[f32],
        lane_rows: &[usize; MAX_GROUP],
        leafidx: &mut [u32],
    ) {
        let offsets = table.feat_offsets.as_ptr();
        let thresholds = table.thresholds.as_ptr();
        let slices = table.slices.as_ptr();
        let left_leaves = table.left_leaves.as_ptr();
        let rows = rows.as_ptr();
        let leafidx = leafidx.as_mut_ptr();
        let mut x = [_mm256_setzero_ps(); R];
        for f in 0..table.feat_offsets.len() - 1 {
            // `maxps` returns its second operand when the first is NaN,
            // so NaN lanes never reach `max`; `nan` flags them instead.
            let mut max = _mm256_set1_ps(f32::NEG_INFINITY);
            let mut nan = _mm256_setzero_ps();
            for (r, x) in x.iter_mut().enumerate() {
                let lane = |l: usize| *rows.add(lane_rows[r * LANES + l] + f);
                *x = _mm256_setr_ps(
                    lane(0),
                    lane(1),
                    lane(2),
                    lane(3),
                    lane(4),
                    lane(5),
                    lane(6),
                    lane(7),
                );
                max = _mm256_max_ps(*x, max);
                nan = _mm256_or_ps(nan, _mm256_cmp_ps::<_CMP_UNORD_Q>(*x, *x));
            }
            let max_xf = if _mm256_movemask_ps(nan) == 0 {
                horizontal_max(max)
            } else {
                f32::NAN
            };
            for c in *offsets.add(f)..*offsets.add(f + 1) {
                let threshold = *thresholds.add(c);
                if max_xf <= threshold {
                    break;
                }
                let dst = leafidx
                    .add(*slices.add(c) as usize * R * LANES)
                    .cast::<__m256i>();
                let threshold = _mm256_set1_ps(threshold);
                let left = _mm256_set1_epi32(*left_leaves.add(c) as i32);
                for (r, &x) in x.iter().enumerate() {
                    let right = _mm256_cmp_ps::<_CMP_NLE_UQ>(x, threshold);
                    clear(dst.add(r), _mm256_castps_si256(right), left);
                }
            }
        }
    }

    /// `*dst &= !(right & left)`: clear the left-subtree bits in the lanes
    /// that go right.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and `dst` is readable and
    /// writable for 32 bytes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn clear(dst: *mut __m256i, right: __m256i, left: __m256i) {
        let bits = _mm256_loadu_si256(dst);
        _mm256_storeu_si256(
            dst,
            _mm256_andnot_si256(_mm256_and_si256(right, left), bits),
        );
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

    /// Dispatch-table entry for the group kernel at `R` registers a slice.
    ///
    /// # Safety
    /// Same contract as [`scan_group_impl`].
    pub(super) unsafe fn scan_group_avx2<const R: usize>(
        table: &ConditionTable,
        rows: &[f32],
        lane_rows: &[usize; MAX_GROUP],
        leafidx: &mut [u32],
    ) {
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { scan_group_impl::<R>(table, rows, lane_rows, leafidx) }
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
            let expect = if xf[lane] <= 0.5 { u64::MAX } else { 0b0110 };
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
            // NaN <= t is false even at t = +inf: every lane goes right
            // and takes the mask, as traversal sends NaN right.
            let got = run(isa, xf, f32::INFINITY, 0x00FF, [0xABCD; 8]);
            assert_eq!(got, [0x00CD; 8], "{isa}");
        }
    }

    /// The top bit of a slice word.
    const TOP: u32 = 1 << 31;

    /// Two slices over two features; the left-subtree bits use the top
    /// bit of the word, so a kernel that mishandled the sign bit would
    /// show. The last threshold is +inf, which only a NaN value fails.
    fn table() -> ConditionTable {
        ConditionTable::new(
            2,
            vec![0, 3, 6],
            vec![-1.0, 0.0, 0.0, 0.5, 2.0, f32::INFINITY],
            vec![0, 1, 0, 1, 0, 0],
            vec![0b1, TOP, 0b10, TOP, 0b100, 0b1000],
        )
    }

    /// Scan `rows` (documents of 2 features) as one group over
    /// [`table`], every bitvector armed all ones; `got[s * lanes + l]`.
    fn scan(isa: Isa, rows: &[f32]) -> Vec<u32> {
        let t = table();
        let lanes = (rows.len() / 2).div_ceil(LANES) * LANES;
        let mut leafidx = vec![u32::MAX; 2 * lanes];
        scan_group(isa, &t, rows, &mut leafidx);
        leafidx
    }

    /// The ISA levels this host runs, scalar first.
    fn supported_isas() -> impl Iterator<Item = Isa> {
        Isa::ALL.into_iter().filter(|&isa| dispatch::supported(isa))
    }

    /// Groups of 1 to 32 documents, so one to four registers a slice and
    /// every tail: every level reads the scalar lane loop's bits, spare
    /// lanes repeat the last document, and each lane reads what its
    /// document scanned alone does, so where a group's walk stops moves
    /// no bit.
    #[test]
    fn group_scan_is_bit_identical_on_every_path() {
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
        for docs in 1..=MAX_GROUP {
            // Mixed values, then one document that exceeds every threshold
            // among documents that exit every list at once, at each lane.
            let mixed = (0..values.len()).map(|shift| {
                (0..2 * docs)
                    .map(|i| values[(i * 7 + shift) % values.len()])
                    .collect::<Vec<f32>>()
            });
            let hot = (0..docs).map(|hot| {
                (0..2 * docs)
                    .map(|i| if i / 2 == hot { 3.0 } else { -2.0 })
                    .collect::<Vec<f32>>()
            });
            for rows in mixed.chain(hot) {
                let want = scan(Isa::Scalar, &rows);
                let lanes = want.len() / 2;
                for s in 0..2 {
                    for l in 0..lanes {
                        let d = l.min(docs - 1);
                        let alone = scan(Isa::Scalar, &rows[2 * d..2 * d + 2]);
                        assert_eq!(
                            want[s * lanes + l],
                            alone[s * LANES],
                            "docs={docs} lane {l}"
                        );
                    }
                }
                for isa in supported_isas() {
                    assert_eq!(want, scan(isa, &rows), "{isa} docs={docs}");
                }
            }
        }
    }

    /// Each lane of groups of one to four registers, with and without a
    /// tail, on every level, holds the bits the definition gives its
    /// document.
    #[test]
    fn group_scan_applies_the_definition() {
        // (document, slice 0, slice 1): one exceeds every finite threshold,
        // one none, one sits on the thresholds (`x <= t` true), one is +inf
        // and one NaN, which goes right at every node, +inf's included.
        let cases = [
            ([5.0, 5.0], !0b111, !TOP),
            ([-5.0, -5.0], u32::MAX, u32::MAX),
            ([0.0, 0.5], !0b1, u32::MAX),
            ([f32::INFINITY; 2], !0b111, !TOP),
            ([f32::NAN, f32::NAN], !0b1111, !TOP),
        ];
        for docs in [1, 2, 3, 8, 13, 16, 22, 24, 29, 32] {
            for shift in 0..cases.len() {
                let case = |d: usize| cases[(d + shift) % cases.len()];
                let rows: Vec<f32> = (0..docs).flat_map(|d| case(d).0).collect();
                for isa in supported_isas() {
                    let got = scan(isa, &rows);
                    let lanes = got.len() / 2;
                    for d in 0..docs {
                        let (_, s0, s1) = case(d);
                        let lane = (got[d], got[lanes + d]);
                        assert_eq!(lane, (s0, s1), "{isa} docs={docs} lane {d}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "1 to 32 whole documents")]
    fn groups_reject_more_than_four_registers() {
        let t = table();
        let mut leafidx = vec![0; 2 * (MAX_GROUP + LANES)];
        scan_group(Isa::Scalar, &t, &[0.0; 2 * (MAX_GROUP + 1)], &mut leafidx);
    }

    #[test]
    #[should_panic(expected = "outside the forest")]
    fn tables_reject_slice_ids_past_the_forest() {
        ConditionTable::new(1, vec![0, 1], vec![0.0], vec![1], vec![1]);
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn tables_reject_offsets_past_the_conditions() {
        ConditionTable::new(1, vec![0, 2], vec![0.0], vec![0], vec![1]);
    }
}
