//! Vectorized QuickScorer (vQS): score several documents per scan.
//!
//! §2.2: "scoring is vectorized using AVX2 instructions and 256-bit
//! registers, allowing to process up to 8 documents at a time". The
//! traversal state becomes one `leafidx` word per (slice, document-lane)
//! pair; each threshold is compared against all lanes at once and the
//! node's left-subtree leaves are cleared in the lanes that exceed it. The
//! scan of a feature's condition list stops only when *no* lane exceeds
//! the threshold — the vectorized analogue of the scalar break.
//!
//! Every tree is cut into ⌈leaves / 32⌉ *slices* of 32 leaves, each one
//! `u32` bitvector word, so 8 lanes of a slice fill one 256-bit register
//! (the paper's layout) at any leaf count. A node's left subtree is one
//! contiguous range of leaves ([`TreeLayout::left_leaf_range`]), so its
//! condition becomes one entry per slice the range touches, each with the
//! node's feature and threshold and that slice's part of the bits. The
//! entries share the threshold, so each feature's list stays sorted and
//! the early exit is unchanged. A tree of at most 32 leaves is one slice
//! with one entry per node: the scalar [`QuickScorer`]'s encoding. A
//! tree's exit leaf is the lowest set bit of its first non-zero slice.
//!
//! [`QuickScorer`]: crate::QuickScorer
//! [`TreeLayout::left_leaf_range`]: dlr_gbdt::tree::TreeLayout::left_leaf_range
//!
//! The conditions are stored once, as `dlr-simd`'s structure-of-arrays
//! [`ConditionTable`], and each group of up to [`GROUP`] = 32 documents is
//! one call of [`dlr_simd::qs::scan_group`]: an AVX2 kernel at
//! [`Isa::Avx2`] that holds a slice's lanes in one to four registers and
//! pays each condition's scalar work (threshold, slice, left-subtree bits,
//! early-exit test) once for all of them, the portable lane loop at every
//! other level. A batch is scanned in full groups of 32 and then one group
//! of the remaining documents rounded up to 8 lanes, so a batch of 8 or
//! fewer documents scans 8 lanes; a group's spare lanes repeat its last
//! document and are never read. Leaf selection is exact bit logic and
//! every lane adds the base score and then the trees in order, so every
//! level produces **bit-identical** scores, equal to per-tree traversal.

use crate::QsError;
use dlr_gbdt::Ensemble;
use dlr_simd::qs::{scan_group, ConditionTable, MAX_GROUP};
use dlr_simd::{Isa, LANES};

/// Most documents scored per scan: four registers of 8 lanes per slice.
pub const GROUP: usize = MAX_GROUP;

/// Leaves per slice: the bits of one `u32` bitvector word.
const SLICE: usize = u32::BITS as usize;

/// vQS-style scorer: a QuickScorer encoding over 32-leaf slices, driven up
/// to [`GROUP`] documents at a time.
#[derive(Debug, Clone)]
pub struct VectorizedQuickScorer {
    num_features: usize,
    base_score: f32,
    /// Per-tree start into `leaf_values`.
    leaf_offsets: Vec<usize>,
    leaf_values: Vec<f32>,
    /// Per-tree start into the slices, then the slice count.
    slice_offsets: Vec<usize>,
    conditions: ConditionTable,
    /// All-ones initial bitvector per slice: one bit per leaf it holds.
    init_mask: Vec<u32>,
}

impl VectorizedQuickScorer {
    /// Encode an ensemble of trees with any number of leaves.
    ///
    /// # Errors
    /// [`QsError::EmptyEnsemble`] when the ensemble has no trees.
    pub fn compile(ensemble: &Ensemble) -> Result<VectorizedQuickScorer, QsError> {
        if ensemble.num_trees() == 0 {
            return Err(QsError::EmptyEnsemble);
        }
        let num_features = ensemble.num_features();
        // (threshold, slice, left-subtree bits), in tree and node order.
        let mut per_feature: Vec<Vec<(f32, u32, u32)>> = vec![Vec::new(); num_features];
        let mut leaf_offsets = Vec::with_capacity(ensemble.num_trees());
        let mut leaf_values = Vec::new();
        let mut slice_offsets = Vec::with_capacity(ensemble.num_trees() + 1);
        let mut init_mask = Vec::new();
        for tree in ensemble.trees() {
            let first = init_mask.len();
            slice_offsets.push(first);
            leaf_offsets.push(leaf_values.len());
            leaf_values.extend_from_slice(tree.leaf_values());
            init_mask.extend(slice_bits(0, tree.num_leaves()));
            let layout = tree.layout();
            for ((feature, threshold), &(start, end)) in tree.splits().zip(&layout.left_leaf_range)
            {
                // The left subtree's leaves are unreachable when the node's
                // test `x <= threshold` is false (x is greater or NaN):
                // clear them in every slice they lie in.
                for (s, left) in slice_bits(start, end).enumerate() {
                    if left != 0 {
                        per_feature[feature as usize].push((threshold, (first + s) as u32, left));
                    }
                }
            }
        }
        slice_offsets.push(init_mask.len());

        let mut feat_offsets = Vec::with_capacity(num_features + 1);
        let (mut thresholds, mut slices, mut left_leaves) = (Vec::new(), Vec::new(), Vec::new());
        for mut list in per_feature {
            list.sort_by(|a, b| a.0.total_cmp(&b.0));
            feat_offsets.push(thresholds.len());
            for (threshold, slice, left) in list {
                thresholds.push(threshold);
                slices.push(slice);
                left_leaves.push(left);
            }
        }
        feat_offsets.push(thresholds.len());

        Ok(VectorizedQuickScorer {
            num_features,
            base_score: ensemble.base_score(),
            leaf_offsets,
            leaf_values,
            slice_offsets,
            conditions: ConditionTable::new(
                init_mask.len(),
                feat_offsets,
                thresholds,
                slices,
                left_leaves,
            ),
            init_mask,
        })
    }

    /// Expected feature count.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.leaf_offsets.len()
    }

    /// Number of encoded conditions: one per decision node and slice its
    /// left subtree lies in.
    pub fn num_conditions(&self) -> usize {
        self.conditions.num_conditions()
    }

    /// Score a row-major batch into `out`, up to [`GROUP`] documents per
    /// pass.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn score_batch(&self, features: &[f32], out: &mut [f32]) {
        // One dispatch decision per batch (a relaxed atomic load).
        self.score_batch_with_isa(dlr_simd::active(), features, out);
    }

    /// [`Self::score_batch`] with the ISA level handed to the group scan
    /// chosen by the caller — exposed (doc-hidden) so the equivalence
    /// suite and the benchmark can sweep the levels without touching the
    /// process-wide state.
    #[doc(hidden)]
    pub fn score_batch_with_isa(&self, isa: Isa, features: &[f32], out: &mut [f32]) {
        assert_eq!(
            features.len(),
            out.len() * self.num_features,
            "batch shape mismatch"
        );
        let nf = self.num_features;
        let num_slices = self.init_mask.len();
        // leafidx[s * lanes + lane], `lanes` the group's lane count.
        let most_lanes = out.len().min(GROUP).next_multiple_of(LANES);
        let mut leafidx = vec![0u32; num_slices * most_lanes];
        for (g, out_group) in out.chunks_mut(GROUP).enumerate() {
            let first = g * GROUP;
            let rows = &features[first * nf..(first + out_group.len()) * nf];
            let lanes = out_group.len().next_multiple_of(LANES);
            let leafidx = &mut leafidx[..num_slices * lanes];
            // Re-arm every lane's bitvectors.
            for (slice_lanes, &init) in leafidx.chunks_exact_mut(lanes).zip(&self.init_mask) {
                slice_lanes.fill(init);
            }
            scan_group(isa, &self.conditions, rows, leafidx);
            out_group.fill(self.base_score);
            let ends = self.slice_offsets.iter().skip(1);
            for ((&start, &end), &base_off) in
                self.slice_offsets.iter().zip(ends).zip(&self.leaf_offsets)
            {
                let (first, later) = leafidx[start * lanes..end * lanes].split_at(lanes);
                // A group's spare lanes are never read.
                for (l, (o, &bits)) in out_group.iter_mut().zip(first).enumerate() {
                    let leaf = match bits {
                        0 => later_exit_leaf(later, lanes, l),
                        bits => bits.trailing_zeros() as usize,
                    };
                    *o += self.leaf_values[base_off + leaf];
                }
            }
        }
    }
}

/// The bits of leaves `start..end` in each slice from the tree's first up
/// to the one that holds leaf `end - 1`: slice `s` holds leaves
/// `32 s..32 (s + 1)`, leaf `32 s + i` at bit `i`.
fn slice_bits(start: usize, end: usize) -> impl Iterator<Item = u32> {
    // Low `n` bits set, `n <= 32`.
    let low = |n: usize| ((1u64 << n) - 1) as u32;
    (0..end.div_ceil(SLICE)).map(move |s| {
        let (lo, hi) = (s * SLICE, (s + 1) * SLICE);
        low(end.clamp(lo, hi) - lo) & !low(start.clamp(lo, hi) - lo)
    })
}

/// Lane `l`'s exit leaf in a tree whose first slice kept no bit: the
/// lowest set bit of its first non-zero slice among `later`, the tree's
/// further slices, `lanes` words each. The tree's rightmost leaf is in no
/// left subtree, so some slice keeps a bit.
#[cold]
fn later_exit_leaf(later: &[u32], lanes: usize, l: usize) -> usize {
    let (mut word, mut first_leaf) = (l, SLICE);
    while later[word] == 0 {
        word += lanes;
        first_leaf += SLICE;
    }
    first_leaf + later[word].trailing_zeros() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{random_docs, random_ensemble};
    use crate::QuickScorer;
    use dlr_gbdt::tree::leaf_ref;
    use dlr_gbdt::RegressionTree;

    #[test]
    fn matches_scalar_on_aligned_batches() {
        let e = random_ensemble(15, 6, 32, 41);
        let scalar = QuickScorer::compile(&e).unwrap();
        let v = VectorizedQuickScorer::compile(&e).unwrap();
        let docs = random_docs(64, 6, 42);
        let mut expect = vec![0.0f32; 64];
        let mut got = vec![0.0f32; 64];
        scalar.score_batch(&docs, &mut expect);
        v.score_batch(&docs, &mut got);
        assert_eq!(expect, got);
    }

    #[test]
    fn matches_scalar_on_ragged_batches() {
        let e = random_ensemble(9, 4, 16, 43);
        let scalar = QuickScorer::compile(&e).unwrap();
        let v = VectorizedQuickScorer::compile(&e).unwrap();
        for n in [1usize, 3, 7, 8, 9, 13, 17] {
            let docs = random_docs(n, 4, 44 + n as u64);
            let mut expect = vec![0.0f32; n];
            let mut got = vec![0.0f32; n];
            scalar.score_batch(&docs, &mut expect);
            v.score_batch(&docs, &mut got);
            assert_eq!(expect, got, "batch size {n}");
        }
    }

    #[test]
    fn early_exit_is_lane_safe() {
        // Documents engineered so lanes exit the condition scan at very
        // different points: one lane with huge values (never exits early),
        // one with tiny values (exits immediately).
        let e = random_ensemble(6, 3, 8, 45);
        let v = VectorizedQuickScorer::compile(&e).unwrap();
        let scalar = QuickScorer::compile(&e).unwrap();
        let mut docs = vec![0.0f32; 8 * 3];
        for lane in 0..8 {
            let v = match lane {
                0 => 1e6,
                1 => -1e6,
                _ => (lane as f32 - 4.0) * 0.3,
            };
            for f in 0..3 {
                docs[lane * 3 + f] = v;
            }
        }
        let mut expect = vec![0.0f32; 8];
        let mut got = vec![0.0f32; 8];
        scalar.score_batch(&docs, &mut expect);
        v.score_batch(&docs, &mut got);
        assert_eq!(expect, got);
    }

    /// Every leaf count is cut into slices and scores as traversal does,
    /// bit for bit; a forest of trees of at most 32 leaves is encoded with
    /// one condition per node, a larger one with one more per slice
    /// boundary a left subtree crosses.
    #[test]
    fn slices_hold_every_leaf_count() {
        for (max_leaves, seed) in [(8, 46), (32, 47), (40, 48), (64, 49), (65, 50), (256, 51)] {
            let e = random_ensemble(20, 4, max_leaves, seed);
            let v = VectorizedQuickScorer::compile(&e).unwrap();
            let crossings: usize = e
                .trees()
                .iter()
                .flat_map(|t| t.layout().left_leaf_range)
                .map(|(start, end)| (end - 1) / SLICE - start / SLICE)
                .sum();
            let internal: usize = e.trees().iter().map(|t| t.num_internal()).sum();
            assert_eq!(v.num_conditions(), internal + crossings);
            if e.max_leaves() <= 32 {
                assert_eq!(crossings, 0);
            }
            let docs = random_docs(71, 4, seed);
            let mut got = vec![0.0f32; 71];
            v.score_batch(&docs, &mut got);
            for (row, g) in docs.chunks_exact(4).zip(&got) {
                assert_eq!(g.to_bits(), e.predict(row).to_bits(), "{max_leaves}");
            }
        }
    }

    /// A 64-leaf tree over one feature whose leaf `i` holds `x` in
    /// `(i − 0.5, i + 0.5]` and scores `i`. Its root splits leaves 0..40
    /// from 40..64, so the root's left subtree crosses leaf 32: the root is
    /// encoded in both slices.
    fn staircase() -> RegressionTree {
        #[derive(Default)]
        struct Flat {
            feature: Vec<u32>,
            threshold: Vec<f32>,
            left: Vec<i32>,
            right: Vec<i32>,
            values: Vec<f32>,
        }
        // Leaves `lo..hi`, split at `mid`, pre-order with leaves in order.
        fn grow(t: &mut Flat, lo: usize, hi: usize, mid: usize) -> i32 {
            if hi - lo == 1 {
                t.values.push(lo as f32);
                return leaf_ref(t.values.len() - 1);
            }
            let me = t.feature.len();
            t.feature.push(0);
            t.threshold.push(mid as f32 - 0.5);
            t.left.push(0);
            t.right.push(0);
            t.left[me] = grow(t, lo, mid, lo + (mid - lo) / 2);
            t.right[me] = grow(t, mid, hi, mid + (hi - mid) / 2);
            me as i32
        }
        let mut t = Flat::default();
        grow(&mut t, 0, 64, 40);
        RegressionTree::from_raw(t.feature, t.threshold, t.left, t.right, t.values)
    }

    #[test]
    fn a_root_across_the_slice_boundary_and_exits_in_the_second_slice() {
        let tree = staircase();
        assert_eq!(tree.layout().left_leaf_range[0], (0, 40));
        let mut e = Ensemble::new(1, 0.25);
        e.push(tree);
        let v = VectorizedQuickScorer::compile(&e).unwrap();
        // 63 nodes, and once more for the second slice the root (left
        // leaves 0..40) and the node over leaves 30..40 (left 30..35).
        assert_eq!(v.num_conditions(), 65);
        assert_eq!(v.init_mask, [u32::MAX, u32::MAX]);
        // Every leaf's document, NaN (the rightmost leaf) and -inf (the
        // leftmost): exit leaves on both sides of leaf 32 in one group.
        let mut docs: Vec<f32> = (0..64).map(|i| i as f32).collect();
        docs.extend([f32::NAN, f32::NEG_INFINITY, f32::INFINITY]);
        for isa in Isa::ALL {
            let mut got = vec![0.0f32; docs.len()];
            v.score_batch_with_isa(isa, &docs, &mut got);
            for (x, g) in docs.iter().zip(&got) {
                assert_eq!(g.to_bits(), e.predict(&[*x]).to_bits(), "{isa} x={x}");
            }
            assert_eq!(got[40], 40.25, "{isa}");
            assert_eq!(got[64], 63.25, "{isa}");
        }
    }

    #[test]
    fn slice_bits_split_a_range_at_each_boundary() {
        let bits = |start, end| slice_bits(start, end).collect::<Vec<u32>>();
        assert_eq!(bits(0, 3), [0b111]);
        assert_eq!(bits(0, 32), [u32::MAX]);
        assert_eq!(bits(0, 33), [u32::MAX, 1]);
        assert_eq!(bits(30, 34), [0b11 << 30, 0b11]);
        assert_eq!(bits(32, 64), [0, u32::MAX]);
        assert_eq!(bits(62, 66), [0, 0b11 << 30, 0b11]);
    }

    #[test]
    fn propagates_compile_errors() {
        let e = dlr_gbdt::Ensemble::new(2, 0.0);
        assert!(matches!(
            VectorizedQuickScorer::compile(&e),
            Err(QsError::EmptyEnsemble)
        ));
    }
}
