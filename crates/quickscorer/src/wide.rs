//! Multi-word QuickScorer for trees with more than 64 leaves.
//!
//! When `|leaves| > 64` the bitvector AND "cannot be carried out in just
//! one CPU instruction, hampering efficiency" (§2.2) — which is exactly
//! why the paper's 256-leaf teachers are ~4x slower to traverse and are
//! only used offline as distillation teachers. This variant keeps the
//! QuickScorer algorithm but stores masks as runs of `W` 64-bit words
//! (`W = ceil(max_leaves / 64)`), so the slowdown is observable rather
//! than hidden.

use crate::model::ones;
use crate::QsError;
use dlr_gbdt::Ensemble;

/// One decision node with a `words`-wide mask stored out-of-line.
#[derive(Debug, Clone, Copy)]
struct WideCondition {
    threshold: f32,
    tree: u32,
    /// Start of this node's mask in the flat mask pool.
    mask_start: u32,
}

/// QuickScorer encoding with multi-word leaf bitvectors.
#[derive(Debug, Clone)]
pub struct WideQuickScorer {
    num_features: usize,
    num_trees: usize,
    base_score: f32,
    /// Words per bitvector.
    words: usize,
    feat_offsets: Vec<usize>,
    conditions: Vec<WideCondition>,
    /// All condition masks, concatenated (`words` each).
    mask_pool: Vec<u64>,
    /// Initial all-ones bitvectors, one run of `words` per tree.
    init_masks: Vec<u64>,
    leaf_offsets: Vec<usize>,
    leaf_values: Vec<f32>,
}

impl WideQuickScorer {
    /// Encode an ensemble of trees with any number of leaves.
    ///
    /// # Errors
    /// [`QsError::EmptyEnsemble`] when the ensemble has no trees.
    pub fn compile(ensemble: &Ensemble) -> Result<WideQuickScorer, QsError> {
        if ensemble.num_trees() == 0 {
            return Err(QsError::EmptyEnsemble);
        }
        let words = ensemble.max_leaves().div_ceil(64).max(1);
        let num_features = ensemble.num_features();
        let mut per_feature: Vec<Vec<(WideCondition, Vec<u64>)>> = vec![Vec::new(); num_features];
        let mut init_masks = Vec::with_capacity(ensemble.num_trees() * words);
        let mut leaf_offsets = Vec::with_capacity(ensemble.num_trees() + 1);
        let mut leaf_values = Vec::new();

        for (tree_id, tree) in ensemble.trees().iter().enumerate() {
            leaf_offsets.push(leaf_values.len());
            leaf_values.extend_from_slice(tree.leaf_values());
            init_masks.extend_from_slice(&wide_ones(tree.num_leaves(), words));
            let layout = tree.layout();
            for (node, (feature, threshold)) in tree.splits().enumerate() {
                let (start, end) = layout.left_leaf_range[node];
                let mask = wide_left_mask(start, end, words);
                per_feature[feature as usize].push((
                    WideCondition {
                        threshold,
                        tree: tree_id as u32,
                        mask_start: 0,
                    },
                    mask,
                ));
            }
        }
        leaf_offsets.push(leaf_values.len());

        let mut feat_offsets = Vec::with_capacity(num_features + 1);
        let mut conditions = Vec::new();
        let mut mask_pool = Vec::new();
        for mut list in per_feature {
            list.sort_by(|a, b| a.0.threshold.total_cmp(&b.0.threshold));
            feat_offsets.push(conditions.len());
            for (mut cond, mask) in list {
                cond.mask_start = mask_pool.len() as u32;
                mask_pool.extend_from_slice(&mask);
                conditions.push(cond);
            }
        }
        feat_offsets.push(conditions.len());

        Ok(WideQuickScorer {
            num_features,
            num_trees: ensemble.num_trees(),
            base_score: ensemble.base_score(),
            words,
            feat_offsets,
            conditions,
            mask_pool,
            init_masks,
            leaf_offsets,
            leaf_values,
        })
    }

    /// Words per bitvector (`ceil(max_leaves / 64)`).
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// Expected feature count.
    #[inline]
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of trees.
    #[inline]
    pub fn num_trees(&self) -> usize {
        self.num_trees
    }

    /// Score one document with a caller buffer of `num_trees * words`
    /// words.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn score_with(&self, x: &[f32], leafidx: &mut [u64]) -> f32 {
        assert_eq!(x.len(), self.num_features, "feature count mismatch");
        let w = self.words;
        let leafidx = &mut leafidx[..self.num_trees * w];
        leafidx.copy_from_slice(&self.init_masks);
        for (f, &xf) in x.iter().enumerate() {
            for cond in &self.conditions[self.feat_offsets[f]..self.feat_offsets[f + 1]] {
                if xf <= cond.threshold {
                    break;
                }
                // The test is false, NaN included: traversal goes right.
                let m = cond.mask_start as usize;
                let mask = &self.mask_pool[m..m + w];
                let dst = &mut leafidx[cond.tree as usize * w..(cond.tree as usize + 1) * w];
                for (d, &mw) in dst.iter_mut().zip(mask) {
                    *d &= mw;
                }
            }
        }
        let mut score = self.base_score;
        for t in 0..self.num_trees {
            let bits = &leafidx[t * w..(t + 1) * w];
            // Mask construction guarantees at least one surviving leaf per
            // tree; a tree whose bitvector somehow emptied contributes
            // nothing rather than aborting the whole batch.
            let Some(leaf) = first_set_bit(bits) else {
                debug_assert!(false, "at least one leaf survives per tree");
                continue;
            };
            score += self.leaf_values[self.leaf_offsets[t] + leaf];
        }
        score
    }

    /// Score one document, allocating scratch space.
    pub fn score(&self, x: &[f32]) -> f32 {
        let mut buf = vec![0u64; self.num_trees * self.words];
        self.score_with(x, &mut buf)
    }

    /// Score a row-major batch into `out`.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn score_batch(&self, features: &[f32], out: &mut [f32]) {
        assert_eq!(
            features.len(),
            out.len() * self.num_features,
            "batch shape mismatch"
        );
        let mut buf = vec![0u64; self.num_trees * self.words];
        for (row, o) in features.chunks_exact(self.num_features).zip(out.iter_mut()) {
            *o = self.score_with(row, &mut buf);
        }
    }
}

/// All-ones bitvector for `n` leaves over `words` words.
fn wide_ones(n: usize, words: usize) -> Vec<u64> {
    let mut v = vec![0u64; words];
    let full = n / 64;
    for w in v.iter_mut().take(full) {
        *w = u64::MAX;
    }
    if full < words {
        v[full] = ones(n % 64);
    }
    v
}

/// Mask zeroing leaf positions `[start, end)`.
fn wide_left_mask(start: usize, end: usize, words: usize) -> Vec<u64> {
    let mut v = vec![u64::MAX; words];
    for (pos, w) in v.iter_mut().enumerate() {
        let lo = pos * 64;
        let hi = lo + 64;
        let s = start.max(lo);
        let e = end.min(hi);
        if s < e {
            *w &= !(ones(e - s) << (s - lo));
        }
    }
    v
}

/// Position of the lowest set bit across words.
#[inline]
fn first_set_bit(words: &[u64]) -> Option<usize> {
    for (i, &w) in words.iter().enumerate() {
        if w != 0 {
            return Some(i * 64 + w.trailing_zeros() as usize);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{random_docs, random_ensemble};
    use crate::QuickScorer;

    #[test]
    fn matches_classic_traversal_beyond_64_leaves() {
        let e = random_ensemble(12, 6, 200, 21);
        assert!(e.max_leaves() > 64, "test needs wide trees");
        let qs = WideQuickScorer::compile(&e).unwrap();
        assert!(qs.words() >= 2);
        let docs = random_docs(150, 6, 22);
        for row in docs.chunks_exact(6) {
            assert_eq!(e.predict(row).to_bits(), qs.score(row).to_bits());
        }
    }

    #[test]
    fn agrees_with_narrow_quickscorer_on_narrow_trees() {
        let e = random_ensemble(10, 4, 32, 23);
        let narrow = QuickScorer::compile(&e).unwrap();
        let wide = WideQuickScorer::compile(&e).unwrap();
        assert_eq!(wide.words(), 1);
        let docs = random_docs(80, 4, 24);
        for row in docs.chunks_exact(4) {
            assert_eq!(narrow.score(row), wide.score(row));
        }
    }

    #[test]
    fn batch_matches_single() {
        let e = random_ensemble(5, 3, 150, 25);
        let qs = WideQuickScorer::compile(&e).unwrap();
        let docs = random_docs(40, 3, 26);
        let mut out = vec![0.0f32; 40];
        qs.score_batch(&docs, &mut out);
        for (row, &o) in docs.chunks_exact(3).zip(&out) {
            assert_eq!(o, qs.score(row));
        }
    }

    #[test]
    fn wide_ones_and_masks() {
        assert_eq!(wide_ones(64, 1), vec![u64::MAX]);
        assert_eq!(wide_ones(65, 2), vec![u64::MAX, 1]);
        assert_eq!(wide_ones(3, 2), vec![0b111, 0]);
        // Zero leaves 62..66 across the word boundary.
        let m = wide_left_mask(62, 66, 2);
        assert_eq!(m[0], !(0b11u64 << 62));
        assert_eq!(m[1], !0b11u64);
    }

    #[test]
    fn first_set_bit_spans_words() {
        assert_eq!(first_set_bit(&[0, 0b100]), Some(66));
        assert_eq!(first_set_bit(&[1, 0]), Some(0));
        assert_eq!(first_set_bit(&[0, 0]), None);
    }

    #[test]
    fn rejects_empty() {
        let e = dlr_gbdt::Ensemble::new(2, 0.0);
        assert!(matches!(
            WideQuickScorer::compile(&e),
            Err(QsError::EmptyEnsemble)
        ));
    }
}
