//! Additive ensembles of regression trees.
//!
//! The model object produced by MART/LambdaMART training and consumed by
//! QuickScorer and the distillation pipeline. The learning rate is folded
//! into leaf values at append time, so prediction is a plain sum over
//! trees and the QuickScorer encoding needs no extra scaling.

use crate::tree::RegressionTree;

/// An additive ensemble: `score(x) = base + Σ_t tree_t(x)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Ensemble {
    base_score: f32,
    trees: Vec<RegressionTree>,
    num_features: usize,
}

impl Ensemble {
    /// Empty ensemble expecting `num_features` input features.
    pub fn new(num_features: usize, base_score: f32) -> Ensemble {
        Ensemble {
            base_score,
            trees: Vec::new(),
            num_features,
        }
    }

    /// Append a tree with its leaf values scaled by `learning_rate`.
    pub fn push_scaled(&mut self, mut tree: RegressionTree, learning_rate: f32) {
        for v in tree.leaf_values_mut() {
            *v *= learning_rate;
        }
        self.trees.push(tree);
    }

    /// Append a tree as-is.
    pub fn push(&mut self, tree: RegressionTree) {
        self.trees.push(tree);
    }

    /// Drop all trees after the first `n` (for early stopping: keep the
    /// best validation iteration).
    pub fn truncate(&mut self, n: usize) {
        self.trees.truncate(n);
    }

    /// Trees in the ensemble.
    #[inline]
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// Number of trees.
    #[inline]
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Expected input feature count.
    #[inline]
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Base (prior) score added to every prediction.
    #[inline]
    pub fn base_score(&self) -> f32 {
        self.base_score
    }

    /// Maximum leaf count over all trees — decides whether QuickScorer
    /// can use single-word (≤ 64 leaves) bitvectors.
    pub fn max_leaves(&self) -> usize {
        self.trees.iter().map(|t| t.num_leaves()).max().unwrap_or(0)
    }

    /// Score a single document by classic per-tree traversal.
    ///
    /// The sum starts from the base score and adds the trees in order —
    /// the order every QuickScorer variant adds them in, so they agree bit
    /// for bit at any base score.
    pub fn predict(&self, x: &[f32]) -> f32 {
        debug_assert_eq!(x.len(), self.num_features);
        self.trees
            .iter()
            .fold(self.base_score, |score, t| score + t.predict(x))
    }

    /// Score a row-major batch (`n × num_features`) into `out`.
    ///
    /// # Panics
    /// Panics when the buffer shapes disagree.
    pub fn predict_batch(&self, features: &[f32], out: &mut [f32]) {
        assert_eq!(
            features.len(),
            out.len() * self.num_features,
            "batch shape mismatch"
        );
        for (row, o) in features.chunks_exact(self.num_features).zip(out.iter_mut()) {
            *o = self.predict(row);
        }
    }

    /// All split points of a feature across the ensemble, sorted and
    /// deduplicated — the lists the distillation augmentation builds (§3).
    pub fn split_points(&self, feature: usize) -> Vec<f32> {
        let mut pts: Vec<f32> = self
            .trees
            .iter()
            .flat_map(|t| t.splits())
            .filter(|&(f, _)| f as usize == feature)
            .map(|(_, t)| t)
            .filter(|t| t.is_finite())
            .collect();
        pts.sort_by(|a, b| a.partial_cmp(b).expect("finite thresholds"));
        pts.dedup();
        pts
    }

    /// Total number of leaves across all trees.
    pub fn total_leaves(&self) -> usize {
        self.trees.iter().map(|t| t.num_leaves()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::leaf_ref;

    fn stump(feature: u32, threshold: f32, left: f32, right: f32) -> RegressionTree {
        RegressionTree::from_raw(
            vec![feature],
            vec![threshold],
            vec![leaf_ref(0)],
            vec![leaf_ref(1)],
            vec![left, right],
        )
    }

    #[test]
    fn additive_prediction() {
        let mut e = Ensemble::new(2, 0.5);
        e.push(stump(0, 1.0, 1.0, 2.0));
        e.push(stump(1, 0.0, 10.0, 20.0));
        assert_eq!(e.predict(&[0.5, -1.0]), 0.5 + 1.0 + 10.0);
        assert_eq!(e.predict(&[2.0, 1.0]), 0.5 + 2.0 + 20.0);
    }

    #[test]
    fn learning_rate_folded_into_leaves() {
        let mut e = Ensemble::new(1, 0.0);
        e.push_scaled(stump(0, 0.0, -4.0, 4.0), 0.25);
        assert_eq!(e.predict(&[-1.0]), -1.0);
        assert_eq!(e.predict(&[1.0]), 1.0);
    }

    #[test]
    fn batch_matches_single() {
        let mut e = Ensemble::new(2, 0.0);
        e.push(stump(0, 0.5, 1.0, 2.0));
        let batch = [0.0f32, 0.0, 1.0, 0.0];
        let mut out = [0.0f32; 2];
        e.predict_batch(&batch, &mut out);
        assert_eq!(out[0], e.predict(&[0.0, 0.0]));
        assert_eq!(out[1], e.predict(&[1.0, 0.0]));
    }

    #[test]
    fn split_points_sorted_dedup() {
        let mut e = Ensemble::new(1, 0.0);
        e.push(stump(0, 2.0, 0.0, 0.0));
        e.push(stump(0, 1.0, 0.0, 0.0));
        e.push(stump(0, 2.0, 0.0, 0.0));
        assert_eq!(e.split_points(0), vec![1.0, 2.0]);
        assert!(e.split_points(5).is_empty());
    }

    #[test]
    fn truncate_for_early_stopping() {
        let mut e = Ensemble::new(1, 0.0);
        for i in 0..5 {
            e.push(stump(0, 0.0, i as f32, i as f32));
        }
        e.truncate(2);
        assert_eq!(e.num_trees(), 2);
        assert_eq!(e.predict(&[0.0]), 0.0 + 1.0);
    }

    #[test]
    fn stats() {
        let mut e = Ensemble::new(1, 0.0);
        e.push(stump(0, 0.0, 0.0, 0.0));
        e.push(RegressionTree::constant(1.0));
        assert_eq!(e.max_leaves(), 2);
        assert_eq!(e.total_leaves(), 3);
    }
}
