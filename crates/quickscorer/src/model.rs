//! The single-word QuickScorer encoding and scorer (trees ≤ 64 leaves).

use dlr_gbdt::Ensemble;

/// Errors building a QuickScorer encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QsError {
    /// A tree has more than 64 leaves; use
    /// [`WideQuickScorer`](crate::WideQuickScorer).
    TooManyLeaves {
        /// Leaf count of the offending tree.
        leaves: usize,
    },
    /// The ensemble has no trees.
    EmptyEnsemble,
}

impl std::fmt::Display for QsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QsError::TooManyLeaves { leaves } => write!(
                f,
                "tree has {leaves} leaves; single-word QuickScorer supports at most 64"
            ),
            QsError::EmptyEnsemble => write!(f, "cannot encode an empty ensemble"),
        }
    }
}

impl std::error::Error for QsError {}

/// One decision node in the feature-wise condition lists.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Condition {
    pub threshold: f32,
    pub tree: u32,
    pub mask: u64,
}

/// QuickScorer encoding of a tree ensemble (all trees ≤ 64 leaves).
#[derive(Debug, Clone)]
pub struct QuickScorer {
    num_features: usize,
    num_trees: usize,
    base_score: f32,
    /// CSR over features: conditions of feature `f` are
    /// `conditions[feat_offsets[f]..feat_offsets[f+1]]`, thresholds
    /// ascending.
    feat_offsets: Vec<usize>,
    conditions: Vec<Condition>,
    /// Per-tree start into `leaf_values`.
    leaf_offsets: Vec<usize>,
    leaf_values: Vec<f32>,
    /// All-ones initial bitvector per tree (`(1 << leaves) - 1`).
    init_mask: Vec<u64>,
}

impl QuickScorer {
    /// Encode an ensemble.
    ///
    /// # Errors
    /// [`QsError::TooManyLeaves`] when any tree exceeds 64 leaves;
    /// [`QsError::EmptyEnsemble`] when there are no trees.
    pub fn compile(ensemble: &Ensemble) -> Result<QuickScorer, QsError> {
        if ensemble.num_trees() == 0 {
            return Err(QsError::EmptyEnsemble);
        }
        let num_features = ensemble.num_features();
        let mut per_feature: Vec<Vec<Condition>> = vec![Vec::new(); num_features];
        let mut leaf_offsets = Vec::with_capacity(ensemble.num_trees() + 1);
        let mut leaf_values = Vec::new();
        let mut init_mask = Vec::with_capacity(ensemble.num_trees());

        for (tree_id, tree) in ensemble.trees().iter().enumerate() {
            let leaves = tree.num_leaves();
            if leaves > 64 {
                return Err(QsError::TooManyLeaves { leaves });
            }
            leaf_offsets.push(leaf_values.len());
            leaf_values.extend_from_slice(tree.leaf_values());
            init_mask.push(ones(leaves));
            let layout = tree.layout();
            for (node, (feature, threshold)) in tree.splits().enumerate() {
                let (start, end) = layout.left_leaf_range[node];
                // Zero the left-subtree leaves: they are unreachable when
                // the node's test `x <= threshold` is false (x is greater
                // or NaN).
                let mask = !(ones(end - start) << start);
                per_feature[feature as usize].push(Condition {
                    threshold,
                    tree: tree_id as u32,
                    mask,
                });
            }
        }
        leaf_offsets.push(leaf_values.len());

        let mut feat_offsets = Vec::with_capacity(num_features + 1);
        let mut conditions = Vec::new();
        for mut list in per_feature {
            list.sort_by(|a, b| a.threshold.total_cmp(&b.threshold));
            feat_offsets.push(conditions.len());
            conditions.extend_from_slice(&list);
        }
        feat_offsets.push(conditions.len());

        Ok(QuickScorer {
            num_features,
            num_trees: ensemble.num_trees(),
            base_score: ensemble.base_score(),
            feat_offsets,
            conditions,
            leaf_offsets,
            leaf_values,
            init_mask,
        })
    }

    /// Expected feature count per document.
    #[inline]
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of trees encoded.
    #[inline]
    pub fn num_trees(&self) -> usize {
        self.num_trees
    }

    /// Total number of encoded decision nodes.
    pub fn num_conditions(&self) -> usize {
        self.conditions.len()
    }

    /// Borrow the feature-wise condition lists (for block construction).
    #[allow(clippy::type_complexity)]
    pub(crate) fn parts(&self) -> (&[usize], &[Condition], &[usize], &[f32], &[u64], f32) {
        (
            &self.feat_offsets,
            &self.conditions,
            &self.leaf_offsets,
            &self.leaf_values,
            &self.init_mask,
            self.base_score,
        )
    }

    /// Score one document using a caller-provided working buffer of at
    /// least `num_trees` words (no allocation on the hot path).
    ///
    /// # Panics
    /// Panics when `x.len() != num_features()` or the buffer is short.
    pub fn score_with(&self, x: &[f32], leafidx: &mut [u64]) -> f32 {
        assert_eq!(x.len(), self.num_features, "feature count mismatch");
        let leafidx = &mut leafidx[..self.num_trees];
        leafidx.copy_from_slice(&self.init_mask);
        for (f, &xf) in x.iter().enumerate() {
            let list = &self.conditions[self.feat_offsets[f]..self.feat_offsets[f + 1]];
            for cond in list {
                if xf <= cond.threshold {
                    // Thresholds ascend: every later test is true too.
                    break;
                }
                // The test is false, NaN included: traversal goes right.
                leafidx[cond.tree as usize] &= cond.mask;
            }
        }
        let mut score = self.base_score;
        for (t, &bits) in leafidx.iter().enumerate() {
            debug_assert_ne!(bits, 0, "at least one leaf must survive");
            let leaf = bits.trailing_zeros() as usize;
            score += self.leaf_values[self.leaf_offsets[t] + leaf];
        }
        score
    }

    /// Score one document, allocating a scratch buffer.
    pub fn score(&self, x: &[f32]) -> f32 {
        let mut buf = vec![0u64; self.num_trees];
        self.score_with(x, &mut buf)
    }

    /// Score a row-major batch (`n × num_features`) into `out`.
    ///
    /// # Panics
    /// Panics when the shapes disagree.
    pub fn score_batch(&self, features: &[f32], out: &mut [f32]) {
        assert_eq!(
            features.len(),
            out.len() * self.num_features,
            "batch shape mismatch"
        );
        let mut buf = vec![0u64; self.num_trees];
        for (row, o) in features.chunks_exact(self.num_features).zip(out.iter_mut()) {
            *o = self.score_with(row, &mut buf);
        }
    }
}

/// Low `n` bits set (`n <= 64`).
#[inline]
pub(crate) fn ones(n: usize) -> u64 {
    debug_assert!(n <= 64);
    if n == 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{random_docs, random_ensemble};

    #[test]
    fn matches_classic_traversal_small() {
        let e = random_ensemble(5, 4, 8, 1);
        let qs = QuickScorer::compile(&e).unwrap();
        let docs = random_docs(200, 4, 2);
        for row in docs.chunks_exact(4) {
            assert_eq!(e.predict(row).to_bits(), qs.score(row).to_bits());
        }
    }

    #[test]
    fn matches_classic_traversal_64_leaves() {
        let e = random_ensemble(30, 10, 64, 3);
        let qs = QuickScorer::compile(&e).unwrap();
        let docs = random_docs(100, 10, 4);
        for row in docs.chunks_exact(10) {
            assert_eq!(e.predict(row).to_bits(), qs.score(row).to_bits());
        }
    }

    #[test]
    fn boundary_values_agree_with_le_semantics() {
        // Values exactly at thresholds must take the left branch in both
        // implementations.
        let e = random_ensemble(10, 3, 16, 5);
        let qs = QuickScorer::compile(&e).unwrap();
        // Probe documents whose coordinates equal actual thresholds.
        let thresholds: Vec<f32> = e
            .trees()
            .iter()
            .flat_map(|t| t.splits().map(|(_, t)| t))
            .take(30)
            .collect();
        for &t in &thresholds {
            let row = vec![t; 3];
            assert_eq!(e.predict(&row).to_bits(), qs.score(&row).to_bits());
        }
    }

    #[test]
    fn batch_matches_single() {
        let e = random_ensemble(8, 5, 32, 7);
        let qs = QuickScorer::compile(&e).unwrap();
        let docs = random_docs(64, 5, 8);
        let mut out = vec![0.0f32; 64];
        qs.score_batch(&docs, &mut out);
        for (row, &o) in docs.chunks_exact(5).zip(&out) {
            assert_eq!(o, qs.score(row));
        }
    }

    #[test]
    fn rejects_wide_trees() {
        let e = random_ensemble(2, 3, 80, 9);
        if e.max_leaves() > 64 {
            assert!(matches!(
                QuickScorer::compile(&e),
                Err(QsError::TooManyLeaves { .. })
            ));
        } else {
            // Random growth may stay under 64; force the error path with a
            // guaranteed-wide ensemble.
            let wide = random_ensemble(1, 3, 100, 10);
            if wide.max_leaves() > 64 {
                assert!(QuickScorer::compile(&wide).is_err());
            }
        }
    }

    #[test]
    fn rejects_empty_ensemble() {
        let e = Ensemble::new(3, 0.0);
        assert_eq!(QuickScorer::compile(&e).err(), Some(QsError::EmptyEnsemble));
    }

    #[test]
    fn condition_count_equals_internal_nodes() {
        let e = random_ensemble(6, 4, 16, 11);
        let qs = QuickScorer::compile(&e).unwrap();
        let internal: usize = e.trees().iter().map(|t| t.num_internal()).sum();
        assert_eq!(qs.num_conditions(), internal);
    }

    #[test]
    fn ones_helper() {
        assert_eq!(ones(0), 0);
        assert_eq!(ones(1), 1);
        assert_eq!(ones(3), 0b111);
        assert_eq!(ones(64), u64::MAX);
    }
}
