#![forbid(unsafe_code)]
//! QuickScorer: fast interleaved traversal of tree ensembles (§2.2).
//!
//! QuickScorer (Lucchese et al., SIGIR'15) replaces per-tree root-to-leaf
//! traversal with a *feature-wise* scan over all decision nodes of the
//! whole forest:
//!
//! * every tree's leaves are numbered left-to-right and represented by a
//!   bitvector `leafidx`, initially all ones;
//! * every internal node carries a *mask* with zeros on the leaves of its
//!   left subtree — the leaves that become unreachable when the node's
//!   test `x[f] <= γ` is **false**;
//! * for each feature, the forest's thresholds are sorted ascending; the
//!   scan ANDs masks while `x[f] <= γ` is false and stops at the first
//!   `x[f] <= γ` (every later threshold would also test true). A NaN
//!   feature tests false at every node, so it goes right, as per-tree
//!   traversal sends it, and its scan never stops early;
//! * after all features, the exit leaf of each tree is the first
//!   surviving (lowest-index) bit of its `leafidx`.
//!
//! The cost is proportional to the number of *false* nodes — around 30% of
//! the forest on real models, versus the ~80% visited by classic
//! traversal — and the data structures are scanned sequentially, which is
//! exactly the branch-predictor- and cache-friendliness the paper credits
//! for tree ensembles' CPU advantage.
//!
//! Variants implemented here, mirroring the paper's description:
//!
//! * [`QuickScorer`] — single-`u64` masks for trees with ≤ 64 leaves;
//! * [`WideQuickScorer`] — multi-word masks for larger trees (the paper
//!   notes QS degrades here; Table 5's 256-leaf teachers need it);
//! * [`BlockwiseQuickScorer`] — BWQS: the forest is partitioned into
//!   blocks sized for cache residency, each scored over the whole
//!   document batch before moving on;
//! * [`vectorized`] — vQS-style scoring of up to
//!   [`GROUP`](vectorized::GROUP) = 32 documents per scan: the paper's
//!   vQS holds 8 documents in an AVX2 register, this one up to four such
//!   registers a tree.

pub mod blockwise;
pub mod model;
#[cfg(test)]
pub(crate) mod testutil;
pub mod vectorized;
pub mod wide;

pub use blockwise::BlockwiseQuickScorer;
pub use model::{QsError, QuickScorer};
pub use vectorized::VectorizedQuickScorer;
pub use wide::WideQuickScorer;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_docs;
    use dlr_data::SyntheticConfig;
    use dlr_gbdt::{GrowthParams, MartParams, MartTrainer};

    /// QS, vQS and wide QS start from the base score and add the trees in
    /// order, as traversal does, so they agree with it bit for bit — also
    /// on a MART forest, whose base score (the target mean) is not zero.
    #[test]
    fn every_variant_equals_traversal_bit_for_bit_on_a_mart_forest() {
        let mut cfg = SyntheticConfig::msn30k_like(40);
        cfg.docs_per_query = 30;
        cfg.num_features = 12;
        cfg.num_informative = 6;
        let data = cfg.generate();
        let targets: Vec<f32> = data.labels().iter().map(|&l| l * 0.75 + 0.1).collect();
        let forest = MartTrainer::new(MartParams {
            num_trees: 50,
            growth: GrowthParams {
                max_leaves: 16,
                min_data_in_leaf: 5,
                ..GrowthParams::default()
            },
            ..MartParams::default()
        })
        .fit(&data, &targets);
        assert!(forest.base_score() > 0.5, "base {}", forest.base_score());

        let mut rows = data.features().to_vec();
        rows.extend(random_docs(101, 12, 7));
        let n = rows.len() / 12;
        let mut want = vec![0.0f32; n];
        forest.predict_batch(&rows, &mut want);
        let mut got = vec![vec![0.0f32; n]; 3];
        QuickScorer::compile(&forest)
            .unwrap()
            .score_batch(&rows, &mut got[0]);
        VectorizedQuickScorer::compile(&forest)
            .unwrap()
            .score_batch(&rows, &mut got[1]);
        WideQuickScorer::compile(&forest)
            .unwrap()
            .score_batch(&rows, &mut got[2]);
        for (name, got) in ["qs", "vqs", "wide"].into_iter().zip(&got) {
            let differ = got
                .iter()
                .zip(&want)
                .filter(|(g, w)| g.to_bits() != w.to_bits())
                .count();
            assert_eq!(differ, 0, "{name}: {differ} of {n} documents differ");
        }
    }
}
