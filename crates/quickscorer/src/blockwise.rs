//! Block-Wise QuickScorer (BWQS).
//!
//! §2.2: "the forest is partitioned into blocks of trees fitting the L3
//! cache, reducing the cache-miss ratio". Each block is an independent
//! QuickScorer encoding; a batch of documents is scored block after block,
//! so one block's condition lists and leaf tables stay cache-resident
//! while the whole batch streams through them, instead of the full
//! forest's structures being evicted between documents.

use crate::model::QuickScorer;
use crate::QsError;
use dlr_gbdt::{Ensemble, RegressionTree};

/// BWQS: a partition of the forest into cache-sized QuickScorer blocks.
#[derive(Debug, Clone)]
pub struct BlockwiseQuickScorer {
    blocks: Vec<QuickScorer>,
    base_score: f32,
    num_features: usize,
    num_trees: usize,
}

impl BlockwiseQuickScorer {
    /// Encode `ensemble` into blocks of at most `trees_per_block` trees.
    ///
    /// The paper sizes blocks to the L3 cache; callers can derive
    /// `trees_per_block` from a byte budget with
    /// [`Self::trees_for_budget`].
    ///
    /// # Errors
    /// Same conditions as [`QuickScorer::compile`], plus
    /// [`QsError::EmptyEnsemble`] when `trees_per_block == 0`.
    pub fn compile(
        ensemble: &Ensemble,
        trees_per_block: usize,
    ) -> Result<BlockwiseQuickScorer, QsError> {
        if ensemble.num_trees() == 0 || trees_per_block == 0 {
            return Err(QsError::EmptyEnsemble);
        }
        let mut blocks = Vec::new();
        for chunk in ensemble.trees().chunks(trees_per_block) {
            // Sub-ensembles carry no base score; it is added once at the end.
            let mut sub = Ensemble::new(ensemble.num_features(), 0.0);
            for t in chunk {
                sub.push(t.clone());
            }
            blocks.push(QuickScorer::compile(&sub)?);
        }
        Ok(BlockwiseQuickScorer {
            blocks,
            base_score: ensemble.base_score(),
            num_features: ensemble.num_features(),
            num_trees: ensemble.num_trees(),
        })
    }

    /// Rough per-tree encoding footprint in bytes, used to size blocks to
    /// a cache budget: each internal node costs one condition (16 bytes
    /// with padding) and each leaf one `f32`.
    pub fn trees_for_budget(ensemble: &Ensemble, cache_bytes: usize) -> usize {
        let trees = ensemble.trees();
        if trees.is_empty() {
            return 1;
        }
        let per_tree: usize = trees
            .iter()
            .map(|t: &RegressionTree| t.num_internal() * 16 + t.num_leaves() * 4)
            .sum::<usize>()
            / trees.len();
        (cache_bytes / per_tree.max(1)).max(1)
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of trees across all blocks.
    pub fn num_trees(&self) -> usize {
        self.num_trees
    }

    /// Expected feature count.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Score a row-major batch (`n × num_features`) into `out`,
    /// block-by-block over the whole batch.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn score_batch(&self, features: &[f32], out: &mut [f32]) {
        assert_eq!(
            features.len(),
            out.len() * self.num_features,
            "batch shape mismatch"
        );
        let mut buf = Vec::new();
        self.score_chunk_with(features, out, &mut buf);
    }

    /// Score a document chunk with caller-owned leaf-index scratch — the
    /// per-chunk kernel of the parallel BWQS driver.
    ///
    /// `features` is the chunk's rows (`out.len() × num_features`); `buf`
    /// is grown to the largest block's tree count and reused across calls
    /// (per-thread in the parallel driver, so the hot loop never
    /// allocates). Each document's score is an independent sum over the
    /// same block sequence, so any tiling of a batch into chunks is
    /// **bit-identical** to [`Self::score_batch`] over the whole batch.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn score_chunk_with(&self, features: &[f32], out: &mut [f32], buf: &mut Vec<u64>) {
        assert_eq!(
            features.len(),
            out.len() * self.num_features,
            "batch shape mismatch"
        );
        out.fill(self.base_score);
        let max_trees = self.blocks.iter().map(|b| b.num_trees()).max().unwrap_or(0);
        if buf.len() < max_trees {
            buf.resize(max_trees, 0);
        }
        // Blocks outer, documents inner: one block's condition lists and
        // leaf tables stay cache-resident while the chunk streams through.
        for block in &self.blocks {
            for (row, o) in features.chunks_exact(self.num_features).zip(out.iter_mut()) {
                *o += block.score_with(row, buf);
            }
        }
    }

    /// Score a single document.
    pub fn score(&self, x: &[f32]) -> f32 {
        let mut out = [0.0f32];
        self.score_batch(x, &mut out);
        let [score] = out;
        score
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{random_docs, random_ensemble};

    #[test]
    fn matches_plain_quickscorer() {
        let e = random_ensemble(23, 5, 32, 31);
        let plain = QuickScorer::compile(&e).unwrap();
        let bw = BlockwiseQuickScorer::compile(&e, 7).unwrap();
        assert_eq!(bw.num_blocks(), 4); // ceil(23/7)
        let docs = random_docs(60, 5, 32);
        let mut expect = vec![0.0f32; 60];
        let mut got = vec![0.0f32; 60];
        plain.score_batch(&docs, &mut expect);
        bw.score_batch(&docs, &mut got);
        for (e, g) in expect.iter().zip(&got) {
            assert!((e - g).abs() < 1e-4, "expect {e} got {g}");
        }
    }

    #[test]
    fn base_score_added_exactly_once() {
        let e = random_ensemble(6, 3, 8, 33);
        let bw = BlockwiseQuickScorer::compile(&e, 2).unwrap();
        let docs = random_docs(5, 3, 34);
        for row in docs.chunks_exact(3) {
            assert!((bw.score(row) - e.predict(row)).abs() < 1e-5);
        }
    }

    #[test]
    fn one_block_degenerates_to_plain() {
        let e = random_ensemble(9, 4, 16, 35);
        let bw = BlockwiseQuickScorer::compile(&e, 100).unwrap();
        assert_eq!(bw.num_blocks(), 1);
        let docs = random_docs(10, 4, 36);
        for row in docs.chunks_exact(4) {
            assert!((bw.score(row) - e.predict(row)).abs() < 1e-5);
        }
    }

    #[test]
    fn chunked_scoring_is_bit_identical_to_whole_batch() {
        let e = random_ensemble(23, 5, 32, 51);
        let bw = BlockwiseQuickScorer::compile(&e, 7).unwrap();
        let docs = random_docs(60, 5, 52);
        let mut expect = vec![0.0f32; 60];
        bw.score_batch(&docs, &mut expect);
        for chunk in [1usize, 8, 13, 60] {
            let mut got = vec![f32::NAN; 60];
            let mut buf = Vec::new();
            let mut d0 = 0;
            while d0 < 60 {
                let docs_in = chunk.min(60 - d0);
                bw.score_chunk_with(
                    &docs[d0 * 5..(d0 + docs_in) * 5],
                    &mut got[d0..d0 + docs_in],
                    &mut buf,
                );
                d0 += docs_in;
            }
            assert_eq!(expect, got, "chunk={chunk}");
        }
        // Empty chunk is a no-op.
        bw.score_chunk_with(&[], &mut [], &mut Vec::new());
    }

    #[test]
    fn budget_sizing_is_positive_and_monotone() {
        let e = random_ensemble(20, 4, 32, 37);
        let small = BlockwiseQuickScorer::trees_for_budget(&e, 4 * 1024);
        let large = BlockwiseQuickScorer::trees_for_budget(&e, 4 * 1024 * 1024);
        assert!(small >= 1);
        assert!(large >= small);
    }

    #[test]
    fn zero_trees_per_block_rejected() {
        let e = random_ensemble(3, 2, 4, 38);
        assert!(matches!(
            BlockwiseQuickScorer::compile(&e, 0),
            Err(QsError::EmptyEnsemble)
        ));
    }
}
