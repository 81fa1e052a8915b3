//! Vectorized QuickScorer (vQS): score several documents per scan.
//!
//! §2.2: "scoring is vectorized using AVX2 instructions and 256-bit
//! registers, allowing to process up to 8 documents at a time". The
//! traversal state becomes one `leafidx` word per (tree, document-lane)
//! pair; each threshold is compared against all lanes at once and the
//! node's left-subtree leaves are cleared in the lanes that exceed it. The
//! scan of a feature's condition list stops only when *no* lane exceeds
//! the threshold — the vectorized analogue of the scalar break.
//!
//! The word is the narrowest that holds the forest's widest tree: `u32`
//! for trees of at most 32 leaves, so one 256-bit register holds 8 lanes
//! of a tree (the paper's layout), `u64` up to 64. The conditions are
//! stored once, as `dlr-simd`'s structure-of-arrays [`ConditionTable`],
//! and each group of up to [`GROUP`] = 32 documents is one call of
//! [`dlr_simd::qs::scan_group`]: an AVX2 kernel at [`Isa::Avx2`] that
//! holds a tree's lanes in one to four registers and pays each
//! condition's scalar work (threshold, tree, left-subtree bits, early-exit
//! test) once for all of them, the portable lane loop at every other
//! level. A batch is scanned in full groups of 32 and then one group of
//! the remaining documents rounded up to 8 lanes, so a batch of 8 or fewer
//! documents scans 8 lanes; a group's spare lanes repeat its last
//! document and are never read. Leaf selection is exact bit logic and
//! every lane adds the base score and then the trees in order, so every
//! level produces **bit-identical** scores, equal to per-tree traversal.

use crate::model::QuickScorer;
use crate::QsError;
use dlr_gbdt::Ensemble;
use dlr_simd::qs::{scan_group, ConditionTable, LeafWord, MAX_GROUP};
use dlr_simd::{Isa, LANES};

/// Most documents scored per scan: four registers of 8 lanes per tree.
/// It holds at both leaf words. A `u64` tree's 32 lanes take twice the
/// registers and cache of a `u32` tree's, yet a 100 × 64-leaf forest
/// scored as fast in groups of 32 as of 24, and slower in groups of 16.
pub const GROUP: usize = MAX_GROUP;

/// vQS-style scorer: a QuickScorer encoding driven up to [`GROUP`]
/// documents at a time.
#[derive(Debug, Clone)]
pub struct VectorizedQuickScorer {
    num_features: usize,
    base_score: f32,
    /// Per-tree start into `leaf_values`, then its length.
    leaf_offsets: Vec<usize>,
    leaf_values: Vec<f32>,
    words: Words,
}

/// The conditions and initial bitvectors at the forest's leaf word.
#[derive(Debug, Clone)]
enum Words {
    /// Every tree has at most 32 leaves.
    Narrow(Encoding<u32>),
    /// Some tree has 33 to 64 leaves.
    Wide(Encoding<u64>),
}

#[derive(Debug, Clone)]
struct Encoding<W> {
    conditions: ConditionTable<W>,
    /// All-ones initial bitvector per tree (`(1 << leaves) - 1`).
    init_mask: Vec<W>,
}

impl<W: LeafWord> Encoding<W> {
    /// Re-encode a QuickScorer's conditions in structure-of-arrays form.
    fn new(qs: &QuickScorer) -> Encoding<W> {
        let (feat_offsets, conditions, _, _, init_mask, _) = qs.parts();
        Encoding {
            conditions: ConditionTable::new(
                qs.num_trees(),
                feat_offsets.to_vec(),
                conditions.iter().map(|c| c.threshold).collect(),
                conditions.iter().map(|c| c.tree).collect(),
                // A tree's leaves fit the word, so its left-subtree bits
                // and initial bitvector survive the truncation.
                conditions
                    .iter()
                    .map(|c| W::from_low_bits(!c.mask))
                    .collect(),
            ),
            init_mask: init_mask.iter().map(|&m| W::from_low_bits(m)).collect(),
        }
    }
}

impl VectorizedQuickScorer {
    /// Encode an ensemble (same constraints as [`QuickScorer::compile`]).
    ///
    /// # Errors
    /// Propagates [`QsError`] from the underlying encoding.
    pub fn compile(ensemble: &Ensemble) -> Result<VectorizedQuickScorer, QsError> {
        let qs = QuickScorer::compile(ensemble)?;
        let words = if ensemble.max_leaves() <= 32 {
            Words::Narrow(Encoding::new(&qs))
        } else {
            Words::Wide(Encoding::new(&qs))
        };
        let (_, _, leaf_offsets, leaf_values, _, base_score) = qs.parts();
        Ok(VectorizedQuickScorer {
            num_features: qs.num_features(),
            base_score,
            leaf_offsets: leaf_offsets.to_vec(),
            leaf_values: leaf_values.to_vec(),
            words,
        })
    }

    /// Expected feature count.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.leaf_offsets.len() - 1
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
        match &self.words {
            Words::Narrow(e) => self.score_groups(isa, e, features, out),
            Words::Wide(e) => self.score_groups(isa, e, features, out),
        }
    }

    fn score_groups<W: LeafWord>(
        &self,
        isa: Isa,
        enc: &Encoding<W>,
        features: &[f32],
        out: &mut [f32],
    ) {
        let nf = self.num_features;
        // leafidx[t * lanes + lane], `lanes` the group's lane count.
        let most_lanes = out.len().min(GROUP).next_multiple_of(LANES);
        let mut leafidx = vec![W::default(); enc.init_mask.len() * most_lanes];
        for (g, out_group) in out.chunks_mut(GROUP).enumerate() {
            let first = g * GROUP;
            let rows = &features[first * nf..(first + out_group.len()) * nf];
            let lanes = out_group.len().next_multiple_of(LANES);
            let leafidx = &mut leafidx[..enc.init_mask.len() * lanes];
            // Re-arm every lane's bitvectors.
            for (tree_lanes, &init) in leafidx.chunks_exact_mut(lanes).zip(&enc.init_mask) {
                tree_lanes.fill(init);
            }
            scan_group(isa, &enc.conditions, rows, leafidx);
            out_group.fill(self.base_score);
            for (tree_lanes, &base_off) in leafidx.chunks_exact(lanes).zip(&self.leaf_offsets) {
                // A group's spare lanes are never read.
                for (o, &bits) in out_group.iter_mut().zip(tree_lanes) {
                    *o += self.leaf_values[base_off + bits.to_u64().trailing_zeros() as usize];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{random_docs, random_ensemble};

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

    #[test]
    fn picks_the_narrowest_word_that_holds_every_tree() {
        for (max_leaves, seed) in [(8, 46), (32, 47), (40, 48), (64, 49)] {
            let e = random_ensemble(20, 4, max_leaves, seed);
            let v = VectorizedQuickScorer::compile(&e).unwrap();
            let wide = matches!(v.words, Words::Wide(_));
            assert_eq!(wide, e.max_leaves() > 32, "{} leaves", e.max_leaves());
            let scalar = QuickScorer::compile(&e).unwrap();
            let docs = random_docs(21, 4, seed);
            let mut expect = vec![0.0f32; 21];
            let mut got = vec![0.0f32; 21];
            scalar.score_batch(&docs, &mut expect);
            v.score_batch(&docs, &mut got);
            assert_eq!(expect, got, "{} leaves", e.max_leaves());
        }
    }

    #[test]
    fn propagates_compile_errors() {
        let e = dlr_gbdt::Ensemble::new(2, 0.0);
        assert!(VectorizedQuickScorer::compile(&e).is_err());
    }
}
