//! Vectorized QuickScorer (vQS): score several documents per scan.
//!
//! §2.2: "scoring is vectorized using AVX2 instructions and 256-bit
//! registers, allowing to process up to 8 documents at a time". The
//! traversal state becomes one `leafidx` word per (tree, document-lane)
//! pair; each threshold is compared against all lanes at once and the
//! mask is ANDed into the lanes that test false. The scan of a feature's
//! condition list stops only when *every* lane has hit its early-exit
//! point — the vectorized analogue of the scalar break.
//!
//! The 8-lane comparison and conditional AND is `dlr-simd`'s mask step
//! ([`dlr_simd::qs::mask_step`]): a lane loop the compiler vectorizes,
//! the same code at every [`Isa`] level, so every level produces
//! **bit-identical** scores.

use crate::model::QuickScorer;
use crate::QsError;
use dlr_gbdt::Ensemble;
use dlr_simd::Isa;

/// Number of documents processed per scan (mirrors AVX2's 8 × f32).
pub const LANES: usize = 8;

// The lane blocking below is exactly what the dlr-simd mask step
// consumes; keep the widths in lock-step.
const _: () = assert!(LANES == dlr_simd::LANES);

/// vQS-style scorer: a [`QuickScorer`] encoding driven 8 documents at a
/// time.
#[derive(Debug, Clone)]
pub struct VectorizedQuickScorer {
    inner: QuickScorer,
}

impl VectorizedQuickScorer {
    /// Encode an ensemble (same constraints as [`QuickScorer::compile`]).
    ///
    /// # Errors
    /// Propagates [`QsError`] from the underlying encoding.
    pub fn compile(ensemble: &Ensemble) -> Result<VectorizedQuickScorer, QsError> {
        Ok(VectorizedQuickScorer {
            inner: QuickScorer::compile(ensemble)?,
        })
    }

    /// Expected feature count.
    pub fn num_features(&self) -> usize {
        self.inner.num_features()
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.inner.num_trees()
    }

    /// Score a row-major batch into `out`, [`LANES`] documents per pass;
    /// the ragged tail falls back to scalar scoring.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn score_batch(&self, features: &[f32], out: &mut [f32]) {
        // One dispatch decision per batch (a relaxed atomic load).
        self.score_batch_with_isa(dlr_simd::active(), features, out);
    }

    /// [`Self::score_batch`] with the ISA level handed to the mask step
    /// chosen by the caller — exposed (doc-hidden) so the equivalence
    /// suite and the benchmark can sweep the levels without touching the
    /// process-wide state.
    #[doc(hidden)]
    pub fn score_batch_with_isa(&self, isa: Isa, features: &[f32], out: &mut [f32]) {
        let nf = self.inner.num_features();
        assert_eq!(features.len(), out.len() * nf, "batch shape mismatch");
        let (feat_offsets, conditions, leaf_offsets, leaf_values, init_mask, base) =
            self.inner.parts();
        let nt = self.inner.num_trees();
        // leafidx[t * LANES + lane]
        let mut leafidx = vec![0u64; nt * LANES];
        let full_groups = out.len() / LANES;

        for g in 0..full_groups {
            let rows = &features[g * LANES * nf..(g + 1) * LANES * nf];
            // Re-arm every lane's bitvectors.
            for t in 0..nt {
                let init = init_mask[t];
                for lane in 0..LANES {
                    leafidx[t * LANES + lane] = init;
                }
            }
            for f in 0..nf {
                // Gather the 8 lane values of feature f.
                let mut xf = [0.0f32; LANES];
                for (lane, x) in xf.iter_mut().enumerate() {
                    *x = rows[lane * nf + f];
                }
                let max_xf = xf.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                for cond in &conditions[feat_offsets[f]..feat_offsets[f + 1]] {
                    if max_xf <= cond.threshold {
                        // Every lane tests true from here on.
                        break;
                    }
                    // Always-Some: `cond.tree < nt` by construction, so the
                    // group slice is at least LANES long.
                    let group = &mut leafidx[cond.tree as usize * LANES..];
                    if let Some(dst) = group.first_chunk_mut::<LANES>() {
                        // Branch-free lane select: AND with the mask when
                        // the lane's test is false, with all-ones otherwise.
                        dlr_simd::qs::mask_step(isa, &xf, cond.threshold, cond.mask, dst);
                    }
                }
            }
            let out_group = &mut out[g * LANES..(g + 1) * LANES];
            out_group.fill(base);
            for t in 0..nt {
                let lanes = &leafidx[t * LANES..t * LANES + LANES];
                let base_off = leaf_offsets[t];
                for (o, &bits) in out_group.iter_mut().zip(lanes) {
                    *o += leaf_values[base_off + bits.trailing_zeros() as usize];
                }
            }
        }

        // Ragged tail: scalar path.
        let tail_start = full_groups * LANES;
        if tail_start < out.len() {
            let mut buf = vec![0u64; nt];
            for (row, o) in features[tail_start * nf..]
                .chunks_exact(nf)
                .zip(out[tail_start..].iter_mut())
            {
                *o = self.inner.score_with(row, &mut buf);
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
    fn propagates_compile_errors() {
        let e = dlr_gbdt::Ensemble::new(2, 0.0);
        assert!(VectorizedQuickScorer::compile(&e).is_err());
    }
}
