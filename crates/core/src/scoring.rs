//! A uniform scorer interface over every model family in the comparison.
//!
//! Table 1 / Table 8 compare QuickScorer-traversed forests against dense
//! and hybrid neural networks. This module wraps each of them behind
//! [`DocumentScorer`] so the evaluation and timing harnesses treat them
//! identically. Scorers take `&mut self` so implementations can reuse
//! internal workspaces — keeping the hot path allocation-free, as the
//! paper's C++ implementations are.

use dlr_data::Normalizer;
use dlr_gbdt::Ensemble;
use dlr_nn::hybrid::HybridWorkspace;
use dlr_nn::{HybridMlp, Mlp, MlpWorkspace};
use dlr_quickscorer::{BlockwiseQuickScorer, QsError, QuickScorer, VectorizedQuickScorer};
use std::sync::Arc;

/// A named document scorer over raw (unnormalized) feature rows.
pub trait DocumentScorer {
    /// Features per document.
    fn num_features(&self) -> usize;

    /// Score a row-major `n × num_features` block into `out`.
    fn score_batch(&mut self, rows: &[f32], out: &mut [f32]);

    /// Human-readable model label for report tables.
    fn name(&self) -> String;
}

/// Classic per-tree traversal of an ensemble (the naive baseline).
pub struct EnsembleScorer {
    /// The wrapped ensemble.
    pub ensemble: Ensemble,
    label: String,
}

impl EnsembleScorer {
    /// Wrap an ensemble with a label.
    pub fn new(ensemble: Ensemble, label: impl Into<String>) -> EnsembleScorer {
        EnsembleScorer {
            ensemble,
            label: label.into(),
        }
    }
}

impl DocumentScorer for EnsembleScorer {
    fn num_features(&self) -> usize {
        self.ensemble.num_features()
    }

    fn score_batch(&mut self, rows: &[f32], out: &mut [f32]) {
        self.ensemble.predict_batch(rows, out);
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

/// Which QuickScorer variant a [`QuickScorerScorer`] runs.
enum QsVariant {
    Plain(QuickScorer, Vec<u64>),
    Blockwise(BlockwiseQuickScorer),
    Vectorized(VectorizedQuickScorer),
}

/// QuickScorer-traversed forest.
pub struct QuickScorerScorer {
    variant: QsVariant,
    num_features: usize,
    label: String,
    obs: Option<Arc<dlr_obs::Obs>>,
}

impl QuickScorerScorer {
    /// Single-word QuickScorer when every tree has at most 64 leaves, vQS
    /// (which cuts trees of any size into 32-leaf slices) when one is
    /// larger, as the paper's 256-leaf teachers are.
    ///
    /// # Errors
    /// [`QsError::EmptyEnsemble`] when the ensemble has no trees.
    pub fn try_compile(
        ensemble: &Ensemble,
        label: impl Into<String>,
    ) -> Result<QuickScorerScorer, QsError> {
        let nf = ensemble.num_features();
        let variant = if ensemble.max_leaves() <= 64 {
            let qs = QuickScorer::compile(ensemble)?;
            let nt = qs.num_trees();
            QsVariant::Plain(qs, vec![0u64; nt])
        } else {
            QsVariant::Vectorized(VectorizedQuickScorer::compile(ensemble)?)
        };
        Ok(QuickScorerScorer {
            variant,
            num_features: nf,
            label: label.into(),
            obs: None,
        })
    }

    /// Block-wise variant (BWQS) with the given trees per block.
    ///
    /// # Errors
    /// [`QsError`] when the ensemble cannot be encoded (empty, a tree of
    /// more than 64 leaves, or no trees per block).
    pub fn try_compile_blockwise(
        ensemble: &Ensemble,
        trees_per_block: usize,
        label: impl Into<String>,
    ) -> Result<QuickScorerScorer, QsError> {
        let bw = BlockwiseQuickScorer::compile(ensemble, trees_per_block)?;
        Ok(QuickScorerScorer {
            variant: QsVariant::Blockwise(bw),
            num_features: ensemble.num_features(),
            label: label.into(),
            obs: None,
        })
    }

    /// Vectorized multi-document variant (vQS), for trees of any size.
    ///
    /// # Errors
    /// [`QsError::EmptyEnsemble`] when the ensemble has no trees.
    pub fn try_compile_vectorized(
        ensemble: &Ensemble,
        label: impl Into<String>,
    ) -> Result<QuickScorerScorer, QsError> {
        let v = VectorizedQuickScorer::compile(ensemble)?;
        Ok(QuickScorerScorer {
            variant: QsVariant::Vectorized(v),
            num_features: ensemble.num_features(),
            label: label.into(),
            obs: None,
        })
    }

    /// Panicking convenience wrapper over [`Self::try_compile`] for model
    /// setup code and benchmarks, where an unencodable ensemble is a
    /// programming error.
    ///
    /// # Panics
    /// Panics when [`Self::try_compile`] errors.
    pub fn compile(ensemble: &Ensemble, label: impl Into<String>) -> QuickScorerScorer {
        Self::try_compile(ensemble, label).unwrap_or_else(|e| panic!("quickscorer compile: {e}"))
    }

    /// Panicking convenience wrapper over [`Self::try_compile_blockwise`].
    ///
    /// # Panics
    /// Panics when [`Self::try_compile_blockwise`] errors.
    pub fn compile_blockwise(
        ensemble: &Ensemble,
        trees_per_block: usize,
        label: impl Into<String>,
    ) -> QuickScorerScorer {
        Self::try_compile_blockwise(ensemble, trees_per_block, label)
            .unwrap_or_else(|e| panic!("blockwise compile: {e}"))
    }

    /// Panicking convenience wrapper over [`Self::try_compile_vectorized`].
    ///
    /// # Panics
    /// Panics when the ensemble has no trees.
    pub fn compile_vectorized(ensemble: &Ensemble, label: impl Into<String>) -> QuickScorerScorer {
        Self::try_compile_vectorized(ensemble, label).unwrap_or_else(|e| panic!("vQS compile: {e}"))
    }

    /// Record a `kernel-vqs` span — attributed to the dispatcher's
    /// current trace — around every batch scored through this wrapper.
    pub fn with_obs(mut self, obs: Arc<dlr_obs::Obs>) -> QuickScorerScorer {
        self.obs = Some(obs);
        self
    }
}

impl DocumentScorer for QuickScorerScorer {
    fn num_features(&self) -> usize {
        self.num_features
    }

    fn score_batch(&mut self, rows: &[f32], out: &mut [f32]) {
        let _scope = self
            .obs
            .as_deref()
            .map(|o| o.scope(dlr_obs::Stage::KernelVqs));
        match &mut self.variant {
            QsVariant::Plain(qs, buf) => {
                for (row, o) in rows.chunks_exact(self.num_features).zip(out.iter_mut()) {
                    *o = qs.score_with(row, buf);
                }
            }
            QsVariant::Blockwise(qs) => qs.score_batch(rows, out),
            QsVariant::Vectorized(qs) => qs.score_batch(rows, out),
        }
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

/// Dense MLP over Z-normalized features.
pub struct MlpScorer {
    /// The network (expects normalized inputs).
    pub mlp: Mlp,
    normalizer: Normalizer,
    ws: MlpWorkspace,
    norm_buf: Vec<f32>,
    label: String,
    obs: Option<Arc<dlr_obs::Obs>>,
}

impl MlpScorer {
    /// Wrap a trained student and its normalizer. The model is frozen for
    /// serving, so its weight panels are pre-packed here once.
    pub fn new(mut mlp: Mlp, normalizer: Normalizer, label: impl Into<String>) -> MlpScorer {
        if !mlp.weights_packed() {
            mlp.pack_weights();
        }
        MlpScorer {
            mlp,
            normalizer,
            ws: MlpWorkspace::default(),
            norm_buf: Vec::new(),
            label: label.into(),
            obs: None,
        }
    }

    /// Record a `kernel-gemm` span — attributed to the dispatcher's
    /// current trace — around every batch scored through this wrapper.
    pub fn with_obs(mut self, obs: Arc<dlr_obs::Obs>) -> MlpScorer {
        self.obs = Some(obs);
        self
    }
}

impl DocumentScorer for MlpScorer {
    fn num_features(&self) -> usize {
        self.mlp.input_dim()
    }

    fn score_batch(&mut self, rows: &[f32], out: &mut [f32]) {
        let _scope = self
            .obs
            .as_deref()
            .map(|o| o.scope(dlr_obs::Stage::KernelGemm));
        self.norm_buf.clear();
        self.norm_buf.extend_from_slice(rows);
        self.normalizer.apply_matrix(&mut self.norm_buf);
        self.mlp.score_batch_with(&self.norm_buf, out, &mut self.ws);
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

/// Hybrid (sparse first layer) MLP over Z-normalized features — the
/// paper's winning configuration.
///
/// The batch is normalized in the pass that packs it for the first layer,
/// and only in the features the frozen network reads
/// ([`HybridMlp::score_batch_normalizing_with`]): no full-width normalized
/// copy is made. Scores are bit-identical to normalizing the rows and
/// calling [`HybridMlp::score_batch_with`].
pub struct HybridScorer {
    /// The frozen hybrid network.
    pub hybrid: HybridMlp,
    normalizer: Normalizer,
    ws: HybridWorkspace,
    label: String,
    obs: Option<Arc<dlr_obs::Obs>>,
}

impl HybridScorer {
    /// Wrap a hybrid model and its normalizer.
    ///
    /// # Panics
    /// Panics when the normalizer's width is not the model's input width.
    pub fn new(
        hybrid: HybridMlp,
        normalizer: Normalizer,
        label: impl Into<String>,
    ) -> HybridScorer {
        assert_eq!(
            normalizer.num_features(),
            hybrid.input_dim(),
            "normalizer and network must agree on the feature count"
        );
        HybridScorer {
            hybrid,
            normalizer,
            ws: HybridWorkspace::default(),
            label: label.into(),
            obs: None,
        }
    }

    /// Record a `kernel-sdmm` span — attributed to the dispatcher's
    /// current trace — around every batch scored through this wrapper.
    pub fn with_obs(mut self, obs: Arc<dlr_obs::Obs>) -> HybridScorer {
        self.obs = Some(obs);
        self
    }
}

impl DocumentScorer for HybridScorer {
    fn num_features(&self) -> usize {
        self.hybrid.input_dim()
    }

    fn score_batch(&mut self, rows: &[f32], out: &mut [f32]) {
        let _scope = self
            .obs
            .as_deref()
            .map(|o| o.scope(dlr_obs::Stage::KernelSdmm));
        self.hybrid.score_batch_normalizing_with(
            rows,
            self.normalizer.mean(),
            self.normalizer.inv_std(),
            out,
            &mut self.ws,
        );
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlr_data::{DatasetBuilder, SyntheticConfig};
    use dlr_gbdt::{GrowthParams, LambdaMartParams, LambdaMartTrainer};

    fn forest() -> (Ensemble, dlr_data::Dataset) {
        let mut cfg = SyntheticConfig::msn30k_like(15);
        cfg.docs_per_query = 15;
        cfg.num_features = 10;
        cfg.num_informative = 4;
        let data = cfg.generate();
        let params = LambdaMartParams {
            num_trees: 8,
            growth: GrowthParams {
                max_leaves: 8,
                min_data_in_leaf: 3,
                ..Default::default()
            },
            early_stopping_rounds: 0,
            ..Default::default()
        };
        let (e, _) = LambdaMartTrainer::new(params).fit(&data, None);
        (e, data)
    }

    #[test]
    fn quickscorer_wrapper_matches_ensemble_wrapper() {
        let (e, data) = forest();
        let mut naive = EnsembleScorer::new(e.clone(), "forest");
        let mut qs = QuickScorerScorer::compile(&e, "qs");
        let mut vqs = QuickScorerScorer::compile_vectorized(&e, "vqs");
        let mut bw = QuickScorerScorer::compile_blockwise(&e, 3, "bwqs");
        let n = data.num_docs();
        let mut a = vec![0.0f32; n];
        let mut b = vec![0.0f32; n];
        let mut c = vec![0.0f32; n];
        let mut d = vec![0.0f32; n];
        naive.score_batch(data.features(), &mut a);
        qs.score_batch(data.features(), &mut b);
        vqs.score_batch(data.features(), &mut c);
        bw.score_batch(data.features(), &mut d);
        for i in 0..n {
            assert!((a[i] - b[i]).abs() < 1e-4);
            assert!((a[i] - c[i]).abs() < 1e-4);
            assert!((a[i] - d[i]).abs() < 1e-4);
        }
    }

    #[test]
    fn vqs_for_large_leaf_ensembles() {
        // A 256-leaf-style teacher still gets a QuickScorer wrapper: vQS
        // over 32-leaf slices, traversal's scores bit for bit.
        let mut cfg = SyntheticConfig::msn30k_like(15);
        cfg.docs_per_query = 40;
        cfg.num_features = 10;
        cfg.num_informative = 4;
        let data = cfg.generate();
        let params = LambdaMartParams {
            num_trees: 4,
            growth: GrowthParams {
                max_leaves: 100,
                min_data_in_leaf: 1,
                ..Default::default()
            },
            early_stopping_rounds: 0,
            ..Default::default()
        };
        let (e, _) = LambdaMartTrainer::new(params).fit(&data, None);
        let mut qs = QuickScorerScorer::compile(&e, "teacher");
        let mut out = vec![0.0f32; data.num_docs()];
        qs.score_batch(data.features(), &mut out);
        assert!(e.max_leaves() > 64, "{} leaves", e.max_leaves());
        for (row, &o) in data.features().chunks_exact(10).zip(&out) {
            assert_eq!(e.predict(row).to_bits(), o.to_bits());
        }
    }

    #[test]
    fn mlp_scorer_normalizes_internally() {
        let mut b = DatasetBuilder::new(2);
        b.push_query(1, &[0.0, 100.0, 2.0, 300.0, 4.0, 500.0], &[0.0, 1.0, 2.0])
            .unwrap();
        let data = b.finish();
        let normalizer = Normalizer::fit(&data).unwrap();
        let mlp = Mlp::from_hidden(2, &[4], 3);
        let mut scorer = MlpScorer::new(mlp.clone(), normalizer.clone(), "net");
        let mut got = vec![0.0f32; 3];
        scorer.score_batch(data.features(), &mut got);
        // Reference: normalize manually, then dense forward.
        let normed = normalizer.normalized(&data);
        let mut expect = vec![0.0f32; 3];
        mlp.score_batch(normed.features(), &mut expect);
        assert_eq!(got, expect);
        assert_eq!(scorer.name(), "net");
    }

    #[test]
    fn hybrid_scorer_matches_dense_scorer_when_unpruned_weights_agree() {
        let (_, data) = forest();
        let normalizer = Normalizer::fit(&data).unwrap();
        let mlp = Mlp::from_hidden(10, &[8, 4], 5);
        let hybrid = HybridMlp::from_mlp(&mlp, 0.0);
        let mut ds = MlpScorer::new(mlp, normalizer.clone(), "dense");
        let mut hs = HybridScorer::new(hybrid, normalizer, "hybrid");
        let n = data.num_docs();
        let mut a = vec![0.0f32; n];
        let mut b = vec![0.0f32; n];
        ds.score_batch(data.features(), &mut a);
        hs.score_batch(data.features(), &mut b);
        for i in 0..n {
            assert!(
                (a[i] - b[i]).abs() < 1e-3,
                "doc {i}: dense {} hybrid {}",
                a[i],
                b[i]
            );
        }
    }

    #[test]
    fn hybrid_scorer_is_normalize_then_score_bit_for_bit() {
        let (_, data) = forest();
        let normalizer = Normalizer::fit(&data).unwrap();
        let mut mlp = Mlp::from_hidden(10, &[8, 4], 7);
        // Leave feature 3 unread and neuron 5 dead.
        let first = &mut mlp.layers_mut()[0];
        first.weights.row_mut(5).fill(0.0);
        for j in 0..8 {
            first.weights.set(j, 3, 0.0);
        }
        let hybrid = HybridMlp::from_mlp(&mlp, 0.0);
        let n = data.num_docs();
        let mut want = vec![0.0f32; n];
        hybrid.score_batch(normalizer.normalized(&data).features(), &mut want);
        let mut scorer = HybridScorer::new(hybrid, normalizer, "hybrid");
        let mut got = vec![0.0f32; n];
        scorer.score_batch(data.features(), &mut got);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }
}
