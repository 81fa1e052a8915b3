//! MART: gradient boosting with the MSE objective.
//!
//! Multiple Additive Regression Trees fitting plain regression targets.
//! For MSE, the gradient is `pred − target` and the hessian is 1, so each
//! tree fits residuals. Used in tests and as the regression engine behind
//! experiments that need a generic boosted regressor; the ranking models
//! of the paper are trained with [`crate::lambdamart`].

use crate::binning::FeatureBinner;
use crate::ensemble::Ensemble;
use crate::grow::{GrowthParams, TreeGrower};
use dlr_data::Dataset;

/// MART training configuration.
#[derive(Debug, Clone, Copy)]
pub struct MartParams {
    /// Number of boosting rounds.
    pub num_trees: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f32,
    /// Histogram resolution.
    pub max_bins: usize,
    /// Tree growth constraints.
    pub growth: GrowthParams,
}

impl Default for MartParams {
    fn default() -> Self {
        MartParams {
            num_trees: 100,
            learning_rate: 0.1,
            max_bins: 255,
            growth: GrowthParams::default(),
        }
    }
}

/// Trains MART ensembles on arbitrary real-valued targets.
#[derive(Debug, Clone, Copy, Default)]
pub struct MartTrainer {
    /// Training configuration.
    pub params: MartParams,
}

impl MartTrainer {
    /// Create a trainer with the given parameters.
    pub fn new(params: MartParams) -> MartTrainer {
        MartTrainer { params }
    }

    /// Fit `targets` (one per document of `data`) with boosted trees.
    ///
    /// The base score is the target mean, as is standard for MSE boosting.
    ///
    /// # Panics
    /// Panics when `targets.len() != data.num_docs()` or the dataset is
    /// empty.
    pub fn fit(&self, data: &Dataset, targets: &[f32]) -> Ensemble {
        assert_eq!(targets.len(), data.num_docs(), "one target per document");
        assert!(data.num_docs() > 0, "cannot train on an empty dataset");
        let binner = FeatureBinner::fit(data, self.params.max_bins);
        let binned = binner.bin_dataset(data);
        let base = targets.iter().sum::<f32>() / targets.len() as f32;
        let mut ensemble = Ensemble::new(data.num_features(), base);
        let n = data.num_docs();
        let mut preds = vec![base as f64; n];
        let doc_ids: Vec<u32> = (0..n as u32).collect();
        let hess = vec![1.0f64; n];
        let mut grad = vec![0.0f64; n];
        let mut grower = TreeGrower::new(&binned, &binner, self.params.growth);
        for _ in 0..self.params.num_trees {
            for ((g, &p), &t) in grad.iter_mut().zip(&preds).zip(targets) {
                *g = p - t as f64;
            }
            let tree = grower.grow(&grad, &hess, &doc_ids);
            // Update predictions with the *scaled* tree contribution.
            for (i, p) in preds.iter_mut().enumerate() {
                *p += (tree.predict(data.doc(i)) * self.params.learning_rate) as f64;
            }
            ensemble.push_scaled(tree, self.params.learning_rate);
        }
        ensemble
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlr_data::DatasetBuilder;

    fn wavy_dataset(n: usize) -> (Dataset, Vec<f32>) {
        let mut b = DatasetBuilder::new(2);
        let mut feats = Vec::new();
        let mut targets = Vec::new();
        for i in 0..n {
            let x0 = (i as f32) / n as f32 * 6.0;
            let x1 = ((i * 7) % n) as f32 / n as f32;
            feats.extend_from_slice(&[x0, x1]);
            targets.push(x0.sin() + 0.5 * x1);
        }
        let labels = vec![0.0; n];
        b.push_query(1, &feats, &labels).unwrap();
        (b.finish(), targets)
    }

    fn mse(e: &Ensemble, d: &Dataset, t: &[f32]) -> f64 {
        let mut s = 0.0;
        for (i, &ti) in t.iter().enumerate() {
            let err = (e.predict(d.doc(i)) - ti) as f64;
            s += err * err;
        }
        s / d.num_docs() as f64
    }

    #[test]
    fn boosting_reduces_training_error() {
        let (d, t) = wavy_dataset(400);
        let short = MartTrainer::new(MartParams {
            num_trees: 2,
            growth: GrowthParams {
                max_leaves: 8,
                min_data_in_leaf: 5,
                ..Default::default()
            },
            ..Default::default()
        })
        .fit(&d, &t);
        let long = MartTrainer::new(MartParams {
            num_trees: 60,
            growth: GrowthParams {
                max_leaves: 8,
                min_data_in_leaf: 5,
                ..Default::default()
            },
            ..Default::default()
        })
        .fit(&d, &t);
        let e_short = mse(&short, &d, &t);
        let e_long = mse(&long, &d, &t);
        assert!(e_long < e_short * 0.5, "short {e_short} long {e_long}");
        assert!(e_long < 0.02, "final training MSE too high: {e_long}");
    }

    #[test]
    fn base_score_is_target_mean() {
        let (d, t) = wavy_dataset(50);
        let e = MartTrainer::new(MartParams {
            num_trees: 0,
            ..Default::default()
        })
        .fit(&d, &t);
        let mean = t.iter().sum::<f32>() / t.len() as f32;
        assert!((e.base_score() - mean).abs() < 1e-5);
        assert_eq!(e.num_trees(), 0);
        assert_eq!(e.predict(d.doc(0)), e.base_score());
    }

    #[test]
    fn constant_targets_need_no_trees_to_fit() {
        let (d, _) = wavy_dataset(60);
        let t = vec![3.25f32; 60];
        let e = MartTrainer::new(MartParams {
            num_trees: 3,
            growth: GrowthParams {
                max_leaves: 4,
                min_data_in_leaf: 1,
                ..Default::default()
            },
            ..Default::default()
        })
        .fit(&d, &t);
        assert!(mse(&e, &d, &t) < 1e-8);
    }

    #[test]
    #[should_panic(expected = "one target per document")]
    fn target_length_checked() {
        let (d, _) = wavy_dataset(10);
        MartTrainer::default().fit(&d, &[0.0; 3]);
    }
}
