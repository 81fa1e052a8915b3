//! LambdaMART: listwise learning to rank with boosted trees (§2.1).
//!
//! Combines λ-gradients (Burges' LambdaRank heuristic: RankNet's pairwise
//! cross-entropy gradient scaled by the |ΔNDCG| of swapping the pair) with
//! the histogram tree grower. This is the algorithm LightGBM implements
//! and the paper uses to train all tree-based competitors and teachers.
//!
//! For each query and each document pair `(i, j)` with `label_i >
//! label_j`:
//!
//! ```text
//! ρ    = 1 / (1 + exp(σ·(s_i − s_j)))
//! λ_ij = σ · |ΔNDCG_ij| · ρ            (gradient magnitude)
//! h_ij = σ² · |ΔNDCG_ij| · ρ·(1 − ρ)   (hessian)
//! ```
//!
//! `grad_i −= λ_ij`, `grad_j += λ_ij`, and both docs accumulate `h_ij`.
//! Trees then fit the Newton step `−G/(H+λ₂)` per leaf. Pairs are counted
//! only when at least one document ranks above the truncation level
//! (LightGBM's `lambdarank_truncation_level`).

use crate::binning::FeatureBinner;
use crate::ensemble::Ensemble;
use crate::grow::{GrowthParams, TreeGrower};
use dlr_data::Dataset;
use dlr_metrics::{evaluate_scores, EvalReport};

/// LambdaMART training configuration.
#[derive(Debug, Clone, Copy)]
pub struct LambdaMartParams {
    /// Maximum boosting rounds.
    pub num_trees: usize,
    /// Shrinkage.
    pub learning_rate: f32,
    /// Histogram resolution.
    pub max_bins: usize,
    /// Tree constraints (64 or 256 leaves in the paper).
    pub growth: GrowthParams,
    /// RankNet sigmoid steepness σ.
    pub sigma: f64,
    /// Pairs are skipped when both documents rank at or below this
    /// position (LightGBM default 30).
    pub truncation: usize,
    /// Stop when validation NDCG@10 has not improved for this many
    /// evaluations; `0` disables early stopping. The paper applies "an
    /// early stopping criterion on the validation loss every 100 trees".
    pub early_stopping_rounds: usize,
    /// Evaluate on validation every this many trees.
    pub eval_every: usize,
}

impl Default for LambdaMartParams {
    fn default() -> Self {
        LambdaMartParams {
            num_trees: 300,
            learning_rate: 0.1,
            max_bins: 255,
            growth: GrowthParams::default(),
            sigma: 1.0,
            truncation: 30,
            early_stopping_rounds: 3,
            eval_every: 100,
        }
    }
}

/// What happened during training: validation curve and the chosen
/// iteration.
#[derive(Debug, Clone, Default)]
pub struct TrainingLog {
    /// `(num_trees, validation NDCG@10)` at each evaluation point.
    pub valid_ndcg10: Vec<(usize, f64)>,
    /// Number of trees kept in the returned ensemble.
    pub best_trees: usize,
}

/// Trains LambdaMART ensembles.
#[derive(Debug, Clone, Copy, Default)]
pub struct LambdaMartTrainer {
    /// Training configuration.
    pub params: LambdaMartParams,
}

impl LambdaMartTrainer {
    /// Create a trainer.
    pub fn new(params: LambdaMartParams) -> LambdaMartTrainer {
        LambdaMartTrainer { params }
    }

    /// Train on `train`; if `valid` is given, track NDCG@10 and truncate
    /// the ensemble to the best evaluation point (early stopping).
    ///
    /// # Panics
    /// Panics on an empty training set.
    pub fn fit(&self, train: &Dataset, valid: Option<&Dataset>) -> (Ensemble, TrainingLog) {
        assert!(train.num_docs() > 0, "cannot train on an empty dataset");
        let p = &self.params;
        let binner = FeatureBinner::fit(train, p.max_bins);
        let binned = binner.bin_dataset(train);
        let mut grower = TreeGrower::new(&binned, &binner, p.growth);

        let n = train.num_docs();
        let mut scores = vec![0.0f32; n];
        let mut grad = vec![0.0f64; n];
        let mut hess = vec![0.0f64; n];
        let doc_ids: Vec<u32> = (0..n as u32).collect();
        let idcg = per_query_idcg(train, p.truncation);

        let mut ensemble = Ensemble::new(train.num_features(), 0.0);
        let mut log = TrainingLog::default();
        let mut best_ndcg = f64::NEG_INFINITY;
        let mut best_trees = 0usize;
        let mut evals_since_best = 0usize;

        for round in 0..p.num_trees {
            self.lambda_gradients(train, &scores, &idcg, &mut grad, &mut hess);
            let tree = grower.grow(&grad, &hess, &doc_ids);
            for (i, s) in scores.iter_mut().enumerate() {
                *s += tree.predict(train.doc(i)) * p.learning_rate;
            }
            ensemble.push_scaled(tree, p.learning_rate);

            let trees_so_far = round + 1;
            let is_eval_point =
                trees_so_far % p.eval_every.max(1) == 0 || trees_so_far == p.num_trees;
            if let (Some(v), true) = (valid, is_eval_point) {
                let report = eval_valid(&ensemble, v);
                let ndcg = report.mean_ndcg10();
                log.valid_ndcg10.push((trees_so_far, ndcg));
                if ndcg > best_ndcg {
                    best_ndcg = ndcg;
                    best_trees = trees_so_far;
                    evals_since_best = 0;
                } else {
                    evals_since_best += 1;
                    if p.early_stopping_rounds > 0 && evals_since_best >= p.early_stopping_rounds {
                        break;
                    }
                }
            }
        }

        if valid.is_some() && best_trees > 0 {
            ensemble.truncate(best_trees);
            log.best_trees = best_trees;
        } else {
            log.best_trees = ensemble.num_trees();
        }
        (ensemble, log)
    }

    /// Accumulate λ-gradients and hessians for every document.
    ///
    /// `gain(label)` and `discount(position)` are read from per-query
    /// tables filled once per query rather than recomputed per pair; the
    /// pair loop and its arithmetic are unchanged, so the sums are the
    /// same `f64`s.
    fn lambda_gradients(
        &self,
        train: &Dataset,
        scores: &[f32],
        idcg: &[f64],
        grad: &mut [f64],
        hess: &mut [f64],
    ) {
        let p = &self.params;
        grad.fill(0.0);
        hess.fill(0.0);
        let mut order: Vec<usize> = Vec::new();
        let mut pos_of: Vec<usize> = Vec::new();
        // Per document of the query: its gain and its current discount.
        let mut gains: Vec<f64> = Vec::new();
        let mut discounts: Vec<f64> = Vec::new();
        #[allow(clippy::needless_range_loop)]
        for q in 0..train.num_queries() {
            if idcg[q] <= 0.0 {
                continue; // no relevant docs: every ranking is ideal
            }
            let r = train.query_range(q);
            let labels = &train.labels()[r.clone()];
            let q_scores = &scores[r.clone()];
            let nd = labels.len();
            // Current positions within the query.
            order.clear();
            order.extend(0..nd);
            order.sort_by(|&a, &b| {
                q_scores[b]
                    .partial_cmp(&q_scores[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            pos_of.clear();
            pos_of.resize(nd, 0);
            for (pos, &doc) in order.iter().enumerate() {
                pos_of[doc] = pos;
            }
            gains.clear();
            gains.extend(labels.iter().map(|&l| gain(l)));
            discounts.clear();
            discounts.extend(pos_of.iter().map(|&pos| discount(pos, p.truncation)));
            let q_grad = &mut grad[r.clone()];
            let q_hess = &mut hess[r];
            let inv_idcg = 1.0 / idcg[q];
            for i in 0..nd {
                let (label_i, pos_i, gain_i, disc_i) =
                    (labels[i], pos_of[i], gains[i], discounts[i]);
                for j in 0..nd {
                    if label_i <= labels[j] {
                        continue; // count each ordered pair once, i better
                    }
                    if pos_i >= p.truncation && pos_of[j] >= p.truncation {
                        continue;
                    }
                    let delta =
                        (gain_i - gains[j]).abs() * (disc_i - discounts[j]).abs() * inv_idcg;
                    let s_diff = (q_scores[i] - q_scores[j]) as f64;
                    let rho = 1.0 / (1.0 + (p.sigma * s_diff).exp());
                    let lambda = p.sigma * delta * rho;
                    let h = p.sigma * p.sigma * delta * rho * (1.0 - rho);
                    q_grad[i] -= lambda;
                    q_grad[j] += lambda;
                    q_hess[i] += h;
                    q_hess[j] += h;
                }
            }
        }
        // Hessians of exactly zero (docs in degenerate queries) keep leaf
        // values finite through the grower's min-hessian constraint.
    }
}

#[inline]
fn gain(label: f32) -> f64 {
    (2.0f64).powf(label as f64) - 1.0
}

#[inline]
fn discount(pos: usize, truncation: usize) -> f64 {
    if pos < truncation {
        1.0 / ((pos + 2) as f64).log2()
    } else {
        0.0
    }
}

fn per_query_idcg(train: &Dataset, truncation: usize) -> Vec<f64> {
    (0..train.num_queries())
        .map(|q| {
            let r = train.query_range(q);
            let mut labels: Vec<f32> = train.labels()[r].to_vec();
            labels.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
            labels
                .iter()
                .take(truncation)
                .enumerate()
                .map(|(i, &l)| gain(l) * discount(i, truncation))
                .sum()
        })
        .collect()
}

fn eval_valid(ensemble: &Ensemble, valid: &Dataset) -> EvalReport {
    let mut scores = vec![0.0f32; valid.num_docs()];
    ensemble.predict_batch(valid.features(), &mut scores);
    evaluate_scores(&scores, valid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlr_data::{Split, SplitRatios, SyntheticConfig};
    use dlr_metrics::evaluate_scores;

    fn tiny_ltr() -> Split {
        let mut cfg = SyntheticConfig::msn30k_like(60);
        cfg.docs_per_query = 30;
        cfg.num_features = 20;
        cfg.num_informative = 8;
        let d = cfg.generate();
        Split::by_query(&d, SplitRatios::PAPER, 1).unwrap()
    }

    fn ndcg10(e: &Ensemble, d: &Dataset) -> f64 {
        let mut scores = vec![0.0f32; d.num_docs()];
        e.predict_batch(d.features(), &mut scores);
        evaluate_scores(&scores, d).mean_ndcg10()
    }

    #[test]
    fn beats_random_ranking_on_held_out_queries() {
        let split = tiny_ltr();
        let params = LambdaMartParams {
            num_trees: 30,
            growth: GrowthParams {
                max_leaves: 16,
                min_data_in_leaf: 5,
                ..Default::default()
            },
            eval_every: 10,
            ..Default::default()
        };
        let (model, _) = LambdaMartTrainer::new(params).fit(&split.train, Some(&split.valid));
        let trained = ndcg10(&model, &split.test);
        // Random scores baseline.
        let random = {
            let scores: Vec<f32> = (0..split.test.num_docs())
                .map(|i| ((i * 2654435761) % 1000) as f32)
                .collect();
            evaluate_scores(&scores, &split.test).mean_ndcg10()
        };
        assert!(
            trained > random + 0.05,
            "trained {trained:.4} should clearly beat random {random:.4}"
        );
    }

    #[test]
    fn more_trees_do_not_hurt_training_ndcg() {
        let split = tiny_ltr();
        let growth = GrowthParams {
            max_leaves: 8,
            min_data_in_leaf: 5,
            ..Default::default()
        };
        let short = LambdaMartTrainer::new(LambdaMartParams {
            num_trees: 3,
            growth,
            early_stopping_rounds: 0,
            ..Default::default()
        })
        .fit(&split.train, None)
        .0;
        let long = LambdaMartTrainer::new(LambdaMartParams {
            num_trees: 40,
            growth,
            early_stopping_rounds: 0,
            ..Default::default()
        })
        .fit(&split.train, None)
        .0;
        assert!(ndcg10(&long, &split.train) >= ndcg10(&short, &split.train) - 1e-9);
    }

    #[test]
    fn early_stopping_truncates() {
        let split = tiny_ltr();
        let params = LambdaMartParams {
            num_trees: 60,
            growth: GrowthParams {
                max_leaves: 8,
                min_data_in_leaf: 5,
                ..Default::default()
            },
            eval_every: 5,
            early_stopping_rounds: 2,
            ..Default::default()
        };
        let (model, log) = LambdaMartTrainer::new(params).fit(&split.train, Some(&split.valid));
        assert_eq!(model.num_trees(), log.best_trees);
        assert!(!log.valid_ndcg10.is_empty());
        // The kept iteration is the argmax of the validation curve.
        let best = log
            .valid_ndcg10
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert_eq!(best.0, log.best_trees);
    }

    #[test]
    fn respects_leaf_budget() {
        let split = tiny_ltr();
        let params = LambdaMartParams {
            num_trees: 5,
            growth: GrowthParams {
                max_leaves: 4,
                min_data_in_leaf: 2,
                ..Default::default()
            },
            early_stopping_rounds: 0,
            ..Default::default()
        };
        let (model, _) = LambdaMartTrainer::new(params).fit(&split.train, None);
        assert!(model.max_leaves() <= 4);
        assert_eq!(model.num_trees(), 5);
    }

    #[test]
    fn gradients_push_relevant_docs_up() {
        // One query, two docs, rel 1 vs 0, equal starting scores: the
        // relevant doc must get a negative gradient (loss decreases as its
        // score rises, since trees fit -grad).
        let mut b = dlr_data::DatasetBuilder::new(1);
        b.push_query(1, &[0.3, 0.7], &[1.0, 0.0]).unwrap();
        let d = b.finish();
        let trainer = LambdaMartTrainer::default();
        let idcg = per_query_idcg(&d, 30);
        let mut grad = vec![0.0; 2];
        let mut hess = vec![0.0; 2];
        trainer.lambda_gradients(&d, &[0.0, 0.0], &idcg, &mut grad, &mut hess);
        assert!(grad[0] < 0.0, "relevant doc gradient {}", grad[0]);
        assert!(grad[1] > 0.0, "irrelevant doc gradient {}", grad[1]);
        assert!(
            (grad[0] + grad[1]).abs() < 1e-12,
            "pairwise gradients balance"
        );
        assert!(hess[0] > 0.0 && hess[1] > 0.0);
    }
}
