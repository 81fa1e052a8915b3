//! Direct training on ground-truth labels — the baselines distillation is
//! measured against.
//!
//! §3 states that score approximation "is more proficient than directly
//! learning the ground-truth relevance". To make that claim testable, this
//! module trains the *same* student architectures directly on labels with
//! the two classic objectives the paper's related work covers:
//!
//! * **pointwise** — MSE regression onto the relevance grade;
//! * **pairwise (RankNet, §2.1)** — per-query pairs `(i, j)` with
//!   `label_i > label_j` minimize `log(1 + exp(−σ(s_i − s_j)))`, i.e. the
//!   cross-entropy of the sigmoid pair probability.

use dlr_data::{Dataset, Normalizer};
use dlr_nn::train::SgdTrainer;
use dlr_nn::{LayerMasks, LoopState, Mlp, ResilienceConfig, Rows, StepLr};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Objective for direct label training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DirectObjective {
    /// MSE onto the raw grade (0..=4).
    PointwiseMse,
    /// RankNet pairwise cross-entropy with sigmoid steepness σ.
    RankNet {
        /// Sigmoid steepness (1.0 in the original paper).
        sigma: f32,
    },
}

/// Configuration for [`train_direct`].
#[derive(Debug, Clone)]
pub struct DirectConfig {
    /// Objective to optimize.
    pub objective: DirectObjective,
    /// Epochs over the training queries.
    pub epochs: usize,
    /// Minibatch size (documents) for the pointwise objective; RankNet
    /// batches are whole queries.
    pub batch_size: usize,
    /// Learning-rate schedule.
    pub schedule: StepLr,
    /// Dropout after the first layer.
    pub dropout: f32,
    /// Shuffle/init seed.
    pub seed: u64,
}

impl Default for DirectConfig {
    fn default() -> Self {
        DirectConfig {
            objective: DirectObjective::PointwiseMse,
            epochs: 30,
            batch_size: 256,
            schedule: StepLr::constant(1e-3),
            dropout: 0.0,
            seed: 5,
        }
    }
}

/// A directly-trained model: network + the normalizer it expects.
#[derive(Debug, Clone)]
pub struct DirectModel {
    /// The trained network (normalized inputs).
    pub mlp: Mlp,
    /// Z-normalizer fitted on `train`.
    pub normalizer: Normalizer,
    /// Mean per-epoch loss.
    pub epoch_loss: Vec<f64>,
}

impl DirectModel {
    /// Score raw (unnormalized) rows.
    pub fn score_batch(&self, rows: &[f32], out: &mut [f32]) {
        let mut norm = rows.to_vec();
        self.normalizer.apply_matrix(&mut norm);
        self.mlp.score_batch(&norm, out);
    }
}

/// Train `hidden` directly on `train`'s labels.
///
/// # Panics
/// Panics on an empty dataset, and — pointwise objective, which runs the
/// guarded epoch loop — with the `TrainError::Diverged` text when an epoch
/// stays non-finite through the default rollback budget.
pub fn train_direct(train: &Dataset, hidden: &[usize], cfg: &DirectConfig) -> DirectModel {
    assert!(train.num_docs() > 0, "cannot train on an empty dataset");
    let normalizer = Normalizer::fit(train).expect("non-empty training set");
    let mut rows = train.features().to_vec();
    normalizer.apply_matrix(&mut rows);
    let mut mlp = Mlp::from_hidden(train.num_features(), hidden, cfg.seed ^ 0xd1ec7);
    let mut trainer = SgdTrainer::new(&mlp, cfg.dropout, cfg.seed ^ 0x7ea1);
    let f = train.num_features();

    let epoch_loss = match cfg.objective {
        DirectObjective::PointwiseMse => {
            let masks = LayerMasks::none(mlp.layers().len());
            let mut st = LoopState::new("direct", trainer, masks, train.num_docs(), cfg.seed);
            let mut source = Rows {
                rows: &rows,
                targets: train.labels(),
                batch_size: cfg.batch_size,
            };
            dlr_nn::run_epochs(
                &mut mlp,
                &mut st,
                &mut source,
                &cfg.schedule,
                cfg.epochs,
                &ResilienceConfig::default(),
                None,
                &mut |_, _| {},
            )
            .map(|report| report.epoch_loss)
            .unwrap_or_else(|e| panic!("{e}"))
        }
        DirectObjective::RankNet { sigma } => {
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            let mut epoch_loss = Vec::with_capacity(cfg.epochs);
            let mut query_order: Vec<usize> = (0..train.num_queries()).collect();
            for epoch in 0..cfg.epochs {
                query_order.shuffle(&mut rng);
                let lr = cfg.schedule.lr(epoch);
                let mut sum = 0.0;
                let mut batches = 0usize;
                for &q in &query_order {
                    let r = train.query_range(q);
                    let labels = &train.labels()[r.clone()];
                    let n = labels.len();
                    if n < 2 {
                        continue;
                    }
                    let q_rows = &rows[r.start * f..r.end * f];
                    let loss =
                        trainer.train_batch_custom(&mut mlp, q_rows, n, lr, None, |preds, grad| {
                            ranknet_loss_grad(preds, labels, sigma, grad)
                        });
                    sum += loss;
                    batches += 1;
                }
                epoch_loss.push(sum / batches.max(1) as f64);
            }
            epoch_loss
        }
    };
    DirectModel {
        mlp,
        normalizer,
        epoch_loss,
    }
}

/// RankNet loss and per-document gradient over one query.
///
/// For each ordered pair with `label_i > label_j`:
/// `L += log(1 + exp(−σ(s_i − s_j)))`, `∂L/∂s_i = −σ·ρ`,
/// `∂L/∂s_j = +σ·ρ` with `ρ = 1/(1 + exp(σ(s_i − s_j)))`.
/// Loss and gradients are normalized by the pair count.
fn ranknet_loss_grad(preds: &[f32], labels: &[f32], sigma: f32, grad: &mut [f32]) -> f64 {
    grad.fill(0.0);
    let n = preds.len();
    let mut pairs = 0usize;
    let mut loss = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            if labels[i] <= labels[j] {
                continue;
            }
            pairs += 1;
            let diff = sigma * (preds[i] - preds[j]);
            // log(1 + e^{-diff}), numerically stable.
            loss += if diff > 0.0 {
                ((-diff).exp() + 1.0).ln() as f64
            } else {
                (-diff) as f64 + ((diff).exp() + 1.0).ln() as f64
            };
            let rho = 1.0 / (1.0 + diff.exp());
            grad[i] -= sigma * rho;
            grad[j] += sigma * rho;
        }
    }
    if pairs == 0 {
        return 0.0;
    }
    let scale = 1.0 / pairs as f32;
    for g in grad.iter_mut() {
        *g *= scale;
    }
    loss / pairs as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlr_data::SyntheticConfig;
    use dlr_metrics::evaluate_scores;

    fn data() -> Dataset {
        let mut cfg = SyntheticConfig::msn30k_like(40);
        cfg.docs_per_query = 20;
        cfg.num_features = 14;
        cfg.num_informative = 6;
        cfg.generate()
    }

    fn ndcg_of(model: &DirectModel, d: &Dataset) -> f64 {
        let mut scores = vec![0.0f32; d.num_docs()];
        model.score_batch(d.features(), &mut scores);
        evaluate_scores(&scores, d).mean_ndcg10()
    }

    fn random_baseline(d: &Dataset) -> f64 {
        let scores: Vec<f32> = (0..d.num_docs())
            .map(|i| ((i * 2654435761) % 997) as f32)
            .collect();
        evaluate_scores(&scores, d).mean_ndcg10()
    }

    #[test]
    fn pointwise_learns_to_rank_above_random() {
        let d = data();
        let cfg = DirectConfig {
            epochs: 40,
            ..Default::default()
        };
        let model = train_direct(&d, &[24, 12], &cfg);
        let trained = ndcg_of(&model, &d);
        let random = random_baseline(&d);
        assert!(
            trained > random + 0.05,
            "trained {trained:.4} vs random {random:.4}"
        );
        // Loss decreased.
        assert!(model.epoch_loss.last().unwrap() < &model.epoch_loss[0]);
    }

    #[test]
    fn ranknet_learns_to_rank_above_random() {
        let d = data();
        let cfg = DirectConfig {
            objective: DirectObjective::RankNet { sigma: 1.0 },
            epochs: 25,
            ..Default::default()
        };
        let model = train_direct(&d, &[24, 12], &cfg);
        let trained = ndcg_of(&model, &d);
        let random = random_baseline(&d);
        assert!(
            trained > random + 0.05,
            "trained {trained:.4} vs random {random:.4}"
        );
    }

    #[test]
    fn ranknet_gradient_pushes_better_doc_up() {
        // Two docs, rel 1 > rel 0, equal scores: gradient must favour doc 0.
        let mut grad = vec![0.0f32; 2];
        let loss = ranknet_loss_grad(&[0.0, 0.0], &[1.0, 0.0], 1.0, &mut grad);
        assert!((loss - (2.0f64).ln()).abs() < 1e-6);
        assert!(grad[0] < 0.0, "loss decreases as s_0 rises");
        assert!(grad[1] > 0.0);
        assert!((grad[0] + grad[1]).abs() < 1e-7);
    }

    #[test]
    fn ranknet_gradient_vanishes_when_pair_is_well_ordered() {
        let mut grad = vec![0.0f32; 2];
        ranknet_loss_grad(&[10.0, -10.0], &[1.0, 0.0], 1.0, &mut grad);
        assert!(grad[0].abs() < 1e-6);
        assert!(grad[1].abs() < 1e-6);
    }

    #[test]
    fn degenerate_query_contributes_nothing() {
        let mut grad = vec![0.5f32; 3];
        let loss = ranknet_loss_grad(&[1.0, 2.0, 3.0], &[1.0, 1.0, 1.0], 1.0, &mut grad);
        assert_eq!(loss, 0.0);
        assert!(grad.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn deterministic_per_seed() {
        let d = data();
        let cfg = DirectConfig {
            epochs: 3,
            ..Default::default()
        };
        let a = train_direct(&d, &[8], &cfg);
        let b = train_direct(&d, &[8], &cfg);
        assert_eq!(a.mlp, b.mlp);
    }
}
