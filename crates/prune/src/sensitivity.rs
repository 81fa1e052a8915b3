//! Static and dynamic layer-sensitivity analysis (Figure 10).
//!
//! Both procedures "prune a growing percentage of weights in each layer,
//! one layer at a time, and evaluate the behavior of the partially-pruned
//! model on the validation set" (§5.2). The *static* version evaluates
//! immediately after masking; the *dynamic* version first re-trains the
//! surviving weights for a few epochs — and it is the dynamic analysis
//! that reveals the paper's key observation: aggressively pruning the
//! *first* layer can even improve NDCG@10 (pruning as a regularizer).

use crate::magnitude::level_mask;
use dlr_data::{Dataset, Normalizer};
use dlr_distill::DistillSession;
use dlr_metrics::evaluate_scores;
use dlr_nn::{LayerMasks, Mlp, StepLr};

/// NDCG@10 as a function of sparsity for one layer.
#[derive(Debug, Clone)]
pub struct SensitivityCurve {
    /// Layer index the curve describes.
    pub layer: usize,
    /// `(sparsity, NDCG@10 on the validation set)` per probed level.
    pub points: Vec<(f64, f64)>,
}

/// Validation NDCG@10 of `mlp` (expects raw features; normalizes first).
pub fn eval_ndcg10(mlp: &Mlp, normalizer: &Normalizer, data: &Dataset) -> f64 {
    let mut rows = data.features().to_vec();
    normalizer.apply_matrix(&mut rows);
    let mut scores = vec![0.0f32; data.num_docs()];
    mlp.score_batch(&rows, &mut scores);
    evaluate_scores(&scores, data).mean_ndcg10()
}

/// Static sensitivity: mask one layer at each sparsity level (no
/// re-training) and record validation NDCG@10.
pub fn static_sensitivity(
    mlp: &Mlp,
    normalizer: &Normalizer,
    valid: &Dataset,
    levels: &[f64],
) -> Vec<SensitivityCurve> {
    let mut curves = Vec::new();
    for layer in 0..mlp.layers().len() {
        let mut points = Vec::with_capacity(levels.len());
        for &s in levels {
            let mut probe = mlp.clone();
            let mask = level_mask(probe.layers()[layer].weights.as_slice(), s);
            let mut masks = LayerMasks::none(probe.layers().len());
            masks.set(layer, mask);
            masks.apply(&mut probe);
            points.push((s, eval_ndcg10(&probe, normalizer, valid)));
        }
        curves.push(SensitivityCurve { layer, points });
    }
    curves
}

/// Dynamic sensitivity: like [`static_sensitivity`], but each probe is
/// fine-tuned for `retrain_epochs` under its mask (using the distillation
/// loop) before evaluation.
pub fn dynamic_sensitivity(
    session: &DistillSession,
    mlp: &Mlp,
    valid: &Dataset,
    levels: &[f64],
    retrain_epochs: usize,
) -> Vec<SensitivityCurve> {
    let hyper = &session.config().hyper;
    let schedule = StepLr::constant(hyper.learning_rate);
    let mut curves = Vec::new();
    for layer in 0..mlp.layers().len() {
        let mut points = Vec::with_capacity(levels.len());
        for &s in levels {
            let mut probe = mlp.clone();
            let mask = level_mask(probe.layers()[layer].weights.as_slice(), s);
            let mut masks = LayerMasks::none(probe.layers().len());
            masks.set(layer, mask);
            masks.apply(&mut probe);
            session.run_epochs(&mut probe, &schedule, 0..retrain_epochs, Some(&masks));
            points.push((s, eval_ndcg10(&probe, session.normalizer(), valid)));
        }
        curves.push(SensitivityCurve { layer, points });
    }
    curves
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlr_data::{Split, SplitRatios, SyntheticConfig};
    use dlr_distill::{DistillConfig, DistillHyper};
    use dlr_gbdt::{GrowthParams, LambdaMartParams, LambdaMartTrainer};

    fn setup() -> (dlr_gbdt::Ensemble, Split) {
        let mut cfg = SyntheticConfig::msn30k_like(40);
        cfg.docs_per_query = 20;
        cfg.num_features = 12;
        cfg.num_informative = 5;
        let data = cfg.generate();
        let split = Split::by_query(&data, SplitRatios::PAPER, 3).unwrap();
        let params = LambdaMartParams {
            num_trees: 10,
            growth: GrowthParams {
                max_leaves: 8,
                min_data_in_leaf: 5,
                ..Default::default()
            },
            early_stopping_rounds: 0,
            ..Default::default()
        };
        let (teacher, _) = LambdaMartTrainer::new(params).fit(&split.train, None);
        (teacher, split)
    }

    #[test]
    fn static_curves_cover_all_layers_and_levels() {
        let (teacher, split) = setup();
        let mut hyper = DistillHyper::msn30k();
        hyper.train_epochs = 8;
        hyper.gamma_steps = vec![5, 7];
        let cfg = DistillConfig {
            hyper,
            batch_size: 64,
            ..Default::default()
        };
        let session = DistillSession::new(&teacher, &split.train, cfg);
        let model = session.train_student(&[12, 6]);
        let levels = [0.0, 0.5, 0.95];
        let curves = static_sensitivity(&model.mlp, session.normalizer(), &split.valid, &levels);
        assert_eq!(curves.len(), 3); // 12→12, 12→6, 6→1
        for c in &curves {
            assert_eq!(c.points.len(), 3);
            // Sparsity 0 leaves the model untouched: all layers' first
            // point is the unpruned validation NDCG.
            assert!((c.points[0].1 - curves[0].points[0].1).abs() < 1e-12);
            for &(_, ndcg) in &c.points {
                assert!((0.0..=1.0).contains(&ndcg));
            }
        }
        // Sparsity levels are recorded alongside their scores.
        assert_eq!(
            curves[0].points.iter().map(|p| p.0).collect::<Vec<_>>(),
            levels
        );
    }

    #[test]
    fn dynamic_recovers_better_than_static_at_high_sparsity() {
        let (teacher, split) = setup();
        let mut hyper = DistillHyper::msn30k();
        hyper.train_epochs = 12;
        hyper.gamma_steps = vec![8, 11];
        let cfg = DistillConfig {
            hyper,
            batch_size: 64,
            ..Default::default()
        };
        let session = DistillSession::new(&teacher, &split.train, cfg);
        let model = session.train_student(&[12, 6]);
        let levels = [0.9];
        let stat = static_sensitivity(&model.mlp, session.normalizer(), &split.valid, &levels);
        let dynamic = dynamic_sensitivity(&session, &model.mlp, &split.valid, &levels, 4);
        // Layer 0 at 90% sparsity: retraining should not do worse than
        // no retraining (allowing small noise).
        assert!(
            dynamic[0].points[0].1 >= stat[0].points[0].1 - 0.03,
            "dynamic {} vs static {}",
            dynamic[0].points[0].1,
            stat[0].points[0].1
        );
    }
}
