//! The Table 9 prune/fine-tune pipeline, specialized to the paper's
//! early-layers efficiency-oriented pruning.
//!
//! §5.2: "We prune only the first layer in an aggressive fashion and we
//! fine-tune its surviving entries and all the weights of the other
//! layers." The phase structure follows Han et al. as quoted in §6.1:
//! `E_p` epochs of interleaved pruning/fine-tuning followed by `E_ft`
//! epochs of fine-tuning only. During the pruning phase the mask is
//! re-derived every epoch — under the fixed Distiller threshold for
//! [`PruneMethod::Threshold`], or under a linearly ramped target for
//! [`PruneMethod::Level`] — and is frozen for the fine-tuning phase.

use crate::magnitude::{han_threshold, level_mask, mask_below, mask_sparsity, PruneMethod};
use dlr_distill::DistillSession;
use dlr_nn::train::SgdTrainer;
use dlr_nn::{
    BatchSource, GuardStats, LayerMasks, LoopState, Mlp, ResilienceConfig, StepLr, TrainError,
};
use std::collections::BTreeMap;
use std::path::Path;

/// Configuration for [`prune_first_layer`].
#[derive(Debug, Clone, Copy)]
pub struct PruneConfig {
    /// Which layer to sparsify (0 = the paper's choice, the input layer).
    pub layer: usize,
    /// How the mask is derived.
    pub method: PruneMethod,
}

impl PruneConfig {
    /// The paper's default: threshold pruning of the first layer.
    pub fn first_layer_threshold(sensitivity: f32) -> PruneConfig {
        PruneConfig {
            layer: 0,
            method: PruneMethod::Threshold { sensitivity },
        }
    }

    /// Level pruning of the first layer to a target sparsity.
    pub fn first_layer_level(sparsity: f64) -> PruneConfig {
        PruneConfig {
            layer: 0,
            method: PruneMethod::Level { sparsity },
        }
    }
}

/// Result of a prune/fine-tune run. On a resumed run the per-epoch
/// vectors cover the epochs *executed in this invocation*.
#[derive(Debug, Clone)]
pub struct PruneOutcome {
    /// Achieved sparsity of the pruned layer after the final mask.
    pub final_sparsity: f64,
    /// Mean minibatch loss per epoch (pruning then fine-tuning phases).
    pub epoch_loss: Vec<f64>,
    /// Sparsity after each pruning epoch (length `E_p`).
    pub sparsity_curve: Vec<f64>,
    /// What the divergence guard caught and did.
    pub stats: GuardStats,
    /// Epoch the run resumed from, when a checkpoint was recovered.
    pub resumed_from: Option<usize>,
    /// Corrupt/unreadable checkpoints skipped during recovery.
    pub checkpoints_skipped: usize,
}

/// Run the prune/fine-tune schedule on a distilled student, in place.
///
/// `session` supplies the distillation batches (real + synthetic, teacher
/// scores, normalizer); its `hyper` provides `E_p`, `E_ft`, the learning
/// rate and the γ schedule. Adam state persists across both phases, as in
/// a single Distiller run.
///
/// # Panics
/// Panics when `cfg.layer` is out of range for `mlp`, and with the
/// [`TrainError::Diverged`] text when an epoch keeps producing non-finite
/// losses or gradients through the default rollback budget.
pub fn prune_first_layer(
    session: &DistillSession,
    mlp: &mut Mlp,
    cfg: &PruneConfig,
) -> PruneOutcome {
    run_schedule(session, mlp, cfg, &ResilienceConfig::default(), None)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`prune_first_layer`] with checkpoints in `ckpt_dir`, which carry the
/// whole schedule state (masks and the frozen Distiller threshold
/// included): invoked again after an interruption it finishes on the bits
/// of an uninterrupted run, which are the bits [`prune_first_layer`]
/// produces. Checkpoints are tagged `prune`; a directory holding another
/// schedule's is refused.
///
/// # Errors
/// See [`dlr_nn::run_epochs`].
///
/// # Panics
/// Panics when `cfg.layer` is out of range for `mlp`.
pub fn prune_first_layer_resilient(
    session: &DistillSession,
    mlp: &mut Mlp,
    cfg: &PruneConfig,
    res: &ResilienceConfig,
    ckpt_dir: &Path,
) -> Result<PruneOutcome, TrainError> {
    run_schedule(session, mlp, cfg, res, Some(ckpt_dir))
}

/// The schedule: one [`dlr_nn::run_epochs`] call of `E_p + E_ft` epochs
/// whose per-epoch hook derives the pruning-phase masks.
fn run_schedule(
    session: &DistillSession,
    mlp: &mut Mlp,
    cfg: &PruneConfig,
    res: &ResilienceConfig,
    ckpt_dir: Option<&Path>,
) -> Result<PruneOutcome, TrainError> {
    let PruneConfig { layer, method } = *cfg;
    assert!(layer < mlp.layers().len(), "layer {layer} out of range");
    let hyper = &session.config().hyper;
    let schedule = StepLr::new(hyper.learning_rate, hyper.gamma, &hyper.gamma_steps);
    let seed = session.config().seed;
    let trainer = SgdTrainer::new(mlp, hyper.dropout, seed ^ 0x9121);
    let masks = LayerMasks::none(mlp.layers().len());
    let mut source = session.batches();
    let mut st = LoopState::new("prune", trainer, masks, source.num_docs(), seed);
    // epoch → sparsity; a retried epoch's hook simply overwrites.
    let mut curve = BTreeMap::new();
    // Runs inside the rollback scope: a retried or resumed epoch derives
    // its mask again from the restored weights.
    let mut hook = |st: &mut LoopState, mlp: &mut Mlp| {
        // Every pruning epoch, and the fine-tune phase as a whole, starts
        // from freshly seeded data streams (DESIGN.md, "Known deviations").
        if st.epoch <= hyper.prune_epochs {
            st.seed_streams(seed);
        }
        if st.epoch >= hyper.prune_epochs {
            return; // fine-tuning: the mask stays as the last pruning epoch left it
        }
        let weights = mlp.layers()[layer].weights.as_slice();
        let mask = match method {
            PruneMethod::Threshold { sensitivity } => {
                // The Distiller threshold is computed once, on the
                // pre-pruning weights, and rides in the checkpointed state
                // so a resumed run prunes against the same bar.
                let bar = st
                    .threshold
                    .get_or_insert_with(|| han_threshold(weights, sensitivity));
                mask_below(weights, *bar)
            }
            PruneMethod::Level { sparsity } => {
                // Linear ramp to the target across the pruning phase.
                let ramp = sparsity * (st.epoch + 1) as f64 / hyper.prune_epochs as f64;
                level_mask(weights, ramp)
            }
        };
        curve.insert(st.epoch, mask_sparsity(&mask));
        st.masks.set(layer, mask);
        // Zeroes the pruned weights AND their Adam moments — stale
        // momentum must not resurrect a pruned weight on the next step.
        st.trainer.apply_masks(mlp, &st.masks);
    };
    let report = dlr_nn::run_epochs(
        mlp,
        &mut st,
        &mut source,
        &schedule,
        hyper.prune_epochs + hyper.finetune_epochs,
        res,
        ckpt_dir,
        &mut hook,
    )?;
    Ok(PruneOutcome {
        final_sparsity: mlp.layers()[layer].sparsity(),
        epoch_loss: report.epoch_loss,
        sparsity_curve: curve.into_values().collect(),
        stats: report.stats,
        resumed_from: report.resumed_from,
        checkpoints_skipped: report.checkpoints_skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlr_data::SyntheticConfig;
    use dlr_distill::{DistillConfig, DistillHyper};
    use dlr_gbdt::{Ensemble, GrowthParams, LambdaMartParams, LambdaMartTrainer};

    fn setup() -> (Ensemble, dlr_data::Dataset) {
        let mut cfg = SyntheticConfig::msn30k_like(30);
        cfg.docs_per_query = 20;
        cfg.num_features = 12;
        cfg.num_informative = 5;
        let data = cfg.generate();
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
        let (teacher, _) = LambdaMartTrainer::new(params).fit(&data, None);
        (teacher, data)
    }

    fn session_cfg(ep: usize, eft: usize) -> DistillConfig {
        let mut hyper = DistillHyper::msn30k();
        hyper.train_epochs = 10;
        hyper.prune_epochs = ep;
        hyper.finetune_epochs = eft;
        hyper.gamma_steps = vec![6, 9];
        DistillConfig {
            hyper,
            batch_size: 64,
            ..Default::default()
        }
    }

    #[test]
    fn level_pruning_reaches_the_target() {
        let (teacher, data) = setup();
        let session = DistillSession::new(&teacher, &data, session_cfg(5, 2));
        let mut model = session.train_student(&[16, 8]);
        let out = prune_first_layer(
            &session,
            &mut model.mlp,
            &PruneConfig::first_layer_level(0.9),
        );
        assert!(
            (out.final_sparsity - 0.9).abs() < 0.02,
            "sparsity {}",
            out.final_sparsity
        );
        // Ramp is monotone.
        for w in out.sparsity_curve.windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
        assert_eq!(out.epoch_loss.len(), 7);
        // Other layers stay dense.
        assert!(model.mlp.layers()[1].sparsity() < 0.05);
    }

    #[test]
    fn threshold_pruning_increases_sparsity_over_epochs() {
        let (teacher, data) = setup();
        let session = DistillSession::new(&teacher, &data, session_cfg(6, 1));
        let mut model = session.train_student(&[16, 8]);
        let out = prune_first_layer(
            &session,
            &mut model.mlp,
            &PruneConfig::first_layer_threshold(0.8),
        );
        // The fixed threshold keeps pulling re-trained weights under it:
        // final sparsity must be at least the first epoch's.
        assert!(out.final_sparsity >= out.sparsity_curve[0] - 1e-9);
        assert!(out.final_sparsity > 0.3, "sparsity {}", out.final_sparsity);
        // Surviving weights all exceed the threshold at mask time.
        let nnz = model.mlp.layers()[0]
            .weights
            .as_slice()
            .iter()
            .filter(|&&w| w != 0.0)
            .count();
        assert!(nnz > 0, "some weights must survive");
    }

    #[test]
    fn pruned_model_still_scores_sanely() {
        let (teacher, data) = setup();
        let session = DistillSession::new(&teacher, &data, session_cfg(4, 2));
        let mut model = session.train_student(&[16, 8]);
        prune_first_layer(
            &session,
            &mut model.mlp,
            &PruneConfig::first_layer_level(0.8),
        );
        let mut out = vec![0.0f32; data.num_docs()];
        model.score_batch(data.features(), &mut out);
        assert!(out.iter().all(|s| s.is_finite()));
        // Scores still vary across documents.
        let min = out.iter().cloned().fold(f32::MAX, f32::min);
        let max = out.iter().cloned().fold(f32::MIN, f32::max);
        assert!(max > min);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_layer_panics() {
        let (teacher, data) = setup();
        let session = DistillSession::new(&teacher, &data, session_cfg(1, 1));
        let mut mlp = Mlp::from_hidden(12, &[4], 1);
        let cfg = PruneConfig {
            layer: 5,
            method: PruneMethod::Level { sparsity: 0.5 },
        };
        prune_first_layer(&session, &mut mlp, &cfg);
    }
}
