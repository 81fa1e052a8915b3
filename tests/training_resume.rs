//! Crash/resume equivalence for the self-healing training pipeline.
//!
//! The acceptance bar for the robustness layer: a distillation or
//! prune/fine-tune run interrupted at an epoch boundary and resumed from
//! its latest checkpoint must produce **bit-identical** final weights to
//! a run that was never interrupted — and to a run that never wrote a
//! checkpoint at all — and every injected fault must be detected and
//! recovered with statistics that match the injected counts exactly. All faults here are scripted through `FaultInjector` — no
//! real process is killed (the CI smoke job covers that path end to end).

use distilled_ltr::data::{Dataset, SyntheticConfig};
use distilled_ltr::distill::{DistillConfig, DistillHyper, DistillSession, ResilienceConfig};
use distilled_ltr::gbdt::{Ensemble, GrowthParams, LambdaMartParams, LambdaMartTrainer};
use distilled_ltr::nn::{
    write_mlp, CorruptMode, FaultInjector, FaultPlan, GuardConfig, Mlp, StepLr, TrainError,
};
use distilled_ltr::prune::{prune_first_layer, prune_first_layer_resilient, PruneConfig};
use std::path::PathBuf;

fn small_setup() -> (Ensemble, Dataset) {
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

/// Distill config with dropout ON: resume must also restore the dropout
/// RNG stream mid-trajectory for the equivalence to hold.
fn distill_cfg(train_epochs: usize, ep: usize, eft: usize) -> DistillConfig {
    let mut hyper = DistillHyper::istella_s().scaled_down(50);
    hyper.train_epochs = train_epochs;
    hyper.prune_epochs = ep;
    hyper.finetune_epochs = eft;
    hyper.gamma_steps = vec![train_epochs * 6 / 10, train_epochs * 9 / 10];
    assert!(hyper.dropout > 0.0, "this suite must exercise dropout");
    DistillConfig {
        hyper,
        batch_size: 64,
        ..Default::default()
    }
}

fn schedule_of(cfg: &DistillConfig) -> StepLr {
    StepLr::new(
        cfg.hyper.learning_rate,
        cfg.hyper.gamma,
        &cfg.hyper.gamma_steps,
    )
}

/// Unique scratch dir, wiped at creation.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dlr-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn student(session_features: usize) -> Mlp {
    Mlp::from_hidden(session_features, &[16, 8], 0xD15_7111)
}

fn model_bytes(mlp: &Mlp) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_mlp(mlp, &mut bytes).unwrap();
    bytes
}

#[test]
fn checkpointing_changes_no_bit() {
    // One loop, one trajectory: the plain entry points and the
    // checkpointed ones must write the same model file, with dropout on.
    let (teacher, data) = small_setup();
    let cfg = distill_cfg(3, 3, 2);
    let session = DistillSession::new(&teacher, &data, cfg.clone());
    let schedule = schedule_of(&cfg);
    let res = ResilienceConfig::default();

    let mut plain = student(data.num_features());
    let plain_loss = session.run_epochs(&mut plain, &schedule, 0..3, None);
    let dir = scratch("onoff-distill");
    let mut checkpointed = student(data.num_features());
    let report = session
        .run_epochs_resilient(&mut checkpointed, &schedule, 3, &res, &dir, None)
        .unwrap();
    assert_eq!(model_bytes(&plain), model_bytes(&checkpointed));
    assert_eq!(plain_loss, report.epoch_loss);
    let _ = std::fs::remove_dir_all(&dir);

    for (name, prune_cfg) in [
        ("level", PruneConfig::first_layer_level(0.8)),
        ("threshold", PruneConfig::first_layer_threshold(0.6)),
    ] {
        let mut off = plain.clone();
        let off_out = prune_first_layer(&session, &mut off, &prune_cfg);
        let dir = scratch(&format!("onoff-{name}"));
        let mut on = plain.clone();
        let on_out =
            prune_first_layer_resilient(&session, &mut on, &prune_cfg, &res, &dir, None).unwrap();
        assert_eq!(model_bytes(&off), model_bytes(&on), "{name} prune");
        assert_eq!(off_out.epoch_loss, on_out.epoch_loss, "{name} prune");
        assert_eq!(
            off_out.sparsity_curve, on_out.sparsity_curve,
            "{name} prune"
        );
        assert_eq!(
            off_out.final_sparsity, on_out.final_sparsity,
            "{name} prune"
        );
        assert_eq!(on_out.sparsity_curve.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn distill_resume_is_bit_identical_to_uninterrupted() {
    let (teacher, data) = small_setup();
    let cfg = distill_cfg(6, 1, 1);
    let session = DistillSession::new(&teacher, &data, cfg.clone());
    let schedule = schedule_of(&cfg);
    let res = ResilienceConfig {
        checkpoint_every: 2,
        ..Default::default()
    };

    // Uninterrupted reference run.
    let clean_dir = scratch("distill-clean");
    let mut clean = student(data.num_features());
    let clean_report = session
        .run_epochs_resilient(&mut clean, &schedule, 6, &res, &clean_dir, None)
        .unwrap();
    assert_eq!(clean_report.resumed_from, None);
    assert_eq!(clean_report.epoch_loss.len(), 6);

    // Interrupted run: simulated crash right after epoch 3's checkpoint.
    let dir = scratch("distill-crash");
    let mut interrupted = student(data.num_features());
    let mut inj = FaultInjector::new(FaultPlan::default().with_crash_after(3));
    let err = session
        .run_epochs_resilient(&mut interrupted, &schedule, 6, &res, &dir, Some(&mut inj))
        .unwrap_err();
    assert!(matches!(err, TrainError::InjectedCrash { epoch: 3 }));
    assert_eq!(inj.counters.crashes, 1);

    // Resume from the directory with a *fresh* model argument: recovery
    // must come entirely from the checkpoint.
    let mut resumed = student(data.num_features());
    let report = session
        .run_epochs_resilient(&mut resumed, &schedule, 6, &res, &dir, None)
        .unwrap();
    assert_eq!(report.resumed_from, Some(4));
    assert_eq!(report.epoch_loss.len(), 2);
    assert_eq!(
        resumed, clean,
        "resumed weights must match the uninterrupted run bit-for-bit"
    );

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_at_every_epoch_boundary_resumes_equivalently() {
    let (teacher, data) = small_setup();
    let cfg = distill_cfg(4, 1, 1);
    let session = DistillSession::new(&teacher, &data, cfg.clone());
    let schedule = schedule_of(&cfg);
    let res = ResilienceConfig {
        checkpoint_every: 1,
        ..Default::default()
    };

    let clean_dir = scratch("sweep-clean");
    let mut clean = student(data.num_features());
    session
        .run_epochs_resilient(&mut clean, &schedule, 4, &res, &clean_dir, None)
        .unwrap();

    for crash_epoch in 0..4 {
        let dir = scratch(&format!("sweep-{crash_epoch}"));
        let mut mlp = student(data.num_features());
        let mut inj = FaultInjector::new(FaultPlan::default().with_crash_after(crash_epoch));
        // Every boundary checkpoints before the crash fires — including
        // the final epoch, whose resumed run has nothing left to do.
        session
            .run_epochs_resilient(&mut mlp, &schedule, 4, &res, &dir, Some(&mut inj))
            .unwrap_err();
        let mut resumed = student(data.num_features());
        let report = session
            .run_epochs_resilient(&mut resumed, &schedule, 4, &res, &dir, None)
            .unwrap();
        assert_eq!(report.resumed_from, Some(crash_epoch + 1));
        assert_eq!(
            resumed, clean,
            "crash after epoch {crash_epoch}: resume diverged from clean run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&clean_dir);
}

#[test]
fn injected_nan_faults_roll_back_with_exact_counts() {
    let (teacher, data) = small_setup();
    let cfg = distill_cfg(5, 1, 1);
    let session = DistillSession::new(&teacher, &data, cfg.clone());
    let schedule = schedule_of(&cfg);
    // lr_backoff = 1.0 keeps the retried trajectory on the clean path, so
    // recovery is not just "it finished" but bit-exact.
    let res = ResilienceConfig {
        guard: GuardConfig {
            lr_backoff: 1.0,
            max_rollbacks: 3,
            ..Default::default()
        },
        checkpoint_every: 2,
        ..Default::default()
    };

    let clean_dir = scratch("nan-clean");
    let mut clean = student(data.num_features());
    session
        .run_epochs_resilient(&mut clean, &schedule, 5, &res, &clean_dir, None)
        .unwrap();

    // Three NaN batches in separate epochs (well apart so each rollback
    // completes before the next fault).
    let dir = scratch("nan-faulted");
    let mut faulted = student(data.num_features());
    let plan = FaultPlan::nan_at(&[2, 15, 31]);
    let mut inj = FaultInjector::new(plan);
    let report = session
        .run_epochs_resilient(&mut faulted, &schedule, 5, &res, &dir, Some(&mut inj))
        .unwrap();

    assert_eq!(inj.counters.nan_injected, 3, "all scheduled faults fired");
    assert_eq!(
        report.stats.nonfinite_losses, inj.counters.nan_injected,
        "every injected NaN was detected"
    );
    assert_eq!(
        report.stats.rollbacks, inj.counters.nan_injected,
        "every detection triggered exactly one rollback"
    );
    assert_eq!(faulted, clean, "post-recovery trajectory must rejoin");

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_newest_checkpoint_falls_back_to_previous() {
    let (teacher, data) = small_setup();
    let cfg = distill_cfg(6, 1, 1);
    let session = DistillSession::new(&teacher, &data, cfg.clone());
    let schedule = schedule_of(&cfg);
    let res = ResilienceConfig {
        checkpoint_every: 2,
        ..Default::default()
    };

    let clean_dir = scratch("corrupt-clean");
    let mut clean = student(data.num_features());
    session
        .run_epochs_resilient(&mut clean, &schedule, 6, &res, &clean_dir, None)
        .unwrap();

    for mode in [CorruptMode::FlipByte, CorruptMode::Truncate] {
        // Corrupt the checkpoint written after epoch 3 (file `ckpt-4`),
        // then crash. Recovery must skip it and restart from `ckpt-2`.
        let dir = scratch(&format!("corrupt-{mode:?}"));
        let mut mlp = student(data.num_features());
        let plan = FaultPlan::default()
            .with_corrupt_after(3, mode)
            .with_crash_after(3);
        let mut inj = FaultInjector::new(plan);
        let err = session
            .run_epochs_resilient(&mut mlp, &schedule, 6, &res, &dir, Some(&mut inj))
            .unwrap_err();
        assert!(matches!(err, TrainError::InjectedCrash { epoch: 3 }));
        assert_eq!(inj.counters.corruptions, 1);

        let mut resumed = student(data.num_features());
        let report = session
            .run_epochs_resilient(&mut resumed, &schedule, 6, &res, &dir, None)
            .unwrap();
        assert_eq!(report.checkpoints_skipped, 1, "corrupt file was skipped");
        assert_eq!(report.resumed_from, Some(2), "fell back to epoch 2");
        assert_eq!(resumed, clean, "{mode:?}: recovery diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&clean_dir);
}

#[test]
fn prune_finetune_resume_is_bit_identical() {
    let (teacher, data) = small_setup();
    // 4 prune epochs + 3 fine-tune epochs; threshold pruning so the
    // frozen Distiller threshold must survive the checkpoint.
    let cfg = distill_cfg(2, 4, 3);
    let session = DistillSession::new(&teacher, &data, cfg);
    let prune_cfg = PruneConfig::first_layer_threshold(0.6);
    let res = ResilienceConfig {
        checkpoint_every: 1,
        ..Default::default()
    };

    // A lightly-trained student to prune.
    let base = {
        let mut mlp = student(data.num_features());
        let schedule = schedule_of(session.config());
        let dir = scratch("prune-pretrain");
        session
            .run_epochs_resilient(&mut mlp, &schedule, 2, &res, &dir, None)
            .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        mlp
    };

    let clean_dir = scratch("prune-clean");
    let mut clean = base.clone();
    let clean_out =
        prune_first_layer_resilient(&session, &mut clean, &prune_cfg, &res, &clean_dir, None)
            .unwrap();
    assert_eq!(clean_out.sparsity_curve.len(), 4);
    assert!(clean_out.final_sparsity > 0.0);

    // Every boundary: mid-pruning, the last pruning epoch (the resumed
    // run opens on the first fine-tune epoch, where the data streams
    // reseed), mid-fine-tune, and the final epoch.
    for crash_epoch in 0..4 + 3 {
        let dir = scratch(&format!("prune-crash-{crash_epoch}"));
        let mut mlp = base.clone();
        let mut inj = FaultInjector::new(FaultPlan::default().with_crash_after(crash_epoch));
        let err =
            prune_first_layer_resilient(&session, &mut mlp, &prune_cfg, &res, &dir, Some(&mut inj))
                .unwrap_err();
        assert!(matches!(err, TrainError::InjectedCrash { .. }));

        let mut resumed = base.clone();
        let out = prune_first_layer_resilient(&session, &mut resumed, &prune_cfg, &res, &dir, None)
            .unwrap();
        assert_eq!(out.resumed_from, Some(crash_epoch + 1));
        assert_eq!(
            resumed, clean,
            "prune resume after epoch {crash_epoch} diverged"
        );
        assert_eq!(out.final_sparsity, clean_out.final_sparsity);
        // This invocation derived masks for the pruning epochs left.
        assert_eq!(
            out.sparsity_curve.len(),
            4usize.saturating_sub(crash_epoch + 1)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&clean_dir);
}

#[test]
fn another_runs_checkpoint_is_rejected_on_resume() {
    let (teacher, data) = small_setup();
    // E_t = 6 ≥ E_p + E_ft = 3: adopting the distillation checkpoint
    // would "resume" the prune schedule past its end and hand back an
    // unpruned model as a success.
    let cfg = distill_cfg(6, 2, 1);
    let session = DistillSession::new(&teacher, &data, cfg.clone());
    let schedule = schedule_of(&cfg);
    let res = ResilienceConfig::default();

    let dir = scratch("foreign");
    let mut mlp = student(data.num_features());
    session
        .run_epochs_resilient(&mut mlp, &schedule, 6, &res, &dir, None)
        .unwrap();

    // The prune schedule pointed at the directory its distillation wrote.
    let distilled = mlp.clone();
    let prune_cfg = PruneConfig::first_layer_level(0.8);
    let err =
        prune_first_layer_resilient(&session, &mut mlp, &prune_cfg, &res, &dir, None).unwrap_err();
    assert!(matches!(err, TrainError::Incompatible(_)), "{err:?}");
    assert_eq!(
        mlp, distilled,
        "a refused checkpoint must not touch the model"
    );

    // A run asked for fewer epochs than the checkpoint holds.
    let mut short = student(data.num_features());
    let err = session
        .run_epochs_resilient(&mut short, &schedule, 4, &res, &dir, None)
        .unwrap_err();
    assert!(matches!(err, TrainError::Incompatible(_)), "{err:?}");
    assert_eq!(short, student(data.num_features()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn incompatible_architecture_is_rejected_on_resume() {
    let (teacher, data) = small_setup();
    let cfg = distill_cfg(2, 1, 1);
    let session = DistillSession::new(&teacher, &data, cfg.clone());
    let schedule = schedule_of(&cfg);
    let res = ResilienceConfig::default();

    let dir = scratch("incompat");
    let mut mlp = student(data.num_features());
    session
        .run_epochs_resilient(&mut mlp, &schedule, 2, &res, &dir, None)
        .unwrap();

    // A different architecture must not silently adopt the checkpoint.
    let mut other = Mlp::from_hidden(data.num_features(), &[7], 1);
    let err = session
        .run_epochs_resilient(&mut other, &schedule, 4, &res, &dir, None)
        .unwrap_err();
    assert!(matches!(err, TrainError::Incompatible(_)), "{err:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
