//! Crash-safe distillation demo: checkpoint, kill, resume, same weights.
//!
//! Runs a small deterministic distillation (synthetic MSN30K-shaped data,
//! LambdaMART teacher, fixed seeds) through
//! `DistillSession::run_epochs_resilient` — the one epoch loop
//! (`dlr_nn::run_epochs`) given a checkpoint directory. Every epoch
//! boundary writes an atomic, checksummed checkpoint into `--ckpt-dir`;
//! starting the program again with the same directory resumes from the
//! newest intact checkpoint and produces **bit-identical** final weights
//! to a run that was never interrupted (and to `DistillSession::run_epochs`,
//! which writes no checkpoint at all).
//!
//! ```sh
//! # crash after epoch 3 (exits with code 42)...
//! cargo run --release --example train_resilient -- --ckpt-dir /tmp/ck --epochs 6 --crash-after 3
//! # ...resume and finish; prints `final-ndcg <v>` and writes the model
//! cargo run --release --example train_resilient -- --ckpt-dir /tmp/ck --epochs 6 --out /tmp/model.dlr
//! ```
//!
//! The CI crash/resume smoke job drives exactly this sequence and
//! `cmp`s the resumed model against an uninterrupted one.

use distilled_ltr::data::SyntheticConfig;
use distilled_ltr::distill::{DistillConfig, DistillHyper, DistillSession, ResilienceConfig};
use distilled_ltr::gbdt::{GrowthParams, LambdaMartParams, LambdaMartTrainer};
use distilled_ltr::metrics::evaluate_scores;
use distilled_ltr::nn::{write_mlp, FaultInjector, FaultPlan, Mlp, StepLr, TrainError};
use std::path::PathBuf;
use std::process::exit;

/// Exit code of a simulated crash, so the harness can tell "injected
/// fault fired as planned" from a real failure.
const CRASH_EXIT_CODE: i32 = 42;

struct Args {
    ckpt_dir: PathBuf,
    epochs: usize,
    crash_after: Option<usize>,
    out: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        ckpt_dir: PathBuf::from("/tmp/dlr-resilient-ckpt"),
        epochs: 6,
        crash_after: None,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} requires a value");
                exit(2);
            })
        };
        match flag.as_str() {
            "--ckpt-dir" => args.ckpt_dir = PathBuf::from(value("--ckpt-dir")),
            "--epochs" => args.epochs = value("--epochs").parse().expect("--epochs <n>"),
            "--crash-after" => {
                args.crash_after = Some(value("--crash-after").parse().expect("--crash-after <n>"));
            }
            "--out" => args.out = Some(PathBuf::from(value("--out"))),
            other => {
                eprintln!("unknown flag {other}; see the module docs for usage");
                exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();

    // Fixed seeds end to end: any two runs of this program differ only in
    // where they were interrupted.
    let mut data_cfg = SyntheticConfig::msn30k_like(40);
    data_cfg.docs_per_query = 25;
    data_cfg.num_features = 16;
    data_cfg.num_informative = 6;
    let data = data_cfg.generate();
    let params = LambdaMartParams {
        num_trees: 20,
        growth: GrowthParams {
            max_leaves: 16,
            min_data_in_leaf: 5,
            ..Default::default()
        },
        early_stopping_rounds: 0,
        ..Default::default()
    };
    let (teacher, _) = LambdaMartTrainer::new(params).fit(&data, None);

    let mut hyper = DistillHyper::istella_s().scaled_down(40);
    hyper.train_epochs = args.epochs;
    hyper.gamma_steps = vec![(args.epochs * 6 / 10).max(1), (args.epochs * 9 / 10).max(1)];
    let cfg = DistillConfig {
        hyper,
        batch_size: 64,
        ..Default::default()
    };
    let schedule = StepLr::new(
        cfg.hyper.learning_rate,
        cfg.hyper.gamma,
        &cfg.hyper.gamma_steps,
    );
    let session = DistillSession::new(&teacher, &data, cfg);
    let res = ResilienceConfig {
        checkpoint_every: 1,
        ..Default::default()
    };

    let mut injector = args
        .crash_after
        .map(|e| FaultInjector::new(FaultPlan::default().with_crash_after(e)));
    let mut mlp = Mlp::from_hidden(data.num_features(), &[32, 16], 0xD157);
    let outcome = session.run_epochs_resilient(
        &mut mlp,
        &schedule,
        args.epochs,
        &res,
        &args.ckpt_dir,
        injector.as_mut(),
    );

    let report = match outcome {
        Ok(report) => report,
        Err(TrainError::InjectedCrash { epoch }) => {
            eprintln!("simulated crash after epoch {epoch}; checkpoint retained, exiting {CRASH_EXIT_CODE}");
            exit(CRASH_EXIT_CODE);
        }
        Err(e) => {
            eprintln!("training failed: {e}");
            exit(1);
        }
    };

    match report.resumed_from {
        Some(epoch) => eprintln!(
            "resumed from checkpoint at epoch {epoch} ({} skipped as corrupt), ran {} epochs",
            report.checkpoints_skipped,
            report.epoch_loss.len()
        ),
        None => eprintln!("fresh run, {} epochs", report.epoch_loss.len()),
    }

    // Score the training set (normalized features) and report ranking
    // quality — the CI job diffs this line between resumed and clean runs.
    let mut rows = data.features().to_vec();
    session.normalizer().apply_matrix(&mut rows);
    let mut scores = vec![0.0f32; data.num_docs()];
    mlp.score_batch(&rows, &mut scores);
    let ndcg = evaluate_scores(&scores, &data).mean_ndcg10();
    println!("final-ndcg {ndcg:.6}");

    if let Some(out) = args.out {
        let mut file = std::fs::File::create(&out).expect("create --out file");
        write_mlp(&mlp, &mut file).expect("write model");
        eprintln!("model written to {}", out.display());
    }
}
