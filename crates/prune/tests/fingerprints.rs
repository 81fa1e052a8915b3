//! Golden fingerprints of distilled, first-layer-pruned students: student
//! training is bit-deterministic, and these pin it.
//!
//! A fingerprint is one FNV-1a `u64` over every layer's shape, weight bits
//! and bias bits after distillation, pruning and fine-tuning. The expected
//! values were taken before the GEMM tile was reshaped and before the
//! training step stopped transposing its operands; a change to the kernels
//! or the step that is meant to keep the weights must leave every one of
//! them unchanged (a new value is a different model, not a refresh). Each
//! test holds two values, one per numeric path of the dispatched GEMM, so
//! it passes under `DLR_SIMD=scalar|sse2` as under the default dispatch.
//!
//! The first group runs in debug in seconds. The two `#[ignore]`d tests
//! train the benchmark's score-hybrid (400×200×200×100) and train-distill
//! (200×100×100×50) students on the benchmark corpus, which takes seconds
//! in release:
//!
//! ```text
//! cargo test -p dlr-prune --release --test fingerprints -- --ignored
//! ```

use dlr_data::{Dataset, Split, SplitRatios, SyntheticConfig};
use dlr_distill::{DistillConfig, DistillHyper, DistillSession};
use dlr_gbdt::{Ensemble, GrowthParams, LambdaMartParams, LambdaMartTrainer};
use dlr_nn::{Mlp, StepLr};
use dlr_prune::{prune_first_layer, PruneConfig};
use dlr_simd::Isa;

/// Seed of the benchmark's corpus, its split and the student's weights.
const CORPUS_SEED: u64 = 0x4D53_4E31;

/// FNV-1a over the network's shapes and parameter bits.
fn fingerprint(mlp: &Mlp) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for layer in mlp.layers() {
        eat(layer.in_features() as u64);
        eat(layer.out_features() as u64);
        for v in layer.weights.as_slice().iter().chain(&layer.bias) {
            eat(u64::from(v.to_bits()));
        }
    }
    h
}

/// `want` holds the fingerprint under the dispatched GEMM's two numeric
/// paths: separate multiply and add (scalar, SSE2: one value by contract)
/// and fused multiply-add (AVX2).
fn check(name: &str, mlp: &Mlp, want: [u64; 2]) {
    let got = fingerprint(mlp);
    let want = want[usize::from(dlr_simd::active() == Isa::Avx2)];
    assert_eq!(
        got, want,
        "{name}: fingerprint {got:#018x}, want {want:#018x}"
    );
}

/// The benchmark's corpus and training split (`benchmark/src/models.rs`):
/// 64-document MSN30K-like queries, `train_queries` of them for training.
fn train_split(train_queries: usize, heldout_queries: usize) -> Dataset {
    let total = train_queries + heldout_queries;
    let mut cfg = SyntheticConfig::msn30k_like(total);
    cfg.docs_per_query = 64;
    cfg.seed = CORPUS_SEED;
    let train = train_queries as f64 / total as f64;
    let ratios = SplitRatios {
        train,
        valid: 0.0,
        test: 1.0 - train,
    };
    Split::by_query(&cfg.generate(), ratios, CORPUS_SEED)
        .unwrap()
        .train
}

/// The benchmark's LambdaMART teacher.
fn teacher(train: &Dataset, trees: usize, leaves: usize) -> Ensemble {
    LambdaMartTrainer::new(LambdaMartParams {
        num_trees: trees,
        learning_rate: 0.1,
        growth: GrowthParams {
            max_leaves: leaves,
            ..GrowthParams::default()
        },
        early_stopping_rounds: 0,
        ..LambdaMartParams::default()
    })
    .fit(train, None)
    .0
}

/// The benchmark's distillation schedule: `[train, prune, fine-tune]`
/// epochs, one learning-rate step two thirds through distillation.
fn config(epochs: [usize; 3], dropout: f32) -> DistillConfig {
    let [train_epochs, prune_epochs, finetune_epochs] = epochs;
    DistillConfig {
        hyper: DistillHyper {
            train_epochs,
            prune_epochs,
            finetune_epochs,
            gamma_steps: vec![(train_epochs * 2 / 3).max(1)],
            dropout,
            ..DistillHyper::msn30k()
        },
        batch_size: 256,
        seed: CORPUS_SEED,
        ..DistillConfig::default()
    }
}

/// Distil a student from `session`, then prune its first layer to the
/// benchmark's 98.7% and fine-tune.
fn distilled_and_pruned(session: &DistillSession<'_>, hidden: &[usize]) -> Mlp {
    let mut mlp = session.train_student(hidden).mlp;
    prune_first_layer(session, &mut mlp, &PruneConfig::first_layer_level(0.987));
    mlp
}

#[test]
fn small_students_keep_their_weights() {
    let train = train_split(16, 24);
    let forest = teacher(&train, 6, 8);

    // The benchmark's `--check` student, and one with odd widths that
    // straddle every GEMM tile edge.
    let session = DistillSession::new(&forest, &train, config([2, 1, 1], 0.0));
    check(
        "24x12",
        &distilled_and_pruned(&session, &[24, 12]),
        [0x74d4_ed97_34da_b719, 0xf066_6e78_1911_f063],
    );
    check(
        "13x7x9",
        &distilled_and_pruned(&session, &[13, 7, 9]),
        [0xcc64_b50d_f6a1_4549, 0x7363_52bb_87bc_2bd0],
    );

    // Dropout after the first layer, with first-layer weights scaled up so
    // that ReLU6 saturates and kept activations are scaled past 6.
    let session = DistillSession::new(&forest, &train, config([2, 1, 1], 0.3));
    let mut mlp = Mlp::from_hidden(train.num_features(), &[17, 6], 5);
    for w in mlp.layers_mut()[0].weights.as_mut_slice() {
        *w *= 8.0;
    }
    let h = &session.config().hyper;
    let schedule = StepLr::new(h.learning_rate, h.gamma, &h.gamma_steps);
    session.run_epochs(&mut mlp, &schedule, 0..h.train_epochs, None);
    prune_first_layer(&session, &mut mlp, &PruneConfig::first_layer_level(0.987));
    check(
        "dropout 17x6",
        &mlp,
        [0x7849_e682_0806_df6f, 0xde60_41bb_351a_1aa5],
    );
}

fn benchmark_student(
    train_queries: usize,
    trees: usize,
    leaves: usize,
    hidden: &[usize],
    epochs: [usize; 3],
) -> Mlp {
    let train = train_split(train_queries, 280);
    let forest = teacher(&train, trees, leaves);
    let session = DistillSession::new(&forest, &train, config(epochs, 0.0));
    distilled_and_pruned(&session, hidden)
}

#[test]
#[ignore = "seconds in release; run with --release -- --ignored"]
fn score_hybrid_student_keeps_its_weights() {
    let mlp = benchmark_student(100, 40, 32, &[400, 200, 200, 100], [6, 3, 2]);
    check(
        "score-hybrid 400x200x200x100",
        &mlp,
        [0x3845_94da_b20b_c27e, 0xd630_59af_c1e7_56e5],
    );
}

#[test]
#[ignore = "seconds in release; run with --release -- --ignored"]
fn train_distill_student_keeps_its_weights() {
    let mlp = benchmark_student(200, 100, 64, &[200, 100, 100, 50], [14, 8, 4]);
    check(
        "train-distill 200x100x100x50",
        &mlp,
        [0xb7db_7cbc_8759_c93d, 0x5bda_5793_b854_6416],
    );
}
