//! Golden fingerprints of distilled, first-layer-pruned students: student
//! training is bit-deterministic, and these pin it.
//!
//! A weight fingerprint is one FNV-1a `u64` over every layer's shape,
//! weight bits and bias bits after distillation, pruning and fine-tuning.
//! The expected values were taken before the GEMM tile was reshaped and
//! before the training step stopped transposing its operands; a change to
//! the kernels or the step that is meant to keep the weights must leave
//! every one of them unchanged (a new value is a different model, not a
//! refresh). Each test holds two values, one per numeric path of the
//! dispatched GEMM, so it passes under `DLR_SIMD=scalar|sse2` as under the
//! default dispatch.
//!
//! A score fingerprint is the same hash over the bits of the frozen
//! student's scores ([`HybridMlp`], normalizing in its gather as the
//! deployed scorer does) on held-out queries. The expected values were
//! taken when freezing began to drop dead neurons and unread features;
//! they pin the frozen network from then on, and every score is also held
//! to the documented bound of the plain-loop dense forward of the same
//! weights.
//!
//! The first group runs in debug in seconds. The four `#[ignore]`d tests
//! cover the benchmark's score-hybrid (400×200×200×100) and train-distill
//! (200×100×100×50) students on the benchmark corpus — each student is
//! trained once and shared by its weight and score tests — which takes
//! seconds in release:
//!
//! ```text
//! cargo test -p dlr-prune --release --test fingerprints -- --ignored
//! ```

use dlr_data::{Dataset, Normalizer, Split, SplitRatios, SyntheticConfig};
use dlr_distill::{DistillConfig, DistillHyper, DistillSession};
use dlr_gbdt::{Ensemble, GrowthParams, LambdaMartParams, LambdaMartTrainer};
use dlr_nn::hybrid::HybridWorkspace;
use dlr_nn::{HybridMlp, Linear, Mlp, StepLr};
use dlr_prune::{prune_first_layer, PruneConfig};
use dlr_simd::Isa;
use std::sync::OnceLock;

/// Seed of the benchmark's corpus, its split and the student's weights.
const CORPUS_SEED: u64 = 0x4D53_4E31;

/// Held-out queries whose scores a score fingerprint covers.
const SCORED_QUERIES: usize = 16;

/// FNV-1a over a stream of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// FNV-1a over the network's shapes and parameter bits.
fn fingerprint(mlp: &Mlp) -> u64 {
    fnv(mlp.layers().iter().flat_map(|layer| {
        let shape = [layer.in_features() as u64, layer.out_features() as u64];
        let params = layer.weights.as_slice().iter().chain(&layer.bias);
        shape
            .into_iter()
            .chain(params.map(|v| u64::from(v.to_bits())))
    }))
}

/// `want` holds the fingerprint under the dispatched GEMM's two numeric
/// paths: separate multiply and add (scalar, SSE2: one value by contract)
/// and fused multiply-add (AVX2).
fn check_fingerprint(name: &str, got: u64, want: [u64; 2]) {
    let want = want[usize::from(dlr_simd::active() == Isa::Avx2)];
    assert_eq!(
        got, want,
        "{name}: fingerprint {got:#018x}, want {want:#018x}"
    );
}

fn check(name: &str, mlp: &Mlp, want: [u64; 2]) {
    check_fingerprint(name, fingerprint(mlp), want);
}

/// The benchmark's corpus split (`benchmark/src/models.rs`): 64-document
/// MSN30K-like queries, `train_queries` of them for training and the rest
/// held out.
fn corpus(train_queries: usize, heldout_queries: usize) -> Split {
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
    Split::by_query(&cfg.generate(), ratios, CORPUS_SEED).unwrap()
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
fn distilled_and_pruned(session: &DistillSession<'_>, hidden: &[usize]) -> (Mlp, Normalizer) {
    let model = session.train_student(hidden);
    let mut mlp = model.mlp;
    prune_first_layer(session, &mut mlp, &PruneConfig::first_layer_level(0.987));
    (mlp, model.normalizer)
}

#[test]
fn small_students_keep_their_weights() {
    let train = corpus(16, 24).train;
    let forest = teacher(&train, 6, 8);

    // The benchmark's `--check` student, and one with odd widths that
    // straddle every GEMM tile edge.
    let session = DistillSession::new(&forest, &train, config([2, 1, 1], 0.0));
    check(
        "24x12",
        &distilled_and_pruned(&session, &[24, 12]).0,
        [0x74d4_ed97_34da_b719, 0xf066_6e78_1911_f063],
    );
    check(
        "13x7x9",
        &distilled_and_pruned(&session, &[13, 7, 9]).0,
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

/// A benchmark student with its normalizer and held-out queries.
struct Student {
    mlp: Mlp,
    normalizer: Normalizer,
    heldout: Dataset,
}

fn benchmark_student(
    train_queries: usize,
    trees: usize,
    leaves: usize,
    hidden: &[usize],
    epochs: [usize; 3],
) -> Student {
    let split = corpus(train_queries, 280);
    let forest = teacher(&split.train, trees, leaves);
    let session = DistillSession::new(&forest, &split.train, config(epochs, 0.0));
    let (mlp, normalizer) = distilled_and_pruned(&session, hidden);
    Student {
        mlp,
        normalizer,
        heldout: split.test,
    }
}

fn score_hybrid_student() -> &'static Student {
    static STUDENT: OnceLock<Student> = OnceLock::new();
    STUDENT.get_or_init(|| benchmark_student(100, 40, 32, &[400, 200, 200, 100], [6, 3, 2]))
}

fn train_distill_student() -> &'static Student {
    static STUDENT: OnceLock<Student> = OnceLock::new();
    STUDENT.get_or_init(|| benchmark_student(200, 100, 64, &[200, 100, 100, 50], [14, 8, 4]))
}

/// Dense forward of `mlp` in plain loops over normalized copies of `rows`,
/// one multiply then one add per term.
fn plain_forward(mlp: &Mlp, normalizer: &Normalizer, rows: &[f32]) -> Vec<f32> {
    rows.chunks_exact(mlp.input_dim())
        .map(|row| {
            let mut x = row.to_vec();
            normalizer.apply_row(&mut x);
            for (layer, act) in mlp.layers().iter().zip(mlp.activations()) {
                x = (0..layer.out_features())
                    .map(|i| {
                        let mut acc = 0.0f32;
                        for (w, v) in layer.weights.row(i).iter().zip(&x) {
                            acc += w * v;
                        }
                        act.apply(acc + layer.bias[i])
                    })
                    .collect();
            }
            x[0]
        })
        .collect()
}

/// Freeze `student`, score its first [`SCORED_QUERIES`] held-out queries one
/// query per batch, hold each score to the forward bound of
/// [`plain_forward`] (`k_cb` half-ULP steps per element, `k` summed over
/// the layers) and check the fingerprint of the score bits.
fn check_scores(name: &str, student: &Student, want: [u64; 2]) {
    let hybrid = HybridMlp::from_mlp(&student.mlp, 0.0);
    let f = hybrid.input_dim();
    let docs = student.heldout.query_range(SCORED_QUERIES - 1).end;
    let rows = &student.heldout.features()[..docs * f];
    let mut scores = vec![0.0f32; docs];
    let mut ws = HybridWorkspace::default();
    for q in 0..SCORED_QUERIES {
        let range = student.heldout.query_range(q);
        hybrid.score_batch_normalizing_with(
            &rows[range.start * f..range.end * f],
            student.normalizer.mean(),
            student.normalizer.inv_std(),
            &mut scores[range],
            &mut ws,
        );
    }
    let k: usize = student.mlp.layers().iter().map(Linear::in_features).sum();
    let want_plain = plain_forward(&student.mlp, &student.normalizer, rows);
    for (d, (got, plain)) in scores.iter().zip(want_plain).enumerate() {
        let bound = k as f32 * f32::EPSILON * 16.0 * plain.abs().max(1.0);
        assert!(
            (got - plain).abs() <= bound,
            "{name}: doc {d} scores {got}, plain forward {plain}"
        );
    }
    check_fingerprint(
        name,
        fnv(scores.iter().map(|s| u64::from(s.to_bits()))),
        want,
    );
}

#[test]
#[ignore = "seconds in release; run with --release -- --ignored"]
fn score_hybrid_student_keeps_its_weights() {
    check(
        "score-hybrid 400x200x200x100",
        &score_hybrid_student().mlp,
        [0x3845_94da_b20b_c27e, 0xd630_59af_c1e7_56e5],
    );
}

#[test]
#[ignore = "seconds in release; run with --release -- --ignored"]
fn train_distill_student_keeps_its_weights() {
    check(
        "train-distill 200x100x100x50",
        &train_distill_student().mlp,
        [0xb7db_7cbc_8759_c93d, 0x5bda_5793_b854_6416],
    );
}

#[test]
#[ignore = "seconds in release; run with --release -- --ignored"]
fn score_hybrid_student_keeps_its_scores() {
    check_scores(
        "score-hybrid 400x200x200x100 scores",
        score_hybrid_student(),
        [0x46f5_bf7e_4149_6692, 0x6ca0_3fdb_5fe0_8f46],
    );
}

#[test]
#[ignore = "seconds in release; run with --release -- --ignored"]
fn train_distill_student_keeps_its_scores() {
    check_scores(
        "train-distill 200x100x100x50 scores",
        train_distill_student(),
        [0xa163_ace2_15de_e283, 0x76b3_e0e7_cd61_250c],
    );
}
