//! From the corpus to deployable models: data synthesis, the teacher forest,
//! the distilled and pruned student, and the oracles their outputs are
//! checked against. Every workload runs this pipeline at its own sizes and
//! then measures a different deployment of what it produced.
//!
//! The corpus is one fixed dataset, as MSN30K is to the paper, and training
//! is bit-deterministic, so a workload measures the same model at every
//! `--seed`. The seed draws the traffic: which held-out queries make up the
//! scoring pool and in what order, and every schedule of `schedule.rs`.
//! With the model drawn from the seed too, ten seeds were ten models:
//! `ndcg10_ratio` spread 2.7% and `us_per_doc` 6%, neither of which any
//! change to the code had caused.

use crate::stats::Rng;
use dlr_core::scoring::{DocumentScorer, EnsembleScorer};
use dlr_data::{Dataset, Normalizer, Split, SplitRatios, SyntheticConfig};
use dlr_distill::{DistillConfig, DistillHyper, DistillSession};
use dlr_gbdt::{Ensemble, GrowthParams, LambdaMartParams, LambdaMartTrainer};
use dlr_metrics::evaluate_scores;
use dlr_nn::{HybridMlp, Mlp};
use dlr_prune::{prune_first_layer, PruneConfig};
use std::time::Instant;

/// Seed of the corpus, its split and the student's initial weights.
pub const CORPUS_SEED: u64 = 0x4D53_4E31;

/// Features per document (MSN30K).
pub const FEATURES: usize = 136;
/// Documents per query: the paper's scoring batch.
pub const QUERY_DOCS: usize = 64;
/// The paper's Table 8 student, 136→400→200→200→100→1.
pub const PAPER_HIDDEN: [usize; 4] = [400, 200, 200, 100];
/// First-layer sparsity of that student.
pub const FIRST_LAYER_SPARSITY: f64 = 0.987;

/// How much data a workload synthesizes and how long it trains.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Queries the teacher and the student are trained on.
    pub train_queries: usize,
    /// Held-out queries: the NDCG@10 split, and the pool requests are cut
    /// from. A query has 48 to 80 documents, 64 on average; 280 of them
    /// fall short of a 256-query pool only ten standard deviations out.
    pub heldout_queries: usize,
    /// 64-document queries in the scoring pool.
    pub pool_queries: usize,
    /// Teacher forest: trees and leaves per tree, no early stop.
    pub trees: usize,
    pub leaves: usize,
    /// Student hidden layers; empty when the workload deploys the forest.
    pub hidden: &'static [usize],
    /// Distillation, prune and fine-tune epochs.
    pub epochs: [usize; 3],
}

/// The corpus and the pool the seed drew from it.
pub struct Data {
    pub train: Dataset,
    pub heldout: Dataset,
    /// `pool_queries × 64` raw feature rows, larger than L2 at full size.
    pub pool: Vec<f32>,
    /// Relevance label of each pool document.
    pub pool_labels: Vec<f32>,
}

impl Data {
    pub fn pool_docs(&self) -> usize {
        self.pool_labels.len()
    }

    /// Rows of `docs` pool documents starting at document `start`.
    pub fn rows(&self, start: usize, docs: usize) -> &[f32] {
        &self.pool[start * FEATURES..(start + docs) * FEATURES]
    }
}

/// The MSN30K-like corpus split into a training part and a held-out part by
/// query, and the pool: the held-out queries in an order drawn from `seed`,
/// cut off at `pool_queries × 64` documents.
pub fn synthesize(seed: u64, sizes: &Sizes) -> Data {
    let total = sizes.train_queries + sizes.heldout_queries;
    let mut cfg = SyntheticConfig::msn30k_like(total);
    cfg.docs_per_query = QUERY_DOCS;
    cfg.seed = CORPUS_SEED;
    let all = cfg.generate();
    let train = sizes.train_queries as f64 / total as f64;
    let ratios = SplitRatios {
        train,
        valid: 0.0,
        test: 1.0 - train,
    };
    let split = Split::by_query(&all, ratios, CORPUS_SEED).expect("ratios sum to one");
    let heldout = split.test;
    let pool_docs = sizes.pool_queries * QUERY_DOCS;
    assert!(
        heldout.num_docs() >= pool_docs,
        "held-out split has {} documents, the pool needs {pool_docs}",
        heldout.num_docs()
    );
    let mut order: Vec<usize> = (0..heldout.num_queries()).collect();
    let mut rng = Rng::new(seed ^ 0x0000_9001);
    for i in (1..order.len()).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let mut pool = Vec::with_capacity((pool_docs + 2 * QUERY_DOCS) * FEATURES);
    let mut pool_labels = Vec::with_capacity(pool_docs + 2 * QUERY_DOCS);
    for q in order {
        if pool_labels.len() >= pool_docs {
            break;
        }
        let range = heldout.query_range(q);
        pool.extend_from_slice(&heldout.features()[range.start * FEATURES..range.end * FEATURES]);
        pool_labels.extend_from_slice(&heldout.labels()[range]);
    }
    pool.truncate(pool_docs * FEATURES);
    pool_labels.truncate(pool_docs);
    Data {
        pool,
        pool_labels,
        train: split.train,
        heldout,
    }
}

/// The distilled, first-layer-pruned student.
pub struct Student {
    /// Fine-tuned network; its first layer holds exact zeros.
    pub mlp: Mlp,
    pub normalizer: Normalizer,
    pub sparsity: f64,
}

impl Student {
    /// Freeze into the sparse-first-layer form the paper deploys.
    pub fn hybrid(&self) -> HybridMlp {
        HybridMlp::from_mlp(&self.mlp, 0.0)
    }
}

/// What training produced and how long each stage took.
pub struct Trained {
    pub teacher: Ensemble,
    pub student: Option<Student>,
    pub gbdt_s: f64,
    pub session_new_s: f64,
    pub prune_s: f64,
    /// Wall time of all four stages.
    pub train_s: f64,
    /// Epochs whose mean loss was not finite.
    pub diverged_epochs: u64,
    pub epochs_run: u64,
}

fn lambdamart(sizes: &Sizes) -> LambdaMartTrainer {
    LambdaMartTrainer::new(LambdaMartParams {
        num_trees: sizes.trees,
        learning_rate: 0.1,
        growth: GrowthParams {
            max_leaves: sizes.leaves,
            ..GrowthParams::default()
        },
        early_stopping_rounds: 0,
        ..LambdaMartParams::default()
    })
}

pub fn distill_config(sizes: &Sizes) -> DistillConfig {
    let [train_epochs, prune_epochs, finetune_epochs] = sizes.epochs;
    DistillConfig {
        hyper: DistillHyper {
            train_epochs,
            prune_epochs,
            finetune_epochs,
            // One learning-rate step, two thirds through distillation.
            gamma_steps: vec![(train_epochs * 2 / 3).max(1)],
            ..DistillHyper::msn30k()
        },
        batch_size: 256,
        seed: CORPUS_SEED,
        ..DistillConfig::default()
    }
}

/// Teacher training, distillation, first-layer prune and fine-tune, through
/// the same public calls `NeuralEngineering` makes, timed stage by stage.
pub fn train(sizes: &Sizes, train: &Dataset) -> Trained {
    let t0 = Instant::now();
    let (teacher, _) = lambdamart(sizes).fit(train, None);
    let gbdt_s = t0.elapsed().as_secs_f64();
    let mut out = Trained {
        teacher,
        student: None,
        gbdt_s,
        session_new_s: 0.0,
        prune_s: 0.0,
        train_s: 0.0,
        diverged_epochs: 0,
        epochs_run: 0,
    };
    if !sizes.hidden.is_empty() {
        let t1 = Instant::now();
        let session = DistillSession::new(&out.teacher, train, distill_config(sizes));
        out.session_new_s = t1.elapsed().as_secs_f64();
        let mut model = session.train_student(sizes.hidden);
        let t3 = Instant::now();
        let pruned = prune_first_layer(
            &session,
            &mut model.mlp,
            &PruneConfig::first_layer_level(FIRST_LAYER_SPARSITY),
        );
        out.prune_s = t3.elapsed().as_secs_f64();
        let losses = model.epoch_loss.iter().chain(&pruned.epoch_loss);
        out.epochs_run = losses.clone().count() as u64;
        out.diverged_epochs = losses.filter(|l| !l.is_finite()).count() as u64;
        out.student = Some(Student {
            mlp: model.mlp,
            normalizer: model.normalizer,
            sparsity: pruned.final_sparsity,
        });
    }
    out.train_s = t0.elapsed().as_secs_f64();
    out
}

/// Mean NDCG@10 of `scorer` over the queries of `data`.
pub fn ndcg10(scorer: &mut dyn DocumentScorer, data: &Dataset) -> f64 {
    let mut scores = vec![0.0f32; data.num_docs()];
    for q in 0..data.num_queries() {
        let range = data.query_range(q);
        let rows = &data.features()[range.start * FEATURES..range.end * FEATURES];
        scorer.score_batch(rows, &mut scores[range]);
    }
    evaluate_scores(&scores, data).mean_ndcg10()
}

/// The teacher's NDCG@10 by classic per-tree traversal: the reference every
/// workload's `ndcg10_ratio` divides by.
pub fn teacher_ndcg10(teacher: &Ensemble, data: &Dataset) -> f64 {
    ndcg10(&mut EnsembleScorer::new(teacher.clone(), "teacher"), data)
}

/// Dense forward pass in plain loops with a separate multiply and add: the
/// oracle the hybrid scorer's output is held against. `rows` are raw.
pub fn naive_forward(mlp: &Mlp, normalizer: &Normalizer, rows: &[f32], out: &mut [f32]) {
    let mut x: Vec<f32> = Vec::new();
    let mut y: Vec<f32> = Vec::new();
    for (row, o) in rows.chunks_exact(mlp.input_dim()).zip(out.iter_mut()) {
        x.clear();
        x.extend_from_slice(row);
        normalizer.apply_row(&mut x);
        for (layer, act) in mlp.layers().iter().zip(mlp.activations()) {
            y.clear();
            for (i, &bias) in layer.bias.iter().enumerate() {
                let mut acc = 0.0f32;
                for (w, v) in layer.weights.row(i).iter().zip(&x) {
                    acc += w * v;
                }
                y.push(act.apply(acc + bias));
            }
            std::mem::swap(&mut x, &mut y);
        }
        *o = x[0];
    }
}

/// Largest gap the fused multiply-add GEMM path may open against
/// [`naive_forward`]: the documented `k_cb` half-ULP steps per element
/// (`k · ε · 16 · max(|c|, 1)`), with `k` the reduction lengths of all
/// layers, since each layer's error feeds the next.
pub fn forward_tolerance(mlp: &Mlp, reference: f32) -> f32 {
    let k: usize = mlp.layers().iter().map(|l| l.in_features()).sum();
    k as f32 * f32::EPSILON * 16.0 * reference.abs().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlr_core::scoring::HybridScorer;

    const TINY: Sizes = Sizes {
        train_queries: 12,
        heldout_queries: 12,
        pool_queries: 4,
        trees: 3,
        leaves: 4,
        hidden: &[12, 6],
        epochs: [1, 1, 1],
    };

    #[test]
    fn the_seed_draws_the_pool_and_never_the_model() {
        let a = synthesize(5, &TINY);
        let b = synthesize(5, &TINY);
        assert_eq!(a.pool, b.pool);
        assert_eq!(a.pool_labels, b.pool_labels);
        let other = synthesize(6, &TINY);
        assert_ne!(a.pool, other.pool);
        assert_eq!(a.pool_docs(), 4 * QUERY_DOCS);
        assert_eq!(a.heldout.features(), other.heldout.features());
        let ta = train(&TINY, &a.train);
        let tb = train(&TINY, &other.train);
        let (sa, sb) = (ta.student.expect("student"), tb.student.expect("student"));
        assert_eq!(sa.mlp.layers(), sb.mlp.layers());
        assert_eq!(ta.epochs_run, 3);
        assert_eq!(ta.diverged_epochs, 0);
    }

    #[test]
    fn hybrid_scorer_stays_within_the_documented_bound_of_the_oracle() {
        let data = synthesize(2, &TINY);
        let trained = train(&TINY, &data.train);
        let student = trained.student.expect("student");
        let mut scorer = HybridScorer::new(student.hybrid(), student.normalizer.clone(), "h");
        let rows = data.rows(0, QUERY_DOCS);
        let mut got = vec![0.0f32; QUERY_DOCS];
        let mut want = vec![0.0f32; QUERY_DOCS];
        scorer.score_batch(rows, &mut got);
        naive_forward(&student.mlp, &student.normalizer, rows, &mut want);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= forward_tolerance(&student.mlp, *w));
        }
    }
}
