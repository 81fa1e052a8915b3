//! Golden fingerprints of trained forests: teacher training is
//! bit-deterministic, and these pin it.
//!
//! A fingerprint is one `u64` over the base score and, per tree, the leaf
//! count, every split's feature and threshold bits and every leaf value's
//! bits. The expected values were taken before the grower's histogram
//! layout changed; a change to training that is meant to keep the trees
//! must leave every one of them unchanged.
//!
//! The first group runs in debug in a second. The two `#[ignore]`d tests fit
//! the benchmark's score-forest (200 trees × 32 leaves) and train-distill
//! (100 × 64) teachers on the benchmark corpus, which takes seconds in
//! release:
//!
//! ```text
//! cargo test -p dlr-gbdt --release --test fingerprints -- --ignored
//! ```

use dlr_data::{Dataset, DatasetBuilder, Split, SplitRatios, SyntheticConfig};
use dlr_gbdt::{
    Ensemble, GrowthParams, LambdaMartParams, LambdaMartTrainer, MartParams, MartTrainer,
};

/// FNV-1a over the forest's structure and values.
fn fingerprint(e: &Ensemble) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(u64::from(e.base_score().to_bits()));
    for tree in e.trees() {
        eat(tree.num_leaves() as u64);
        for (feature, threshold) in tree.splits() {
            eat(u64::from(feature));
            eat(u64::from(threshold.to_bits()));
        }
        for v in tree.leaf_values() {
            eat(u64::from(v.to_bits()));
        }
    }
    h
}

fn small_corpus() -> Dataset {
    let mut cfg = SyntheticConfig::msn30k_like(40);
    cfg.docs_per_query = 30;
    cfg.num_features = 24;
    cfg.num_informative = 8;
    cfg.generate()
}

/// [`small_corpus`] with a constant feature 0, feature 1 rounded to a few
/// levels (heavy ties inside a feature) and feature 2 a copy of feature 3
/// (equal gains across features: the lower index must win).
fn tied_corpus() -> Dataset {
    let d = small_corpus();
    let nf = d.num_features();
    let mut b = DatasetBuilder::new(nf);
    for q in 0..d.num_queries() {
        let r = d.query_range(q);
        let mut rows = d.features()[r.start * nf..r.end * nf].to_vec();
        for row in rows.chunks_exact_mut(nf) {
            row[0] = 1.0;
            row[1] = (row[1] * 2.0).round();
            row[2] = row[3];
        }
        b.push_query(q as u64, &rows, &d.labels()[r]).unwrap();
    }
    b.finish()
}

fn lambdamart(num_trees: usize, growth: GrowthParams) -> LambdaMartTrainer {
    LambdaMartTrainer::new(LambdaMartParams {
        num_trees,
        growth,
        early_stopping_rounds: 0,
        ..LambdaMartParams::default()
    })
}

fn check(name: &str, e: &Ensemble, want: u64) {
    let got = fingerprint(e);
    assert_eq!(
        got, want,
        "{name}: fingerprint {got:#018x}, want {want:#018x}"
    );
}

#[test]
fn lambdamart_small_shapes_keep_their_trees() {
    let d = small_corpus();
    let base = GrowthParams {
        max_leaves: 16,
        min_data_in_leaf: 5,
        ..GrowthParams::default()
    };
    let cases: [(&str, GrowthParams, u64); 5] = [
        ("leaves16", base, 0x608e_5f6c_22df_4881),
        (
            "depth3",
            GrowthParams {
                max_depth: 3,
                ..base
            },
            0xcad0_ee6d_1aa4_9054,
        ),
        (
            "l2",
            GrowthParams {
                lambda_l2: 1.5,
                ..base
            },
            0xabe7_a7fe_d833_8926,
        ),
        (
            "min_data1",
            GrowthParams {
                min_data_in_leaf: 1,
                ..base
            },
            0x0b5f_5ce1_1bf3_0289,
        ),
        (
            "min_data60",
            GrowthParams {
                min_data_in_leaf: 60,
                ..base
            },
            0x9108_5679_1269_4aac,
        ),
    ];
    for (name, growth, want) in cases {
        let (e, _) = lambdamart(12, growth).fit(&d, None);
        check(name, &e, want);
    }
}

#[test]
fn lambdamart_tied_and_constant_features_keep_their_trees() {
    let d = tied_corpus();
    let growth = GrowthParams {
        max_leaves: 12,
        min_data_in_leaf: 3,
        ..GrowthParams::default()
    };
    let (e, _) = lambdamart(10, growth).fit(&d, None);
    check("tied", &e, 0xeeb1_b24e_78c2_4ed8);
    let coarse = LambdaMartTrainer::new(LambdaMartParams {
        max_bins: 8,
        ..lambdamart(10, growth).params
    });
    check("tied_bins8", &coarse.fit(&d, None).0, 0xb3eb_0ae9_9cf1_000b);
}

#[test]
fn mart_keeps_its_trees() {
    let d = small_corpus();
    let targets: Vec<f32> = (0..d.num_docs())
        .map(|i| d.doc(i)[0] * 0.5 + d.doc(i)[5] - d.labels()[i])
        .collect();
    let e = MartTrainer::new(MartParams {
        num_trees: 15,
        growth: GrowthParams {
            max_leaves: 16,
            min_data_in_leaf: 4,
            ..GrowthParams::default()
        },
        ..MartParams::default()
    })
    .fit(&d, &targets);
    assert_ne!(e.base_score(), 0.0);
    check("mart", &e, 0xe646_6e99_265f_c8d8);
}

/// The benchmark's corpus and training split (`benchmark/src/models.rs`):
/// 64-document MSN30K-like queries, `train_queries` of them for training.
fn benchmark_train_split(train_queries: usize) -> Dataset {
    const CORPUS_SEED: u64 = 0x4D53_4E31;
    let total = train_queries + 280;
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

fn benchmark_teacher(train_queries: usize, trees: usize, leaves: usize) -> Ensemble {
    let growth = GrowthParams {
        max_leaves: leaves,
        ..GrowthParams::default()
    };
    lambdamart(trees, growth)
        .fit(&benchmark_train_split(train_queries), None)
        .0
}

#[test]
#[ignore = "seconds in release; run with --release -- --ignored"]
fn score_forest_teacher_keeps_its_trees() {
    let e = benchmark_teacher(100, 200, 32);
    check("score-forest 200x32", &e, 0x9128_0e0f_f3d6_a620);
}

#[test]
#[ignore = "seconds in release; run with --release -- --ignored"]
fn train_distill_teacher_keeps_its_trees() {
    let e = benchmark_teacher(200, 100, 64);
    check("train-distill 100x64", &e, 0xafb5_81d0_b460_0537);
}
