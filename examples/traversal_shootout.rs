//! QuickScorer variants head to head (§2.2).
//!
//! Trains one forest and scores the same documents with classic
//! root-to-leaf traversal, plain QuickScorer, the block-wise variant
//! (BWQS) and the vectorized variant (vQS-style, up to 32 documents per
//! scan), verifying they agree and reporting each one's µs/doc. Also
//! shows the cost of a 256-leaf forest, which vQS cuts into eight 32-leaf
//! slices a tree — why the paper's teachers stay offline.
//!
//! ```sh
//! cargo run --release --example traversal_shootout
//! ```

use distilled_ltr::prelude::*;

fn main() {
    let mut cfg = SyntheticConfig::msn30k_like(100);
    cfg.docs_per_query = 80;
    let data = cfg.generate();
    let split = Split::by_query(&data, SplitRatios::PAPER, 3).unwrap();

    println!("training a 200-tree x 64-leaf forest...");
    let forest = NeuralEngineering::train_forest(&split.train, None, 200, 64, 0.1);
    println!("training a 60-tree x 256-leaf forest (teacher-style)...");
    let wide = NeuralEngineering::train_forest(&split.train, None, 60, 256, 0.1);

    let docs = split.test.features();
    let n = split.test.num_docs();
    println!("\nscoring {n} documents with every traversal:\n");
    println!("{:<34} {:>10} {:>14}", "traversal", "us/doc", "agrees");

    let mut reference = vec![0.0f32; n];
    let mut naive = EnsembleScorer::new(forest.clone(), "classic root-to-leaf");
    naive.score_batch(docs, &mut reference);

    let mut scorers: Vec<Box<dyn DocumentScorer>> = vec![
        Box::new(EnsembleScorer::new(forest.clone(), "classic root-to-leaf")),
        Box::new(QuickScorerScorer::compile(&forest, "QuickScorer (64-leaf)")),
        Box::new(QuickScorerScorer::compile_blockwise(
            &forest,
            32,
            "BWQS (blocks of 32 trees)",
        )),
        Box::new(QuickScorerScorer::compile_vectorized(
            &forest,
            "vQS (32 docs per scan)",
        )),
        Box::new(QuickScorerScorer::compile(
            &wide,
            "vQS, 8 slices (256-leaf teacher)",
        )),
    ];
    for scorer in scorers.iter_mut() {
        let us = measure_us_per_doc(scorer.as_mut(), docs, 1000, 5);
        let agrees = if scorer.name().contains("256-leaf") {
            "n/a".to_string() // different model, different scores
        } else {
            let mut out = vec![0.0f32; n];
            scorer.score_batch(docs, &mut out);
            let max_diff = out
                .iter()
                .zip(&reference)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            format!("{}", max_diff < 1e-3)
        };
        println!("{:<34} {:>10.3} {:>14}", scorer.name(), us, agrees);
    }

    println!("\nexpected ordering: QuickScorer variants beat classic traversal;");
    println!("the 256-leaf teacher pays for eight slices a tree (the paper's 4x-slower teachers).");
}
