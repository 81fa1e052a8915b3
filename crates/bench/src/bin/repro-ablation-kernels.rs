//! Kernel ablations (DESIGN.md, "Ablations called out by the design"): the
//! four comparisons `benchmark/` has no per-layer metric for.
//!
//! 1. Goto-blocked GEMM vs the naive triple loop at the layer shapes the
//!    paper's networks multiply — what justifies the dense substrate.
//! 2. Goto parameter presets at 400×136×256: the default blocking, the
//!    oneDNN AVX2 preset and deliberately tiny blocks.
//! 3. SDMM batch width across the cache break: Eq. 5 assumes B stays
//!    cache-resident, and the paper saw the assumption fail for N ≥ 128.
//! 4. BWQS trees per block on one forest.

use dlr_bench::{f, forest_exact, Corpus, Scale, Table};
use dlr_core::prelude::*;
use dlr_dense::gemm::blocked::{gemm_with, GemmWorkspace, GotoParams};
use dlr_dense::gemm::naive::naive_gemm_into;
use dlr_dense::Matrix;
use dlr_sparse::{spmm_xsmm_packed, CsrMatrix, PackedB, SpmmWorkspace};
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let scale = Scale::from_env();
    scale.banner(
        "Kernel ablations — Goto vs naive GEMM, Goto presets, SDMM batch width, BWQS block size",
    );
    let reps = scale.timing_reps * 10;

    goto_vs_naive(reps);
    goto_presets(reps);
    sdmm_batch_width(reps);
    bwqs_block_size(scale, reps);
}

/// Seconds per call: `reps` samples of `inner` back-to-back calls each,
/// after one warm-up call, read a tenth of the way in from the fast side.
/// The host slows vector code in bursts longer than a sample, so a median
/// can sit in a burst the neighbouring variant missed; the quiet end moves
/// least (`benchmark/README.md`, "How a timing becomes a metric").
fn quiet_secs(reps: usize, inner: usize, mut call: impl FnMut()) -> f64 {
    call();
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..inner {
                call();
            }
            t.elapsed().as_secs_f64() / inner as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 10]
}

/// Seconds per Goto-blocked `C = A·B` under `params`.
fn blocked_secs(reps: usize, a: &Matrix, b: &Matrix, params: GotoParams) -> f64 {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let (a, b) = (a.as_slice(), b.as_slice());
    let mut c = vec![0.0f32; m * n];
    let mut ws = GemmWorkspace::default();
    quiet_secs(reps, 8, || {
        gemm_with(m, k, n, black_box(a), b, &mut c, params, &mut ws)
    })
}

fn goto_vs_naive(reps: usize) {
    println!("Goto-blocked vs naive GEMM (first and hidden layers at batch 64, 1000, 256)");
    let mut table = Table::new(&["m x k x n", "naive (us)", "blocked (us)", "Speedup"]);
    for (m, k, n) in [
        (400usize, 136usize, 64usize),
        (200, 200, 64),
        (400, 136, 1000),
        (500, 500, 256),
    ] {
        let a = Matrix::random(m, k, 1.0, 1);
        let b = Matrix::random(k, n, 1.0, 2);
        let mut c = vec![0.0f32; m * n];
        let naive_us = quiet_secs(reps, 4, || {
            naive_gemm_into(m, k, n, black_box(a.as_slice()), b.as_slice(), &mut c)
        }) * 1e6;
        let blocked_us = blocked_secs(reps, &a, &b, GotoParams::default()) * 1e6;
        table.row(&[
            format!("{m}x{k}x{n}"),
            f(naive_us, 1),
            f(blocked_us, 1),
            format!("{:.1}x", naive_us / blocked_us),
        ]);
    }
    table.print();
}

fn goto_presets(reps: usize) {
    let (m, k, n) = (400usize, 136usize, 256usize);
    println!("\nGoto parameter presets at {m}x{k}x{n}");
    let a = Matrix::random(m, k, 1.0, 1);
    let b = Matrix::random(k, n, 1.0, 2);
    let mut table = Table::new(&["Preset", "mc", "nc", "kc", "Time (us)", "GFLOP/s"]);
    for (name, params) in [
        ("default", GotoParams::default()),
        ("onednn_avx2", GotoParams::onednn_avx2()),
        (
            "tiny_blocks",
            GotoParams {
                mc: 16,
                nc: 64,
                kc: 32,
            },
        ),
    ] {
        let secs = blocked_secs(reps, &a, &b, params);
        table.row(&[
            name.to_string(),
            params.mc.to_string(),
            params.nc.to_string(),
            params.kc.to_string(),
            f(secs * 1e6, 1),
            f(2.0 * (m * k * n) as f64 / secs / 1e9, 1),
        ]);
    }
    table.print();
}

fn sdmm_batch_width(reps: usize) {
    let (m, k) = (400usize, 136usize);
    let mut dense = Matrix::random(m, k, 1.0, 3);
    for (i, v) in dense.as_mut_slice().iter_mut().enumerate() {
        if i % 50 != 0 {
            *v = 0.0;
        }
    }
    let a = CsrMatrix::from_dense(&dense, 0.0);
    println!(
        "\nSDMM batch width, {m}x{k} at {:.1}% sparsity (Eq. 5 assumes ns/doc flat in N)",
        a.sparsity() * 100.0
    );
    let mut table = Table::new(&["N", "Time (us)", "ns/doc"]);
    for n in [16usize, 64, 256] {
        let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32).collect();
        let packed = PackedB::pack(&b, k, n);
        let mut ws = SpmmWorkspace::default();
        let mut c = vec![0.0f32; m * n];
        let secs = quiet_secs(reps, 2000, || {
            spmm_xsmm_packed(black_box(&a), &packed, &mut c, &mut ws)
        });
        table.row(&[n.to_string(), f(secs * 1e6, 2), f(secs * 1e9 / n as f64, 1)]);
    }
    table.print();
}

fn bwqs_block_size(scale: Scale, reps: usize) {
    let split = Corpus::Msn30k.split(scale);
    let forest = forest_exact(&split.train, scale.trees(200), 64);
    let nf = split.test.num_features();
    let docs = &split.test.features()[..nf * 512.min(split.test.num_docs())];
    println!(
        "\nBWQS trees per block, {} trees x 64 leaves",
        forest.num_trees()
    );
    let mut table = Table::new(&["Trees/block", "us/doc"]);
    for block in [10usize, 25, 50, 100] {
        let mut bw = QuickScorerScorer::compile_blockwise(&forest, block, "bwqs");
        table.row(&[
            block.to_string(),
            f(measure_us_per_doc(&mut bw, docs, 512, reps), 3),
        ]);
    }
    table.print();
}
