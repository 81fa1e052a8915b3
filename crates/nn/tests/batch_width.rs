//! A document's score does not depend on the batch it is scored in.
//!
//! Every GEMM and SDMM output element is one reduction chain fixed by the
//! kernels' contract, whatever the batch width: a narrow strip of 1–7
//! documents, a full 16-wide strip, or a remainder after full strips. So
//! scoring `n` documents as one batch must give the same bits as scoring
//! each document alone — the property a server's audit relies on when it
//! compares the scores of small served batches with a larger batch.
//!
//! One test forces each ISA in turn (`dlr_simd::force` is process-wide,
//! so the ISAs are walked inside a single test).

use dlr_dense::Matrix;
use dlr_nn::{HybridMlp, Mlp};
use dlr_simd::Isa;

/// Batch widths: every narrow strip, a full strip, full plus narrow, and
/// the serving batch size.
const WIDTHS: [usize; 18] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 64,
];

/// 30 features; layer 2 reduces over 300 inputs, past one `k_c` block.
fn dense_net() -> Mlp {
    Mlp::from_hidden(30, &[300, 40, 13], 17)
}

/// The same shape with a sparse first layer: every fifth weight kept,
/// and rows 0, 7 and 100 left with none (dead neurons, folded away).
fn pruned_net() -> Mlp {
    let mut mlp = dense_net();
    let w = &mut mlp.layers_mut()[0].weights;
    let pruned = Matrix::from_fn(w.rows(), w.cols(), |r, c| {
        let keep = (r * w.cols() + c).is_multiple_of(5) && ![0, 7, 100].contains(&r);
        if keep {
            w.get(r, c)
        } else {
            0.0
        }
    });
    *w = pruned;
    mlp
}

fn documents(n: usize, f: usize) -> Vec<f32> {
    (0..n * f)
        .map(|i| ((i * 37) % 101) as f32 / 25.0 - 2.0)
        .collect()
}

/// Score `n` documents as one batch and one at a time; the two must agree
/// bit for bit.
fn assert_width_free(isa: Isa, what: &str, f: usize, score: impl Fn(&[f32], &mut [f32])) {
    for n in WIDTHS {
        let rows = documents(n, f);
        let mut batch = vec![f32::NAN; n];
        score(&rows, &mut batch);
        for (d, row) in rows.chunks_exact(f).enumerate() {
            let mut alone = [f32::NAN];
            score(row, &mut alone);
            assert_eq!(
                batch[d].to_bits(),
                alone[0].to_bits(),
                "{isa} {what}: document {d} of {n} scores {} in the batch, {} alone",
                batch[d],
                alone[0]
            );
        }
    }
}

#[test]
fn a_documents_score_does_not_depend_on_its_batch() {
    let mlp = dense_net();
    let hybrid = HybridMlp::from_mlp(&pruned_net(), 0.0);
    let f = mlp.input_dim();
    for isa in Isa::ALL {
        let Ok(prev) = dlr_simd::force(isa) else {
            continue; // not on this host
        };
        assert_width_free(isa, "Mlp", f, |rows, out| mlp.score_batch(rows, out));
        assert_width_free(isa, "HybridMlp", f, |rows, out| {
            hybrid.score_batch(rows, out)
        });
        dlr_simd::force(prev).expect("restoring a previously active ISA");
    }
}
