//! Parallel batch-scoring drivers: the three hot kernels of the paper —
//! blocked GEMM (§4.1), LIBXSMM-style SpMM (§4.3) and BWQS (§2.2) —
//! dispatched over a [`WorkPool`].
//!
//! Each driver tiles the **output** into disjoint row/document ranges and
//! runs the corresponding serial range kernel on each chunk:
//!
//! * **GEMM** — chunks are whole `m_c`-row panels of A on the same grid
//!   the serial kernel blocks on; B̃ is packed once ([`PrepackedB`]) and
//!   shared read-only by every worker, each worker reuses its own Ã
//!   packing buffer.
//! * **SpMM** — chunks are CSR row ranges; every row's accumulators live
//!   on the worker's stack and store to its own C row exactly once.
//! * **BWQS** — chunks are document ranges; each block's condition lists
//!   and leaf tables are shared read-only, each worker reuses its own
//!   leaf-index scratch.
//!
//! Because chunks write disjoint output ranges and each output element's
//! floating-point accumulation order inside a chunk is exactly the serial
//! kernel's order, every driver is **bit-identical** to its serial
//! counterpart — `tests/parallel_equivalence.rs` asserts this over
//! proptest-generated shapes.

use crate::pool::{PoolError, WorkPool};
use dlr_dense::{gemm_rows_with, GotoParams, PrepackedB};
use dlr_quickscorer::blockwise::BlockwiseQuickScorer;
use dlr_sparse::{spmm_xsmm_rows, CsrMatrix, PackedB};

/// Rows (or documents) per chunk: aim for a few chunks per worker so a
/// straggler does not serialize the tail, without shattering the batch
/// into cache-hostile slivers.
fn rows_per_chunk(total_rows: usize, threads: usize) -> usize {
    total_rows.div_ceil(threads.max(1) * 4).max(1)
}

/// `C = A·B` over the pool with B packed ahead of time. `a` is the full
/// row-major `m×k` operand; `c` (`m×n`) is overwritten. Bit-identical to
/// [`dlr_dense::gemm_with`] under the packing's `GotoParams`.
///
/// # Errors
/// [`PoolError::WorkerPanicked`] if a worker panicked.
///
/// # Panics
/// Panics when slice lengths disagree with `(m, pb.k(), pb.n())`.
pub fn par_gemm(
    pool: &WorkPool,
    m: usize,
    a: &[f32],
    pb: &PrepackedB,
    c: &mut [f32],
) -> Result<(), PoolError> {
    let (k, n) = (pb.k(), pb.n());
    assert_eq!(a.len(), m * k, "A must be m×k");
    assert_eq!(c.len(), m * n, "C must be m×n");
    if m == 0 || n == 0 {
        return Ok(());
    }
    if k == 0 {
        c.fill(0.0);
        return Ok(());
    }
    // Chunk on the serial kernel's own m_c grid: every chunk is one whole
    // A row-panel, so packing and accumulation match the serial walk.
    let mc = pb.effective_mc(m);
    let mut apacks: Vec<Vec<f32>> = Vec::new();
    pool.run_chunks_with(
        c,
        mc * n,
        &mut apacks,
        Vec::new,
        |_chunk, start, c_rows, apack| {
            gemm_rows_with(m, start / n, a, pb, c_rows, apack);
        },
    )
}

/// [`par_gemm`] packing `b` (`k×n`, row-major) on the fly — the one-shot
/// entry point; for repeated products against the same B, pack once with
/// [`PrepackedB::pack`] and call [`par_gemm`].
///
/// # Errors
/// [`PoolError::WorkerPanicked`] if a worker panicked.
///
/// # Panics
/// Panics when slice lengths disagree with `(m, k, n)`.
#[allow(clippy::too_many_arguments)]
pub fn par_gemm_into(
    pool: &WorkPool,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    params: GotoParams,
) -> Result<(), PoolError> {
    let pb = PrepackedB::pack(b, k, n, params);
    par_gemm(pool, m, a, &pb, c)
}

/// `C = A·B` over the pool with sparse CSR `A` and pre-packed dense `B`.
/// `c` (`a.rows()×pb.n()`) is overwritten. Bit-identical to
/// [`dlr_sparse::spmm_xsmm_packed`].
///
/// # Errors
/// [`PoolError::WorkerPanicked`] if a worker panicked.
///
/// # Panics
/// Panics when shapes disagree.
pub fn par_spmm(
    pool: &WorkPool,
    a: &CsrMatrix,
    pb: &PackedB,
    c: &mut [f32],
) -> Result<(), PoolError> {
    assert_eq!(a.cols(), pb.k(), "A.cols must equal B rows");
    let n = pb.n();
    assert_eq!(c.len(), a.rows() * n, "C must be m×n");
    if a.rows() == 0 {
        return Ok(());
    }
    if n == 0 {
        return Ok(());
    }
    let rows = rows_per_chunk(a.rows(), pool.threads());
    pool.run_chunks(c, rows * n, |_chunk, start, c_rows| {
        spmm_xsmm_rows(a, pb, start / n, c_rows);
    })
}

/// Score a row-major batch (`out.len() × num_features`) with BWQS over
/// the pool. Bit-identical to [`BlockwiseQuickScorer::score_batch`].
///
/// # Errors
/// [`PoolError::WorkerPanicked`] if a worker panicked.
///
/// # Panics
/// Panics on shape mismatches.
pub fn par_bwqs(
    pool: &WorkPool,
    bw: &BlockwiseQuickScorer,
    features: &[f32],
    out: &mut [f32],
) -> Result<(), PoolError> {
    let nf = bw.num_features();
    assert_eq!(features.len(), out.len() * nf, "batch shape mismatch");
    if out.is_empty() {
        return Ok(());
    }
    let docs = rows_per_chunk(out.len(), pool.threads());
    let mut bufs: Vec<Vec<u64>> = Vec::new();
    pool.run_chunks_with(
        out,
        docs,
        &mut bufs,
        Vec::new,
        |_chunk, start, out_chunk, buf| {
            let rows = &features[start * nf..(start + out_chunk.len()) * nf];
            bw.score_chunk_with(rows, out_chunk, buf);
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlr_dense::{gemm_with, GemmWorkspace, Matrix};
    use dlr_gbdt::Ensemble;
    use dlr_sparse::{spmm_xsmm_packed, SpmmWorkspace};

    fn sparse_matrix(m: usize, k: usize, keep_every: usize, seed: u64) -> CsrMatrix {
        let mut d = Matrix::random(m, k, 1.0, seed);
        for (idx, v) in d.as_mut_slice().iter_mut().enumerate() {
            if idx % keep_every != 0 {
                *v = 0.0;
            }
        }
        CsrMatrix::from_dense(&d, 0.0)
    }

    fn tiny_ensemble(trees: usize, nf: usize, seed: u64) -> Ensemble {
        use dlr_gbdt::tree::leaf_ref;
        use dlr_gbdt::RegressionTree;
        let mut e = Ensemble::new(nf, 0.25);
        for t in 0..trees {
            let s = seed + t as u64;
            let f0 = (s % nf as u64) as u32;
            let f1 = ((s + 1) % nf as u64) as u32;
            // Three internal nodes, four leaves:
            //        0
            //       / \
            //      1   2
            //     /\   /\
            //    L0 L1 L2 L3
            let tree = RegressionTree::from_raw(
                vec![f0, f1, f1],
                vec![0.3 + (s % 5) as f32 * 0.1, 0.1, 0.7],
                vec![1, leaf_ref(0), leaf_ref(2)],
                vec![2, leaf_ref(1), leaf_ref(3)],
                vec![0.1 * s as f32, -0.2, 0.3, 0.05 * s as f32],
            );
            e.push(tree);
        }
        e
    }

    #[test]
    fn par_gemm_is_bit_identical_to_serial() {
        let pool = WorkPool::new(4);
        for &(m, k, n) in &[(1, 1, 1), (37, 29, 41), (300, 64, 77), (8, 220, 100)] {
            let a = Matrix::random(m, k, 1.0, 3);
            let b = Matrix::random(k, n, 1.0, 4);
            let mut expect = vec![0.0f32; m * n];
            let mut ws = GemmWorkspace::default();
            gemm_with(
                m,
                k,
                n,
                a.as_slice(),
                b.as_slice(),
                &mut expect,
                GotoParams::default(),
                &mut ws,
            );
            let mut got = vec![f32::NAN; m * n];
            par_gemm_into(
                &pool,
                m,
                k,
                n,
                a.as_slice(),
                b.as_slice(),
                &mut got,
                GotoParams::default(),
            )
            .unwrap();
            assert_eq!(expect, got, "({m},{k},{n})");
        }
    }

    #[test]
    fn par_spmm_is_bit_identical_to_serial() {
        let pool = WorkPool::new(3);
        for &(m, k, n, keep) in &[(1, 4, 3, 2), (23, 17, 11, 3), (120, 64, 30, 10)] {
            let a = sparse_matrix(m, k, keep, 9);
            let b = Matrix::random(k, n, 1.0, 10);
            let pb = PackedB::pack(b.as_slice(), k, n);
            let mut expect = vec![0.0f32; m * n];
            spmm_xsmm_packed(&a, &pb, &mut expect, &mut SpmmWorkspace::default());
            let mut got = vec![f32::NAN; m * n];
            par_spmm(&pool, &a, &pb, &mut got).unwrap();
            assert_eq!(expect, got, "({m},{k},{n})");
        }
    }

    #[test]
    fn par_bwqs_is_bit_identical_to_serial() {
        let pool = WorkPool::new(4);
        let e = tiny_ensemble(23, 5, 77);
        let bw = BlockwiseQuickScorer::compile(&e, 7).unwrap();
        let docs: Vec<f32> = (0..61 * 5).map(|i| (i % 13) as f32 * 0.1).collect();
        let mut expect = vec![0.0f32; 61];
        bw.score_batch(&docs, &mut expect);
        let mut got = vec![f32::NAN; 61];
        par_bwqs(&pool, &bw, &docs, &mut got).unwrap();
        assert_eq!(expect, got);
    }

    #[test]
    fn empty_batches_are_noops() {
        let pool = WorkPool::new(2);
        par_gemm_into(
            &pool,
            0,
            3,
            4,
            &[],
            &[0.0; 12],
            &mut [],
            GotoParams::default(),
        )
        .unwrap();
        let a = sparse_matrix(3, 4, 2, 1);
        let b = Matrix::random(4, 0, 1.0, 2);
        let pb = PackedB::pack(b.as_slice(), 4, 0);
        par_spmm(&pool, &a, &pb, &mut []).unwrap();
        let e = tiny_ensemble(3, 2, 5);
        let bw = BlockwiseQuickScorer::compile(&e, 2).unwrap();
        par_bwqs(&pool, &bw, &[], &mut []).unwrap();
    }

    #[test]
    fn zero_k_gemm_zeroes_c() {
        let pool = WorkPool::new(2);
        let mut c = vec![5.0f32; 6];
        par_gemm_into(&pool, 2, 0, 3, &[], &[], &mut c, GotoParams::default()).unwrap();
        assert!(c.iter().all(|&v| v == 0.0));
    }
}
