//! LIBXSMM-style sparse-dense multiplication kernel (§4.3, Figures 8–9).
//!
//! The dense operand `B` (`k×n`) is packed into a three-dimensional
//! `k × N_b × n_b` tensor where `n_b` is the SIMD width (8 for f32 with
//! AVX2, the configuration the paper analyzes). The kernel then walks one
//! sparse row of `A` at a time:
//!
//! 1. zero `N_b` accumulator vectors of width `n_b` (the `C_i` row held in
//!    registers);
//! 2. for every non-zero `x = A[i, j]`: broadcast `x` and FMA it against
//!    the `N_b` packed vectors of `B`'s row `j`;
//! 3. store the accumulators to `C_i` once, after the row is exhausted.
//!
//! Rows with no non-zeros are skipped entirely — which is why the sparse
//! time predictor (Eq. 5) charges `L_c` only for *active* rows and `L_b`
//! only for *active* columns.
//!
//! LIBXSMM JIT-specializes this kernel per sparse matrix; we keep a
//! generic kernel — `dlr-simd`'s runtime-dispatched row kernel
//! ([`dlr_simd::sdmm::row_kernel`]: hand-written AVX2 with a portable
//! scalar fallback) — preserving the memory-access pattern the predictor
//! models. Every dispatch path performs the identical per-lane
//! multiply-then-add chain, so the output is **bit-identical** across
//! ISAs.

use crate::csr::{CsrMatrix, SparseError};
use crate::naive::check_shape;
use dlr_simd::Isa;

/// SIMD lane width the kernel blocks on: 8 × f32 = 256-bit (AVX2).
pub const SIMD_WIDTH: usize = 8;

// The packed layout below is exactly what the dlr-simd row kernel
// consumes; keep the block width in lock-step.
const _: () = assert!(SIMD_WIDTH == dlr_simd::LANES);

/// `B` packed as `k × N_b × n_b` (Figure 8). The last block of each row is
/// zero-padded so the kernel never branches on `n % n_b`.
///
/// The packed floats start at a 64-byte boundary (`offset` skips the
/// allocator's misalignment): every SIMD block then sits at a 32-byte
/// boundary, so the AVX2 row kernel's 256-bit loads never split a cache
/// line. Unaligned 32-byte loads straddle a 64-byte line half the time and
/// cost a second load slot each — a pure tax on the widest path, since
/// 16-byte SSE loads at 16-byte offsets never split.
#[derive(Debug, Clone, Default)]
pub struct PackedB {
    k: usize,
    n: usize,
    blocks: usize,
    /// Backing storage, over-allocated by [`ALIGN_PAD`] floats.
    data: Vec<f32>,
    /// Index of the first packed float: `data[offset]` is 64-byte aligned.
    offset: usize,
}

/// Slack floats appended so a 64-byte-aligned start always fits.
const ALIGN_PAD: usize = 16;

impl PackedB {
    /// Pack a row-major `k×n` dense matrix.
    ///
    /// # Panics
    /// Panics when `b.len() != k * n`.
    pub fn pack(b: &[f32], k: usize, n: usize) -> PackedB {
        let mut packed = PackedB::default();
        packed.pack_into(b, k, n);
        packed
    }

    /// Re-pack in place, reusing the existing allocation — the zero-churn
    /// path when the dense operand changes every batch (e.g. the input
    /// activations of a hybrid network's sparse first layer).
    ///
    /// # Panics
    /// Panics when `b.len() != k * n`.
    pub fn pack_into(&mut self, b: &[f32], k: usize, n: usize) {
        assert_eq!(b.len(), k * n, "B must be k×n");
        for (dst, src) in self.reset(k, n).zip(b.chunks_exact(n.max(1))) {
            dst[..n].copy_from_slice(src);
        }
    }

    /// Gather, normalize and pack in one pass: column `cols[c]` of the
    /// row-major `n × row_len` batch `rows` becomes packed row `c`, each
    /// value written as `(x − shift[j]) · scale[j]` with `j = cols[c]`.
    /// `shift` and `scale` hold one entry per batch column, so `row_len`
    /// is their length.
    ///
    /// This is a normalize, a transpose to `row_len × n` and
    /// [`Self::pack_into`] of the rows `cols` selects, without the two
    /// full-width intermediate copies; columns not in `cols` are never
    /// read. With `shift = 0` and `scale = 1` it packs the rows as they
    /// are, bit for bit (`(x − 0) · 1 = x` for every `x`, −0 and NaN
    /// included). Reuses the allocation as `pack_into` does.
    ///
    /// # Panics
    /// Panics when `shift` and `scale` differ in length, when
    /// `rows.len() != n · row_len`, or when a column is `>= row_len`.
    pub fn gather_into(
        &mut self,
        rows: &[f32],
        n: usize,
        cols: &[u32],
        shift: &[f32],
        scale: &[f32],
    ) {
        let row_len = shift.len();
        assert_eq!(scale.len(), row_len, "one shift and one scale per column");
        assert_eq!(rows.len(), n * row_len, "rows must be n × row_len");
        for (dst, &j) in self.reset(cols.len(), n).zip(cols) {
            let j = j as usize;
            let (s, sc) = (shift[j], scale[j]);
            for (lane, row) in dst.iter_mut().zip(rows.chunks_exact(row_len)) {
                *lane = (row[j] - s) * sc;
            }
        }
    }

    /// Shape the buffer for a `k × n` operand, every lane zero, and hand
    /// out its `k` packed rows (each `N_b · n_b` floats, the padding lanes
    /// last).
    fn reset(&mut self, k: usize, n: usize) -> std::slice::ChunksExactMut<'_, f32> {
        let blocks = n.div_ceil(SIMD_WIDTH).max(1);
        self.k = k;
        self.n = n;
        self.blocks = blocks;
        // clear + resize is a memset over the old capacity: no fresh
        // allocation after warm-up, and the padding lanes are zeroed.
        self.data.clear();
        self.data.resize(k * blocks * SIMD_WIDTH + ALIGN_PAD, 0.0);
        // Skip to the first 64-byte boundary (an f32 count: the base is at
        // least 4-byte aligned, so the byte gap is divisible by 4).
        let base = self.data.as_ptr() as usize;
        self.offset = (base.wrapping_neg() % 64) / 4;
        let width = blocks * SIMD_WIDTH;
        self.data[self.offset..self.offset + k * width].chunks_exact_mut(width)
    }

    /// The packed `k × N_b × n_b` floats, starting 64-byte aligned.
    #[inline]
    pub(crate) fn packed(&self) -> &[f32] {
        &self.data[self.offset..self.offset + self.k * self.blocks * SIMD_WIDTH]
    }

    /// Number of dense columns `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of SIMD blocks per row (`N_b`).
    #[inline]
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Reduction depth `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }
}

/// Reusable workspace (kept for API stability; the direct-write kernel
/// needs no spill storage).
#[derive(Debug, Default)]
pub struct SpmmWorkspace {
    _reserved: (),
}

/// `C = A·B` with `B` pre-packed. `C` is row-major `m×n`, overwritten.
///
/// The row kernel mirrors LIBXSMM's structure while staying generic
/// (LIBXSMM JIT-specializes per matrix): the first non-zero of a row
/// *writes* `C_i = x·B_j` — no separate zeroing pass — and every further
/// non-zero FMAs into it, `SIMD_WIDTH` lanes at a time over the packed,
/// padded rows of `B`. Inactive rows cost one `fill(0)` and nothing else,
/// which is exactly why the Eq. 5 predictor charges `L_c` only for
/// *active* rows.
///
/// # Panics
/// Panics when shapes disagree.
pub fn spmm_xsmm_packed(a: &CsrMatrix, b: &PackedB, c: &mut [f32], ws: &mut SpmmWorkspace) {
    let _ = ws;
    assert_eq!(a.cols(), b.k(), "A.cols must equal B rows");
    assert_eq!(c.len(), a.rows() * b.n(), "C must be m×n");
    spmm_xsmm_rows(a, b, 0, c);
}

/// Compute C rows `[row0, row0 + c_rows.len()/n)` of `C = A·B` against a
/// shared [`PackedB`], writing only into the caller-supplied row slice —
/// the per-chunk kernel of the parallel SpMM driver.
///
/// Each CSR row is independent (its accumulators live on the stack and it
/// stores to its own `C` row exactly once), so any tiling of `0..m` into
/// row ranges produces output **bit-identical** to [`spmm_xsmm_packed`]
/// over the full matrix.
///
/// # Panics
/// Panics when `a.cols() != b.k()`, `c_rows.len()` is not a multiple of
/// `b.n()`, or the row range exceeds `a.rows()`.
pub fn spmm_xsmm_rows(a: &CsrMatrix, b: &PackedB, row0: usize, c_rows: &mut [f32]) {
    assert_eq!(a.cols(), b.k(), "A.cols must equal B rows");
    let n = b.n();
    if n == 0 {
        assert!(c_rows.is_empty(), "C must be mrows×n");
        return;
    }
    assert_eq!(c_rows.len() % n, 0, "C must be mrows×n");
    let rows = c_rows.len() / n;
    assert!(row0 + rows <= a.rows(), "row range exceeds A.rows");

    let row_ptr = a.row_ptr();
    let values = a.values();
    debug_assert!(
        values[row_ptr[row0]..row_ptr[row0 + rows]]
            .iter()
            .all(|v| v.is_finite()),
        "A values in rows [{row0}, {}) must be finite",
        row0 + rows
    );
    debug_assert!(
        b.packed().iter().all(|v| v.is_finite()),
        "packed B must be finite"
    );
    // One dispatch decision per row range (a relaxed atomic load), shared
    // by every row kernel invocation below.
    let isa = dlr_simd::active();
    spmm_rows_inner(isa, a, b, row0, rows, c_rows, n);
}

/// The dispatch-pinned body of [`spmm_xsmm_rows`]: every CSR row goes
/// through `dlr-simd`'s row kernel, which holds a group of SIMD blocks of
/// `C_i` in registers while every non-zero of the row multiply-adds into
/// it — C is written exactly once per row, the property LIBXSMM gets from
/// keeping `C_i` in registers. Inactive rows cost one `fill(0)` and
/// nothing else.
///
/// Exposed (doc-hidden) so the equivalence suite can pin each ISA without
/// touching the process-wide dispatch state.
#[doc(hidden)]
pub fn spmm_xsmm_rows_with_isa(
    isa: Isa,
    a: &CsrMatrix,
    b: &PackedB,
    row0: usize,
    c_rows: &mut [f32],
) {
    assert_eq!(a.cols(), b.k(), "A.cols must equal B rows");
    let n = b.n();
    if n == 0 {
        assert!(c_rows.is_empty(), "C must be mrows×n");
        return;
    }
    assert_eq!(c_rows.len() % n, 0, "C must be mrows×n");
    let rows = c_rows.len() / n;
    assert!(row0 + rows <= a.rows(), "row range exceeds A.rows");
    spmm_rows_inner(isa, a, b, row0, rows, c_rows, n);
}

fn spmm_rows_inner(
    isa: Isa,
    a: &CsrMatrix,
    b: &PackedB,
    row0: usize,
    rows: usize,
    c_rows: &mut [f32],
    n: usize,
) {
    let row_ptr = a.row_ptr();
    let col_idx = a.col_idx();
    let values = a.values();
    let width = b.blocks() * SIMD_WIDTH;
    for (local, i) in (row0..row0 + rows).enumerate() {
        let (start, end) = (row_ptr[i], row_ptr[i + 1]);
        let c_row = &mut c_rows[local * n..(local + 1) * n];
        dlr_simd::sdmm::row_kernel(
            isa,
            &col_idx[start..end],
            &values[start..end],
            b.packed(),
            width,
            n,
            c_row,
        );
    }
}

/// Convenience wrapper: pack `B` and multiply in one call.
///
/// For repeated multiplications against the same `B` (a scoring batch used
/// with several layers or several row-bands of `A`), pack once with
/// [`PackedB::pack`] and call [`spmm_xsmm_packed`].
pub fn spmm_xsmm(a: &CsrMatrix, b: &[f32], n: usize, c: &mut [f32]) {
    try_spmm_xsmm(a, b, n, c).unwrap_or_else(|e| panic!("{e}"));
}

/// [`spmm_xsmm`] returning a typed error instead of panicking on shape
/// mismatches — the panic-free entry point for serving paths.
///
/// # Errors
/// [`SparseError::ShapeMismatch`] when buffer sizes disagree with the
/// shapes.
pub fn try_spmm_xsmm(a: &CsrMatrix, b: &[f32], n: usize, c: &mut [f32]) -> Result<(), SparseError> {
    check_shape("B must be k×n", a.cols() * n, b.len())?;
    check_shape("C must be m×n", a.rows() * n, c.len())?;
    let packed = PackedB::pack(b, a.cols(), n);
    let mut ws = SpmmWorkspace::default();
    spmm_xsmm_packed(a, &packed, c, &mut ws);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::spmm_naive;
    use dlr_dense::Matrix;

    fn sparse_random(m: usize, k: usize, keep_every: usize, seed: u64) -> (Matrix, CsrMatrix) {
        let mut d = Matrix::random(m, k, 1.0, seed);
        for (idx, v) in d.as_mut_slice().iter_mut().enumerate() {
            if idx % keep_every != 0 {
                *v = 0.0;
            }
        }
        let c = CsrMatrix::from_dense(&d, 0.0);
        (d, c)
    }

    fn check(m: usize, k: usize, n: usize, keep_every: usize) {
        let (_, a) = sparse_random(m, k, keep_every, (m * k + n) as u64);
        let b = Matrix::random(k, n, 1.0, 99);
        let mut expect = vec![0.0; m * n];
        spmm_naive(&a, b.as_slice(), n, &mut expect);
        let mut got = vec![0.0; m * n];
        spmm_xsmm(&a, b.as_slice(), n, &mut got);
        let diff = expect
            .iter()
            .zip(&got)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(diff < 1e-4, "({m},{k},{n},1/{keep_every}) diff {diff}");
    }

    #[test]
    fn matches_naive_on_simd_aligned_batches() {
        check(4, 6, 8, 2);
        check(50, 136, 64, 20);
        check(16, 16, 16, 3);
    }

    #[test]
    fn matches_naive_on_ragged_batches() {
        // n not a multiple of SIMD_WIDTH exercises the zero-padded block.
        check(5, 7, 1, 2);
        check(9, 13, 5, 2);
        check(33, 41, 27, 4);
        check(400, 136, 30, 70);
    }

    #[test]
    fn packed_b_layout() {
        let b = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let p = PackedB::pack(b.as_slice(), 2, 3);
        assert_eq!(p.blocks(), 1);
        assert_eq!(p.n(), 3);
        // Each row padded to SIMD width.
        assert_eq!(&p.packed()[..4], &[1., 2., 3., 0.]);
        assert_eq!(&p.packed()[SIMD_WIDTH..SIMD_WIDTH + 4], &[4., 5., 6., 0.]);
    }

    #[test]
    fn inactive_rows_are_zeroed_even_with_dirty_c() {
        let a = CsrMatrix::from_dense(&Matrix::zeros(3, 4), 0.0);
        let b = Matrix::random(4, 6, 1.0, 1);
        let mut c = vec![7.0; 18];
        spmm_xsmm(&a, b.as_slice(), 6, &mut c);
        assert!(c.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn packed_reuse_across_row_splits_matches_full_product() {
        // The paper's M-splitting: multiply each band, stack vertically.
        let (_, a) = sparse_random(12, 10, 3, 7);
        let b = Matrix::random(10, 9, 1.0, 8);
        let packed = PackedB::pack(b.as_slice(), 10, 9);
        let mut full = vec![0.0; 12 * 9];
        let mut ws = SpmmWorkspace::default();
        spmm_xsmm_packed(&a, &packed, &mut full, &mut ws);

        let mut stacked = Vec::new();
        for band in a.split_rows(3) {
            let mut part = vec![0.0; band.rows() * 9];
            spmm_xsmm_packed(&band, &packed, &mut part, &mut ws);
            stacked.extend(part);
        }
        assert_eq!(full, stacked);
    }

    #[test]
    fn row_range_kernel_is_bit_identical_to_full_product() {
        let (_, a) = sparse_random(23, 17, 3, 42);
        let b = Matrix::random(17, 11, 1.0, 43);
        let packed = PackedB::pack(b.as_slice(), 17, 11);
        let mut full = vec![0.0; 23 * 11];
        let mut ws = SpmmWorkspace::default();
        spmm_xsmm_packed(&a, &packed, &mut full, &mut ws);
        // Any tiling of the rows must reproduce the full product exactly.
        for chunk in [1usize, 4, 7, 23] {
            let mut got = vec![f32::NAN; 23 * 11];
            let mut row0 = 0;
            while row0 < 23 {
                let rows = chunk.min(23 - row0);
                spmm_xsmm_rows(&a, &packed, row0, &mut got[row0 * 11..(row0 + rows) * 11]);
                row0 += rows;
            }
            assert_eq!(full, got, "chunk={chunk}");
        }
        // Empty range is a no-op.
        spmm_xsmm_rows(&a, &packed, 5, &mut []);
    }

    #[test]
    fn pack_into_reuses_allocation_and_matches_fresh_pack() {
        let b1 = Matrix::random(6, 10, 1.0, 1);
        let mut p = PackedB::pack(b1.as_slice(), 6, 10);
        let cap = p.data.capacity();
        // Repack a smaller operand in place: no new allocation, identical
        // layout to a fresh pack (including zeroed padding lanes).
        let b2 = Matrix::random(4, 5, 1.0, 2);
        p.pack_into(b2.as_slice(), 4, 5);
        assert_eq!(p.data.capacity(), cap);
        let fresh = PackedB::pack(b2.as_slice(), 4, 5);
        // Compare the aligned views: the raw buffers may start the packed
        // floats at different 64-byte offsets.
        assert_eq!(p.packed(), fresh.packed());
        assert_eq!((p.k(), p.n(), p.blocks()), (4, 5, 1));
    }

    /// Columns `cols` of the row-major `n × f` batch, normalized, as the
    /// feature-major `cols.len() × n` operand `pack_into` takes.
    fn normalized_columns(
        rows: &[f32],
        n: usize,
        cols: &[u32],
        shift: &[f32],
        scale: &[f32],
    ) -> Vec<f32> {
        let f = shift.len();
        cols.iter()
            .flat_map(|&j| {
                let j = j as usize;
                (0..n).map(move |d| (rows[d * f + j] - shift[j]) * scale[j])
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn gather_matches_normalize_transpose_and_pack() {
        let (n, f) = (11, 7);
        let mut rows = Matrix::random(n, f, 3.0, 5).into_vec();
        rows[3] = -0.0;
        rows[f + 2] = f32::NAN;
        let cols = [0u32, 2, 3, 6];
        let shift: Vec<f32> = (0..f).map(|j| j as f32 * 0.25 - 0.5).collect();
        let scale: Vec<f32> = (0..f).map(|j| 1.0 / (j as f32 + 1.5)).collect();
        let mut gathered = PackedB::default();
        gathered.gather_into(&rows, n, &cols, &shift, &scale);
        let want = PackedB::pack(&normalized_columns(&rows, n, &cols, &shift, &scale), 4, n);
        assert_eq!(bits(gathered.packed()), bits(want.packed()));
        assert_eq!((gathered.k(), gathered.n(), gathered.blocks()), (4, n, 2));

        // The identity packs the raw values bit for bit, −0 and NaN too.
        let (zeros, ones) = (vec![0.0; f], vec![1.0; f]);
        gathered.gather_into(&rows, n, &cols, &zeros, &ones);
        let raw = PackedB::pack(&normalized_columns(&rows, n, &cols, &zeros, &ones), 4, n);
        assert_eq!(bits(gathered.packed()), bits(raw.packed()));
        let lanes = gathered.packed();
        assert_eq!(lanes[2 * 16].to_bits(), (-0.0f32).to_bits());
        assert!(lanes[16 + 1].is_nan());
    }

    #[test]
    fn gather_into_reuses_allocation_and_matches_fresh_gather() {
        let (zeros, ones) = (vec![0.0; 9], vec![1.0; 9]);
        let big = Matrix::random(20, 9, 1.0, 3).into_vec();
        let mut p = PackedB::default();
        p.gather_into(&big, 20, &[0, 1, 4, 5, 8], &zeros, &ones);
        let cap = p.data.capacity();
        let small = Matrix::random(6, 9, 1.0, 4).into_vec();
        p.gather_into(&small, 6, &[1, 8], &zeros, &ones);
        assert_eq!(p.data.capacity(), cap);
        let mut fresh = PackedB::default();
        fresh.gather_into(&small, 6, &[1, 8], &zeros, &ones);
        // Stale lanes of the larger fill are zero again.
        assert_eq!(p.packed(), fresh.packed());
        assert_eq!((p.k(), p.n(), p.blocks()), (2, 6, 1));
    }

    #[test]
    fn gather_handles_empty_batches_and_empty_column_sets() {
        let (zeros, ones) = (vec![0.0; 3], vec![1.0; 3]);
        let mut p = PackedB::default();
        p.gather_into(&[], 0, &[0, 2], &zeros, &ones);
        assert_eq!((p.k(), p.n()), (2, 0));
        assert!(p.packed().iter().all(|&v| v == 0.0));
        p.gather_into(&[1.0; 6], 2, &[], &zeros, &ones);
        assert_eq!((p.k(), p.n()), (0, 2));
        assert!(p.packed().is_empty());
    }

    #[test]
    #[should_panic(expected = "rows must be n × row_len")]
    fn gather_checks_the_batch_shape() {
        PackedB::default().gather_into(&[0.0; 5], 2, &[0], &[0.0; 3], &[1.0; 3]);
    }

    #[test]
    #[should_panic(expected = "A.cols must equal B rows")]
    fn shape_mismatch_panics() {
        let a = CsrMatrix::from_dense(&Matrix::zeros(2, 3), 0.0);
        let packed = PackedB::pack(&[0.0; 8], 4, 2);
        let mut ws = SpmmWorkspace::default();
        spmm_xsmm_packed(&a, &packed, &mut [0.0; 4], &mut ws);
    }

    #[test]
    fn try_variant_reports_typed_shape_error() {
        let a = CsrMatrix::from_dense(&Matrix::zeros(2, 3), 0.0);
        let mut c = vec![0.0; 4];
        assert!(matches!(
            try_spmm_xsmm(&a, &[0.0; 5], 2, &mut c),
            Err(SparseError::ShapeMismatch {
                what: "B must be k×n",
                expected: 6,
                got: 5,
            })
        ));
        // Well-shaped input still multiplies.
        let b = Matrix::random(3, 2, 1.0, 2);
        assert!(try_spmm_xsmm(&a, b.as_slice(), 2, &mut c).is_ok());
        assert!(c.iter().all(|&v| v == 0.0));
    }
}
