//! The LIBXSMM-style SDMM row kernel (§4.3): one CSR row of `A` against a
//! packed, zero-padded `B`, accumulators held in registers and stored to
//! `C_i` exactly once.
//!
//! Per output element `C[i][j]` both paths — scalar and AVX2 — perform
//! the identical chain of `acc += x * b` steps in non-zero order, using a
//! *separate* multiply and add (never FMA). IEEE-754 arithmetic is
//! performed per lane, so how the `j` axis is blocked into vectors cannot
//! change any element's value: **all paths are bit-identical**, and the
//! equivalence suite asserts exact equality. (Fusing the multiply-add
//! would buy little here — the kernel is load-bound on `B` — and would
//! forfeit the bit-exactness oracle.)
//!
//! Only AVX2 has a hand-written kernel. [`Isa::Sse2`] runs the scalar
//! path: 128-bit intrinsics read slower than that loop in every traced
//! run (`simd.sdmm_row_ns` in `results/benchmark/`).

use crate::dispatch::{supported, Isa};
use crate::LANES;

/// Compute one dense output row `C_i = Σ x_j · B[j, :]` over the non-zeros
/// `(cols, vals)` of a CSR row, against `B` packed row-major with stride
/// `width` (a multiple of [`LANES`], zero-padded past column `n`).
///
/// `c_row` (`len == n`) is overwritten, not accumulated into; an empty
/// non-zero list zeroes it. An `isa` that is unsupported here, or has no
/// kernel of its own ([`Isa::Sse2`]), falls back to scalar.
///
/// # Panics
/// Panics when `cols`/`vals` lengths differ, `c_row.len() != n`, the
/// stride is not a padded multiple of [`LANES`] covering `n`, or a column
/// index addresses a row outside `bdata`.
pub fn row_kernel(
    isa: Isa,
    cols: &[u32],
    vals: &[f32],
    bdata: &[f32],
    width: usize,
    n: usize,
    c_row: &mut [f32],
) {
    assert_eq!(cols.len(), vals.len(), "CSR row arrays must pair up");
    assert_eq!(c_row.len(), n, "C row must have n columns");
    assert!(
        width >= n && width.is_multiple_of(LANES),
        "B stride must be n padded to the SIMD width"
    );
    if cols.is_empty() {
        c_row.fill(0.0);
        return;
    }
    let max_ci = cols.iter().copied().max().unwrap_or(0) as usize;
    assert!(
        (max_ci + 1) * width <= bdata.len(),
        "column index out of packed-B bounds"
    );
    if n == 0 {
        return;
    }
    let isa = if supported(isa) { isa } else { Isa::Scalar };
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => {
            // SAFETY: AVX2 availability was checked by `supported` above.
            // The asserts above guarantee every packed-B row the kernel
            // reads (`(ci+1)*width <= bdata.len()` for all ci) and the
            // `n`-element output row are in bounds; the kernel's own loop
            // bounds keep each vector load within `t + lanes <= n <= width`.
            unsafe {
                x86::row_avx2(cols, vals, bdata.as_ptr(), width, n, c_row.as_mut_ptr());
            }
        }
        _ => row_scalar(cols, vals, bdata, width, n, c_row),
    }
}

/// Portable fallback: the auto-vectorizable pass structure of
/// `dlr-sparse`'s original kernel (4-block / 2-block / 1-block / tail),
/// kept as the semantic reference.
fn row_scalar(
    cols: &[u32],
    vals: &[f32],
    bdata: &[f32],
    width: usize,
    n: usize,
    c_row: &mut [f32],
) {
    const UNROLL: usize = 4;
    const PASS: usize = UNROLL * LANES;
    let mut t = 0usize;
    while t + PASS <= n {
        let mut acc = [[0.0f32; LANES]; UNROLL];
        for (&ci, &x) in cols.iter().zip(vals) {
            let base = ci as usize * width + t;
            let bb = &bdata[base..base + PASS];
            for (u, a) in acc.iter_mut().enumerate() {
                let block = &bb[u * LANES..(u + 1) * LANES];
                for l in 0..LANES {
                    a[l] += x * block[l];
                }
            }
        }
        for (u, a) in acc.iter().enumerate() {
            c_row[t + u * LANES..t + (u + 1) * LANES].copy_from_slice(a);
        }
        t += PASS;
    }
    while t + 2 * LANES <= n {
        let mut acc = [[0.0f32; LANES]; 2];
        for (&ci, &x) in cols.iter().zip(vals) {
            let base = ci as usize * width + t;
            let bb = &bdata[base..base + 2 * LANES];
            for (u, a) in acc.iter_mut().enumerate() {
                let block = &bb[u * LANES..(u + 1) * LANES];
                for l in 0..LANES {
                    a[l] += x * block[l];
                }
            }
        }
        for (u, a) in acc.iter().enumerate() {
            c_row[t + u * LANES..t + (u + 1) * LANES].copy_from_slice(a);
        }
        t += 2 * LANES;
    }
    while t + LANES <= n {
        let mut acc = [0.0f32; LANES];
        for (&ci, &x) in cols.iter().zip(vals) {
            let bb = &bdata[ci as usize * width + t..ci as usize * width + t + LANES];
            for l in 0..LANES {
                acc[l] += x * bb[l];
            }
        }
        c_row[t..t + LANES].copy_from_slice(&acc);
        t += LANES;
    }
    if t < n {
        let tail = n - t;
        let mut acc = [0.0f32; LANES];
        for (&ci, &x) in cols.iter().zip(vals) {
            let bb = &bdata[ci as usize * width + t..ci as usize * width + t + tail];
            for (a, &bv) in acc.iter_mut().zip(bb) {
                *a += x * bv;
            }
        }
        c_row[t..n].copy_from_slice(&acc[..tail]);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! Hand-written row kernels. Private: callable only through the
    //! dispatch wrapper above (enforced by dlr-lint's
    //! `SIMD_TARGET_FEATURE` rule).

    use core::arch::x86_64::*;

    /// AVX2 row kernel: 64-lane (8×ymm) main pass, then 32-lane, 8-lane,
    /// and scalar-tail passes. Separate `mul`/`add` — bit-identical to
    /// scalar.
    ///
    /// The main pass keeps eight accumulator chains in flight: each lane's
    /// `acc += x·b` chain is serialized on `add` latency (~4 cycles), so
    /// with sparse rows of only a handful of non-zeros, four chains leave
    /// the two FP ports half idle and the kernel runs no faster than the
    /// auto-vectorized scalar path. Eight chains saturate both ports.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available, `bdata` is readable for
    /// `(ci+1)*width` floats for every `ci` in `cols` with `n <= width`,
    /// and `c_row` is writable for `n` floats.
    #[target_feature(enable = "avx2")]
    unsafe fn row_avx2_impl(
        cols: &[u32],
        vals: &[f32],
        bdata: *const f32,
        width: usize,
        n: usize,
        c_row: *mut f32,
    ) {
        let mut t = 0usize;
        while t + 64 <= n {
            let mut acc = [_mm256_setzero_ps(); 8];
            for (&ci, &x) in cols.iter().zip(vals) {
                let base = bdata.add(ci as usize * width + t);
                let xv = _mm256_set1_ps(x);
                for (u, a) in acc.iter_mut().enumerate() {
                    let b = _mm256_loadu_ps(base.add(u * 8));
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(xv, b));
                }
            }
            for (u, &a) in acc.iter().enumerate() {
                _mm256_storeu_ps(c_row.add(t + u * 8), a);
            }
            t += 64;
        }
        while t + 32 <= n {
            let mut acc = [_mm256_setzero_ps(); 4];
            for (&ci, &x) in cols.iter().zip(vals) {
                let base = bdata.add(ci as usize * width + t);
                let xv = _mm256_set1_ps(x);
                for (u, a) in acc.iter_mut().enumerate() {
                    let b = _mm256_loadu_ps(base.add(u * 8));
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(xv, b));
                }
            }
            for (u, &a) in acc.iter().enumerate() {
                _mm256_storeu_ps(c_row.add(t + u * 8), a);
            }
            t += 32;
        }
        while t + 8 <= n {
            let mut acc = _mm256_setzero_ps();
            for (&ci, &x) in cols.iter().zip(vals) {
                let b = _mm256_loadu_ps(bdata.add(ci as usize * width + t));
                acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(x), b));
            }
            _mm256_storeu_ps(c_row.add(t), acc);
            t += 8;
        }
        tail_scalar(cols, vals, bdata, width, t, n, c_row);
    }

    /// Dispatch-table entry for the AVX2 row kernel.
    ///
    /// # Safety
    /// Same contract as [`row_avx2_impl`].
    #[allow(clippy::missing_safety_doc)]
    pub(super) unsafe fn row_avx2(
        cols: &[u32],
        vals: &[f32],
        bdata: *const f32,
        width: usize,
        n: usize,
        c_row: *mut f32,
    ) {
        // SAFETY: forwarded verbatim; the caller upholds the target
        // feature and bounds contract.
        unsafe { row_avx2_impl(cols, vals, bdata, width, n, c_row) }
    }

    /// Scalar ragged tail of the vector path (lanes `t..n`).
    ///
    /// # Safety
    /// Caller must ensure `bdata` is readable for `ci*width + n` floats
    /// for every `ci` in `cols` and `c_row` is writable for `n` floats.
    unsafe fn tail_scalar(
        cols: &[u32],
        vals: &[f32],
        bdata: *const f32,
        width: usize,
        t: usize,
        n: usize,
        c_row: *mut f32,
    ) {
        if t >= n {
            return;
        }
        let tail = n - t;
        let mut acc = [0.0f32; 8];
        for (&ci, &x) in cols.iter().zip(vals) {
            let base = ci as usize * width + t;
            for (l, a) in acc.iter_mut().enumerate().take(tail) {
                // SAFETY: `base + l < ci*width + n <= (ci+1)*width`, in
                // bounds per the caller's contract.
                *a += x * unsafe { *bdata.add(base + l) };
            }
        }
        for (l, &a) in acc.iter().enumerate().take(tail) {
            // SAFETY: `t + l < n`; `c_row` is valid for `n` floats.
            unsafe { *c_row.add(t + l) = a };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch;

    /// Deterministic pseudo-random CSR row + packed B.
    fn fixture(nnz: usize, k: usize, n: usize) -> (Vec<u32>, Vec<f32>, Vec<f32>, usize) {
        let width = n.div_ceil(LANES).max(1) * LANES;
        let cols: Vec<u32> = (0..nnz).map(|i| ((i * 37 + 5) % k) as u32).collect();
        let vals: Vec<f32> = (0..nnz)
            .map(|i| ((i * 13) % 19) as f32 * 0.3 - 2.0)
            .collect();
        let mut bdata = vec![0.0f32; k * width];
        for j in 0..k {
            for t in 0..n {
                bdata[j * width + t] = ((j * 31 + t * 7) % 23) as f32 * 0.25 - 2.5;
            }
        }
        (cols, vals, bdata, width)
    }

    fn run(isa: Isa, nnz: usize, k: usize, n: usize) -> Vec<f32> {
        let (cols, vals, bdata, width) = fixture(nnz, k, n);
        let mut c = vec![f32::NAN; n];
        row_kernel(isa, &cols, &vals, &bdata, width, n, &mut c);
        c
    }

    #[test]
    fn all_supported_paths_are_bit_identical() {
        for &(nnz, k, n) in &[
            (1usize, 4usize, 1usize),
            (3, 8, 7),
            (5, 16, 8),
            (7, 16, 9),
            (11, 32, 16),
            (13, 32, 33),
            (17, 64, 40),
            (23, 64, 100),
            (9, 16, 31),
        ] {
            let want = run(Isa::Scalar, nnz, k, n);
            for isa in [Isa::Sse2, Isa::Avx2] {
                if !dispatch::supported(isa) {
                    continue;
                }
                assert_eq!(want, run(isa, nnz, k, n), "{isa} nnz={nnz} k={k} n={n}");
            }
        }
    }

    #[test]
    fn empty_row_zeroes_dirty_output() {
        for isa in Isa::ALL {
            let mut c = vec![7.0f32; 5];
            row_kernel(isa, &[], &[], &[0.0; 8], 8, 5, &mut c);
            assert!(c.iter().all(|&v| v == 0.0), "{isa}");
        }
    }

    #[test]
    fn matches_dense_reference() {
        let (cols, vals, bdata, width) = fixture(6, 16, 21);
        let mut want = [0.0f32; 21];
        for (&ci, &x) in cols.iter().zip(&vals) {
            for t in 0..21 {
                want[t] += x * bdata[ci as usize * width + t];
            }
        }
        let got = run(Isa::Scalar, 6, 16, 21);
        for (a, b) in want.iter().zip(&got) {
            assert!((a - b).abs() <= 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "column index out of packed-B bounds")]
    fn out_of_bounds_column_is_rejected() {
        let mut c = vec![0.0f32; 4];
        row_kernel(Isa::Scalar, &[3], &[1.0], &[0.0; 16], 8, 4, &mut c);
    }

    #[test]
    fn zero_width_row_is_a_noop() {
        row_kernel(Isa::Scalar, &[0], &[1.0], &[0.0; 8], 8, 0, &mut []);
    }
}
