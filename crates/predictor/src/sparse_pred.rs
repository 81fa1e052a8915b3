//! The sparse-dense multiplication time predictor (Equation 5).
//!
//! The LIBXSMM-style kernel's cost decomposes into three memory-bound
//! terms (§4.4):
//!
//! * `L_c` per **active row** of `A` — loading and storing the `N_b`
//!   accumulator vectors of `C_i`;
//! * `L_a` per **non-zero** of `A` — loading the element and issuing `N_b`
//!   FMA instructions;
//! * `L_b` per **active column** of `A` — the first (uncached) load of the
//!   corresponding row of `B`; later touches hit cache and are free.
//!
//! All three scale with the batch width, so the stored coefficients are
//! per-column-of-B (`N`-normalized): `T(N) = N · (|a_r|·l_c + nnz·l_a +
//! |a_c|·l_b)`. The paper derives them *by difference* from synthetic
//! matrices with controlled structure; [`crate::calibrate`] implements
//! that procedure and [`SparsePredictor::paper_like`] ships coefficients
//! consistent with the paper's Table 4 magnitudes.

use dlr_sparse::CsrMatrix;

/// Structure summary of a sparse matrix, the predictor's only input
/// (known *a priori* for a pruned layer, §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsrShapeStats {
    /// Rows with at least one non-zero (`|a_r|`).
    pub active_rows: usize,
    /// Stored non-zeros.
    pub nnz: usize,
    /// Columns with at least one non-zero (`|a_c|`).
    pub active_cols: usize,
}

impl CsrShapeStats {
    /// Extract the statistics from a CSR matrix.
    pub fn of(a: &CsrMatrix) -> CsrShapeStats {
        CsrShapeStats {
            active_rows: a.active_rows(),
            nnz: a.nnz(),
            active_cols: a.active_cols(),
        }
    }

    /// Worst-case stats for an `m×k` matrix at the given sparsity: every
    /// row and column assumed active (the assumption behind Figure 11).
    pub fn worst_case(m: usize, k: usize, sparsity: f64) -> CsrShapeStats {
        let nnz = ((m * k) as f64 * (1.0 - sparsity)).round() as usize;
        CsrShapeStats {
            active_rows: m,
            nnz,
            active_cols: k,
        }
    }
}

/// Equation 5 with N-normalized coefficients (seconds per B-column).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparsePredictor {
    /// Per-non-zero cost `l_a` (seconds per B-column).
    pub la: f64,
    /// Per-active-column cost `l_b`.
    pub lb: f64,
    /// Per-active-row cost `l_c` (load + store ⇒ the paper's `L_c = 2·L_b`).
    pub lc: f64,
}

impl SparsePredictor {
    /// Build from calibrated `l_a` and `l_b`, enforcing the paper's
    /// empirically-verified `l_c = 2·l_b`.
    pub fn from_la_lb(la: f64, lb: f64) -> SparsePredictor {
        SparsePredictor {
            la,
            lb,
            lc: 2.0 * lb,
        }
    }

    /// Coefficients of the same order as the paper's i9-9900K
    /// measurements (Table 4 reverse-engineered: a 400×136 layer at 99.5%
    /// sparsity costs ≈ 0.2 µs at N = 16, a 50×136 layer at 98.7% costs
    /// ≈ 0.2 µs at N = 64).
    pub fn paper_like() -> SparsePredictor {
        SparsePredictor::from_la_lb(1.2e-11, 1.0e-11)
    }

    /// Predicted seconds for `A · B` with `N` columns of B.
    pub fn predict_secs(&self, stats: CsrShapeStats, n: usize) -> f64 {
        n as f64
            * (stats.active_rows as f64 * self.lc
                + stats.nnz as f64 * self.la
                + stats.active_cols as f64 * self.lb)
    }

    /// Predicted microseconds, the unit of Tables 3 and 4.
    pub fn predict_us(&self, stats: CsrShapeStats, n: usize) -> f64 {
        self.predict_secs(stats, n) * 1e6
    }

    /// Predicted speedup of sparse-at-`sparsity` over a dense multiply of
    /// the same shape that runs at `dense_gflops` (the Figure 11 curves;
    /// worst-case active rows/columns).
    pub fn speedup_vs_dense(
        &self,
        m: usize,
        k: usize,
        n: usize,
        sparsity: f64,
        dense_gflops: f64,
    ) -> f64 {
        let dense_secs = 2.0 * m as f64 * k as f64 * n as f64 / (dense_gflops * 1e9);
        let sparse_secs = self.predict_secs(CsrShapeStats::worst_case(m, k, sparsity), n);
        dense_secs / sparse_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlr_dense::Matrix;

    #[test]
    fn stats_from_csr() {
        let d = Matrix::from_vec(3, 4, vec![1., 0., 0., 0., 0., 0., 0., 0., 1., 0., 0., 2.]);
        let a = CsrMatrix::from_dense(&d, 0.0);
        let s = CsrShapeStats::of(&a);
        assert_eq!(
            s,
            CsrShapeStats {
                active_rows: 2,
                nnz: 3,
                active_cols: 2
            }
        );
    }

    #[test]
    fn prediction_is_linear_in_n() {
        let p = SparsePredictor::paper_like();
        let s = CsrShapeStats {
            active_rows: 100,
            nnz: 700,
            active_cols: 136,
        };
        let t16 = p.predict_secs(s, 16);
        let t64 = p.predict_secs(s, 64);
        assert!((t64 / t16 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn eq5_structure() {
        let p = SparsePredictor::from_la_lb(1.0, 10.0); // exaggerated units
        let s = CsrShapeStats {
            active_rows: 2,
            nnz: 3,
            active_cols: 5,
        };
        // T/N = 2·20 + 3·1 + 5·10 = 93.
        assert!((p.predict_secs(s, 1) - 93.0).abs() < 1e-9);
        assert_eq!(p.lc, 20.0);
    }

    #[test]
    fn same_shape_different_sparsity_distinguished() {
        // §4.4: the predictor "can fruitfully distinguish between matrices
        // with the same shape but with different sparsity percentages".
        let p = SparsePredictor::paper_like();
        let lo = CsrShapeStats::worst_case(200, 136, 0.982);
        let hi = CsrShapeStats::worst_case(200, 136, 0.971);
        assert!(p.predict_secs(hi, 64) > p.predict_secs(lo, 64) * 1.1);
    }

    #[test]
    fn paper_like_magnitudes_match_table4() {
        // 400×136 @ 0.995 sparsity, N = 16 → ~0.2 µs (Table 4 row 1).
        let p = SparsePredictor::paper_like();
        let t = p.predict_us(CsrShapeStats::worst_case(400, 136, 0.995), 16);
        assert!((0.05..0.6).contains(&t), "predicted {t:.3} µs");
        // 50×136 @ 0.987, N = 64 → ~0.2 µs (last row).
        let t = p.predict_us(CsrShapeStats::worst_case(50, 136, 0.987), 64);
        assert!((0.05..0.6).contains(&t), "predicted {t:.3} µs");
    }

    #[test]
    fn speedup_grows_superlinearly_near_total_sparsity() {
        // Figure 11: "quadratic growth of the sparse speedup in the
        // selected range".
        let p = SparsePredictor::paper_like();
        let s90 = p.speedup_vs_dense(400, 136, 64, 0.90, 90.0);
        let s95 = p.speedup_vs_dense(400, 136, 64, 0.95, 90.0);
        let s99 = p.speedup_vs_dense(400, 136, 64, 0.99, 90.0);
        assert!(s95 > s90);
        assert!(s99 > s95);
        // Gains accelerate: the 95→99 jump beats the 90→95 jump.
        assert!(s99 - s95 > s95 - s90);
    }

    #[test]
    fn worst_case_rounds_nnz() {
        let s = CsrShapeStats::worst_case(10, 10, 0.95);
        assert_eq!(s.nnz, 5);
        assert_eq!(s.active_rows, 10);
        assert_eq!(s.active_cols, 10);
    }
}
