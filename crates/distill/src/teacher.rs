//! The teacher abstraction.

use dlr_gbdt::Ensemble;
use dlr_quickscorer::VectorizedQuickScorer;

/// A black-box document scorer used as a distillation teacher (§3: "the
/// core idea ... is to treat the tree-based model as a black box producing
/// accurate scores").
pub trait Teacher {
    /// Features per document.
    fn num_features(&self) -> usize;

    /// Score a row-major `n × num_features` block into `out`
    /// (raw, unnormalized features — the teacher was trained on them).
    fn score_batch(&self, rows: &[f32], out: &mut [f32]);
}

impl Teacher for Ensemble {
    fn num_features(&self) -> usize {
        Ensemble::num_features(self)
    }

    fn score_batch(&self, rows: &[f32], out: &mut [f32]) {
        self.predict_batch(rows, out);
    }
}

/// The compiled forest: on finite features, the scores of traversing the
/// [`Ensemble`] it was compiled from, bit for bit, several times faster.
impl Teacher for VectorizedQuickScorer {
    fn num_features(&self) -> usize {
        VectorizedQuickScorer::num_features(self)
    }

    fn score_batch(&self, rows: &[f32], out: &mut [f32]) {
        VectorizedQuickScorer::score_batch(self, rows, out);
    }
}

/// Closure adapter for tests: `(num_features, f)` scores each row with `f`.
impl<F: Fn(&[f32]) -> f32> Teacher for (usize, F) {
    fn num_features(&self) -> usize {
        self.0
    }

    fn score_batch(&self, rows: &[f32], out: &mut [f32]) {
        for (row, o) in rows.chunks_exact(self.0).zip(out.iter_mut()) {
            *o = (self.1)(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_teacher_scores_rows() {
        let t = (2usize, |row: &[f32]| row[0] + 10.0 * row[1]);
        let mut out = [0.0f32; 2];
        t.score_batch(&[1.0, 2.0, 3.0, 4.0], &mut out);
        assert_eq!(out, [21.0, 43.0]);
        assert_eq!(Teacher::num_features(&t), 2);
    }
}
