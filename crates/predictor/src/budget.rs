//! Serve-time latency budget forecasting.
//!
//! The paper uses the Equation 3 predictor at *design* time, to decide
//! which architectures are worth training. This module reuses it at
//! *serve* time: [`BudgetForecast`] binds a [`DensePredictor`] to one
//! concrete architecture and answers "how long will a batch of `n`
//! documents take?", so a serving layer can route a batch to a cheaper
//! fallback *before* blowing its deadline. A safety factor absorbs the
//! predictor's optimism about real machines (allocator noise, cache
//! pollution from co-resident stages).

use crate::dense_pred::DensePredictor;
use std::time::Duration;

/// Per-batch latency forecast for one fixed architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetForecast {
    predictor: DensePredictor,
    input_dim: usize,
    hidden: Vec<usize>,
    safety_factor: f64,
    pruned_first_layer: bool,
}

impl BudgetForecast {
    /// Forecast for a dense network `input_dim → hidden… → 1`.
    pub fn dense(predictor: DensePredictor, input_dim: usize, hidden: Vec<usize>) -> Self {
        BudgetForecast {
            predictor,
            input_dim,
            hidden,
            safety_factor: 1.0,
            pruned_first_layer: false,
        }
    }

    /// Forecast for the same architecture with a ≥95%-sparse first layer,
    /// whose cost the §6 design rule treats as negligible.
    pub fn pruned(predictor: DensePredictor, input_dim: usize, hidden: Vec<usize>) -> Self {
        BudgetForecast {
            pruned_first_layer: true,
            ..Self::dense(predictor, input_dim, hidden)
        }
    }

    /// Multiply forecasts by `factor` (> 1 is pessimistic headroom).
    ///
    /// # Panics
    /// Panics when `factor` is not finite and positive.
    pub fn with_safety_factor(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "safety factor must be finite and positive"
        );
        self.safety_factor = factor;
        self
    }

    /// Predicted wall-clock seconds to score a batch of `num_docs`.
    pub fn forecast_batch_secs(&self, num_docs: usize) -> f64 {
        if num_docs == 0 {
            return 0.0;
        }
        let us_per_doc = if self.pruned_first_layer {
            self.predictor
                .predict_pruned_us_per_doc(self.input_dim, &self.hidden, num_docs)
        } else {
            self.predictor
                .predict_forward_us_per_doc(self.input_dim, &self.hidden, num_docs)
        };
        us_per_doc * 1e-6 * num_docs as f64 * self.safety_factor
    }

    /// Predicted wall-clock time to score a batch of `num_docs`,
    /// saturating at `Duration::MAX`: serving calls this under the
    /// admission-queue lock and on the dispatcher thread, where a
    /// forecast must not panic.
    pub fn forecast_batch(&self, num_docs: usize) -> Duration {
        Duration::try_from_secs_f64(self.forecast_batch_secs(num_docs).max(0.0))
            .unwrap_or(Duration::MAX)
    }

    /// Predicted nanoseconds to score a batch of `num_docs`, saturating
    /// at `u64::MAX`. Observability planes compare this integer against
    /// measured span durations, so offering it here keeps the
    /// prediction/measurement units identical without a lossy round-trip
    /// through `Duration` at every call site.
    pub fn forecast_batch_nanos(&self, num_docs: usize) -> u64 {
        let nanos = self.forecast_batch_secs(num_docs).max(0.0) * 1e9;
        if nanos >= u64::MAX as f64 {
            u64::MAX
        } else {
            nanos as u64
        }
    }

    /// Whether a batch of `num_docs` is predicted to fit `budget`.
    pub fn fits(&self, num_docs: usize, budget: Duration) -> bool {
        self.forecast_batch(num_docs) <= budget
    }

    /// Adapt into the closure shape serving layers consume (any
    /// `Fn(usize) -> Option<Duration>` is a latency forecaster).
    pub fn into_forecaster(self) -> impl Fn(usize) -> Option<Duration> {
        move |num_docs| Some(self.forecast_batch(num_docs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forecast() -> BudgetForecast {
        BudgetForecast::dense(DensePredictor::paper_i9_9900k(), 136, vec![128, 64, 32])
    }

    #[test]
    fn forecast_scales_with_batch_size() {
        let f = forecast();
        let one = f.forecast_batch_secs(1);
        let hundred = f.forecast_batch_secs(100);
        assert!(one > 0.0);
        assert!(hundred > one * 50.0, "cost must grow with the batch");
        assert_eq!(f.forecast_batch_secs(0), 0.0);
    }

    #[test]
    fn pruned_forecast_is_cheaper() {
        let dense = forecast();
        let pruned =
            BudgetForecast::pruned(DensePredictor::paper_i9_9900k(), 136, vec![128, 64, 32]);
        assert!(pruned.forecast_batch_secs(100) < dense.forecast_batch_secs(100));
    }

    #[test]
    fn safety_factor_multiplies() {
        let plain = forecast();
        let padded = forecast().with_safety_factor(2.0);
        let n = 64;
        let ratio = padded.forecast_batch_secs(n) / plain.forecast_batch_secs(n);
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fits_compares_against_budget() {
        let f = forecast();
        let t = f.forecast_batch(100);
        assert!(f.fits(100, t + Duration::from_micros(1)));
        assert!(!f.fits(100, t.saturating_sub(Duration::from_micros(1))));
        let hook = f.into_forecaster();
        assert_eq!(hook(100), Some(t));
    }

    #[test]
    fn nanos_forecast_matches_the_duration_forecast() {
        let f = forecast();
        let nanos = f.forecast_batch_nanos(100);
        let dur = f.forecast_batch(100).as_nanos() as u64;
        let diff = nanos.abs_diff(dur);
        assert!(diff <= 1, "nanos {nanos} vs duration {dur}");
        assert_eq!(f.forecast_batch_nanos(0), 0);
        // Past `Duration::MAX` both read their maximum; neither panics.
        let huge = forecast().with_safety_factor(1e30);
        assert_eq!(huge.forecast_batch(100), Duration::MAX);
        assert_eq!(huge.forecast_batch_nanos(100), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn bad_safety_factor_rejected() {
        forecast().with_safety_factor(0.0);
    }
}
