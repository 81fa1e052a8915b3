//! The dense forward-pass time predictor (Equation 3 + the Figure 6
//! GFLOPS zones).

/// Predicts dense GEMM / forward-pass times from a `k`-keyed GFLOPS
/// lookup table.
///
/// §4.2 observes that a single size-independent `t_m` is unreliable; the
/// heatmap of Figure 6 collapses into horizontal stripes along `k`, so
/// GFLOPS are modeled as a step function of the reduction dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct DensePredictor {
    /// `(k_upper_inclusive, gflops)` sorted by `k_upper_inclusive`
    /// ascending; the last entry must have `k_upper_inclusive == usize::MAX`.
    zones: Vec<(usize, f64)>,
}

impl DensePredictor {
    /// The paper's measured zones for the i9-9900K (Figure 6):
    /// k ≤ 128 → 90 GFLOPS, 128 < k ≤ 512 → 110, k > 512 → 130.
    pub fn paper_i9_9900k() -> DensePredictor {
        DensePredictor::from_zones(vec![(128, 90.0), (512, 110.0), (usize::MAX, 130.0)])
    }

    /// Build from explicit zones.
    ///
    /// # Panics
    /// Panics when zones are empty, unsorted, non-positive, or the last
    /// zone does not cover all `k`.
    pub fn from_zones(zones: Vec<(usize, f64)>) -> DensePredictor {
        assert!(!zones.is_empty(), "need at least one zone");
        assert!(
            zones.windows(2).all(|w| w[0].0 < w[1].0),
            "zones must be sorted by k upper bound"
        );
        assert!(
            zones.iter().all(|&(_, g)| g > 0.0),
            "GFLOPS must be positive"
        );
        assert_eq!(
            zones.last().expect("non-empty").0,
            usize::MAX,
            "last zone must cover all k"
        );
        DensePredictor { zones }
    }

    /// The zone table.
    pub fn zones(&self) -> &[(usize, f64)] {
        &self.zones
    }

    /// Effective GFLOPS for a reduction dimension `k`.
    pub fn gflops_for(&self, k: usize) -> f64 {
        for &(upper, g) in &self.zones {
            if k <= upper {
                return g;
            }
        }
        unreachable!("last zone covers usize::MAX")
    }

    /// Predicted seconds for one `m×k · k×n` GEMM (`2·m·k·n` FLOPs).
    pub fn predict_matmul_secs(&self, m: usize, k: usize, n: usize) -> f64 {
        2.0 * m as f64 * k as f64 * n as f64 / (self.gflops_for(k) * 1e9)
    }

    /// Per-layer predicted seconds of a full forward pass on a batch of
    /// `n` documents for the architecture
    /// `input_dim → hidden[0] → … → hidden.last() → 1`.
    pub fn predict_layers_secs(&self, input_dim: usize, hidden: &[usize], n: usize) -> Vec<f64> {
        let mut dims = Vec::with_capacity(hidden.len() + 2);
        dims.push(input_dim);
        dims.extend_from_slice(hidden);
        dims.push(1);
        dims.windows(2)
            .map(|w| self.predict_matmul_secs(w[1], w[0], n))
            .collect()
    }

    /// Predicted scoring time in µs/document (Equation 3, with the bias
    /// and activation terms dropped as the paper does).
    pub fn predict_forward_us_per_doc(&self, input_dim: usize, hidden: &[usize], n: usize) -> f64 {
        let total: f64 = self.predict_layers_secs(input_dim, hidden, n).iter().sum();
        total / n.max(1) as f64 * 1e6
    }

    /// Relative execution-time share of each layer (Table 7's breakdown).
    pub fn layer_impacts(&self, input_dim: usize, hidden: &[usize], n: usize) -> Vec<f64> {
        let layers = self.predict_layers_secs(input_dim, hidden, n);
        let total: f64 = layers.iter().sum();
        if total <= 0.0 {
            return vec![0.0; layers.len()];
        }
        layers.iter().map(|&t| t / total).collect()
    }

    /// Predicted µs/doc after pruning the first layer to ≥ 95% sparsity —
    /// the §6 design rule: "forecast the overall execution time by
    /// subtracting the contribution of the dense first layer", whose
    /// sparse replacement is negligible at that sparsity (Figure 11).
    pub fn predict_pruned_us_per_doc(&self, input_dim: usize, hidden: &[usize], n: usize) -> f64 {
        let layers = self.predict_layers_secs(input_dim, hidden, n);
        let total: f64 = layers.iter().sum();
        (total - layers[0]) / n.max(1) as f64 * 1e6
    }
}

impl Default for DensePredictor {
    fn default() -> Self {
        DensePredictor::paper_i9_9900k()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_zones() {
        let p = DensePredictor::paper_i9_9900k();
        assert_eq!(p.gflops_for(1), 90.0);
        assert_eq!(p.gflops_for(128), 90.0);
        assert_eq!(p.gflops_for(129), 110.0);
        assert_eq!(p.gflops_for(512), 110.0);
        assert_eq!(p.gflops_for(513), 130.0);
        assert_eq!(p.gflops_for(1_000_000), 130.0);
    }

    #[test]
    fn matmul_prediction_formula() {
        let p = DensePredictor::from_zones(vec![(usize::MAX, 100.0)]);
        // 2*100*200*50 = 2e6 FLOPs at 100 GFLOPS = 20 µs.
        let secs = p.predict_matmul_secs(100, 200, 50);
        assert!((secs - 2e-5).abs() < 1e-12);
    }

    #[test]
    fn paper_table2_shapes_are_in_the_right_ballpark() {
        // Table 2 predicts 14.5 µs/doc for 1000×500×500×100 on 136
        // features at batch 1000, and 1.3 µs/doc for 200×100×100×50.
        let p = DensePredictor::paper_i9_9900k();
        let big = p.predict_forward_us_per_doc(136, &[1000, 500, 500, 100], 1000);
        assert!(
            (10.0..20.0).contains(&big),
            "1000×500×500×100 → {big:.1} µs"
        );
        let small = p.predict_forward_us_per_doc(136, &[200, 100, 100, 50], 1000);
        assert!(
            (0.8..2.0).contains(&small),
            "200×100×100×50 → {small:.2} µs"
        );
        // And the 500×100 two-layer net ≈ 2.2 µs in Table 2.
        let two = p.predict_forward_us_per_doc(136, &[500, 100], 1000);
        assert!((1.2..3.2).contains(&two), "500×100 → {two:.2} µs");
    }

    #[test]
    fn first_layer_dominates_small_architectures() {
        // Table 7: for 100×50×50×10, the first layer is ~60% of the time.
        let p = DensePredictor::paper_i9_9900k();
        let impacts = p.layer_impacts(136, &[100, 50, 50, 10], 1000);
        assert_eq!(impacts.len(), 5);
        assert!(impacts[0] > 0.5, "first layer impact {:.2}", impacts[0]);
        let sum: f64 = impacts.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pruned_prediction_subtracts_first_layer() {
        let p = DensePredictor::paper_i9_9900k();
        let dense = p.predict_forward_us_per_doc(136, &[200, 100, 100, 50], 1000);
        let pruned = p.predict_pruned_us_per_doc(136, &[200, 100, 100, 50], 1000);
        let impact = p.layer_impacts(136, &[200, 100, 100, 50], 1000)[0];
        assert!((pruned - dense * (1.0 - impact)).abs() < 1e-9);
        assert!(pruned < dense);
    }

    #[test]
    fn deeper_zones_change_predictions() {
        let fast = DensePredictor::from_zones(vec![(usize::MAX, 200.0)]);
        let slow = DensePredictor::from_zones(vec![(usize::MAX, 50.0)]);
        let f = fast.predict_forward_us_per_doc(136, &[400, 200], 512);
        let s = slow.predict_forward_us_per_doc(136, &[400, 200], 512);
        assert!((s / f - 4.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "last zone")]
    fn zones_must_cover_all_k() {
        DensePredictor::from_zones(vec![(100, 90.0)]);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn zones_must_be_sorted() {
        DensePredictor::from_zones(vec![(512, 110.0), (128, 90.0), (usize::MAX, 130.0)]);
    }
}
