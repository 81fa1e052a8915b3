//! Fully connected layers.

use crate::activation::Activation;
use crate::init::he_uniform;
use dlr_dense::Matrix;

/// A fully connected layer: `z = W·x + b` with `W` of shape
/// `out_features × in_features` (so a batch forward is one GEMM with the
/// batch as columns, the convention of §4.2's Equation 2).
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    /// Weight matrix, `out × in`, row-major.
    pub weights: Matrix,
    /// Bias, one per output feature.
    pub bias: Vec<f32>,
}

impl Linear {
    /// He-uniform initialized layer.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Linear {
        Linear {
            weights: Matrix::from_vec(
                out_features,
                in_features,
                he_uniform(in_features, out_features * in_features, seed),
            ),
            bias: vec![0.0; out_features],
        }
    }

    /// Input width.
    #[inline]
    pub fn in_features(&self) -> usize {
        self.weights.cols()
    }

    /// Output width.
    #[inline]
    pub fn out_features(&self) -> usize {
        self.weights.rows()
    }

    /// Number of weight parameters (bias excluded).
    #[inline]
    pub fn num_weights(&self) -> usize {
        self.weights.rows() * self.weights.cols()
    }

    /// Add the bias to a feature-major `out × n` pre-activation buffer and
    /// apply `act`, in one pass: each row is still in L1 from the first
    /// touch when the second would have come.
    pub fn add_bias_and_activate(&self, z: &mut [f32], n: usize, act: Activation) {
        debug_assert_eq!(z.len(), self.out_features() * n);
        for (row, &b) in z.chunks_exact_mut(n.max(1)).zip(&self.bias) {
            if b != 0.0 {
                for v in row {
                    *v = act.apply(*v + b);
                }
            } else if act != Activation::Identity {
                for v in row {
                    *v = act.apply(*v);
                }
            }
        }
    }

    /// Fraction of exactly-zero weights.
    pub fn sparsity(&self) -> f64 {
        self.weights.sparsity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes() {
        let l = Linear::new(136, 400, 1);
        assert_eq!(l.in_features(), 136);
        assert_eq!(l.out_features(), 400);
        assert_eq!(l.num_weights(), 400 * 136);
        assert_eq!(l.bias.len(), 400);
    }

    #[test]
    fn bias_broadcast_over_batch() {
        let mut l = Linear::new(2, 3, 2);
        l.bias = vec![1.0, 2.0, 3.0];
        let mut z = vec![0.0f32; 3 * 4]; // out=3, n=4, feature-major
        l.add_bias_and_activate(&mut z, 4, Activation::Identity);
        assert_eq!(&z[0..4], &[1.0; 4]);
        assert_eq!(&z[4..8], &[2.0; 4]);
        assert_eq!(&z[8..12], &[3.0; 4]);
    }

    #[test]
    fn activation_follows_the_bias_in_the_same_pass() {
        let mut l = Linear::new(2, 3, 2);
        l.bias = vec![-1.0, 0.0, 5.5];
        let mut z = vec![0.5f32, 2.0, -0.0, 3.0, 0.25, 1.0];
        l.add_bias_and_activate(&mut z, 2, Activation::Relu6);
        assert_eq!(z, vec![0.0, 1.0, 0.0, 3.0, 5.75, 6.0]);
    }

    #[test]
    fn fresh_layer_has_zero_bias_and_dense_weights() {
        let l = Linear::new(10, 5, 3);
        assert!(l.bias.iter().all(|&b| b == 0.0));
        assert!(l.sparsity() < 0.01);
    }
}
