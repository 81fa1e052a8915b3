//! Activation functions.
//!
//! The paper uses ReLU6 — `min(max(x, 0), 6)` — after every linear layer
//! except the last (§6.1). Plain ReLU and the identity are provided for
//! ablations and for the output layer.

/// Element-wise activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// `max(x, 0)`.
    Relu,
    /// `min(max(x, 0), 6)` — the paper's choice.
    Relu6,
    /// Pass-through (output layer).
    Identity,
}

impl Activation {
    /// Apply to one value.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Relu6 => x.clamp(0.0, 6.0),
            Activation::Identity => x,
        }
    }

    /// Derivative with respect to the *pre-activation* value.
    ///
    /// At the kinks (0 and 6) we use the right/left derivative 0, matching
    /// the subgradient choice of mainstream frameworks. The value is the
    /// same when read from the output: `derivative(apply(x)) ==
    /// derivative(x)` for every `x`, since each function is the identity
    /// exactly where its derivative is 1 — so training keeps activations,
    /// not pre-activations.
    #[inline]
    pub fn derivative(self, x: f32) -> f32 {
        match self {
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Relu6 => {
                if x > 0.0 && x < 6.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Identity => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu6_clamps_both_sides() {
        assert_eq!(Activation::Relu6.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu6.apply(3.0), 3.0);
        assert_eq!(Activation::Relu6.apply(9.0), 6.0);
    }

    #[test]
    fn relu_behaviour() {
        assert_eq!(Activation::Relu.apply(-2.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert_eq!(Activation::Relu.apply(100.0), 100.0);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-3f32;
        for act in [Activation::Relu, Activation::Relu6, Activation::Identity] {
            for x in [-2.0f32, -0.5, 0.5, 3.0, 5.5, 7.0] {
                let fd = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                assert!(
                    (act.derivative(x) - fd).abs() < 1e-3,
                    "{act:?} at {x}: analytic {} vs fd {fd}",
                    act.derivative(x)
                );
            }
        }
    }

    #[test]
    fn derivative_reads_the_same_from_the_output() {
        let edges = [
            f32::NEG_INFINITY,
            -7.0,
            -f32::MIN_POSITIVE,
            -0.0,
            0.0,
            f32::MIN_POSITIVE,
            0.5,
            6.0 - f32::EPSILON * 4.0,
            6.0,
            6.0 + f32::EPSILON * 4.0,
            1e30,
            f32::INFINITY,
            f32::NAN,
        ];
        for act in [Activation::Relu, Activation::Relu6, Activation::Identity] {
            for x in edges {
                let (at_input, at_output) = (act.derivative(x), act.derivative(act.apply(x)));
                assert_eq!(at_input.to_bits(), at_output.to_bits(), "{act:?} at {x}");
            }
        }
    }

    #[test]
    fn derivative_zero_outside_linear_region() {
        assert_eq!(Activation::Relu6.derivative(-0.1), 0.0);
        assert_eq!(Activation::Relu6.derivative(6.1), 0.0);
        assert_eq!(Activation::Relu.derivative(-0.1), 0.0);
    }
}
