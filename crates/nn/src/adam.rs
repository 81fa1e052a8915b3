//! Adam optimizer (Kingma & Ba), the paper's optimizer for both training
//! and pruning fine-tuning (§6.1: learning rate 0.001, no weight decay).

/// Serializable snapshot of one tensor's Adam state — what a training
/// checkpoint persists so a resumed run continues bit-exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdamState {
    /// First-moment estimate.
    pub m: Vec<f32>,
    /// Second-moment estimate.
    pub v: Vec<f32>,
    /// Step counter for bias correction.
    pub t: u64,
}

impl AdamState {
    /// Number of parameters covered.
    pub fn len(&self) -> usize {
        self.m.len()
    }

    /// Whether the state covers zero parameters.
    pub fn is_empty(&self) -> bool {
        self.m.is_empty()
    }
}

/// Adam state for one parameter tensor.
#[derive(Debug, Clone)]
pub struct Adam {
    beta1: f32,
    beta2: f32,
    eps: f32,
    /// First-moment estimate.
    m: Vec<f32>,
    /// Second-moment estimate.
    v: Vec<f32>,
    /// Step counter for bias correction.
    t: u64,
}

impl Adam {
    /// Standard hyperparameters β₁ = 0.9, β₂ = 0.999, ε = 1e-8.
    pub fn new(num_params: usize) -> Adam {
        Adam {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: vec![0.0; num_params],
            v: vec![0.0; num_params],
            t: 0,
        }
    }

    /// Apply one update: `params -= lr * m̂ / (sqrt(v̂) + ε)`.
    ///
    /// # Panics
    /// Panics when `params`/`grads` lengths differ from the state.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32], lr: f32) {
        assert_eq!(params.len(), self.m.len(), "parameter count changed");
        assert_eq!(grads.len(), self.m.len(), "gradient count mismatch");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let mhat = self.m[i] / b1t;
            let vhat = self.v[i] / b2t;
            params[i] -= lr * mhat / (vhat.sqrt() + self.eps);
        }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Snapshot the optimizer state for checkpointing.
    pub fn state(&self) -> AdamState {
        let mut out = AdamState::default();
        self.state_into(&mut out);
        out
    }

    /// [`Self::state`] into an existing snapshot, reusing its buffers.
    pub fn state_into(&self, out: &mut AdamState) {
        out.m.clone_from(&self.m);
        out.v.clone_from(&self.v);
        out.t = self.t;
    }

    /// Restore a snapshot taken by [`Adam::state`].
    ///
    /// # Errors
    /// Rejects a snapshot whose parameter count differs from this
    /// optimizer's.
    pub fn restore(&mut self, state: &AdamState) -> Result<(), String> {
        if state.m.len() != self.m.len() || state.v.len() != self.v.len() {
            return Err(format!(
                "Adam state covers {} params, optimizer has {}",
                state.m.len(),
                self.m.len()
            ));
        }
        self.m.copy_from_slice(&state.m);
        self.v.copy_from_slice(&state.v);
        self.t = state.t;
        Ok(())
    }

    /// Zero the first/second moments of every parameter whose `mask`
    /// entry is `0.0`. Applying a pruning mask without this leaves stale
    /// momentum that keeps pushing pruned weights off zero on subsequent
    /// steps — the Distiller behaviour is to forget the moments along
    /// with the weight.
    ///
    /// # Panics
    /// Panics when `mask` length differs from the parameter count.
    pub fn zero_moments_where(&mut self, mask: &[f32]) {
        assert_eq!(mask.len(), self.m.len(), "mask/parameter count mismatch");
        for (i, &keep) in mask.iter().enumerate() {
            if keep == 0.0 {
                self.m[i] = 0.0;
                self.v[i] = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_a_quadratic() {
        // f(x) = (x - 3)², gradient 2(x - 3).
        let mut x = vec![0.0f32];
        let mut opt = Adam::new(1);
        for _ in 0..2000 {
            let g = vec![2.0 * (x[0] - 3.0)];
            opt.step(&mut x, &g, 0.01);
        }
        assert!((x[0] - 3.0).abs() < 0.01, "x = {}", x[0]);
    }

    #[test]
    fn first_step_moves_by_about_lr() {
        // Bias correction makes the first step ≈ lr regardless of gradient
        // magnitude — Adam's signature behaviour.
        for g0 in [0.001f32, 1.0, 1000.0] {
            let mut x = vec![0.0f32];
            let mut opt = Adam::new(1);
            opt.step(&mut x, &[g0], 0.1);
            assert!((x[0] + 0.1).abs() < 1e-3, "g0 {g0} -> x {}", x[0]);
        }
    }

    #[test]
    fn multi_dim_independent() {
        let mut x = vec![0.0f32, 10.0];
        let mut opt = Adam::new(2);
        for _ in 0..3000 {
            let g = vec![2.0 * (x[0] + 1.0), 2.0 * (x[1] - 5.0)];
            opt.step(&mut x, &g, 0.02);
        }
        assert!((x[0] + 1.0).abs() < 0.05);
        assert!((x[1] - 5.0).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "gradient count")]
    fn length_checked() {
        let mut opt = Adam::new(2);
        opt.step(&mut [0.0, 0.0], &[1.0], 0.1);
    }

    #[test]
    fn state_roundtrip_continues_bit_exactly() {
        let mut a = Adam::new(3);
        let mut xa = vec![1.0f32, -2.0, 0.5];
        for i in 0..7 {
            let g = vec![0.3 * i as f32, -0.1, 0.7];
            a.step(&mut xa, &g, 0.01);
        }
        // Snapshot, keep stepping the original, replay on a restored copy.
        let snap = a.state();
        let park = xa.clone();
        let mut b = Adam::new(3);
        b.restore(&snap).unwrap();
        let mut xb = park.clone();
        for _ in 0..5 {
            let g = vec![0.2, 0.4, -0.6];
            a.step(&mut xa, &g, 0.01);
            b.step(&mut xb, &g, 0.01);
        }
        assert_eq!(xa, xb);
        assert_eq!(a.state(), b.state());
    }

    #[test]
    fn restore_rejects_wrong_shape() {
        let snap = Adam::new(2).state();
        assert!(Adam::new(3).restore(&snap).is_err());
    }

    #[test]
    fn zeroed_moments_keep_pruned_params_parked() {
        // Build up momentum on every parameter, then mask one out and
        // verify zero-gradient steps no longer move it.
        let mut opt = Adam::new(2);
        let mut x = vec![1.0f32, 1.0];
        for _ in 0..10 {
            opt.step(&mut x, &[0.5, 0.5], 0.05);
        }
        x[0] = 0.0; // "pruned"
        opt.zero_moments_where(&[0.0, 1.0]);
        let parked = x[0];
        for _ in 0..20 {
            opt.step(&mut x, &[0.0, 0.0], 0.05);
        }
        assert_eq!(x[0], parked, "stale momentum moved a pruned weight");
        assert_eq!(opt.state().m[0], 0.0);
        assert_eq!(opt.state().v[0], 0.0);
    }
}
