//! Multi-layer perceptrons with dense (blocked-GEMM) inference.

use crate::activation::Activation;
use crate::layer::Linear;
use dlr_dense::gemm::blocked::{
    gemm_with, gemm_with_prepacked_a, GemmWorkspace, GotoParams, PrepackedA,
};

/// A feed-forward network mapping `input_dim` features to one score.
///
/// The paper writes architectures as hidden-layer sizes, e.g.
/// `400×200×200×100` over 136 input features means
/// `136 → 400 → 200 → 200 → 100 → 1`; [`Mlp::from_hidden`] follows that
/// notation. Hidden layers use ReLU6, the output layer is linear (§6.1).
///
/// Weight matrices sit in the GEMM's A slot and never change between
/// batches, so constructors pack them once ([`PrepackedA`]) and the
/// forward pass skips per-call re-packing; mutating weights through
/// [`Mlp::layers_mut`] drops the cache (rebuild with
/// [`Mlp::pack_weights`]). Packed and unpacked forwards are bit-identical.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    activations: Vec<Activation>,
    /// One [`PrepackedA`] per layer when the cache is valid; empty after
    /// `layers_mut` (training, pruning) until `pack_weights` runs.
    packs: Vec<PrepackedA>,
}

/// Equality is semantic — layers and activations only. The weight-pack
/// cache is a layout detail: a just-trained (unpacked) model and its
/// packed serialization round-trip must compare equal.
impl PartialEq for Mlp {
    fn eq(&self, other: &Self) -> bool {
        self.layers == other.layers && self.activations == other.activations
    }
}

impl Mlp {
    /// Build `input_dim → hidden[0] → … → hidden[last] → 1` with ReLU6 on
    /// hidden layers, seeded He initialization.
    ///
    /// # Panics
    /// Panics when `input_dim == 0` or any hidden size is zero.
    pub fn from_hidden(input_dim: usize, hidden: &[usize], seed: u64) -> Mlp {
        assert!(input_dim > 0, "input_dim must be positive");
        assert!(
            hidden.iter().all(|&h| h > 0),
            "hidden sizes must be positive"
        );
        let mut dims = Vec::with_capacity(hidden.len() + 2);
        dims.push(input_dim);
        dims.extend_from_slice(hidden);
        dims.push(1);
        let mut layers = Vec::with_capacity(dims.len() - 1);
        let mut activations = Vec::with_capacity(dims.len() - 1);
        for (i, w) in dims.windows(2).enumerate() {
            layers.push(Linear::new(
                w[0],
                w[1],
                seed.wrapping_add(i as u64 * 0x9e37_79b9),
            ));
            activations.push(if i + 2 == dims.len() {
                Activation::Identity
            } else {
                Activation::Relu6
            });
        }
        Mlp::from_parts(layers, activations)
    }

    /// Build from explicit layers and activations.
    ///
    /// # Panics
    /// Panics when counts differ or consecutive shapes do not chain.
    pub fn from_parts(layers: Vec<Linear>, activations: Vec<Activation>) -> Mlp {
        assert_eq!(layers.len(), activations.len(), "one activation per layer");
        assert!(!layers.is_empty(), "need at least one layer");
        for w in layers.windows(2) {
            assert_eq!(
                w[0].out_features(),
                w[1].in_features(),
                "layer shapes must chain"
            );
        }
        let mut mlp = Mlp {
            layers,
            activations,
            packs: Vec::new(),
        };
        mlp.pack_weights();
        mlp
    }

    /// (Re)build the per-layer weight-pack cache. Called by the
    /// constructors; call it again after mutating weights through
    /// [`Self::layers_mut`] to restore the packed fast path.
    pub fn pack_weights(&mut self) {
        self.packs = self
            .layers
            .iter()
            .map(|l| {
                PrepackedA::pack(
                    l.weights.as_slice(),
                    l.out_features(),
                    l.in_features(),
                    GotoParams::default(),
                )
            })
            .collect();
    }

    /// Whether the weight-pack cache is valid (false after `layers_mut`).
    pub fn weights_packed(&self) -> bool {
        self.packs.len() == self.layers.len()
    }

    /// Expected input features.
    #[inline]
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_features()
    }

    /// Output width of the last layer (1 for rankers).
    #[inline]
    pub fn output_dim(&self) -> usize {
        self.layers
            .last()
            .expect("at least one layer")
            .out_features()
    }

    /// The layers.
    #[inline]
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Mutable layer access (pruning, fine-tuning). Invalidates the
    /// weight-pack cache — the forward pass falls back to per-call
    /// packing until [`Self::pack_weights`] is called again.
    #[inline]
    pub fn layers_mut(&mut self) -> &mut [Linear] {
        self.packs.clear();
        &mut self.layers
    }

    /// Per-layer activations.
    #[inline]
    pub fn activations(&self) -> &[Activation] {
        &self.activations
    }

    /// Hidden-layer sizes in the paper's `a×b×c` notation.
    pub fn hidden_sizes(&self) -> Vec<usize> {
        self.layers[..self.layers.len() - 1]
            .iter()
            .map(Linear::out_features)
            .collect()
    }

    /// Total trainable parameters (weights + biases).
    pub fn num_params(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.num_weights() + l.bias.len())
            .sum()
    }

    /// Forward a feature-major `input_dim × n` activation block; returns
    /// the final feature-major `output_dim × n` buffer inside `ws`.
    ///
    /// # Panics
    /// Panics when `input_fm.len() != input_dim() * n`.
    pub fn forward_feature_major<'w>(
        &self,
        input_fm: &[f32],
        n: usize,
        ws: &'w mut MlpWorkspace,
    ) -> &'w [f32] {
        assert_eq!(
            input_fm.len(),
            self.input_dim() * n,
            "input must be input_dim × n"
        );
        ws.bufs.resize(self.layers.len(), Vec::new());
        let mut src: &[f32] = input_fm;
        for (i, (layer, act)) in self.layers.iter().zip(&self.activations).enumerate() {
            let (m, k) = (layer.out_features(), layer.in_features());
            // Split borrow: the destination buffer vs. the previous one.
            let (before, rest) = ws.bufs.split_at_mut(i);
            let dst = &mut rest[0];
            dst.resize(m * n, 0.0);
            let a = if i == 0 {
                src
            } else {
                before[i - 1].as_slice()
            };
            match self.packs.get(i) {
                // Fast path: weights were packed at model-load.
                Some(pack) => gemm_with_prepacked_a(n, pack, a, dst, &mut ws.gemm),
                // Fallback after `layers_mut` (mid-training forwards).
                None => gemm_with(
                    m,
                    k,
                    n,
                    layer.weights.as_slice(),
                    a,
                    dst,
                    GotoParams::default(),
                    &mut ws.gemm,
                ),
            }
            layer.add_bias_and_activate(dst, n, *act);
            src = &[]; // src only used for i == 0
        }
        ws.bufs.last().expect("at least one layer").as_slice()
    }

    /// Score a row-major `n × input_dim` document block into `out`
    /// (one score per document), reusing `ws` buffers.
    ///
    /// # Panics
    /// Panics on shape mismatches or when `output_dim() != 1`.
    pub fn score_batch_with(&self, rows: &[f32], out: &mut [f32], ws: &mut MlpWorkspace) {
        assert_eq!(self.output_dim(), 1, "scoring requires a single output");
        let f = self.input_dim();
        let n = out.len();
        assert_eq!(rows.len(), n * f, "rows must be n × input_dim");
        transpose_into(rows, n, f, &mut ws.input_fm);
        // Work around the borrow: move input out of ws during forward.
        let input = std::mem::take(&mut ws.input_fm);
        let scores = self.forward_feature_major(&input, n, ws);
        out.copy_from_slice(scores);
        ws.input_fm = input;
    }

    /// Allocating convenience wrapper over [`Self::score_batch_with`].
    pub fn score_batch(&self, rows: &[f32], out: &mut [f32]) {
        let mut ws = MlpWorkspace::default();
        self.score_batch_with(rows, out, &mut ws);
    }

    /// Score one document.
    pub fn score(&self, row: &[f32]) -> f32 {
        let mut out = [0.0f32];
        self.score_batch(row, &mut out);
        out[0]
    }
}

/// Transpose a row-major `n × f` block into feature-major `f × n`.
pub(crate) fn transpose_into(rows: &[f32], n: usize, f: usize, dst: &mut Vec<f32>) {
    dst.resize(f * n, 0.0);
    for (d, row) in rows.chunks_exact(f).enumerate() {
        for (j, &v) in row.iter().enumerate() {
            dst[j * n + d] = v;
        }
    }
}

/// Reusable buffers for MLP inference: per-layer activations plus the
/// GEMM packing workspace. After warm-up, scoring allocates nothing.
#[derive(Debug, Default)]
pub struct MlpWorkspace {
    pub(crate) input_fm: Vec<f32>,
    pub(crate) bufs: Vec<Vec<f32>>,
    pub(crate) gemm: GemmWorkspace,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlr_dense::Matrix;

    #[test]
    fn architecture_notation() {
        let m = Mlp::from_hidden(136, &[400, 200, 200, 100], 1);
        assert_eq!(m.input_dim(), 136);
        assert_eq!(m.output_dim(), 1);
        assert_eq!(m.hidden_sizes(), vec![400, 200, 200, 100]);
        assert_eq!(m.layers().len(), 5);
        assert_eq!(m.activations().last(), Some(&Activation::Identity));
        assert!(m.activations()[..4].iter().all(|&a| a == Activation::Relu6));
        let params: usize =
            136 * 400 + 400 + 400 * 200 + 200 + 200 * 200 + 200 + 200 * 100 + 100 + 100 + 1;
        assert_eq!(m.num_params(), params);
    }

    /// Hand-built 2→2→1 net with known weights for exact forward checks.
    fn tiny() -> Mlp {
        let l1 = Linear {
            weights: Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, -1.0]),
            bias: vec![0.0, 1.0],
        };
        let l2 = Linear {
            weights: Matrix::from_vec(1, 2, vec![1.0, 2.0]),
            bias: vec![0.5],
        };
        Mlp::from_parts(vec![l1, l2], vec![Activation::Relu6, Activation::Identity])
    }

    #[test]
    fn forward_matches_hand_computation() {
        let m = tiny();
        // x = [2, 3]: z1 = [2, -3+1=-2] → relu6 → [2, 0]; out = 1*2 + 2*0 + 0.5
        assert!((m.score(&[2.0, 3.0]) - 2.5).abs() < 1e-6);
        // x = [-1, -4]: z1 = [-1, 5] → [0, 5]; out = 0 + 10 + 0.5
        assert!((m.score(&[-1.0, -4.0]) - 10.5).abs() < 1e-6);
        // ReLU6 saturation: x = [10, 0]: z1 = [10, 1] → [6, 1]; out = 6 + 2 + 0.5
        assert!((m.score(&[10.0, 0.0]) - 8.5).abs() < 1e-6);
    }

    #[test]
    fn batch_matches_single() {
        let m = Mlp::from_hidden(7, &[13, 5], 3);
        let rows: Vec<f32> = (0..7 * 9)
            .map(|i| ((i * 37) % 11) as f32 / 5.0 - 1.0)
            .collect();
        let mut out = vec![0.0f32; 9];
        m.score_batch(&rows, &mut out);
        for (d, row) in rows.chunks_exact(7).enumerate() {
            assert!((m.score(row) - out[d]).abs() < 1e-5);
        }
    }

    #[test]
    fn workspace_reuse_is_stable() {
        let m = Mlp::from_hidden(4, &[6], 5);
        let rows: Vec<f32> = (0..4 * 3).map(|i| i as f32 * 0.1).collect();
        let mut ws = MlpWorkspace::default();
        let mut out1 = vec![0.0f32; 3];
        let mut out2 = vec![0.0f32; 3];
        m.score_batch_with(&rows, &mut out1, &mut ws);
        m.score_batch_with(&rows, &mut out2, &mut ws);
        assert_eq!(out1, out2);
    }

    #[test]
    fn transpose_layout() {
        let rows = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2 docs × 3 features
        let mut fm = Vec::new();
        transpose_into(&rows, 2, 3, &mut fm);
        assert_eq!(fm, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn packed_and_unpacked_forwards_are_bit_identical() {
        let mut m = Mlp::from_hidden(7, &[13, 5], 3);
        assert!(m.weights_packed());
        let rows: Vec<f32> = (0..7 * 9)
            .map(|i| ((i * 37) % 11) as f32 / 5.0 - 1.0)
            .collect();
        let mut packed = vec![0.0f32; 9];
        m.score_batch(&rows, &mut packed);
        // Invalidate the cache (a no-op mutation) and rescore.
        let _ = m.layers_mut();
        assert!(!m.weights_packed());
        let mut unpacked = vec![0.0f32; 9];
        m.score_batch(&rows, &mut unpacked);
        assert_eq!(packed, unpacked);
        // Repacking restores the fast path with the same output.
        m.pack_weights();
        assert!(m.weights_packed());
        let mut repacked = vec![0.0f32; 9];
        m.score_batch(&rows, &mut repacked);
        assert_eq!(packed, repacked);
    }

    #[test]
    fn equality_ignores_the_pack_cache() {
        let a = Mlp::from_hidden(5, &[4], 1);
        let mut b = Mlp::from_hidden(5, &[4], 1);
        let _ = b.layers_mut(); // drops b's cache without changing weights
        assert_eq!(a, b);
    }

    #[test]
    fn seeds_differ() {
        let a = Mlp::from_hidden(5, &[4], 1);
        let b = Mlp::from_hidden(5, &[4], 2);
        assert_ne!(a, b);
        assert_eq!(a, Mlp::from_hidden(5, &[4], 1));
    }

    #[test]
    #[should_panic(expected = "layer shapes must chain")]
    fn from_parts_validates_chain() {
        let l1 = Linear::new(3, 4, 1);
        let l2 = Linear::new(5, 1, 2);
        Mlp::from_parts(vec![l1, l2], vec![Activation::Relu6, Activation::Identity]);
    }
}
