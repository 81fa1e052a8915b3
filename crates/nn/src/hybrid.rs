//! Hybrid inference: sparse first layer, dense remainder (§5.2, Table 8).
//!
//! After the efficiency-oriented pruning step the first layer's weight
//! matrix is ~95–99% sparse while the other layers stay dense. The paper's
//! winning configuration therefore multiplies layer 1 with the
//! LIBXSMM-style SDMM kernel and the remaining layers with the blocked
//! dense GEMM. This module freezes a trained [`Mlp`] into that shape.
//!
//! Freezing keeps only what the pruned network computes — the saving Eq. 5
//! already counts when it charges SDMM for active rows `|a_r|` and active
//! columns `|a_c|` alone (arXiv 2202.10728 §4.4):
//!
//! * **Dead neurons.** A first-layer row with no non-zero weight outputs
//!   the constant `act(b_j)` for every document. Its row leaves the
//!   scoring CSR, its column leaves layer 2's weights, and
//!   `W2[:, j] · act(b_j)` is added to layer 2's bias once, dead rows in
//!   ascending order. Layer 2's GEMM then runs at `k` = live neurons.
//! * **Unread features.** The scoring CSR's columns are renumbered to the
//!   features some live weight reads. The renumbering is monotone, so every
//!   row keeps its non-zero order and its SDMM output bits. A batch is
//!   gathered straight from its row-major rows into the packed SDMM
//!   operand ([`PackedB::gather_into`]), normalized on the way; an unread
//!   feature is never copied.
//!
//! Layer-1 outputs are bit-identical to the trained layer's. Dropping a
//! neuron whose constant is 0 removes exact-zero terms from layer 2's
//! sums; folding a non-zero constant, or moving terms across a `k_c`
//! block boundary of the GEMM, rounds differently, within the `k_cb`
//! half-ULP bound of the ULP policy (DESIGN.md).

use crate::activation::Activation;
use crate::layer::Linear;
use crate::mlp::{Mlp, MlpWorkspace};
use dlr_dense::Matrix;
use dlr_sparse::{spmm_xsmm_packed, CsrMatrix, PackedB, SpmmWorkspace};

/// An MLP whose first layer is stored in CSR and scored with SDMM, frozen
/// to the live neurons and read features of that layer (module docs).
#[derive(Debug, Clone)]
pub struct HybridMlp {
    /// The trained first layer, every row and column.
    first_weights: CsrMatrix,
    /// What scoring multiplies: the live rows of `first_weights` over the
    /// features they read, renumbered in order.
    live_weights: CsrMatrix,
    /// Input feature of each `live_weights` column, ascending.
    read: Vec<u32>,
    /// First-layer bias of each live row.
    live_bias: Vec<f32>,
    first_activation: Activation,
    /// Layers 2.. as a standalone MLP over the live neurons, the dead ones
    /// folded into layer 2's bias.
    rest: Mlp,
    /// `(0, 1)` per input feature: the gather's identity normalization.
    unit_shift: Vec<f32>,
    unit_scale: Vec<f32>,
}

impl HybridMlp {
    /// Freeze `mlp` into hybrid form. Weights of the first layer with
    /// magnitude ≤ `tol` are treated as pruned (use `0.0` after masked
    /// fine-tuning, where pruned weights are exactly zero). Neurons left
    /// with no weight and features no weight reads are dropped from the
    /// scoring path, as the module docs describe.
    ///
    /// # Panics
    /// Panics when `mlp` has fewer than two layers — a single-layer
    /// network has no "dense remainder" and gains nothing from this path.
    pub fn from_mlp(mlp: &Mlp, tol: f32) -> HybridMlp {
        assert!(
            mlp.layers().len() >= 2,
            "hybrid form needs at least two layers"
        );
        let (first, second) = (&mlp.layers()[0], &mlp.layers()[1]);
        let act = mlp.activations()[0];
        let first_weights = CsrMatrix::from_dense(&first.weights, tol);
        let is_live = |j: usize| first_weights.row_entries(j).next().is_some();
        let live: Vec<usize> = (0..first_weights.rows()).filter(|&j| is_live(j)).collect();
        let mut is_read = vec![false; first_weights.cols()];
        for &c in first_weights.col_idx() {
            is_read[c as usize] = true;
        }
        let read: Vec<u32> = (0u32..)
            .zip(&is_read)
            .filter_map(|(c, &r)| r.then_some(c))
            .collect();
        let live_weights = CsrMatrix::from_dense(
            &Matrix::from_fn(live.len(), read.len(), |r, c| {
                first.weights.get(live[r], read[c] as usize)
            }),
            tol,
        );

        // Each dead neuron's constant output, through its layer-2 column,
        // into layer 2's bias.
        let mut bias = second.bias.clone();
        for (j, &b) in first.bias.iter().enumerate() {
            if is_live(j) {
                continue;
            }
            let constant = act.apply(b);
            for (acc, i) in bias.iter_mut().zip(0..) {
                *acc += second.weights.get(i, j) * constant;
            }
        }
        let second = Linear {
            weights: Matrix::from_fn(second.out_features(), live.len(), |i, r| {
                second.weights.get(i, live[r])
            }),
            bias,
        };
        let mut rest = vec![second];
        rest.extend_from_slice(&mlp.layers()[2..]);
        let f = first_weights.cols();
        HybridMlp {
            live_bias: live.iter().map(|&j| first.bias[j]).collect(),
            first_weights,
            live_weights,
            read,
            first_activation: act,
            rest: Mlp::from_parts(rest, mlp.activations()[1..].to_vec()),
            unit_shift: vec![0.0; f],
            unit_scale: vec![1.0; f],
        }
    }

    /// Sparsity of the trained first layer.
    pub fn first_layer_sparsity(&self) -> f64 {
        self.first_weights.sparsity()
    }

    /// The trained first layer in CSR, every row and column — the matrix
    /// Eq. 5's `|a_r|`/`|a_c|` are read from, not the compacted one
    /// scoring multiplies.
    pub fn first_weights(&self) -> &CsrMatrix {
        &self.first_weights
    }

    /// Expected input features (the trained width, read or not).
    pub fn input_dim(&self) -> usize {
        self.first_weights.cols()
    }

    /// Score a row-major `n × input_dim` batch of already-normalized rows
    /// into `out`, reusing workspaces.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn score_batch_with(&self, rows: &[f32], out: &mut [f32], ws: &mut HybridWorkspace) {
        self.score_batch_normalizing_with(rows, &self.unit_shift, &self.unit_scale, out, ws);
    }

    /// Score a row-major `n × input_dim` batch of raw rows into `out`,
    /// normalizing each read feature `j` as `(x − shift[j]) · scale[j]` in
    /// the pass that packs it for the first layer. Bit-identical to
    /// normalizing the rows first and calling [`Self::score_batch_with`].
    ///
    /// # Panics
    /// Panics on shape mismatches, including `shift` or `scale` not
    /// holding `input_dim` entries.
    pub fn score_batch_normalizing_with(
        &self,
        rows: &[f32],
        shift: &[f32],
        scale: &[f32],
        out: &mut [f32],
        ws: &mut HybridWorkspace,
    ) {
        let n = out.len();
        assert_eq!(
            rows.len(),
            n * self.input_dim(),
            "rows must be n × input_dim"
        );
        assert_eq!(shift.len(), self.input_dim(), "one shift per input feature");
        // Layer 1: SDMM on the gathered batch. The packing buffer lives in
        // the workspace and is re-filled in place — no allocation per
        // batch after warm-up.
        ws.packed_b.gather_into(rows, n, &self.read, shift, scale);
        ws.first_out.resize(self.live_weights.rows() * n, 0.0);
        spmm_xsmm_packed(
            &self.live_weights,
            &ws.packed_b,
            &mut ws.first_out,
            &mut ws.spmm,
        );
        // Bias + activation.
        for (row, &b) in ws.first_out.chunks_exact_mut(n.max(1)).zip(&self.live_bias) {
            for v in row.iter_mut() {
                *v = self.first_activation.apply(*v + b);
            }
        }
        // Dense tail (already feature-major).
        let scores = self
            .rest
            .forward_feature_major(&ws.first_out, n, &mut ws.mlp);
        out.copy_from_slice(scores);
    }

    /// Allocating convenience wrapper.
    pub fn score_batch(&self, rows: &[f32], out: &mut [f32]) {
        let mut ws = HybridWorkspace::default();
        self.score_batch_with(rows, out, &mut ws);
    }

    /// Score one document.
    pub fn score(&self, row: &[f32]) -> f32 {
        let mut out = [0.0f32];
        self.score_batch(row, &mut out);
        out[0]
    }
}

/// Reusable buffers for hybrid scoring.
#[derive(Debug, Default)]
pub struct HybridWorkspace {
    first_out: Vec<f32>,
    /// The batch's read features, gathered, normalized and packed in place
    /// for the SDMM first layer.
    packed_b: PackedB,
    spmm: SpmmWorkspace,
    mlp: MlpWorkspace,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::LayerMasks;

    fn pruned_net(seed: u64, keep_every: usize) -> Mlp {
        let mut mlp = Mlp::from_hidden(10, &[12, 6], seed);
        let nw = mlp.layers()[0].num_weights();
        let mask: Vec<f32> = (0..nw)
            .map(|i| if i % keep_every == 0 { 1.0 } else { 0.0 })
            .collect();
        let mut masks = LayerMasks::none(3);
        masks.set(0, mask);
        masks.apply(&mut mlp);
        mlp
    }

    #[test]
    fn hybrid_matches_dense_forward() {
        let mlp = pruned_net(3, 4);
        let hybrid = HybridMlp::from_mlp(&mlp, 0.0);
        assert!(hybrid.first_layer_sparsity() > 0.7);
        let rows: Vec<f32> = (0..10 * 17)
            .map(|i| ((i * 31) % 13) as f32 / 6.0 - 1.0)
            .collect();
        let mut dense_out = vec![0.0f32; 17];
        let mut hybrid_out = vec![0.0f32; 17];
        mlp.score_batch(&rows, &mut dense_out);
        hybrid.score_batch(&rows, &mut hybrid_out);
        for (d, h) in dense_out.iter().zip(&hybrid_out) {
            assert!((d - h).abs() < 1e-4, "dense {d} hybrid {h}");
        }
    }

    #[test]
    fn single_doc_matches_batch() {
        let mlp = pruned_net(5, 3);
        let hybrid = HybridMlp::from_mlp(&mlp, 0.0);
        let rows: Vec<f32> = (0..10 * 4).map(|i| (i as f32 * 0.21).sin()).collect();
        let mut out = vec![0.0f32; 4];
        hybrid.score_batch(&rows, &mut out);
        for (d, row) in rows.chunks_exact(10).enumerate() {
            assert!((hybrid.score(row) - out[d]).abs() < 1e-6);
        }
    }

    #[test]
    fn tolerance_prunes_small_weights() {
        let mlp = Mlp::from_hidden(6, &[8, 4], 9);
        let all = HybridMlp::from_mlp(&mlp, 0.0);
        let pruned = HybridMlp::from_mlp(&mlp, 0.5);
        assert!(pruned.first_weights().nnz() < all.first_weights().nnz());
    }

    #[test]
    fn workspace_reuse_stable() {
        let mlp = pruned_net(7, 5);
        let hybrid = HybridMlp::from_mlp(&mlp, 0.0);
        let rows: Vec<f32> = (0..10 * 9).map(|i| (i as f32 * 0.13).cos()).collect();
        let mut ws = HybridWorkspace::default();
        let mut a = vec![0.0f32; 9];
        let mut b = vec![0.0f32; 9];
        hybrid.score_batch_with(&rows, &mut a, &mut ws);
        hybrid.score_batch_with(&rows, &mut b, &mut ws);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least two layers")]
    fn single_layer_rejected() {
        let l = Linear::new(3, 1, 1);
        let mlp = Mlp::from_parts(vec![l], vec![Activation::Identity]);
        HybridMlp::from_mlp(&mlp, 0.0);
    }

    /// Dense forward in plain loops, one multiply then one add per term:
    /// the reference the frozen network is held against.
    fn plain_forward(mlp: &Mlp, rows: &[f32]) -> Vec<f32> {
        rows.chunks_exact(mlp.input_dim())
            .map(|row| {
                let mut x = row.to_vec();
                for (layer, act) in mlp.layers().iter().zip(mlp.activations()) {
                    x = (0..layer.out_features())
                        .map(|i| {
                            let mut acc = 0.0f32;
                            for (w, v) in layer.weights.row(i).iter().zip(&x) {
                                acc += w * v;
                            }
                            act.apply(acc + layer.bias[i])
                        })
                        .collect();
                }
                x[0]
            })
            .collect()
    }

    /// Every score within the documented bound of [`plain_forward`]:
    /// `k_cb` half-ULP steps per element, `k` summed over the layers.
    fn assert_within_bound(mlp: &Mlp, hybrid: &HybridMlp, rows: &[f32]) {
        let k: usize = mlp.layers().iter().map(Linear::in_features).sum();
        let mut got = vec![0.0f32; rows.len() / mlp.input_dim()];
        hybrid.score_batch(rows, &mut got);
        for (d, (g, w)) in got.iter().zip(plain_forward(mlp, rows)).enumerate() {
            let bound = k as f32 * f32::EPSILON * 16.0 * w.abs().max(1.0);
            assert!((g - w).abs() <= bound, "doc {d}: frozen {g}, plain {w}");
        }
    }

    /// `mlp` with first-layer rows `dead` emptied (each given the paired
    /// bias) and input columns `unread` zeroed.
    fn kill(mut mlp: Mlp, dead: &[(usize, f32)], unread: &[usize]) -> Mlp {
        let first = &mut mlp.layers_mut()[0];
        for &(j, b) in dead {
            first.weights.row_mut(j).fill(0.0);
            first.bias[j] = b;
        }
        for j in 0..first.out_features() {
            for &c in unread {
                first.weights.set(j, c, 0.0);
            }
        }
        mlp.pack_weights();
        mlp
    }

    /// `mlp` without first-layer neurons `dead`, built by hand.
    fn compacted_twin(mlp: &Mlp, dead: &[usize]) -> Mlp {
        let (first, second) = (&mlp.layers()[0], &mlp.layers()[1]);
        let live: Vec<usize> = (0..first.out_features())
            .filter(|j| !dead.contains(j))
            .collect();
        let mut layers = vec![
            Linear {
                weights: Matrix::from_fn(live.len(), first.in_features(), |r, c| {
                    first.weights.get(live[r], c)
                }),
                bias: live.iter().map(|&j| first.bias[j]).collect(),
            },
            Linear {
                weights: Matrix::from_fn(second.out_features(), live.len(), |i, r| {
                    second.weights.get(i, live[r])
                }),
                bias: second.bias.clone(),
            },
        ];
        layers.extend_from_slice(&mlp.layers()[2..]);
        Mlp::from_parts(layers, mlp.activations().to_vec())
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn batch(n: usize, f: usize, seed: u64) -> Vec<f32> {
        Matrix::random(n, f, 2.0, seed).into_vec()
    }

    #[test]
    fn zero_output_dead_rows_freeze_to_the_hand_compacted_twin_bit_for_bit() {
        let dead = [(2, -0.5), (5, 0.0), (11, -3.0), (17, 0.0)];
        let mut net = Mlp::from_hidden(12, &[20, 8, 4], 21);
        for (l, layer) in net.layers_mut().iter_mut().enumerate() {
            for (i, b) in layer.bias.iter_mut().enumerate() {
                *b = ((i * 7 + l) % 5) as f32 * 0.1 - 0.2;
            }
        }
        let net = kill(net, &dead, &[3, 7]);
        let frozen = HybridMlp::from_mlp(&net, 0.0);
        assert_eq!(frozen.live_weights.rows(), 16);
        assert_eq!(frozen.read.len(), 10);
        assert_eq!(frozen.rest.input_dim(), 16);
        // The trained matrix is still what `first_weights` reports.
        assert_eq!(frozen.first_weights().rows(), 20);
        assert_eq!(frozen.input_dim(), 12);

        let twin = compacted_twin(&net, &dead.map(|(j, _)| j));
        let twin = HybridMlp::from_mlp(&twin, 0.0);
        let rows = batch(13, 12, 4);
        let (mut a, mut b) = (vec![0.0f32; 13], vec![0.0f32; 13]);
        frozen.score_batch(&rows, &mut a);
        twin.score_batch(&rows, &mut b);
        assert_eq!(bits(&a), bits(&b));
        assert_within_bound(&net, &frozen, &rows);
    }

    #[test]
    fn constant_dead_rows_fold_into_layer_two_within_the_bound() {
        let rows = batch(9, 10, 8);
        // A dead row with a positive bias: its constant is the bias.
        let net = kill(Mlp::from_hidden(10, &[12, 6], 3), &[(4, 0.7)], &[]);
        assert_within_bound(&net, &HybridMlp::from_mlp(&net, 0.0), &rows);
        // One above 6: ReLU6 saturates, the constant is 6.
        let net = kill(Mlp::from_hidden(10, &[12, 6], 3), &[(4, 9.5)], &[]);
        assert_within_bound(&net, &HybridMlp::from_mlp(&net, 0.0), &rows);
        // Without the fold those rows' contributions would be lost.
        let dropped = compacted_twin(&net, &[4]);
        let (mut folded, mut lost) = (vec![0.0f32; 9], vec![0.0f32; 9]);
        HybridMlp::from_mlp(&net, 0.0).score_batch(&rows, &mut folded);
        HybridMlp::from_mlp(&dropped, 0.0).score_batch(&rows, &mut lost);
        assert_ne!(folded, lost);

        // Across a k_c block boundary: layer 2 shrinks from k = 400 to 338,
        // so its first 256-deep block ends at a different neuron.
        let dead: Vec<(usize, f32)> = (0..62)
            .map(|i| (i * 6 + 1, [-1.0, 0.0, 0.7, 9.0][i % 4]))
            .collect();
        let net = kill(Mlp::from_hidden(16, &[400, 8], 5), &dead, &[0, 9]);
        let frozen = HybridMlp::from_mlp(&net, 0.0);
        assert_eq!(frozen.rest.input_dim(), 338);
        assert_within_bound(&net, &frozen, &batch(9, 16, 11));
    }

    #[test]
    fn a_fully_pruned_first_layer_freezes_to_the_constant_network() {
        let dead: Vec<(usize, f32)> = (0..12).map(|j| (j, j as f32 - 4.0)).collect();
        let net = kill(Mlp::from_hidden(10, &[12, 6], 9), &dead, &[]);
        let frozen = HybridMlp::from_mlp(&net, 0.0);
        // A 0-row SDMM over no features, then a k = 0 GEMM.
        assert_eq!(frozen.live_weights.rows(), 0);
        assert!(frozen.read.is_empty());
        assert_eq!(frozen.rest.input_dim(), 0);
        let rows = batch(5, 10, 2);
        let mut out = vec![0.0f32; 5];
        frozen.score_batch(&rows, &mut out);
        assert!(out.iter().all(|&s| s.to_bits() == out[0].to_bits()));
        assert_within_bound(&net, &frozen, &rows);
        let mut none: [f32; 0] = [];
        frozen.score_batch(&[], &mut none);
    }

    #[test]
    fn batches_of_zero_one_and_ten_thousand_documents() {
        let net = kill(pruned_net(4, 3), &[(1, 0.4), (8, 7.0)], &[6]);
        let frozen = HybridMlp::from_mlp(&net, 0.0);
        let mut ws = HybridWorkspace::default();
        let mut none: [f32; 0] = [];
        frozen.score_batch_with(&[], &mut none, &mut ws);
        let rows = batch(10_000, 10, 6);
        let mut all = vec![0.0f32; 10_000];
        frozen.score_batch_with(&rows, &mut all, &mut ws);
        assert_within_bound(&net, &frozen, &rows);
        // One document through the same (grown) workspace.
        let mut one = [0.0f32];
        frozen.score_batch_with(&rows[..10], &mut one, &mut ws);
        assert_within_bound(&net, &frozen, &rows[..10]);
        frozen.score_batch_with(&[], &mut none, &mut ws);
    }

    #[test]
    fn a_nan_in_an_unread_feature_never_reaches_the_score() {
        let net = kill(pruned_net(6, 2), &[], &[4]);
        let frozen = HybridMlp::from_mlp(&net, 0.0);
        assert!(!frozen.read.contains(&4));
        let clean = batch(7, 10, 3);
        let mut poisoned = clean.clone();
        for row in poisoned.chunks_exact_mut(10) {
            row[4] = f32::NAN;
        }
        let (mut a, mut b) = (vec![0.0f32; 7], vec![0.0f32; 7]);
        frozen.score_batch(&clean, &mut a);
        frozen.score_batch(&poisoned, &mut b);
        assert!(b.iter().all(|s| s.is_finite()));
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn normalizing_in_the_gather_is_normalizing_first() {
        let net = kill(pruned_net(8, 3), &[(0, 1.5)], &[2]);
        let frozen = HybridMlp::from_mlp(&net, 0.0);
        let raw = batch(11, 10, 12);
        let shift: Vec<f32> = (0..10).map(|j| j as f32 * 0.3 - 1.0).collect();
        let scale: Vec<f32> = (0..10).map(|j| 1.0 / (j as f32 + 0.5)).collect();
        let mut normalized = raw.clone();
        for row in normalized.chunks_exact_mut(10) {
            for ((v, s), sc) in row.iter_mut().zip(&shift).zip(&scale) {
                *v = (*v - s) * sc;
            }
        }
        let mut ws = HybridWorkspace::default();
        let (mut a, mut b) = (vec![0.0f32; 11], vec![0.0f32; 11]);
        frozen.score_batch_normalizing_with(&raw, &shift, &scale, &mut a, &mut ws);
        frozen.score_batch_with(&normalized, &mut b, &mut ws);
        assert_eq!(bits(&a), bits(&b));
    }

    /// Deterministic per-case draws for the property below.
    fn draw(seed: u64, i: u64) -> u64 {
        let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        #[test]
        fn random_row_and_column_masks_freeze_within_the_bound(
            (f, h1, h2) in (1usize..12, 1usize..40, 1usize..6),
            (n, seed) in (0usize..20, 0u64..u64::MAX),
        ) {
            let dead: Vec<(usize, f32)> = (0..h1)
                .filter(|&j| draw(seed, j as u64).is_multiple_of(3))
                .map(|j| (j, (draw(seed, 100 + j as u64) % 23) as f32 * 0.5 - 2.0))
                .collect();
            let unread: Vec<usize> = (0..f)
                .filter(|&c| draw(seed, 200 + c as u64).is_multiple_of(4))
                .collect();
            let net = kill(Mlp::from_hidden(f, &[h1, h2], seed), &dead, &unread);
            let frozen = HybridMlp::from_mlp(&net, 0.0);
            let trained = frozen.first_weights();
            proptest::prop_assert_eq!(frozen.live_weights.rows(), trained.active_rows());
            proptest::prop_assert_eq!(frozen.read.len(), trained.active_cols());
            proptest::prop_assert_eq!(frozen.live_weights.nnz(), trained.nnz());
            let rows = batch(n, f, seed);
            assert_within_bound(&net, &frozen, &rows);
        }
    }
}
