#![forbid(unsafe_code)]
//! Feed-forward networks for document scoring.
//!
//! The workspace's PyTorch stand-in: multi-layer perceptrons with ReLU6
//! activations (§6.1), trained with Adam on the MSE score-approximation
//! loss of the distillation recipe, with optional dropout after the first
//! layer and step learning-rate schedules — the exact training toolkit of
//! Table 9.
//!
//! Two inference paths mirror the paper's §5:
//!
//! * [`Mlp::score_batch_with`] — all layers dense, each layer one blocked
//!   GEMM (`dlr-dense`), the configuration of Tables 2 and 6;
//! * [`HybridMlp`] — first layer pruned to CSR and multiplied with the
//!   LIBXSMM-style sparse kernel (`dlr-sparse`), the rest dense: the
//!   paper's winning "hybrid model — first layer sparse, other layers
//!   dense" (Table 8), frozen to the neurons and features pruning left
//!   alive.
//!
//! Batch convention: the public API takes documents as row-major
//! `n × features` blocks (the way datasets store them); internally
//! activations live feature-major (`features × n`) so every layer is the
//! paper's `W·x` GEMM with `A = W (m×k)`, `B = activations (k×n)`.

pub mod activation;
pub mod adam;
pub mod checkpoint;
pub mod checksum;
pub mod hybrid;
pub mod init;
pub mod layer;
pub mod mlp;
pub mod scheduler;
pub mod serialize;
pub mod train;

pub use activation::Activation;
pub use adam::{Adam, AdamState};
pub use checkpoint::{Checkpoint, CheckpointError, CheckpointManager, SkippedCheckpoint};
pub use checksum::crc32;
pub use hybrid::HybridMlp;
pub use layer::Linear;
pub use mlp::{Mlp, MlpWorkspace};
pub use scheduler::StepLr;
pub use serialize::{
    mlp_format_version, read_mlp, read_mlp_bytes, read_mlp_from_path, write_mlp, MlpLoadError,
    MlpParseError,
};
pub use train::{
    run_epochs, BatchAnomaly, BatchSource, GuardConfig, GuardStats, LayerMasks, LoopState,
    ResilienceConfig, ResilientReport, Rows, TrainError, TrainerState,
};
