#![forbid(unsafe_code)]
//! Knowledge distillation of tree ensembles into neural rankers.
//!
//! Implements "training by scores approximation" (§3, after Cohen et al.,
//! SIGIR'18): treat a trained ensemble of regression trees as a black box
//! *teacher*, and train a feed-forward *student* to reproduce its scores
//! with an MSE loss. The recipe's two extra ingredients are faithfully
//! reproduced:
//!
//! * **Z-normalization** of all inputs with training-set statistics;
//! * **midpoint data augmentation**: for every feature, collect the
//!   ensemble's split points plus the training min/max, sort, and replace
//!   adjacent pairs with their midpoints; half of every training batch is
//!   sampled coordinate-wise from these lists so the student sees the
//!   whole cell decomposition the teacher induces over feature space.
//!
//! [`hyper`] records the Table 9 hyperparameters verbatim. A
//! [`DistillSession`] trains through the workspace's one epoch loop
//! (`dlr_nn::run_epochs`): [`DistillSession::train_student`] and
//! [`DistillSession::run_epochs`] for a plain run,
//! [`DistillSession::run_epochs_resilient`] for one that checkpoints and
//! resumes — same weights either way — and [`DistillSession::batches`] so
//! `dlr-prune` can run its prune/fine-tune schedule on the same batches.

pub mod augment;
pub mod direct;
pub mod hyper;
pub mod teacher;
pub mod trainer;

pub use augment::MidpointSampler;
pub use direct::{train_direct, DirectConfig, DirectModel, DirectObjective};
pub use dlr_nn::{ResilienceConfig, ResilientReport};
pub use hyper::DistillHyper;
pub use teacher::Teacher;
pub use trainer::{DistillConfig, DistillSession, DistilledModel, SessionBatches};
