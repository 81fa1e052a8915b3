#![forbid(unsafe_code)]
//! Magnitude pruning and sensitivity analysis (§2.3, §5.2).
//!
//! The paper's efficiency-oriented pruning is *element-wise magnitude
//! pruning* in the style of Han et al., as implemented by Intel's
//! Distiller framework:
//!
//! * **level pruning** zeroes a fixed fraction of the lowest-magnitude
//!   weights (with a gradual ramp towards the target sparsity);
//! * **threshold pruning** zeroes weights with `|w| ≤ t`, `t = s·σ` where
//!   `σ` is the layer's weight standard deviation and `s` a sensitivity
//!   parameter; the Distiller variant the paper adopts keeps `t` *fixed*
//!   across pruning epochs, "relying on the fact that as the tensor is
//!   pruned, more elements are pulled towards the center of the
//!   distribution and then pruned".
//!
//! [`sensitivity`] reproduces the paper's static and dynamic per-layer
//! sensitivity analysis (Figure 10), and [`schedule`] the full Table 9
//! prune/fine-tune pipeline specialized to the paper's *early-layers
//! efficiency-oriented pruning*: only the first layer is sparsified, and
//! everything (its survivors plus all other layers) is fine-tuned. The
//! schedule is one call of the workspace's epoch loop
//! (`dlr_nn::run_epochs`) with the mask derivation as its per-epoch hook:
//! [`prune_first_layer`] runs it plainly, [`prune_first_layer_resilient`]
//! with checkpoints and resume — same weights either way.

pub mod magnitude;
pub mod schedule;
pub mod sensitivity;

pub use magnitude::{level_mask, threshold_mask, PruneMethod};
pub use schedule::{prune_first_layer, prune_first_layer_resilient, PruneConfig, PruneOutcome};
pub use sensitivity::{dynamic_sensitivity, static_sensitivity, SensitivityCurve};
