//! The paper's methodology end to end.
//!
//! `dlr-core` composes every substrate into the workflow of §5–§6:
//!
//! 1. **Train competitors and teachers** — LambdaMART forests at several
//!    sizes (64-leaf competitors, 256-leaf teachers) via `dlr-gbdt`.
//! 2. **Design** — enumerate neural architectures whose *predicted*
//!    pruned scoring time fits the latency budget implied by the
//!    tree-based Pareto frontier (`dlr-predictor`).
//! 3. **Distill** — train each candidate to approximate the best teacher's
//!    scores (`dlr-distill`).
//! 4. **Prune** — sparsify the first layer and fine-tune (`dlr-prune`),
//!    then freeze into a hybrid sparse/dense scorer (`dlr-nn`).
//! 5. **Compare** — measure NDCG@10 (with Fisher randomization
//!    significance) and single-thread µs/doc for every model, and compute
//!    effectiveness-efficiency Pareto frontiers under the paper's two
//!    scenarios (high-quality retrieval, low-latency retrieval).
//!
//! The [`prelude`] re-exports the workspace's main types so downstream
//! users need a single `use`.

pub mod fault;
pub mod parallel;
pub mod pareto;
pub mod pipeline;
pub mod pool;
pub mod prelude;
pub mod scenario;
pub mod scoring;
pub mod serve;
mod sync;
pub mod timing;

pub use fault::{
    corrupt_artifact, ArtifactCorruption, Fault, FaultConfig, FaultCounters, FaultInjectingScorer,
    FaultPlan, ServerFault, ServerFaultConfig, ServerFaultCounters,
};
pub use parallel::{par_bwqs, par_gemm, par_gemm_into, par_spmm};
pub use pareto::{pareto_frontier, ParetoPoint};
pub use pipeline::{NeuralEngineering, PipelineConfig, PrunedStudent};
pub use pool::{PoolError, WorkPool};
pub use scenario::Scenario;
pub use scoring::{DocumentScorer, EnsembleScorer, HybridScorer, MlpScorer, QuickScorerScorer};
pub use serve::{
    DeadlinePolicy, LatencyForecaster, LatencyHistogram, RobustScorer, SanitizePolicy, ScoreError,
    ServeStats, ServedBy,
};
pub use timing::measure_us_per_doc;
