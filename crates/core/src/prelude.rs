//! One-stop imports for downstream users.
//!
//! ```
//! use dlr_core::prelude::*;
//!
//! let data = SyntheticConfig::msn30k_like(20).generate();
//! let split = Split::by_query(&data, SplitRatios::PAPER, 1).unwrap();
//! assert_eq!(split.train.num_features(), 136);
//! ```

pub use crate::fault::{
    corrupt_artifact, ArtifactCorruption, Fault, FaultConfig, FaultCounters, FaultInjectingScorer,
    FaultPlan, ServerFault, ServerFaultConfig, ServerFaultCounters,
};
pub use crate::parallel::{par_bwqs, par_gemm, par_gemm_into, par_spmm};
pub use crate::pareto::{frontier_dominates, pareto_frontier, ParetoPoint};
pub use crate::pipeline::{NeuralEngineering, PipelineConfig, PrunedStudent};
pub use crate::pool::{PoolError, WorkPool};
pub use crate::scenario::Scenario;
pub use crate::scoring::{
    DocumentScorer, EnsembleScorer, HybridScorer, MlpScorer, QuickScorerScorer,
};
pub use crate::serve::{
    DeadlinePolicy, LatencyForecaster, LatencyHistogram, RobustScorer, SanitizePolicy, ScoreError,
    ServeStats, ServedBy,
};
pub use crate::timing::measure_us_per_doc;
pub use dlr_data::{
    Dataset, DatasetBuilder, Normalizer, Split, SplitRatios, SyntheticConfig, SyntheticKind,
};
pub use dlr_distill::{DistillConfig, DistillHyper, DistillSession, DistilledModel, Teacher};
pub use dlr_gbdt::{Ensemble, GrowthParams, LambdaMartParams, LambdaMartTrainer};
pub use dlr_metrics::{evaluate_scores, fisher_randomization, EvalReport, FisherOutcome};
pub use dlr_nn::{HybridMlp, Mlp};
pub use dlr_predictor::{
    calibrate_dense, calibrate_sparse, design_architectures, ArchCandidate, BudgetForecast,
    CsrShapeStats, DensePredictor, HostCalibration, SearchSpace, SparsePredictor,
};
pub use dlr_prune::{
    dynamic_sensitivity, prune_first_layer, static_sensitivity, PruneConfig, PruneMethod,
};
pub use dlr_quickscorer::{BlockwiseQuickScorer, QuickScorer, VectorizedQuickScorer};
