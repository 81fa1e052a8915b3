//! Live model lifecycle: hot-swap registry, shadow scoring, canary
//! rollout, and automatic rollback.
//!
//! A serving deployment replaces its model many times over its life; the
//! dangerous moments are exactly those replacements. This module makes
//! them boring by forcing every candidate through a staged state machine
//! before — and a probation window after — it takes real traffic. The
//! diagram, the legality table of every control operation and the table
//! of what each [`Stage`] does with a batch are in DESIGN.md §"Model
//! lifecycle & safe rollout". In the code, the legality table is the
//! `allowed_from` list each operation hands to the one `transition`, and
//! the stage table is `Route::of`, carried out for every stage by two
//! effect handlers: *answer-with-rescue* and *mirror-and-compare*.
//! [`ModelRegistry::promote`] is gated by the Fisher randomization test
//! over the NDCG pairs collected in Shadow.
//!
//! Throughout every stage a **watchdog** evaluates the candidate after
//! each observed batch; once [`RolloutConfig::min_samples`] batches are
//! in, breaching any configured threshold rolls the candidate back
//! automatically — during Hold this atomically restores the previous
//! incumbent as the active model.
//!
//! The registry's one lock serializes the data plane (the dispatcher's
//! batches) against the control plane (load / promote / rollback), so a
//! swap always lands *between* micro-batches: no request is ever
//! dropped, double-answered, or scored by a half-installed model. The
//! drain-exact identities on [`ServerStats`] keep holding across any
//! number of swaps, and the [`VersionStats`] breakdown attributes every
//! scored batch to the exact version that answered it.
//!
//! [`ServerStats`]: crate::stats::ServerStats
//! [`VersionStats`]: crate::stats::VersionStats

use crate::engine::{BatchEngine, RequestMeta};
use crate::sync::{Mutex, MutexGuard};
use crate::Clock;
use dlr_core::scoring::DocumentScorer;
use dlr_core::serve::{LatencyHistogram, ScoreError, ServedBy};
use dlr_metrics::{ndcg_at, promotion_gate, GateConfig, GateDecision, NdcgConfig};
use dlr_nn::{read_mlp_bytes, Mlp, MlpWorkspace};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock, PoisonError};
use std::time::Duration;

/// Rollout policy: traffic fractions, health thresholds, and the
/// promotion gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RolloutConfig {
    /// Fraction of live batches mirrored to the candidate during Shadow
    /// (and reference-checked during Hold), selected deterministically.
    pub shadow_fraction: f64,
    /// Fraction of live batches answered by the candidate during Canary.
    pub canary_fraction: f64,
    /// Per-document absolute score difference above which a mirrored
    /// document counts as divergent.
    pub divergence_threshold: f32,
    /// Roll back when `divergent_docs / compared_docs` exceeds this.
    pub max_divergence_rate: f64,
    /// Roll back when the rate of unhealthy candidate batches (non-finite
    /// shadow scores, shadow panics, canary/hold rescues) over observed
    /// batches exceeds this.
    pub max_nan_rescue_rate: f64,
    /// Roll back when the fraction of observed batches where the
    /// candidate ran past the propagated deadline budget exceeds this.
    pub max_deadline_degradation_rate: f64,
    /// Roll back when the candidate's p99 latency exceeds the
    /// incumbent's by more than this factor.
    pub max_p99_ratio: f64,
    /// Observed batches required before any automatic trigger may fire.
    pub min_samples: u64,
    /// Clean post-promotion batches after which the rollout settles.
    pub hold_batches: u64,
    /// Cutoff for the shadow NDCG@k quality comparison.
    pub ndcg_k: usize,
    /// Fisher randomization gate consulted by [`ModelRegistry::promote`].
    pub gate: GateConfig,
}

impl Default for RolloutConfig {
    fn default() -> RolloutConfig {
        RolloutConfig {
            shadow_fraction: 1.0,
            canary_fraction: 0.125,
            divergence_threshold: 1e-3,
            max_divergence_rate: 0.01,
            max_nan_rescue_rate: 0.01,
            max_deadline_degradation_rate: 0.05,
            max_p99_ratio: 3.0,
            min_samples: 32,
            hold_batches: 64,
            ndcg_k: 10,
            gate: GateConfig::default(),
        }
    }
}

/// Where a candidate sits in the rollout state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Validated, serving nothing.
    Loaded,
    /// Mirrored off the response path.
    Shadow,
    /// Answering a deterministic slice of real traffic.
    Canary,
    /// Promoted to active, on probation with the old incumbent rescuing.
    Hold,
}

impl Stage {
    /// Short lowercase name for messages.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Loaded => "loaded",
            Stage::Shadow => "shadow",
            Stage::Canary => "canary",
            Stage::Hold => "hold",
        }
    }
}

/// Why a candidate was rolled back.
#[derive(Debug, Clone, PartialEq)]
pub enum RollbackReason {
    /// `divergent_docs / compared_docs` breached the threshold.
    Divergence {
        /// The observed rate.
        rate: f64,
    },
    /// Unhealthy candidate batches (NaN / panic / rescue) breached the
    /// threshold.
    NanRescue {
        /// The observed rate.
        rate: f64,
    },
    /// The candidate ran past the propagated deadline too often.
    DeadlineDegradation {
        /// The observed rate.
        rate: f64,
    },
    /// Candidate p99 latency regressed past the configured ratio.
    LatencyRegression {
        /// Observed candidate-p99 / incumbent-p99.
        ratio: f64,
    },
    /// An operator called [`ModelRegistry::rollback`].
    Manual,
}

impl std::fmt::Display for RollbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RollbackReason::Divergence { rate } => write!(f, "score divergence rate {rate:.4}"),
            RollbackReason::NanRescue { rate } => write!(f, "nan/rescue rate {rate:.4}"),
            RollbackReason::DeadlineDegradation { rate } => {
                write!(f, "deadline degradation rate {rate:.4}")
            }
            RollbackReason::LatencyRegression { ratio } => {
                write!(f, "p99 latency ratio {ratio:.2}")
            }
            RollbackReason::Manual => write!(f, "manual rollback"),
        }
    }
}

/// Exact counters for one candidate's journey through the stages.
/// Equality compares counters only; the latency histograms and NDCG
/// pairs are measurement payload.
#[derive(Debug, Clone, Default)]
pub struct CandidateStats {
    /// Shadow batches mirrored to the candidate.
    pub shadow_batches: u64,
    /// Documents across mirrored shadow batches.
    pub shadow_docs: u64,
    /// Documents whose incumbent/candidate scores were compared.
    pub compared_docs: u64,
    /// Compared documents whose absolute score difference exceeded
    /// [`RolloutConfig::divergence_threshold`].
    pub divergent_docs: u64,
    /// Shadow batches where the candidate produced a non-finite score.
    pub shadow_nan_batches: u64,
    /// Shadow batches where the candidate panicked (isolated off-path).
    pub shadow_panics: u64,
    /// Canary batches routed to the candidate.
    pub canary_batches: u64,
    /// Canary or Hold batches rescued by the incumbent/reference after
    /// the candidate panicked or produced non-finite scores.
    pub rescues: u64,
    /// Post-promotion probation batches served while in Hold.
    pub hold_batches: u64,
    /// Observed batches where the candidate ran past the batch budget.
    pub deadline_degraded: u64,
    /// Candidate scoring latency across observed batches.
    pub candidate_latency: LatencyHistogram,
    /// Incumbent/reference scoring latency on the same batches.
    pub incumbent_latency: LatencyHistogram,
    /// Per-query (incumbent NDCG@k, candidate NDCG@k) pairs collected
    /// during Shadow from label-carrying requests; the promotion gate's
    /// input.
    pub ndcg_pairs: Vec<(f64, f64)>,
}

impl CandidateStats {
    /// Batches in which the candidate was observed (shadow + canary +
    /// hold) — the watchdog's denominator.
    pub fn observed_batches(&self) -> u64 {
        self.shadow_batches + self.canary_batches + self.hold_batches
    }
}

impl PartialEq for CandidateStats {
    fn eq(&self, other: &Self) -> bool {
        self.shadow_batches == other.shadow_batches
            && self.shadow_docs == other.shadow_docs
            && self.compared_docs == other.compared_docs
            && self.divergent_docs == other.divergent_docs
            && self.shadow_nan_batches == other.shadow_nan_batches
            && self.shadow_panics == other.shadow_panics
            && self.canary_batches == other.canary_batches
            && self.rescues == other.rescues
            && self.hold_batches == other.hold_batches
            && self.deadline_degraded == other.deadline_degraded
    }
}

impl Eq for CandidateStats {}

/// How a candidate's journey ended (or hasn't yet).
#[derive(Debug, Clone, PartialEq)]
pub enum CandidateOutcome {
    /// Still in the state machine.
    InFlight,
    /// Promoted and survived probation.
    Settled,
    /// Rolled back, manually or by the watchdog.
    RolledBack(RollbackReason),
}

/// Snapshot of one candidate's version, stage, counters, and outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateReport {
    /// The candidate's version string.
    pub version: String,
    /// Stage at snapshot time (for ended journeys, the stage reached).
    pub stage: Stage,
    /// Exact counters.
    pub stats: CandidateStats,
    /// How the journey ended, if it has.
    pub outcome: CandidateOutcome,
}

/// Everything notable the registry did, in order.
#[derive(Debug, Clone, PartialEq)]
pub enum LifecycleEvent {
    /// A candidate artifact validated and entered Loaded.
    Loaded {
        /// Candidate version.
        version: String,
    },
    /// A candidate artifact was rejected; the incumbent keeps serving.
    LoadRejected {
        /// Version the rejected artifact claimed.
        version: String,
        /// Why it was rejected.
        reason: String,
    },
    /// Shadow mirroring began.
    ShadowStarted {
        /// Candidate version.
        version: String,
    },
    /// Canary routing began.
    CanaryStarted {
        /// Candidate version.
        version: String,
    },
    /// The promotion gate refused to promote.
    PromotionBlocked {
        /// Candidate version.
        version: String,
        /// Gate verdict.
        reason: String,
    },
    /// The candidate became the active model (entering Hold).
    Promoted {
        /// The new active version.
        version: String,
        /// The incumbent it replaced.
        replaced: String,
    },
    /// A candidate was rolled back; `restored` is the active version
    /// after the rollback.
    RolledBack {
        /// The rolled-back candidate version.
        version: String,
        /// The version serving after the rollback.
        restored: String,
        /// Why.
        reason: RollbackReason,
    },
    /// A promoted candidate survived probation; the rollout is final.
    Settled {
        /// The settled active version.
        version: String,
    },
}

/// Typed control-plane failures. Every error leaves the incumbent
/// serving, untouched.
#[derive(Debug, Clone, PartialEq)]
pub enum LifecycleError {
    /// The artifact failed validation (bad header, checksum mismatch,
    /// truncation, non-finite weights, or a feature-dimension mismatch).
    ArtifactRejected {
        /// Version the artifact claimed.
        version: String,
        /// Validation failure.
        reason: String,
    },
    /// A candidate is already in flight; roll it back first.
    CandidateInFlight {
        /// The in-flight candidate's version.
        version: String,
    },
    /// The operation needs a candidate and there is none.
    NoCandidate,
    /// The candidate is not in the stage the operation requires.
    WrongStage {
        /// The attempted operation.
        operation: &'static str,
        /// The candidate's actual stage.
        stage: Stage,
    },
    /// The Fisher gate found the candidate significantly worse.
    GateBlocked {
        /// Mean candidate − incumbent NDCG difference.
        mean_diff: f64,
        /// The test's p-value.
        p_value: f64,
    },
    /// Not enough shadow NDCG pairs to run the gate.
    InsufficientData {
        /// Pairs collected.
        have: usize,
        /// Pairs required.
        need: usize,
    },
    /// Rollback with no candidate and no previous incumbent retained.
    NothingToRollBack,
}

impl std::fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LifecycleError::ArtifactRejected { version, reason } => {
                write!(f, "artifact for {version} rejected: {reason}")
            }
            LifecycleError::CandidateInFlight { version } => {
                write!(f, "candidate {version} already in flight")
            }
            LifecycleError::NoCandidate => write!(f, "no candidate loaded"),
            LifecycleError::WrongStage { operation, stage } => {
                write!(f, "cannot {operation} from stage {}", stage.name())
            }
            LifecycleError::GateBlocked { mean_diff, p_value } => write!(
                f,
                "promotion gate: candidate significantly worse (mean diff {mean_diff:.5}, p = {p_value:.4})"
            ),
            LifecycleError::InsufficientData { have, need } => {
                write!(f, "promotion gate: {have} NDCG pairs, need {need}")
            }
            LifecycleError::NothingToRollBack => write!(f, "nothing to roll back"),
        }
    }
}

impl std::error::Error for LifecycleError {}

/// One installed model: its version, the exact artifact bytes it was
/// loaded from, and the scorer (behind a lock for interior mutability —
/// scoring needs `&mut`).
struct ModelEntry {
    version: Arc<str>,
    artifact: Vec<u8>,
    scorer: Mutex<Box<dyn DocumentScorer + Send>>,
}

/// A candidate mid-rollout.
struct CandidateState {
    entry: Arc<ModelEntry>,
    /// The incumbent at load time: comparison baseline and rescue scorer.
    reference: Arc<ModelEntry>,
    stage: Stage,
    shadow_acc: f64,
    canary_acc: f64,
    stats: CandidateStats,
}

/// Everything behind the registry's one lock.
struct LifecycleState {
    active: Arc<ModelEntry>,
    /// The incumbent displaced by the last settled promotion (manual
    /// post-settle rollback target).
    previous: Option<Arc<ModelEntry>>,
    candidate: Option<CandidateState>,
    events: Vec<LifecycleEvent>,
    last_report: Option<CandidateReport>,
}

/// Pre-registered observability handles for the model lifecycle,
/// attached once via [`ModelRegistry::attach_obs`].
struct RegistryObsHooks {
    obs: Arc<dlr_obs::Obs>,
    shadow_batches: dlr_obs::Counter,
    canary_batches: dlr_obs::Counter,
    rescues: dlr_obs::Counter,
    promotions: dlr_obs::Counter,
    rollbacks: dlr_obs::Counter,
    loads_rejected: dlr_obs::Counter,
}

impl LifecycleState {
    /// Append `event` to the log. The one place the lifecycle counters
    /// (promotions, rollbacks, rejected loads) move.
    fn emit(&mut self, hooks: Option<&RegistryObsHooks>, event: LifecycleEvent) {
        if let Some(h) = hooks {
            match &event {
                LifecycleEvent::Promoted { .. } => h.promotions.inc(),
                LifecycleEvent::RolledBack { .. } => h.rollbacks.inc(),
                LifecycleEvent::LoadRejected { .. } => h.loads_rejected.inc(),
                _ => {}
            }
        }
        self.events.push(event);
    }

    /// End the in-flight candidate's journey with `outcome`: a candidate
    /// rolled back from Hold hands the active slot back to its reference;
    /// then emit the event and file the report.
    fn end_journey(&mut self, hooks: Option<&RegistryObsHooks>, outcome: CandidateOutcome) {
        let Some(cand) = self.candidate.take() else {
            return;
        };
        let version = cand.entry.version.to_string();
        let event = match &outcome {
            CandidateOutcome::RolledBack(reason) => {
                if cand.stage == Stage::Hold {
                    self.active = Arc::clone(&cand.reference);
                    self.previous = None;
                }
                LifecycleEvent::RolledBack {
                    version: version.clone(),
                    restored: cand.reference.version.to_string(),
                    reason: reason.clone(),
                }
            }
            _ => LifecycleEvent::Settled {
                version: version.clone(),
            },
        };
        self.emit(hooks, event);
        self.last_report = Some(CandidateReport {
            version,
            stage: cand.stage,
            stats: cand.stats,
            outcome,
        });
    }

    /// Run the watchdog, then the Hold settle check, after a batch.
    fn after_observed_batch(&mut self, config: &RolloutConfig, hooks: Option<&RegistryObsHooks>) {
        let Some(cand) = &self.candidate else {
            return;
        };
        if let Some(reason) = watchdog_verdict(&cand.stats, config) {
            self.end_journey(hooks, CandidateOutcome::RolledBack(reason));
        } else if cand.stage == Stage::Hold && cand.stats.hold_batches >= config.hold_batches {
            self.end_journey(hooks, CandidateOutcome::Settled);
        }
    }
}

struct RegistryShared {
    num_features: usize,
    config: RolloutConfig,
    clock: Arc<dyn Clock>,
    state: Mutex<LifecycleState>,
    obs: OnceLock<RegistryObsHooks>,
}

fn lock_state(shared: &RegistryShared) -> MutexGuard<'_, LifecycleState> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Control-plane handle to a versioned model registry. Clone freely;
/// all clones (and the paired [`RegistryEngine`]) share one state.
#[derive(Clone)]
pub struct ModelRegistry {
    shared: Arc<RegistryShared>,
}

/// The data-plane half: a [`BatchEngine`] the dispatcher owns, scoring
/// every micro-batch with whatever the registry says is active and
/// running the shadow/canary/hold machinery alongside.
pub struct RegistryEngine {
    shared: Arc<RegistryShared>,
    scratch: Vec<f32>,
    last_served: Option<Arc<str>>,
}

/// Scorer for a validated `dlr-mlp v2` artifact (no feature normalizer:
/// lifecycle artifacts carry networks trained on normalized features).
struct MlpArtifactScorer {
    mlp: Mlp,
    ws: MlpWorkspace,
    label: String,
}

impl DocumentScorer for MlpArtifactScorer {
    fn num_features(&self) -> usize {
        self.mlp.input_dim()
    }

    fn score_batch(&mut self, rows: &[f32], out: &mut [f32]) {
        self.mlp.score_batch_with(rows, out, &mut self.ws);
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

impl ModelRegistry {
    /// Start a registry with `scorer` as the initial active model.
    /// Returns the control handle and the engine to hand to
    /// [`Server::start`].
    ///
    /// [`Server::start`]: crate::server::Server::start
    pub fn with_scorer(
        version: &str,
        scorer: Box<dyn DocumentScorer + Send>,
        artifact: Vec<u8>,
        config: RolloutConfig,
        clock: Arc<dyn Clock>,
    ) -> (ModelRegistry, RegistryEngine) {
        let num_features = scorer.num_features().max(1);
        let entry = Arc::new(ModelEntry {
            version: Arc::from(version),
            artifact,
            scorer: Mutex::new(scorer),
        });
        let shared = Arc::new(RegistryShared {
            num_features,
            config,
            clock,
            obs: OnceLock::new(),
            state: Mutex::new(LifecycleState {
                active: entry,
                previous: None,
                candidate: None,
                events: Vec::new(),
                last_report: None,
            }),
        });
        let engine = RegistryEngine {
            shared: Arc::clone(&shared),
            scratch: Vec::new(),
            last_served: None,
        };
        (ModelRegistry { shared }, engine)
    }

    /// Start a registry by validating and installing a `dlr-mlp v2`
    /// artifact as the initial active model.
    ///
    /// # Errors
    /// [`LifecycleError::ArtifactRejected`] when the artifact fails
    /// validation.
    pub fn new(
        version: &str,
        artifact: Vec<u8>,
        config: RolloutConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<(ModelRegistry, RegistryEngine), LifecycleError> {
        let scorer = parse_artifact(version, &artifact).map_err(|reason| {
            let version = version.to_string();
            LifecycleError::ArtifactRejected { version, reason }
        })?;
        Ok(Self::with_scorer(version, scorer, artifact, config, clock))
    }

    /// Validate a candidate artifact and install it in the Loaded stage.
    /// A corrupt, truncated, or dimension-mismatched artifact is
    /// rejected with a typed error (and a [`LifecycleEvent::LoadRejected`]
    /// event); the incumbent keeps serving untouched either way.
    ///
    /// # Errors
    /// [`LifecycleError::ArtifactRejected`] on validation failure;
    /// [`LifecycleError::CandidateInFlight`] when a candidate exists.
    pub fn load_artifact(&self, version: &str, artifact: &[u8]) -> Result<(), LifecycleError> {
        let scorer = parse_artifact(version, artifact).map_err(|r| self.reject(version, r))?;
        self.load_scorer(version, scorer, artifact.to_vec())
    }

    /// Install an arbitrary scorer as the candidate (tests, fault
    /// injection, or non-MLP models). Same stage rules as
    /// [`load_artifact`](Self::load_artifact); the scorer's feature count
    /// must match the incumbent's.
    ///
    /// # Errors
    /// [`LifecycleError::ArtifactRejected`] on a feature-count mismatch;
    /// [`LifecycleError::CandidateInFlight`] when a candidate exists.
    pub fn load_scorer(
        &self,
        version: &str,
        scorer: Box<dyn DocumentScorer + Send>,
        artifact: Vec<u8>,
    ) -> Result<(), LifecycleError> {
        let (got, want) = (scorer.num_features(), self.shared.num_features);
        if got != want {
            let reason = format!("feature dimension {got} does not match the registry's {want}");
            return Err(self.reject(version, reason));
        }
        let mut state = lock_state(&self.shared);
        if let Some(cand) = &state.candidate {
            return Err(LifecycleError::CandidateInFlight {
                version: cand.entry.version.to_string(),
            });
        }
        let entry = Arc::new(ModelEntry {
            version: Arc::from(version),
            artifact,
            scorer: Mutex::new(scorer),
        });
        state.candidate = Some(CandidateState {
            entry,
            reference: Arc::clone(&state.active),
            stage: Stage::Loaded,
            shadow_acc: 0.0,
            canary_acc: 0.0,
            stats: CandidateStats::default(),
        });
        let version = version.to_string();
        state.emit(self.shared.obs.get(), LifecycleEvent::Loaded { version });
        Ok(())
    }

    /// The one rejection path of both loaders: the typed error, logged
    /// as a [`LifecycleEvent::LoadRejected`].
    fn reject(&self, version: &str, reason: String) -> LifecycleError {
        let version = version.to_string();
        let err = LifecycleError::ArtifactRejected {
            version: version.clone(),
            reason,
        };
        let event = LifecycleEvent::LoadRejected {
            version,
            reason: err.to_string(),
        };
        lock_state(&self.shared).emit(self.shared.obs.get(), event);
        err
    }

    /// Loaded → Shadow: start mirroring traffic off the response path.
    ///
    /// # Errors
    /// [`LifecycleError::NoCandidate`] / [`LifecycleError::WrongStage`].
    pub fn begin_shadow(&self) -> Result<(), LifecycleError> {
        self.transition("begin shadow", &[Stage::Loaded], Stage::Shadow)
    }

    /// Shadow → Canary: start answering a deterministic traffic slice
    /// with the candidate.
    ///
    /// # Errors
    /// [`LifecycleError::NoCandidate`] / [`LifecycleError::WrongStage`].
    pub fn begin_canary(&self) -> Result<(), LifecycleError> {
        self.transition("begin canary", &[Stage::Shadow], Stage::Canary)
    }

    /// Promote the candidate to active, entering the Hold probation
    /// window. Allowed from Shadow or Canary, and only if the Fisher
    /// randomization gate over the shadow NDCG pairs does not find the
    /// candidate significantly worse than the incumbent.
    ///
    /// # Errors
    /// [`LifecycleError::InsufficientData`] /
    /// [`LifecycleError::GateBlocked`] per the gate;
    /// [`LifecycleError::NoCandidate`] / [`LifecycleError::WrongStage`].
    pub fn promote(&self) -> Result<(), LifecycleError> {
        self.transition("promote", &[Stage::Shadow, Stage::Canary], Stage::Hold)
    }

    /// The control plane's one move: the candidate must sit in one of
    /// `allowed_from`, and entering Hold must pass the promotion gate (a
    /// refusal is logged as [`LifecycleEvent::PromotionBlocked`]). Then
    /// it moves to `to`, announced by an event; entering Hold makes it the
    /// active model and retains the incumbent it displaces.
    fn transition(
        &self,
        operation: &'static str,
        allowed_from: &[Stage],
        to: Stage,
    ) -> Result<(), LifecycleError> {
        let hooks = self.shared.obs.get();
        let mut state = lock_state(&self.shared);
        let cand = state
            .candidate
            .as_mut()
            .ok_or(LifecycleError::NoCandidate)?;
        if !allowed_from.contains(&cand.stage) {
            return Err(LifecycleError::WrongStage {
                operation,
                stage: cand.stage,
            });
        }
        let version = cand.entry.version.to_string();
        if to == Stage::Hold {
            if let Err(err) = gate_verdict(&cand.stats, self.shared.config.gate) {
                let reason = err.to_string();
                state.emit(hooks, LifecycleEvent::PromotionBlocked { version, reason });
                return Err(err);
            }
        }
        cand.stage = to;
        let entry = Arc::clone(&cand.entry);
        let event = match to {
            Stage::Loaded => LifecycleEvent::Loaded { version },
            Stage::Shadow => LifecycleEvent::ShadowStarted { version },
            Stage::Canary => LifecycleEvent::CanaryStarted { version },
            Stage::Hold => {
                let replaced = state.active.version.to_string();
                state.previous = Some(std::mem::replace(&mut state.active, entry));
                LifecycleEvent::Promoted { version, replaced }
            }
        };
        state.emit(hooks, event);
        Ok(())
    }

    /// Manual rollback. With a candidate in flight, aborts it (restoring
    /// the reference incumbent as active if the candidate was in Hold);
    /// with none, flips back to the incumbent displaced by the last
    /// settled promotion.
    ///
    /// # Errors
    /// [`LifecycleError::NothingToRollBack`] when there is neither a
    /// candidate nor a retained previous incumbent.
    pub fn rollback(&self) -> Result<(), LifecycleError> {
        let hooks = self.shared.obs.get();
        let mut state = lock_state(&self.shared);
        if state.candidate.is_some() {
            state.end_journey(hooks, CandidateOutcome::RolledBack(RollbackReason::Manual));
            return Ok(());
        }
        let Some(previous) = state.previous.take() else {
            return Err(LifecycleError::NothingToRollBack);
        };
        let displaced = std::mem::replace(&mut state.active, previous);
        let event = LifecycleEvent::RolledBack {
            version: displaced.version.to_string(),
            restored: state.active.version.to_string(),
            reason: RollbackReason::Manual,
        };
        state.emit(hooks, event);
        state.previous = Some(displaced);
        Ok(())
    }

    /// Publish lifecycle counters and shadow/canary spans into `obs`.
    /// Share the same `Arc` with the [`ServerConfig`]'s plane so registry
    /// spans land in the same traces as the dispatcher's. Attaching is
    /// once-only; later calls are ignored.
    ///
    /// [`ServerConfig`]: crate::server::ServerConfig
    pub fn attach_obs(&self, obs: Arc<dlr_obs::Obs>) {
        let _ = self.shared.obs.set(RegistryObsHooks {
            shadow_batches: obs.counter("registry_shadow_batches_total"),
            canary_batches: obs.counter("registry_canary_batches_total"),
            rescues: obs.counter("registry_rescues_total"),
            promotions: obs.counter("registry_promotions_total"),
            rollbacks: obs.counter("registry_rollbacks_total"),
            loads_rejected: obs.counter("registry_loads_rejected_total"),
            obs,
        });
    }

    /// The version currently answering live traffic.
    pub fn active_version(&self) -> String {
        lock_state(&self.shared).active.version.to_string()
    }

    /// The exact artifact bytes the active model was installed from.
    pub fn active_artifact(&self) -> Vec<u8> {
        lock_state(&self.shared).active.artifact.clone()
    }

    /// The in-flight candidate's version, if any.
    pub fn candidate_version(&self) -> Option<String> {
        lock_state(&self.shared)
            .candidate
            .as_ref()
            .map(|c| c.entry.version.to_string())
    }

    /// The in-flight candidate's stage, if any.
    pub fn candidate_stage(&self) -> Option<Stage> {
        lock_state(&self.shared).candidate.as_ref().map(|c| c.stage)
    }

    /// Snapshot of the in-flight candidate's counters.
    pub fn candidate_report(&self) -> Option<CandidateReport> {
        lock_state(&self.shared)
            .candidate
            .as_ref()
            .map(|c| CandidateReport {
                version: c.entry.version.to_string(),
                stage: c.stage,
                stats: c.stats.clone(),
                outcome: CandidateOutcome::InFlight,
            })
    }

    /// The report of the most recently *ended* candidate journey
    /// (settled or rolled back).
    pub fn last_report(&self) -> Option<CandidateReport> {
        lock_state(&self.shared).last_report.clone()
    }

    /// Everything the registry has done, in order.
    pub fn events(&self) -> Vec<LifecycleEvent> {
        lock_state(&self.shared).events.clone()
    }

    /// Features per document every installed model must accept.
    pub fn num_features(&self) -> usize {
        self.shared.num_features
    }
}

/// Validate `artifact` as a `dlr-mlp v2` model and wrap it in a scorer,
/// or say why it is rejected. The feature dimension is checked by the
/// loader it is handed to.
fn parse_artifact(
    version: &str,
    artifact: &[u8],
) -> Result<Box<dyn DocumentScorer + Send>, String> {
    let mlp = read_mlp_bytes(artifact).map_err(|e| e.to_string())?;
    Ok(Box::new(MlpArtifactScorer {
        mlp,
        ws: MlpWorkspace::default(),
        label: format!("mlp:{version}"),
    }))
}

/// The Fisher randomization gate over the shadow NDCG pairs, as a typed
/// verdict.
fn gate_verdict(stats: &CandidateStats, gate: GateConfig) -> Result<(), LifecycleError> {
    let (incumbent, candidate): (Vec<f64>, Vec<f64>) = stats.ndcg_pairs.iter().copied().unzip();
    match promotion_gate(&incumbent, &candidate, gate) {
        GateDecision::Pass { .. } => Ok(()),
        GateDecision::InsufficientData { have, need } => {
            Err(LifecycleError::InsufficientData { have, need })
        }
        GateDecision::Blocked { outcome } => Err(LifecycleError::GateBlocked {
            mean_diff: outcome.mean_diff,
            p_value: outcome.p_value,
        }),
    }
}

/// Deterministic fraction selector: accumulate and fire on overflow, so
/// a fraction of `f` fires ⌊n·f⌉-exactly over any window with no RNG.
fn fire(acc: &mut f64, fraction: f64) -> bool {
    *acc += fraction.clamp(0.0, 1.0);
    if *acc + 1e-9 >= 1.0 {
        *acc -= 1.0;
        true
    } else {
        false
    }
}

/// Score with `entry`'s scorer, timed on `clock`. Panics propagate: the
/// callers that must survive a scorer panic wrap this in `catch_unwind`.
fn timed_score(clock: &dyn Clock, entry: &ModelEntry, rows: &[f32], out: &mut [f32]) -> u64 {
    let t0 = clock.now_nanos();
    let mut scorer = entry.scorer.lock().unwrap_or_else(PoisonError::into_inner);
    scorer.score_batch(rows, out);
    drop(scorer);
    clock.now_nanos().saturating_sub(t0)
}

/// Whether any automatic-rollback trigger fires for these counters.
fn watchdog_verdict(stats: &CandidateStats, config: &RolloutConfig) -> Option<RollbackReason> {
    let observed = stats.observed_batches();
    if observed < config.min_samples {
        return None;
    }
    if stats.compared_docs > 0 {
        let rate = stats.divergent_docs as f64 / stats.compared_docs as f64;
        if rate > config.max_divergence_rate {
            return Some(RollbackReason::Divergence { rate });
        }
    }
    let unhealthy = stats.shadow_nan_batches + stats.shadow_panics + stats.rescues;
    let rate = unhealthy as f64 / observed as f64;
    if rate > config.max_nan_rescue_rate {
        return Some(RollbackReason::NanRescue { rate });
    }
    let rate = stats.deadline_degraded as f64 / observed as f64;
    if rate > config.max_deadline_degradation_rate {
        return Some(RollbackReason::DeadlineDegradation { rate });
    }
    if let (Some(cand), Some(inc)) = (
        stats.candidate_latency.p99_us(),
        stats.incumbent_latency.p99_us(),
    ) {
        if inc > 0 {
            let ratio = cand as f64 / inc as f64;
            if ratio > config.max_p99_ratio {
                return Some(RollbackReason::LatencyRegression { ratio });
            }
        }
    }
    None
}

/// A model a [`Route`] mirrors.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// The in-flight candidate.
    Candidate,
    /// The incumbent the candidate was loaded against.
    Reference,
}

/// Which batches a stage's candidate answers; the reference answers the
/// rest.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Share {
    Never,
    /// The `canary_fraction` slice.
    Canary,
    Always,
}

/// One stage's row of the data plane (the module docs' table): the
/// batches the candidate answers, the model mirrored on the
/// `shadow_fraction` slice, and the span candidate scoring is traced as.
#[derive(Clone, Copy)]
struct Route {
    answers: Share,
    mirror: Option<Role>,
    span: Option<dlr_obs::Stage>,
}

impl Route {
    fn of(stage: Stage) -> Route {
        use dlr_obs::Stage as Span;
        use Role::{Candidate, Reference};
        let (answers, mirror, span) = match stage {
            Stage::Loaded => (Share::Never, None, None),
            Stage::Shadow => (Share::Never, Some(Candidate), Some(Span::Shadow)),
            Stage::Canary => (Share::Canary, None, Some(Span::Canary)),
            Stage::Hold => (Share::Always, Some(Reference), None),
        };
        Route {
            answers,
            mirror,
            span,
        }
    }
}

/// One micro-batch, as the effect handlers read it.
struct Batch<'a> {
    rows: &'a [f32],
    budget: Option<Duration>,
    metas: &'a [RequestMeta<'a>],
    clock: &'a dyn Clock,
    config: &'a RolloutConfig,
    hooks: Option<&'a RegistryObsHooks>,
}

impl Batch<'_> {
    /// Count one more in a [`CandidateStats`] field and in the obs
    /// counter that mirrors it.
    fn count(&self, field: &mut u64, counter: fn(&RegistryObsHooks) -> &dlr_obs::Counter) {
        *field += 1;
        if let Some(h) = self.hooks {
            counter(h).inc();
        }
    }

    /// Record a span of `stage` for `version` ending now and lasting
    /// `nanos`, attributed to the dispatcher's current trace. The
    /// registry clock and the obs clock are the same injected server
    /// clock, so under `ManualClock` the bounds are exact.
    fn span(&self, stage: dlr_obs::Stage, version: &Arc<str>, nanos: u64) {
        if let Some(h) = self.hooks {
            let (obs, end) = (&h.obs, h.obs.now_nanos());
            let version = Some(Arc::clone(version));
            obs.record_span(
                obs.current_trace(),
                stage,
                version,
                end.saturating_sub(nanos),
                end,
            );
        }
    }
}

/// The data plane for one batch, under the registry lock: answer with
/// rescue, mirror-and-compare an unrescued answer, run the watchdog.
/// Returns how the batch was served and the version that answered it.
fn route_batch(
    b: &Batch<'_>,
    state: &mut LifecycleState,
    out: &mut [f32],
    scratch: &mut Vec<f32>,
) -> (ServedBy, Arc<str>) {
    let Some(cand) = state.candidate.as_mut() else {
        timed_score(b.clock, &state.active, b.rows, out);
        return (ServedBy::Primary, Arc::clone(&state.active.version));
    };
    let route = Route::of(cand.stage);
    let (served, by, nanos) = answer_with_rescue(b, cand, &route, out, scratch);
    if served == ServedBy::Primary {
        mirror_and_compare(b, cand, &route, nanos, out, scratch);
    }
    state.after_observed_batch(b.config, b.hooks);
    (served, by)
}

/// Effect handler: answer the batch into `out` — the candidate on its
/// route's share, rescued by the reference (served as
/// [`ServedBy::Fallback`]) when it panics or goes non-finite; the
/// reference otherwise. Until promotion the reference is the active
/// model. Returns who answered and the answer's latency.
fn answer_with_rescue(
    b: &Batch<'_>,
    cand: &mut CandidateState,
    route: &Route,
    out: &mut [f32],
    scratch: &mut Vec<f32>,
) -> (ServedBy, Arc<str>, u64) {
    let routed = match route.answers {
        Share::Never => false,
        Share::Canary => fire(&mut cand.canary_acc, b.config.canary_fraction),
        Share::Always => true,
    };
    if routed {
        if let Some(nanos) = try_score(b, cand, route, Role::Candidate, scratch, out.len()) {
            if scratch.iter().all(|s| s.is_finite()) {
                out.copy_from_slice(scratch);
                return (ServedBy::Primary, Arc::clone(&cand.entry.version), nanos);
            }
        }
        b.count(&mut cand.stats.rescues, |h| &h.rescues);
        b.span(dlr_obs::Stage::Rescue, &cand.reference.version, 0);
    }
    let nanos = timed_score(b.clock, &cand.reference, b.rows, out);
    // A rescue, or the control arm of a canary split, is an incumbent
    // latency sample of its own; a stage's own answer is sampled only
    // beside its mirror.
    if routed || route.answers == Share::Canary {
        let latency = Duration::from_nanos(nanos);
        cand.stats.incumbent_latency.record(latency);
    }
    let served = if routed {
        ServedBy::Fallback
    } else {
        ServedBy::Primary
    };
    (served, Arc::clone(&cand.reference.version), nanos)
}

/// Effect handler: on the `shadow_fraction` slice, score the route's
/// mirror off the response path and compare it with the answer in
/// `out`. A mirrored candidate is under observation — its panics and
/// non-finite batches count against it, labelled requests yield the
/// gate's NDCG pairs; a mirrored reference only audits the candidate's
/// answers.
fn mirror_and_compare(
    b: &Batch<'_>,
    cand: &mut CandidateState,
    route: &Route,
    answer_nanos: u64,
    out: &[f32],
    mirror: &mut Vec<f32>,
) {
    let Some(role) = route.mirror else { return };
    if !fire(&mut cand.shadow_acc, b.config.shadow_fraction) {
        return;
    }
    let observed = role == Role::Candidate;
    let Some(nanos) = try_score(b, cand, route, role, mirror, out.len()) else {
        if observed {
            cand.stats.shadow_panics += 1;
        }
        return;
    };
    // One incumbent sample per completed mirror: the answer's, paired
    // with a mirrored candidate's, or the mirrored reference's own.
    let latency = Duration::from_nanos(if observed { answer_nanos } else { nanos });
    cand.stats.incumbent_latency.record(latency);
    if mirror.iter().any(|s| !s.is_finite()) {
        if observed {
            cand.stats.shadow_nan_batches += 1;
        }
        return;
    }
    let threshold = b.config.divergence_threshold;
    let diverged = out
        .iter()
        .zip(mirror.iter())
        .filter(|(a, b)| (**a - **b).abs() > threshold);
    cand.stats.divergent_docs += diverged.count() as u64;
    cand.stats.compared_docs += out.len() as u64;
    if observed {
        collect_ndcg_pairs(&mut cand.stats, out, mirror, b.metas, b.config.ndcg_k);
    }
}

/// Score `role`'s model into `buf`, resized to `docs`, under
/// `catch_unwind`; `None` when it panicked. A candidate attempt counts
/// as an observed batch of its stage and, completed, is sampled in
/// `candidate_latency`, traced as the route's span and checked against
/// the budget.
fn try_score(
    b: &Batch<'_>,
    cand: &mut CandidateState,
    route: &Route,
    role: Role,
    buf: &mut Vec<f32>,
    docs: usize,
) -> Option<u64> {
    let (stats, candidate) = (&mut cand.stats, role == Role::Candidate);
    let model = if candidate {
        &cand.entry
    } else {
        &cand.reference
    };
    if candidate {
        match cand.stage {
            Stage::Loaded => {}
            Stage::Shadow => {
                b.count(&mut stats.shadow_batches, |h| &h.shadow_batches);
                stats.shadow_docs += docs as u64;
            }
            Stage::Canary => b.count(&mut stats.canary_batches, |h| &h.canary_batches),
            Stage::Hold => stats.hold_batches += 1,
        }
    }
    buf.clear();
    buf.resize(docs, 0.0);
    let scored = catch_unwind(AssertUnwindSafe(|| {
        timed_score(b.clock, model, b.rows, buf)
    }));
    let nanos = scored.ok()?;
    if candidate {
        let latency = Duration::from_nanos(nanos);
        if let Some(span) = route.span {
            b.span(span, &model.version, nanos);
        }
        stats.candidate_latency.record(latency);
        if b.budget.is_some_and(|budget| latency > budget) {
            stats.deadline_degraded += 1;
        }
    }
    Some(nanos)
}

/// Collect per-query NDCG pairs from label-carrying requests:
/// `incumbent` and `candidate` are full-batch score slices.
fn collect_ndcg_pairs(
    stats: &mut CandidateStats,
    incumbent: &[f32],
    candidate: &[f32],
    metas: &[RequestMeta<'_>],
    k: usize,
) {
    let config = NdcgConfig::at(k);
    for meta in metas {
        let Some(labels) = meta.labels else { continue };
        if labels.len() != meta.docs {
            continue;
        }
        let end = meta.start.saturating_add(meta.docs);
        let (Some(inc), Some(cand)) = (
            incumbent.get(meta.start..end),
            candidate.get(meta.start..end),
        ) else {
            continue;
        };
        if let (Some(a), Some(b)) = (ndcg_at(inc, labels, config), ndcg_at(cand, labels, config)) {
            stats.ndcg_pairs.push((a, b));
        }
    }
}

impl BatchEngine for RegistryEngine {
    fn num_features(&self) -> usize {
        self.shared.num_features
    }

    fn score_batch(
        &mut self,
        rows: &[f32],
        out: &mut [f32],
        budget: Option<Duration>,
    ) -> Result<ServedBy, ScoreError> {
        self.score_batch_meta(rows, out, budget, &[])
    }

    fn score_batch_meta(
        &mut self,
        rows: &[f32],
        out: &mut [f32],
        budget: Option<Duration>,
        metas: &[RequestMeta<'_>],
    ) -> Result<ServedBy, ScoreError> {
        let shared = &*self.shared;
        let num_features = shared.num_features;
        if out.is_empty() {
            return Err(ScoreError::EmptyBatch);
        }
        if rows.len() != out.len().saturating_mul(num_features) {
            return Err(ScoreError::BatchShape {
                num_features,
                rows_len: rows.len(),
                out_len: out.len(),
            });
        }
        let batch = Batch {
            rows,
            budget,
            metas,
            clock: &*shared.clock,
            config: &shared.config,
            hooks: shared.obs.get(),
        };
        // The registry's one lock is held for the whole batch: control-
        // plane swaps land between micro-batches, never inside one.
        let mut state = lock_state(shared);
        let (served, version) = route_batch(&batch, &mut state, out, &mut self.scratch);
        self.last_served = Some(version);
        Ok(served)
    }

    fn served_version(&self) -> Option<Arc<str>> {
        self.last_served.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ManualClock;

    struct Constant {
        value: f32,
        features: usize,
    }

    impl DocumentScorer for Constant {
        fn num_features(&self) -> usize {
            self.features
        }
        fn score_batch(&mut self, _rows: &[f32], out: &mut [f32]) {
            out.fill(self.value);
        }
        fn name(&self) -> String {
            format!("const {}", self.value)
        }
    }

    fn registry(config: RolloutConfig) -> (ModelRegistry, RegistryEngine) {
        ModelRegistry::with_scorer(
            "v1",
            Box::new(Constant {
                value: 1.0,
                features: 2,
            }),
            b"artifact-v1".to_vec(),
            config,
            Arc::new(ManualClock::at(0)),
        )
    }

    #[test]
    fn fire_selects_the_exact_fraction_deterministically() {
        let mut acc = 0.0;
        let fired = (0..64).filter(|_| fire(&mut acc, 0.125)).count();
        assert_eq!(fired, 8);
        let mut acc = 0.0;
        assert_eq!((0..10).filter(|_| fire(&mut acc, 1.0)).count(), 10);
        let mut acc = 0.0;
        assert_eq!((0..10).filter(|_| fire(&mut acc, 0.0)).count(), 0);
    }

    /// The legality table: every control operation from every stage,
    /// each cell the exact result and the stage it leaves behind.
    #[test]
    fn staged_transitions_are_enforced() {
        use LifecycleError::{CandidateInFlight, NoCandidate, NothingToRollBack, WrongStage};
        use Stage::{Canary, Hold, Loaded, Shadow};
        type Op = fn(&ModelRegistry) -> Result<(), LifecycleError>;
        // The exact result and, when the operation is allowed, the stage
        // it lands in (`None`: no candidate left); a refused operation
        // leaves the stage as it was.
        type Cell = (Result<(), LifecycleError>, Option<Option<Stage>>);
        let load: Op = |r| {
            let scorer = Constant {
                value: 2.0,
                features: 2,
            };
            r.load_scorer("v2", Box::new(scorer), Vec::new())
        };
        // A fresh registry reaches each column by a prefix of this path
        // (the gate passes with no NDCG pairs).
        let path: [Op; 4] = [
            load,
            ModelRegistry::begin_shadow,
            ModelRegistry::begin_canary,
            ModelRegistry::promote,
        ];
        let columns = [None, Some(Loaded), Some(Shadow), Some(Canary), Some(Hold)];
        let in_flight = || {
            let err = CandidateInFlight {
                version: "v2".into(),
            };
            (Err(err), None)
        };
        let wrong = |operation, stage| (Err(WrongStage { operation, stage }), None);
        let ok = |to| (Ok(()), Some(to));
        // Rows are operations.
        let table: [(&str, Op, [Cell; 5]); 5] = [
            (
                "load_scorer",
                load,
                [
                    ok(Some(Loaded)),
                    in_flight(),
                    in_flight(),
                    in_flight(),
                    in_flight(),
                ],
            ),
            (
                "begin_shadow",
                ModelRegistry::begin_shadow,
                [
                    (Err(NoCandidate), None),
                    ok(Some(Shadow)),
                    wrong("begin shadow", Shadow),
                    wrong("begin shadow", Canary),
                    wrong("begin shadow", Hold),
                ],
            ),
            (
                "begin_canary",
                ModelRegistry::begin_canary,
                [
                    (Err(NoCandidate), None),
                    wrong("begin canary", Loaded),
                    ok(Some(Canary)),
                    wrong("begin canary", Canary),
                    wrong("begin canary", Hold),
                ],
            ),
            (
                "promote",
                ModelRegistry::promote,
                [
                    (Err(NoCandidate), None),
                    wrong("promote", Loaded),
                    ok(Some(Hold)),
                    ok(Some(Hold)),
                    wrong("promote", Hold),
                ],
            ),
            (
                "rollback",
                ModelRegistry::rollback,
                [
                    (Err(NothingToRollBack), None),
                    ok(None),
                    ok(None),
                    ok(None),
                    ok(None),
                ],
            ),
        ];
        let config = RolloutConfig {
            gate: GateConfig {
                min_queries: 0,
                ..GateConfig::default()
            },
            ..RolloutConfig::default()
        };
        for (name, op, row) in table {
            for (steps, (from, (result, lands))) in columns.into_iter().zip(row).enumerate() {
                let (registry, _engine) = registry(config);
                for step in path.iter().take(steps) {
                    step(&registry).expect("path to the column");
                }
                assert_eq!(registry.candidate_stage(), from);
                assert_eq!(op(&registry), result, "{name} from {from:?}");
                let after = lands.unwrap_or(from);
                assert_eq!(registry.candidate_stage(), after, "{name} from {from:?}");
            }
        }
    }

    #[test]
    fn feature_mismatch_is_rejected_with_an_event() {
        let (registry, _engine) = registry(RolloutConfig::default());
        let err = registry
            .load_scorer(
                "bad",
                Box::new(Constant {
                    value: 0.0,
                    features: 3,
                }),
                Vec::new(),
            )
            .expect_err("mismatch");
        assert!(matches!(err, LifecycleError::ArtifactRejected { .. }));
        assert!(registry.events().iter().any(
            |e| matches!(e, LifecycleEvent::LoadRejected { version, .. } if version == "bad")
        ));
        assert_eq!(registry.candidate_version(), None);
        assert_eq!(registry.active_version(), "v1");
    }

    #[test]
    fn corrupt_artifact_is_rejected_and_incumbent_keeps_serving() {
        let (registry, mut engine) = registry(RolloutConfig::default());
        let err = registry
            .load_artifact("v2", b"dlr-mlp v9 garbage")
            .expect_err("corrupt");
        assert!(matches!(err, LifecycleError::ArtifactRejected { .. }));
        let mut out = [0.0f32; 2];
        let by = engine
            .score_batch(&[0.0; 4], &mut out, None)
            .expect("served");
        assert_eq!(by, ServedBy::Primary);
        assert_eq!(out, [1.0, 1.0]);
        assert_eq!(engine.served_version().as_deref(), Some("v1"));
    }

    #[test]
    fn manual_rollback_without_history_is_typed() {
        let (registry, _engine) = registry(RolloutConfig::default());
        assert_eq!(registry.rollback(), Err(LifecycleError::NothingToRollBack));
    }
}
