//! Live model lifecycle: hot-swap registry, shadow scoring, canary
//! rollout, and automatic rollback.
//!
//! A serving deployment replaces its model many times over its life; the
//! dangerous moments are exactly those replacements. This module makes
//! them boring by forcing every candidate through a staged state machine
//! before — and a probation window after — it takes real traffic:
//!
//! ```text
//!            load ──────▶ Loaded ──begin_shadow──▶ Shadow
//!              │                                     │
//!   (corrupt / truncated /                     begin_canary
//!    dim-mismatch: rejected,                         │
//!    incumbent keeps serving)                        ▼
//!                                                 Canary ──promote──▶ Hold ──▶ settled
//!                                                    │    (Fisher gate)  │
//!                                                    └───── rollback ◀───┘
//!                                                     (manual, or automatic on
//!                                                      divergence / NaN-rescue /
//!                                                      deadline / p99 triggers)
//! ```
//!
//! * **Loaded** — the artifact parsed, its checksum verified, and its
//!   feature dimension matched the incumbent's. It serves nothing.
//! * **Shadow** — a configurable fraction of live batches is mirrored to
//!   the candidate *off the response path*: its scores are recorded,
//!   compared against the incumbent's (per-document divergence, NDCG
//!   pairs when the client supplied labels, latency histograms), and
//!   discarded. Clients always receive the incumbent's scores.
//! * **Canary** — a small deterministic slice of batches is *answered*
//!   by the candidate. An unhealthy canary batch (panic or non-finite
//!   scores) is rescued by rescoring with the incumbent and delivered
//!   as [`ServedBy::Fallback`].
//! * **Hold** — after [`ModelRegistry::promote`] (which consults the
//!   Fisher randomization gate over the shadow NDCG pairs) the candidate
//!   becomes the active model, but stays on probation: the previous
//!   incumbent keeps rescuing failures and mirror-checking a fraction of
//!   traffic until [`RolloutConfig::hold_batches`] clean batches settle
//!   the rollout.
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

impl RegistryObsHooks {
    /// Record a span of `stage` for `version` ending now and lasting
    /// `duration_nanos`, attributed to the dispatcher's current trace.
    /// The registry clock and the obs clock are the same injected server
    /// clock, so under `ManualClock` the bounds are exact.
    fn span_ending_now(&self, stage: dlr_obs::Stage, version: &Arc<str>, duration_nanos: u64) {
        let end = self.obs.now_nanos();
        self.obs.record_span(
            self.obs.current_trace(),
            stage,
            Some(Arc::clone(version)),
            end.saturating_sub(duration_nanos),
            end,
        );
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
    mirror: Vec<f32>,
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
            mirror: Vec::new(),
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
        let scorer = parse_artifact(version, &artifact, None)?;
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
        match parse_artifact(version, artifact, Some(self.shared.num_features)) {
            Ok(scorer) => self.load_scorer(version, scorer, artifact.to_vec()),
            Err(err) => {
                let mut state = lock_state(&self.shared);
                if let Some(h) = self.shared.obs.get() {
                    h.loads_rejected.inc();
                }
                state.events.push(LifecycleEvent::LoadRejected {
                    version: version.to_string(),
                    reason: err.to_string(),
                });
                Err(err)
            }
        }
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
        let got = scorer.num_features();
        let mut state = lock_state(&self.shared);
        if got != self.shared.num_features {
            let err = LifecycleError::ArtifactRejected {
                version: version.to_string(),
                reason: format!(
                    "feature dimension {got} does not match the registry's {}",
                    self.shared.num_features
                ),
            };
            if let Some(h) = self.shared.obs.get() {
                h.loads_rejected.inc();
            }
            state.events.push(LifecycleEvent::LoadRejected {
                version: version.to_string(),
                reason: err.to_string(),
            });
            return Err(err);
        }
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
        state.events.push(LifecycleEvent::Loaded {
            version: version.to_string(),
        });
        Ok(())
    }

    /// Loaded → Shadow: start mirroring traffic off the response path.
    ///
    /// # Errors
    /// [`LifecycleError::NoCandidate`] / [`LifecycleError::WrongStage`].
    pub fn begin_shadow(&self) -> Result<(), LifecycleError> {
        let mut state = lock_state(&self.shared);
        let cand = state
            .candidate
            .as_mut()
            .ok_or(LifecycleError::NoCandidate)?;
        if cand.stage != Stage::Loaded {
            return Err(LifecycleError::WrongStage {
                operation: "begin shadow",
                stage: cand.stage,
            });
        }
        cand.stage = Stage::Shadow;
        let version = cand.entry.version.to_string();
        state.events.push(LifecycleEvent::ShadowStarted { version });
        Ok(())
    }

    /// Shadow → Canary: start answering a deterministic traffic slice
    /// with the candidate.
    ///
    /// # Errors
    /// [`LifecycleError::NoCandidate`] / [`LifecycleError::WrongStage`].
    pub fn begin_canary(&self) -> Result<(), LifecycleError> {
        let mut state = lock_state(&self.shared);
        let cand = state
            .candidate
            .as_mut()
            .ok_or(LifecycleError::NoCandidate)?;
        if cand.stage != Stage::Shadow {
            return Err(LifecycleError::WrongStage {
                operation: "begin canary",
                stage: cand.stage,
            });
        }
        cand.stage = Stage::Canary;
        let version = cand.entry.version.to_string();
        state.events.push(LifecycleEvent::CanaryStarted { version });
        Ok(())
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
        let mut state = lock_state(&self.shared);
        let cand = state
            .candidate
            .as_mut()
            .ok_or(LifecycleError::NoCandidate)?;
        if cand.stage != Stage::Shadow && cand.stage != Stage::Canary {
            return Err(LifecycleError::WrongStage {
                operation: "promote",
                stage: cand.stage,
            });
        }
        let version = cand.entry.version.to_string();
        let (incumbent, candidate): (Vec<f64>, Vec<f64>) =
            cand.stats.ndcg_pairs.iter().copied().unzip();
        let err = match promotion_gate(&incumbent, &candidate, self.shared.config.gate) {
            GateDecision::Pass { .. } => {
                let replaced = state.active.version.to_string();
                state.previous = Some(Arc::clone(&state.active));
                // The candidate guard stays — `active` flips, and the Hold
                // machinery keeps the old incumbent as the rescue path.
                let promoted = state.candidate.as_ref().map(|c| Arc::clone(&c.entry));
                if let Some(entry) = promoted {
                    state.active = entry;
                }
                if let Some(cand) = state.candidate.as_mut() {
                    cand.stage = Stage::Hold;
                }
                if let Some(h) = self.shared.obs.get() {
                    h.promotions.inc();
                }
                state
                    .events
                    .push(LifecycleEvent::Promoted { version, replaced });
                return Ok(());
            }
            GateDecision::InsufficientData { have, need } => {
                LifecycleError::InsufficientData { have, need }
            }
            GateDecision::Blocked { outcome } => LifecycleError::GateBlocked {
                mean_diff: outcome.mean_diff,
                p_value: outcome.p_value,
            },
        };
        state.events.push(LifecycleEvent::PromotionBlocked {
            version,
            reason: err.to_string(),
        });
        Err(err)
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
        let mut state = lock_state(&self.shared);
        if state.candidate.is_some() {
            roll_back_candidate(&mut state, RollbackReason::Manual, self.shared.obs.get());
            return Ok(());
        }
        let Some(previous) = state.previous.take() else {
            return Err(LifecycleError::NothingToRollBack);
        };
        let displaced = std::mem::replace(&mut state.active, previous);
        let restored = state.active.version.to_string();
        if let Some(h) = self.shared.obs.get() {
            h.rollbacks.inc();
        }
        state.events.push(LifecycleEvent::RolledBack {
            version: displaced.version.to_string(),
            restored,
            reason: RollbackReason::Manual,
        });
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

/// Validate `artifact` as a `dlr-mlp v2` model and wrap it in a scorer.
/// `expect_features` is the registry's dimension, when there is an
/// incumbent to match.
fn parse_artifact(
    version: &str,
    artifact: &[u8],
    expect_features: Option<usize>,
) -> Result<Box<dyn DocumentScorer + Send>, LifecycleError> {
    let mlp = read_mlp_bytes(artifact).map_err(|e| LifecycleError::ArtifactRejected {
        version: version.to_string(),
        reason: e.to_string(),
    })?;
    if let Some(expected) = expect_features {
        if mlp.input_dim() != expected {
            return Err(LifecycleError::ArtifactRejected {
                version: version.to_string(),
                reason: format!(
                    "feature dimension {} does not match the registry's {expected}",
                    mlp.input_dim()
                ),
            });
        }
    }
    Ok(Box::new(MlpArtifactScorer {
        mlp,
        ws: MlpWorkspace::default(),
        label: format!("mlp:{version}"),
    }))
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

/// Score with `entry`'s scorer (panics propagate to the caller).
fn score_entry(entry: &ModelEntry, rows: &[f32], out: &mut [f32]) {
    let mut scorer = entry.scorer.lock().unwrap_or_else(PoisonError::into_inner);
    scorer.score_batch(rows, out);
}

/// Score with `entry`'s scorer, timed on `clock`; panics propagate.
fn timed_score(clock: &dyn Clock, entry: &ModelEntry, rows: &[f32], out: &mut [f32]) -> u64 {
    let t0 = clock.now_nanos();
    score_entry(entry, rows, out);
    clock.now_nanos().saturating_sub(t0)
}

/// Score with `entry`'s scorer under `catch_unwind`, timed. `None` on
/// panic.
fn guarded_timed_score(
    clock: &dyn Clock,
    entry: &ModelEntry,
    rows: &[f32],
    out: &mut [f32],
) -> Option<u64> {
    let t0 = clock.now_nanos();
    let result = catch_unwind(AssertUnwindSafe(|| score_entry(entry, rows, out)));
    let elapsed = clock.now_nanos().saturating_sub(t0);
    result.ok().map(|()| elapsed)
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

/// End the in-flight candidate's journey as rolled back: restore the
/// reference as active when the candidate held the active slot, emit
/// the event, and file the report.
fn roll_back_candidate(
    state: &mut LifecycleState,
    reason: RollbackReason,
    hooks: Option<&RegistryObsHooks>,
) {
    let Some(cand) = state.candidate.take() else {
        return;
    };
    if let Some(h) = hooks {
        h.rollbacks.inc();
    }
    let restored = Arc::clone(&cand.reference);
    if cand.stage == Stage::Hold {
        state.active = Arc::clone(&restored);
        state.previous = None;
    }
    state.events.push(LifecycleEvent::RolledBack {
        version: cand.entry.version.to_string(),
        restored: restored.version.to_string(),
        reason: reason.clone(),
    });
    state.last_report = Some(CandidateReport {
        version: cand.entry.version.to_string(),
        stage: cand.stage,
        stats: cand.stats,
        outcome: CandidateOutcome::RolledBack(reason),
    });
}

/// Run the watchdog and the Hold settle check after an observed batch.
fn after_observed_batch(
    state: &mut LifecycleState,
    config: &RolloutConfig,
    hooks: Option<&RegistryObsHooks>,
) {
    let verdict = state
        .candidate
        .as_ref()
        .and_then(|c| watchdog_verdict(&c.stats, config));
    if let Some(reason) = verdict {
        roll_back_candidate(state, reason, hooks);
        return;
    }
    let settled = state
        .candidate
        .as_ref()
        .is_some_and(|c| c.stage == Stage::Hold && c.stats.hold_batches >= config.hold_batches);
    if settled {
        if let Some(cand) = state.candidate.take() {
            state.events.push(LifecycleEvent::Settled {
                version: cand.entry.version.to_string(),
            });
            state.last_report = Some(CandidateReport {
                version: cand.entry.version.to_string(),
                stage: Stage::Hold,
                stats: cand.stats,
                outcome: CandidateOutcome::Settled,
            });
        }
    }
}

impl RegistryEngine {
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
            if let (Some(a), Some(b)) =
                (ndcg_at(inc, labels, config), ndcg_at(cand, labels, config))
            {
                stats.ndcg_pairs.push((a, b));
            }
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
        let num_features = self.shared.num_features;
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
        let clock = Arc::clone(&self.shared.clock);
        let config = self.shared.config;
        let hooks = self.shared.obs.get();
        // The registry's one lock is held for the whole batch: control-
        // plane swaps land between micro-batches, never inside one.
        let mut guard = lock_state(&self.shared);
        let state = &mut *guard;
        let active = Arc::clone(&state.active);

        let Some(cand) = state.candidate.as_mut() else {
            // Plain serving: no candidate in flight.
            score_entry(&active, rows, out);
            self.last_served = Some(Arc::clone(&active.version));
            return Ok(ServedBy::Primary);
        };

        let served = match cand.stage {
            Stage::Loaded => {
                // Validated but not yet shadowing: serve normally.
                score_entry(&active, rows, out);
                self.last_served = Some(Arc::clone(&active.version));
                ServedBy::Primary
            }
            Stage::Shadow => {
                let incumbent_nanos = timed_score(&*clock, &active, rows, out);
                if fire(&mut cand.shadow_acc, config.shadow_fraction) {
                    cand.stats.shadow_batches += 1;
                    cand.stats.shadow_docs += out.len() as u64;
                    if let Some(h) = hooks {
                        h.shadow_batches.inc();
                    }
                    self.scratch.clear();
                    self.scratch.resize(out.len(), 0.0);
                    match guarded_timed_score(&*clock, &cand.entry, rows, &mut self.scratch) {
                        None => cand.stats.shadow_panics += 1,
                        Some(candidate_nanos) => {
                            if let Some(h) = hooks {
                                h.span_ending_now(
                                    dlr_obs::Stage::Shadow,
                                    &cand.entry.version,
                                    candidate_nanos,
                                );
                            }
                            cand.stats
                                .incumbent_latency
                                .record(Duration::from_nanos(incumbent_nanos));
                            cand.stats
                                .candidate_latency
                                .record(Duration::from_nanos(candidate_nanos));
                            if budget.is_some_and(|b| Duration::from_nanos(candidate_nanos) > b) {
                                cand.stats.deadline_degraded += 1;
                            }
                            if self.scratch.iter().any(|s| !s.is_finite()) {
                                cand.stats.shadow_nan_batches += 1;
                            } else {
                                cand.stats.compared_docs += out.len() as u64;
                                let threshold = config.divergence_threshold;
                                cand.stats.divergent_docs +=
                                    out.iter()
                                        .zip(self.scratch.iter())
                                        .filter(|(a, b)| (**a - **b).abs() > threshold)
                                        .count() as u64;
                                Self::collect_ndcg_pairs(
                                    &mut cand.stats,
                                    out,
                                    &self.scratch,
                                    metas,
                                    config.ndcg_k,
                                );
                            }
                        }
                    }
                }
                // Shadow scores are recorded, never returned.
                self.last_served = Some(Arc::clone(&active.version));
                ServedBy::Primary
            }
            Stage::Canary => {
                if fire(&mut cand.canary_acc, config.canary_fraction) {
                    cand.stats.canary_batches += 1;
                    if let Some(h) = hooks {
                        h.canary_batches.inc();
                    }
                    self.scratch.clear();
                    self.scratch.resize(out.len(), 0.0);
                    let outcome =
                        guarded_timed_score(&*clock, &cand.entry, rows, &mut self.scratch);
                    let healthy = outcome.is_some() && self.scratch.iter().all(|s| s.is_finite());
                    if let Some(candidate_nanos) = outcome {
                        if let Some(h) = hooks {
                            h.span_ending_now(
                                dlr_obs::Stage::Canary,
                                &cand.entry.version,
                                candidate_nanos,
                            );
                        }
                        cand.stats
                            .candidate_latency
                            .record(Duration::from_nanos(candidate_nanos));
                        if budget.is_some_and(|b| Duration::from_nanos(candidate_nanos) > b) {
                            cand.stats.deadline_degraded += 1;
                        }
                    }
                    if healthy {
                        out.copy_from_slice(&self.scratch);
                        self.last_served = Some(Arc::clone(&cand.entry.version));
                        ServedBy::Primary
                    } else {
                        // Rescue: the incumbent rescores and answers.
                        cand.stats.rescues += 1;
                        if let Some(h) = hooks {
                            h.rescues.inc();
                            h.span_ending_now(dlr_obs::Stage::Rescue, &active.version, 0);
                        }
                        let incumbent_nanos = timed_score(&*clock, &active, rows, out);
                        cand.stats
                            .incumbent_latency
                            .record(Duration::from_nanos(incumbent_nanos));
                        self.last_served = Some(Arc::clone(&active.version));
                        ServedBy::Fallback
                    }
                } else {
                    let incumbent_nanos = timed_score(&*clock, &active, rows, out);
                    cand.stats
                        .incumbent_latency
                        .record(Duration::from_nanos(incumbent_nanos));
                    self.last_served = Some(Arc::clone(&active.version));
                    ServedBy::Primary
                }
            }
            Stage::Hold => {
                // The candidate IS the active model; the reference
                // incumbent rescues failures and mirror-checks a
                // fraction of traffic until the rollout settles.
                cand.stats.hold_batches += 1;
                self.scratch.clear();
                self.scratch.resize(out.len(), 0.0);
                let outcome = guarded_timed_score(&*clock, &cand.entry, rows, &mut self.scratch);
                let healthy = outcome.is_some() && self.scratch.iter().all(|s| s.is_finite());
                if let Some(candidate_nanos) = outcome {
                    cand.stats
                        .candidate_latency
                        .record(Duration::from_nanos(candidate_nanos));
                    if budget.is_some_and(|b| Duration::from_nanos(candidate_nanos) > b) {
                        cand.stats.deadline_degraded += 1;
                    }
                }
                if healthy {
                    out.copy_from_slice(&self.scratch);
                    if fire(&mut cand.shadow_acc, config.shadow_fraction) {
                        self.mirror.clear();
                        self.mirror.resize(out.len(), 0.0);
                        if let Some(reference_nanos) =
                            guarded_timed_score(&*clock, &cand.reference, rows, &mut self.mirror)
                        {
                            cand.stats
                                .incumbent_latency
                                .record(Duration::from_nanos(reference_nanos));
                            if self.mirror.iter().all(|s| s.is_finite()) {
                                cand.stats.compared_docs += out.len() as u64;
                                let threshold = config.divergence_threshold;
                                cand.stats.divergent_docs +=
                                    out.iter()
                                        .zip(self.mirror.iter())
                                        .filter(|(a, b)| (**a - **b).abs() > threshold)
                                        .count() as u64;
                            }
                        }
                    }
                    self.last_served = Some(Arc::clone(&cand.entry.version));
                    ServedBy::Primary
                } else {
                    cand.stats.rescues += 1;
                    if let Some(h) = hooks {
                        h.rescues.inc();
                        h.span_ending_now(dlr_obs::Stage::Rescue, &cand.reference.version, 0);
                    }
                    let reference_nanos = timed_score(&*clock, &cand.reference, rows, out);
                    cand.stats
                        .incumbent_latency
                        .record(Duration::from_nanos(reference_nanos));
                    self.last_served = Some(Arc::clone(&cand.reference.version));
                    ServedBy::Fallback
                }
            }
        };
        after_observed_batch(state, &config, hooks);
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

    #[test]
    fn staged_transitions_are_enforced() {
        let (registry, _engine) = registry(RolloutConfig::default());
        assert_eq!(registry.begin_shadow(), Err(LifecycleError::NoCandidate));
        registry
            .load_scorer(
                "v2",
                Box::new(Constant {
                    value: 2.0,
                    features: 2,
                }),
                b"artifact-v2".to_vec(),
            )
            .expect("load");
        assert_eq!(registry.candidate_stage(), Some(Stage::Loaded));
        // Canary before shadow is refused.
        assert_eq!(
            registry.begin_canary(),
            Err(LifecycleError::WrongStage {
                operation: "begin canary",
                stage: Stage::Loaded,
            })
        );
        // A second candidate is refused while one is in flight.
        assert_eq!(
            registry.load_scorer(
                "v3",
                Box::new(Constant {
                    value: 3.0,
                    features: 2
                }),
                Vec::new()
            ),
            Err(LifecycleError::CandidateInFlight {
                version: "v2".into()
            })
        );
        registry.begin_shadow().expect("shadow");
        registry.begin_canary().expect("canary");
        assert_eq!(registry.candidate_stage(), Some(Stage::Canary));
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
