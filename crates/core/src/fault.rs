//! Deterministic fault injection for serving-path tests.
//!
//! Faults enter from outside the serving stack, through the seams it
//! already has. [`FaultInjectingScorer`] wraps any [`DocumentScorer`] and
//! injects the failure modes a production reranker actually sees —
//! latency spikes, NaN scores, panics, and short writes — so the
//! integration suite can prove that [`crate::serve::RobustScorer`]
//! survives each one and that its [`crate::serve::ServeStats`] counters
//! match the injected fault counts exactly. The [`ServerFault`]s —
//! stalls, batch panics, deadline storms and trace pressure — are the
//! same idea one level up: `dlr-serve`'s `FaultInjectingEngine` applies
//! them around any batch engine, so the server's dispatcher runs only
//! what production runs. [`corrupt_artifact`] damages a model file
//! before it is loaded.
//!
//! Both wrappers draw one fault per batch from a [`FaultPlan`]: an
//! explicit per-batch script, or a seeded generator that draws from
//! configured probabilities. Both are reproducible: the same script or
//! seed yields the same fault sequence for the same batch order.
//! Injected counts are tracked in shared counters readable after the
//! wrapper has been moved into a server or a robust scorer.

use crate::scoring::DocumentScorer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which fault each batch gets, advanced once per batch.
pub struct FaultPlan<F> {
    pick: Box<dyn FnMut(usize) -> F + Send>,
    batch: usize,
}

impl<F: Copy + Default + Send + 'static> FaultPlan<F> {
    /// A finite script: batch `i` gets `script[i]`, and every batch past
    /// its end the clean default — so a test can poison exactly batch `k`.
    pub fn script(script: Vec<F>) -> FaultPlan<F> {
        FaultPlan::from_fn(move |i| script.get(i).copied().unwrap_or_default())
    }

    /// A script cycled over the batches; an empty one injects nothing.
    pub fn cycled(script: Vec<F>) -> FaultPlan<F> {
        FaultPlan::from_fn(move |i| match script.len() {
            0 => F::default(),
            n => script[i % n],
        })
    }

    /// A seeded draw: each batch gets `draw(u)` for the next uniform
    /// `u ∈ [0, 1)` of a generator seeded with `seed`.
    pub fn seeded(seed: u64, draw: impl Fn(f64) -> F + Send + 'static) -> FaultPlan<F> {
        let mut rng = StdRng::seed_from_u64(seed);
        FaultPlan::from_fn(move |_| draw(rng.random()))
    }

    fn from_fn(pick: impl FnMut(usize) -> F + Send + 'static) -> FaultPlan<F> {
        FaultPlan {
            pick: Box::new(pick),
            batch: 0,
        }
    }

    /// The next batch's fault.
    pub fn next_fault(&mut self) -> F {
        let fault = (self.pick)(self.batch);
        self.batch += 1;
        fault
    }
}

/// Panics unless `probabilities` sum to at most 1.
fn check_odds(probabilities: &[f64]) {
    let total: f64 = probabilities.iter().sum();
    assert!(
        (0.0..=1.0).contains(&total),
        "fault probabilities must sum to at most 1, got {total}"
    );
}

/// The fault of the first bucket whose cumulative probability exceeds
/// `u`, or the clean default when `u` falls past them all.
fn pick<F: Copy + Default>(u: f64, buckets: &[(f64, F)]) -> F {
    let mut edge = 0.0;
    for &(p, fault) in buckets {
        edge += p;
        if u < edge {
            return fault;
        }
    }
    F::default()
}

/// One injected failure mode.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum Fault {
    /// Score normally.
    #[default]
    None,
    /// Score normally, then stall for the given duration.
    LatencySpike(Duration),
    /// Score normally, then overwrite the first `count` outputs with NaN.
    NanOutputs {
        /// How many leading outputs to poison (clamped to the batch).
        count: usize,
    },
    /// Panic before writing any output.
    Panic,
    /// Score only the first `out.len() - missing` documents, leaving the
    /// tail of the output buffer untouched.
    ShortWrite {
        /// How many trailing outputs to leave unwritten.
        missing: usize,
    },
    /// Score normally, then shift every output by `offset` — a model
    /// whose scores are finite but systematically wrong. The lifecycle
    /// watchdog's score-divergence trigger exists for exactly this
    /// failure, which NaN/panic isolation cannot see.
    DivergentScores {
        /// Additive score shift applied to the whole batch.
        offset: f32,
    },
}

/// Shared tallies of injected faults (cloneable handle).
#[derive(Debug, Default)]
pub struct FaultCounters {
    /// Batches that ran without an injected fault.
    pub clean: AtomicU64,
    /// Injected latency spikes.
    pub latency_spikes: AtomicU64,
    /// Batches with poisoned NaN outputs.
    pub nan_batches: AtomicU64,
    /// Injected panics.
    pub panics: AtomicU64,
    /// Batches with an injected short write.
    pub short_writes: AtomicU64,
    /// Batches with an injected score divergence.
    pub divergent_batches: AtomicU64,
}

impl FaultCounters {
    /// Total batches that had any fault injected.
    pub fn total_faults(&self) -> u64 {
        self.latency_spikes.load(Ordering::Relaxed)
            + self.nan_batches.load(Ordering::Relaxed)
            + self.panics.load(Ordering::Relaxed)
            + self.short_writes.load(Ordering::Relaxed)
            + self.divergent_batches.load(Ordering::Relaxed)
    }
}

/// Probabilities for the seeded fault generator. Remaining mass scores
/// cleanly; the four probabilities must sum to at most 1.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Probability of a latency spike.
    pub p_spike: f64,
    /// Stall duration of an injected spike.
    pub spike: Duration,
    /// Probability of NaN outputs.
    pub p_nan: f64,
    /// Probability of a panic.
    pub p_panic: f64,
    /// Probability of a short write.
    pub p_short: f64,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            p_spike: 0.05,
            spike: Duration::from_millis(5),
            p_nan: 0.05,
            p_panic: 0.02,
            p_short: 0.03,
        }
    }
}

impl FaultConfig {
    /// The seeded plan these probabilities describe.
    ///
    /// # Panics
    /// Panics when the probabilities sum above 1.
    pub fn plan(self, seed: u64) -> FaultPlan<Fault> {
        check_odds(&[self.p_spike, self.p_nan, self.p_panic, self.p_short]);
        let buckets = [
            (self.p_spike, Fault::LatencySpike(self.spike)),
            (self.p_nan, Fault::NanOutputs { count: 1 }),
            (self.p_panic, Fault::Panic),
            (self.p_short, Fault::ShortWrite { missing: 1 }),
        ];
        FaultPlan::seeded(seed, move |u| pick(u, &buckets))
    }
}

/// A [`DocumentScorer`] wrapper that misbehaves on purpose.
pub struct FaultInjectingScorer<S> {
    /// The well-behaved scorer underneath.
    pub inner: S,
    plan: FaultPlan<Fault>,
    counters: Arc<FaultCounters>,
}

impl<S: DocumentScorer> FaultInjectingScorer<S> {
    /// Inject faults from an explicit schedule, cycled over batches.
    /// An empty schedule injects nothing.
    pub fn with_schedule(inner: S, schedule: Vec<Fault>) -> FaultInjectingScorer<S> {
        FaultInjectingScorer {
            inner,
            plan: FaultPlan::cycled(schedule),
            counters: Arc::new(FaultCounters::default()),
        }
    }

    /// Inject faults drawn per batch from `config`'s probabilities using a
    /// seeded generator — deterministic for a fixed seed and batch order.
    ///
    /// # Panics
    /// Panics when the probabilities sum above 1.
    pub fn seeded(inner: S, seed: u64, config: FaultConfig) -> FaultInjectingScorer<S> {
        FaultInjectingScorer {
            inner,
            plan: config.plan(seed),
            counters: Arc::new(FaultCounters::default()),
        }
    }

    /// Handle to the injected-fault tallies; stays readable after the
    /// scorer moves into a wrapper.
    pub fn counters(&self) -> Arc<FaultCounters> {
        Arc::clone(&self.counters)
    }
}

impl<S: DocumentScorer> DocumentScorer for FaultInjectingScorer<S> {
    fn num_features(&self) -> usize {
        self.inner.num_features()
    }

    fn score_batch(&mut self, rows: &[f32], out: &mut [f32]) {
        let nf = self.inner.num_features();
        match self.plan.next_fault() {
            Fault::None => {
                self.counters.clean.fetch_add(1, Ordering::Relaxed);
                self.inner.score_batch(rows, out);
            }
            Fault::LatencySpike(d) => {
                self.counters.latency_spikes.fetch_add(1, Ordering::Relaxed);
                self.inner.score_batch(rows, out);
                std::thread::sleep(d);
            }
            Fault::NanOutputs { count } => {
                self.counters.nan_batches.fetch_add(1, Ordering::Relaxed);
                self.inner.score_batch(rows, out);
                let k = count.max(1).min(out.len());
                out[..k].fill(f32::NAN);
            }
            Fault::Panic => {
                self.counters.panics.fetch_add(1, Ordering::Relaxed);
                panic!("injected fault: scorer panic");
            }
            Fault::ShortWrite { missing } => {
                self.counters.short_writes.fetch_add(1, Ordering::Relaxed);
                let n = out.len().saturating_sub(missing.max(1));
                self.inner.score_batch(&rows[..n * nf], &mut out[..n]);
            }
            Fault::DivergentScores { offset } => {
                self.counters
                    .divergent_batches
                    .fetch_add(1, Ordering::Relaxed);
                self.inner.score_batch(rows, out);
                for s in out.iter_mut() {
                    *s += offset;
                }
            }
        }
    }

    fn name(&self) -> String {
        format!("faulty({})", self.inner.name())
    }
}

/// One injected *server-level* failure mode — the things that go wrong
/// around the model rather than inside it: a batch that stalls the
/// dispatcher, a poisoned batch, a storm of requests whose deadlines are
/// already hopeless, or a flood of trace spans. `dlr-serve`'s
/// `FaultInjectingEngine` applies one per batch before the engine it
/// wraps scores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ServerFault {
    /// Score normally.
    #[default]
    None,
    /// Hold the batch for the given duration before scoring it — the
    /// dispatcher is busy, so the requests queued behind it age (and
    /// may expire) and the queue fills.
    Stall(Duration),
    /// Panic before scoring. A well-built server fails only this
    /// batch's requests.
    BatchPanic,
    /// Collapse this batch's propagated deadline budget to zero, as if
    /// every request in it arrived already out of time.
    DeadlineStorm,
    /// Flood the observability trace sink with a burst of synthetic
    /// spans before this batch is scored, forcing its rings to wrap. A
    /// well-built sink overwrites its oldest spans without ever blocking
    /// or reordering the dispatcher, so the batch's own requests are
    /// answered normally and the span accounting still balances.
    TracePressure {
        /// Synthetic spans to record before the batch is scored.
        spans: u32,
    },
}

/// Shared tallies of injected server faults (cloneable handle).
#[derive(Debug, Default)]
pub struct ServerFaultCounters {
    /// Batches scored without an injected fault.
    pub clean: AtomicU64,
    /// Injected stalls.
    pub stalls: AtomicU64,
    /// Injected batch panics.
    pub batch_panics: AtomicU64,
    /// Injected deadline storms.
    pub deadline_storms: AtomicU64,
    /// Injected trace-pressure span bursts.
    pub trace_pressure: AtomicU64,
}

impl ServerFaultCounters {
    /// Total batches that had any server fault injected.
    pub fn total_faults(&self) -> u64 {
        self.stalls.load(Ordering::Relaxed)
            + self.batch_panics.load(Ordering::Relaxed)
            + self.deadline_storms.load(Ordering::Relaxed)
            + self.trace_pressure.load(Ordering::Relaxed)
    }

    /// Count one applied fault.
    pub fn record(&self, fault: ServerFault) {
        let counter = match fault {
            ServerFault::None => &self.clean,
            ServerFault::Stall(_) => &self.stalls,
            ServerFault::BatchPanic => &self.batch_panics,
            ServerFault::DeadlineStorm => &self.deadline_storms,
            ServerFault::TracePressure { .. } => &self.trace_pressure,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Probabilities for the seeded server-fault generator. Remaining mass
/// scores cleanly; the three probabilities must sum to at most 1. Trace
/// pressure is never drawn — it exists to script sink-wrap tests exactly.
#[derive(Debug, Clone, Copy)]
pub struct ServerFaultConfig {
    /// Probability of a stall.
    pub p_stall: f64,
    /// Duration of an injected stall.
    pub stall: Duration,
    /// Probability of a batch panic.
    pub p_panic: f64,
    /// Probability of a deadline storm.
    pub p_storm: f64,
}

impl Default for ServerFaultConfig {
    fn default() -> ServerFaultConfig {
        ServerFaultConfig {
            p_stall: 0.06,
            stall: Duration::from_millis(2),
            p_panic: 0.02,
            p_storm: 0.02,
        }
    }
}

impl ServerFaultConfig {
    /// The seeded plan these probabilities describe.
    ///
    /// # Panics
    /// Panics when the probabilities sum above 1.
    pub fn plan(self, seed: u64) -> FaultPlan<ServerFault> {
        check_odds(&[self.p_stall, self.p_panic, self.p_storm]);
        let buckets = [
            (self.p_stall, ServerFault::Stall(self.stall)),
            (self.p_panic, ServerFault::BatchPanic),
            (self.p_storm, ServerFault::DeadlineStorm),
        ];
        FaultPlan::seeded(seed, move |u| pick(u, &buckets))
    }
}

/// One way to damage a serialized model artifact before it is loaded —
/// the lifecycle counterpart of the scorer- and server-level faults
/// above: the registry's `load` validation must reject every one of
/// these while the incumbent keeps serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactCorruption {
    /// Flip the low bit of the byte at `offset` (wrapped into the
    /// payload), breaking the checksum without changing the length.
    FlipByte {
        /// Byte offset to damage, taken modulo the artifact length.
        offset: usize,
    },
    /// Keep only the first `keep` bytes — a torn write.
    Truncate {
        /// Bytes to keep (clamped to the artifact length).
        keep: usize,
    },
    /// Replace the first line with a header no loader recognises.
    BadHeader,
}

/// Return a deterministically corrupted copy of `artifact`. The input is
/// never modified; the same corruption on the same bytes yields the same
/// damaged artifact, so load-rejection tests are exact.
pub fn corrupt_artifact(artifact: &[u8], corruption: ArtifactCorruption) -> Vec<u8> {
    match corruption {
        ArtifactCorruption::FlipByte { offset } => {
            let mut bytes = artifact.to_vec();
            if !bytes.is_empty() {
                let i = offset % bytes.len();
                bytes[i] ^= 0x01;
            }
            bytes
        }
        ArtifactCorruption::Truncate { keep } => artifact[..keep.min(artifact.len())].to_vec(),
        ArtifactCorruption::BadHeader => {
            let body_start = artifact
                .iter()
                .position(|&b| b == b'\n')
                .map_or(artifact.len(), |nl| nl + 1);
            let mut bytes = b"not-a-model v0\n".to_vec();
            bytes.extend_from_slice(&artifact[body_start..]);
            bytes
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sum;

    impl DocumentScorer for Sum {
        fn num_features(&self) -> usize {
            1
        }
        fn score_batch(&mut self, rows: &[f32], out: &mut [f32]) {
            out.copy_from_slice(rows);
        }
        fn name(&self) -> String {
            "sum".into()
        }
    }

    #[test]
    fn schedule_cycles_and_counts() {
        let mut f = FaultInjectingScorer::with_schedule(
            Sum,
            vec![Fault::None, Fault::NanOutputs { count: 1 }],
        );
        let counters = f.counters();
        let mut out = [0.0f32; 2];
        f.score_batch(&[1.0, 2.0], &mut out);
        assert_eq!(out, [1.0, 2.0]);
        f.score_batch(&[1.0, 2.0], &mut out);
        assert!(out[0].is_nan());
        assert_eq!(out[1], 2.0);
        f.score_batch(&[1.0, 2.0], &mut out); // schedule wraps to None
        assert_eq!(out, [1.0, 2.0]);
        assert_eq!(counters.clean.load(Ordering::Relaxed), 2);
        assert_eq!(counters.nan_batches.load(Ordering::Relaxed), 1);
        assert_eq!(counters.total_faults(), 1);
    }

    #[test]
    fn short_write_leaves_tail_untouched() {
        let mut f =
            FaultInjectingScorer::with_schedule(Sum, vec![Fault::ShortWrite { missing: 2 }]);
        let mut out = [7.0f32; 4];
        f.score_batch(&[1.0, 2.0, 3.0, 4.0], &mut out);
        assert_eq!(out, [1.0, 2.0, 7.0, 7.0]);
    }

    #[test]
    fn injected_panic_happens_after_counting() {
        let f = std::sync::Mutex::new(FaultInjectingScorer::with_schedule(Sum, vec![Fault::Panic]));
        let counters = f.lock().unwrap().counters();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = std::panic::catch_unwind(|| {
            let mut out = [0.0f32; 1];
            f.lock().unwrap().score_batch(&[1.0], &mut out);
        });
        std::panic::set_hook(prev);
        assert!(result.is_err());
        assert_eq!(counters.panics.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn divergent_scores_shift_every_output_and_count() {
        let mut f = FaultInjectingScorer::with_schedule(
            Sum,
            vec![Fault::DivergentScores { offset: 10.0 }, Fault::None],
        );
        let counters = f.counters();
        let mut out = [0.0f32; 2];
        f.score_batch(&[1.0, 2.0], &mut out);
        assert_eq!(out, [11.0, 12.0]);
        f.score_batch(&[1.0, 2.0], &mut out);
        assert_eq!(out, [1.0, 2.0]);
        assert_eq!(counters.divergent_batches.load(Ordering::Relaxed), 1);
        assert_eq!(counters.total_faults(), 1);
    }

    #[test]
    fn corrupt_artifact_is_deterministic_and_nondestructive() {
        let artifact = b"dlr-mlp v2 crc32 deadbeef len 5\nhello".to_vec();
        let flipped = corrupt_artifact(&artifact, ArtifactCorruption::FlipByte { offset: 3 });
        assert_eq!(flipped.len(), artifact.len());
        assert_ne!(flipped, artifact);
        assert_eq!(
            flipped,
            corrupt_artifact(&artifact, ArtifactCorruption::FlipByte { offset: 3 }),
        );
        let torn = corrupt_artifact(&artifact, ArtifactCorruption::Truncate { keep: 10 });
        assert_eq!(torn, artifact[..10].to_vec());
        let bad = corrupt_artifact(&artifact, ArtifactCorruption::BadHeader);
        assert!(bad.starts_with(b"not-a-model v0\n"));
        assert!(bad.ends_with(b"hello"));
        // The input is untouched.
        assert!(artifact.starts_with(b"dlr-mlp"));
        // Degenerate inputs do not panic.
        assert!(corrupt_artifact(&[], ArtifactCorruption::FlipByte { offset: 7 }).is_empty());
        assert!(corrupt_artifact(&[], ArtifactCorruption::Truncate { keep: 9 }).is_empty());
    }

    #[test]
    fn seeded_plan_is_deterministic() {
        let seq = |seed: u64| -> Vec<Fault> {
            let mut f = FaultInjectingScorer::seeded(Sum, seed, FaultConfig::default());
            (0..50).map(|_| f.plan.next_fault()).collect()
        };
        assert_eq!(seq(9), seq(9));
        assert_ne!(seq(9), seq(10), "different seeds should differ");
    }

    #[test]
    fn a_script_is_finite_and_counts_are_exact() {
        let mut p = FaultPlan::script(vec![
            ServerFault::None,
            ServerFault::BatchPanic,
            ServerFault::DeadlineStorm,
            ServerFault::Stall(Duration::from_millis(1)),
            ServerFault::TracePressure { spans: 500 },
        ]);
        let counters = ServerFaultCounters::default();
        let drawn: Vec<ServerFault> = (0..8).map(|_| p.next_fault()).collect();
        drawn.iter().for_each(|&f| counters.record(f));
        assert_eq!(drawn[1], ServerFault::BatchPanic);
        assert_eq!(drawn[4], ServerFault::TracePressure { spans: 500 });
        // Past the end of the script the plan is clean, not cyclic.
        assert_eq!(drawn[5..], [ServerFault::None; 3]);
        assert_eq!(counters.batch_panics.load(Ordering::Relaxed), 1);
        assert_eq!(counters.deadline_storms.load(Ordering::Relaxed), 1);
        assert_eq!(counters.stalls.load(Ordering::Relaxed), 1);
        assert_eq!(counters.trace_pressure.load(Ordering::Relaxed), 1);
        assert_eq!(counters.clean.load(Ordering::Relaxed), 4);
        assert_eq!(counters.total_faults(), 4);
    }

    #[test]
    fn seeded_server_plan_is_deterministic_and_never_draws_trace_pressure() {
        let seq = |seed: u64| -> Vec<ServerFault> {
            let mut p = ServerFaultConfig::default().plan(seed);
            (0..200).map(|_| p.next_fault()).collect()
        };
        assert_eq!(seq(3), seq(3));
        assert_ne!(seq(3), seq(4), "different seeds should differ");
        assert!(seq(11)
            .iter()
            .all(|f| !matches!(f, ServerFault::TracePressure { .. })));
    }

    #[test]
    #[should_panic(expected = "sum to at most 1")]
    fn overfull_server_probabilities_rejected() {
        let cfg = ServerFaultConfig {
            p_stall: 0.6,
            p_panic: 0.6,
            ..Default::default()
        };
        let _ = cfg.plan(1);
    }

    #[test]
    #[should_panic(expected = "sum to at most 1")]
    fn overfull_probabilities_rejected() {
        let cfg = FaultConfig {
            p_spike: 0.5,
            p_nan: 0.5,
            p_panic: 0.5,
            ..Default::default()
        };
        FaultInjectingScorer::seeded(Sum, 1, cfg);
    }
}
