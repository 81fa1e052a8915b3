//! End-to-end fault-injection suite for the robust serving layer.
//!
//! Wraps an expensive scorer in [`FaultInjectingScorer`] and drives it
//! through [`RobustScorer`], proving every degradation path: panics are
//! caught, poisoned/short outputs are rescued by the fallback, latency
//! spikes trip the deadline state machine and recovery follows the
//! configured hysteresis — with [`ServeStats`] counters matching the
//! injected fault counts exactly.

use distilled_ltr::core::fault::{Fault, FaultConfig, FaultInjectingScorer};
use distilled_ltr::core::scoring::DocumentScorer;
use distilled_ltr::core::serve::{DeadlinePolicy, RobustScorer, SanitizePolicy, ServeStats};
use std::sync::atomic::Ordering;
use std::time::Duration;

/// A deterministic linear scorer standing in for the distilled network.
struct Linear {
    weights: Vec<f32>,
}

impl Linear {
    fn new(weights: &[f32]) -> Linear {
        Linear {
            weights: weights.to_vec(),
        }
    }
}

impl DocumentScorer for Linear {
    fn num_features(&self) -> usize {
        self.weights.len()
    }

    fn score_batch(&mut self, rows: &[f32], out: &mut [f32]) {
        for (row, o) in rows.chunks_exact(self.weights.len()).zip(out.iter_mut()) {
            *o = row.iter().zip(&self.weights).map(|(x, w)| x * w).sum();
        }
    }

    fn name(&self) -> String {
        "linear".into()
    }
}

/// Suppress the default panic hook's stderr spam for injected panics
/// while leaving genuine test failures fully reported.
fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("injected fault") {
                default(info);
            }
        }));
    });
}

fn batch(nf: usize, n: usize, seed: usize) -> Vec<f32> {
    (0..n * nf)
        .map(|i| ((i + seed) % 13) as f32 * 0.25 - 1.0)
        .collect()
}

#[test]
fn panics_nans_and_short_writes_are_absorbed_with_exact_counts() {
    silence_injected_panics();
    let nf = 4;
    let schedule = vec![
        Fault::None,
        Fault::Panic,
        Fault::NanOutputs { count: 2 },
        Fault::ShortWrite { missing: 1 },
        Fault::None,
    ];
    let primary =
        FaultInjectingScorer::with_schedule(Linear::new(&[1.0, -0.5, 2.0, 0.25]), schedule);
    let counters = primary.counters();
    let mut robust = RobustScorer::new(primary, Linear::new(&[0.5, 0.5, 0.5, 0.5]), "serve");

    let total_batches = 10; // the 5-entry schedule cycles exactly twice
    for b in 0..total_batches {
        let n = 3 + b % 4;
        let rows = batch(nf, n, b);
        let mut out = vec![0.0f32; n];
        robust
            .try_score_batch(&rows, &mut out)
            .expect("well-formed batches must never error");
        assert!(
            out.iter().all(|s| s.is_finite()),
            "batch {b}: non-finite score escaped: {out:?}"
        );
    }

    // Injected counts, from the injector's own tallies.
    assert_eq!(counters.clean.load(Ordering::Relaxed), 4);
    assert_eq!(counters.panics.load(Ordering::Relaxed), 2);
    assert_eq!(counters.nan_batches.load(Ordering::Relaxed), 2);
    assert_eq!(counters.short_writes.load(Ordering::Relaxed), 2);
    assert_eq!(counters.total_faults(), 6);

    // The serving layer saw exactly those faults — nothing more, nothing
    // less. Every faulted batch was served by the fallback.
    let expected = ServeStats {
        batches: 10,
        primary_batches: 10,
        fallback_batches: 6,
        panics_caught: 2,
        rescued_outputs: 4, // 2 NaN batches + 2 short writes
        ..ServeStats::default()
    };
    assert_eq!(robust.stats(), expected);
}

#[test]
fn deadline_hysteresis_degrades_and_recovers() {
    let nf = 2;
    let spike = Duration::from_millis(80);
    // A clean linear batch over a handful of docs takes microseconds, so a
    // 20 ms deadline only trips on the injected 80 ms spikes.
    let policy = DeadlinePolicy {
        deadline: Duration::from_millis(20),
        trip_after: 2,
        probe_after: 3,
        recover_after: 2,
    };
    let schedule = vec![
        Fault::None,                // batch 1: on time
        Fault::LatencySpike(spike), // batch 2: miss 1
        Fault::LatencySpike(spike), // batch 3: miss 2 → degrade
        Fault::None,                // batch 7: probe, on time
        Fault::None,                // batch 8: probe, on time → recover
    ];
    let primary = FaultInjectingScorer::with_schedule(Linear::new(&[1.0, 1.0]), schedule);
    let counters = primary.counters();
    let mut robust =
        RobustScorer::new(primary, Linear::new(&[1.0, 0.0]), "serve").with_deadline(policy);

    let mut degraded_trace = Vec::new();
    for b in 0..9 {
        let rows = batch(nf, 4, b);
        let mut out = vec![0.0f32; 4];
        robust.try_score_batch(&rows, &mut out).unwrap();
        assert!(out.iter().all(|s| s.is_finite()), "batch {b}: {out:?}");
        degraded_trace.push(robust.is_degraded());
    }

    // Hysteresis, observed: healthy → tripped after two consecutive
    // misses → three fallback batches → two on-time probes → recovered.
    assert_eq!(
        degraded_trace,
        [false, false, true, true, true, true, true, false, false]
    );

    assert_eq!(counters.latency_spikes.load(Ordering::Relaxed), 2);
    assert_eq!(counters.clean.load(Ordering::Relaxed), 4);

    let expected = ServeStats {
        batches: 9,
        primary_batches: 6,  // batches 1-3, two probes, batch 9
        fallback_batches: 3, // degraded batches 4-6
        deadline_misses: 2,
        fallback_activations: 1,
        recoveries: 1,
        probes: 2,
        ..ServeStats::default()
    };
    assert_eq!(robust.stats(), expected);
}

#[test]
fn seeded_fault_stream_never_leaks_a_fault() {
    silence_injected_panics();
    let nf = 3;
    let config = FaultConfig {
        p_spike: 0.1,
        spike: Duration::ZERO, // spikes without a deadline only exercise the clean path
        p_nan: 0.1,
        p_panic: 0.1,
        p_short: 0.1,
    };
    let primary = FaultInjectingScorer::seeded(Linear::new(&[2.0, -1.0, 0.5]), 1234, config);
    let counters = primary.counters();
    let mut robust = RobustScorer::new(primary, Linear::new(&[1.0, 1.0, 1.0]), "serve")
        .with_sanitize(SanitizePolicy::clamp());

    let total = 200;
    for b in 0..total {
        let n = 1 + b % 7;
        let mut rows = batch(nf, n, b);
        // Sprinkle some dirty inputs too; the clamp policy must repair
        // them before either scorer sees them.
        if b % 11 == 0 {
            rows[0] = f32::NAN;
        }
        if b % 17 == 0 {
            rows[n * nf - 1] = f32::INFINITY;
        }
        let mut out = vec![0.0f32; n];
        robust.try_score_batch(&rows, &mut out).unwrap();
        assert!(
            out.iter().all(|s| s.is_finite()),
            "batch {b}: non-finite score escaped: {out:?}"
        );
    }

    let stats = robust.stats();
    assert_eq!(stats.batches, total as u64);
    assert_eq!(stats.primary_batches, total as u64);
    // Exact correspondence between injected and observed faults.
    assert_eq!(stats.panics_caught, counters.panics.load(Ordering::Relaxed));
    assert_eq!(
        stats.rescued_outputs,
        counters.nan_batches.load(Ordering::Relaxed)
            + counters.short_writes.load(Ordering::Relaxed)
    );
    assert_eq!(
        stats.fallback_batches,
        stats.panics_caught + stats.rescued_outputs
    );
    // The dirty inputs were repaired, not rejected.
    assert!(stats.sanitized_rows > 0);
    assert_eq!(stats.rejected_batches, 0);
    // With default-ish probabilities over 200 batches, each fault class
    // fires at least once — the suite genuinely exercised every path.
    assert!(counters.panics.load(Ordering::Relaxed) > 0);
    assert!(counters.nan_batches.load(Ordering::Relaxed) > 0);
    assert!(counters.short_writes.load(Ordering::Relaxed) > 0);
    assert!(counters.latency_spikes.load(Ordering::Relaxed) > 0);
}

#[test]
fn malformed_batches_are_rejected_not_panicked() {
    let primary = FaultInjectingScorer::with_schedule(Linear::new(&[1.0, 1.0]), Vec::new());
    let mut robust = RobustScorer::new(primary, Linear::new(&[1.0, 0.0]), "serve");

    // Wrong row width.
    let mut out = vec![0.0f32; 2];
    assert!(robust.try_score_batch(&[1.0, 2.0, 3.0], &mut out).is_err());
    // Zero-length batch.
    let mut empty: [f32; 0] = [];
    assert!(robust.try_score_batch(&[], &mut empty).is_err());
    // NaN under the reject policy.
    let mut robust = robust.with_sanitize(SanitizePolicy::Reject);
    assert!(robust
        .try_score_batch(&[1.0, f32::NAN, 3.0, 4.0], &mut out)
        .is_err());
    assert_eq!(robust.stats().rejected_batches, 3);

    // The DocumentScorer facade maps those errors to all-zero scores
    // instead of propagating a panic.
    let mut out = vec![9.0f32; 2];
    robust.score_batch(&[1.0, 2.0, 3.0], &mut out);
    assert_eq!(out, vec![0.0, 0.0]);
}
