//! Deterministic training-fault injection.
//!
//! The training-side sibling of `dlr-core::fault`'s serving injector: a
//! scripted plan of faults — NaN losses at chosen batch steps, a simulated
//! crash after a chosen epoch, on-disk corruption of a just-written
//! checkpoint — that the epoch loop (`train::run_epochs`) consults at
//! well-defined points. Every fault is counted when it fires, so the
//! integration suite can assert that detection and recovery statistics
//! match the injected plan *exactly*.
//!
//! Faults are scheduled, not sampled: a plan either lists explicit batch
//! steps or derives them from a seed via [`FaultPlan::seeded_nan`], and
//! two runs with the same plan inject identically.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// How an injected checkpoint corruption mangles the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptMode {
    /// Truncate the file to half its length (a torn write).
    Truncate,
    /// XOR one byte in the middle of the payload (bit rot).
    FlipByte,
}

/// A scripted set of training faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Global batch steps (0-based, monotone across the run, *including*
    /// replayed batches after a rollback) whose loss is poisoned to NaN.
    pub nan_loss_steps: BTreeSet<u64>,
    /// Simulate a crash after this epoch completes and its checkpoint is
    /// written: the driver stops with `TrainError::InjectedCrash`.
    pub crash_after_epoch: Option<usize>,
    /// Corrupt the checkpoint written at the end of this epoch.
    pub corrupt_after_epoch: Option<(usize, CorruptMode)>,
}

impl FaultPlan {
    /// Poison NaN losses at exactly these global batch steps.
    pub fn nan_at(steps: &[u64]) -> FaultPlan {
        FaultPlan {
            nan_loss_steps: steps.iter().copied().collect(),
            ..FaultPlan::default()
        }
    }

    /// Derive `count` distinct NaN-loss steps in `[0, span)` from `seed`.
    /// Deterministic: the same seed always yields the same schedule.
    pub fn seeded_nan(seed: u64, count: usize, span: u64) -> FaultPlan {
        assert!(span > 0, "span must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut steps = BTreeSet::new();
        while steps.len() < count.min(span as usize) {
            steps.insert(rng.random_range(0..span));
        }
        FaultPlan {
            nan_loss_steps: steps,
            ..FaultPlan::default()
        }
    }

    /// Add a crash after `epoch`.
    pub fn with_crash_after(mut self, epoch: usize) -> FaultPlan {
        self.crash_after_epoch = Some(epoch);
        self
    }

    /// Add a checkpoint corruption after `epoch`.
    pub fn with_corrupt_after(mut self, epoch: usize, mode: CorruptMode) -> FaultPlan {
        self.corrupt_after_epoch = Some((epoch, mode));
        self
    }
}

/// Exact counts of faults that actually fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// NaN losses injected.
    pub nan_injected: u64,
    /// Simulated crashes fired.
    pub crashes: u64,
    /// Checkpoint files corrupted on disk.
    pub corruptions: u64,
}

/// Consumes a [`FaultPlan`] during a training run, counting every fault
/// that fires. Each scheduled fault fires at most once.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// What has fired so far.
    pub counters: FaultCounters,
}

impl FaultInjector {
    /// Arm an injector with `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            counters: FaultCounters::default(),
        }
    }

    /// Whether the batch at `global_step` should have its loss poisoned.
    /// A step is consumed when it fires, so replayed step indices (which
    /// keep counting up after a rollback) cannot re-trigger it.
    pub fn poison_step(&mut self, global_step: u64) -> bool {
        if self.plan.nan_loss_steps.remove(&global_step) {
            self.counters.nan_injected += 1;
            true
        } else {
            false
        }
    }

    /// Whether the run should simulate a crash after `epoch`. Fires once.
    pub fn should_crash_after(&mut self, epoch: usize) -> bool {
        if self.plan.crash_after_epoch == Some(epoch) {
            self.plan.crash_after_epoch = None;
            self.counters.crashes += 1;
            true
        } else {
            false
        }
    }

    /// Corrupt `path` in place if the plan schedules a corruption after
    /// `epoch`. Returns whether a corruption was applied.
    ///
    /// # Errors
    /// Propagates I/O failures while mangling the file.
    pub fn corrupt_checkpoint(&mut self, epoch: usize, path: &Path) -> std::io::Result<bool> {
        match self.plan.corrupt_after_epoch {
            Some((e, mode)) if e == epoch => {
                self.plan.corrupt_after_epoch = None;
                corrupt_file(path, mode)?;
                self.counters.corruptions += 1;
                Ok(true)
            }
            _ => Ok(false),
        }
    }
}

/// Apply `mode` to the file at `path`.
fn corrupt_file(path: &Path, mode: CorruptMode) -> std::io::Result<()> {
    let mut file = OpenOptions::new().read(true).write(true).open(path)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    match mode {
        CorruptMode::Truncate => {
            file.set_len(bytes.len() as u64 / 2)?;
        }
        CorruptMode::FlipByte => {
            if !bytes.is_empty() {
                let at = bytes.len() / 2;
                file.seek(SeekFrom::Start(at as u64))?;
                file.write_all(&[bytes[at] ^ 0x40])?;
            }
        }
    }
    file.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_fire_once_and_are_counted() {
        let mut inj = FaultInjector::new(FaultPlan::nan_at(&[3, 7]));
        let fired: Vec<u64> = (0..10).filter(|&s| inj.poison_step(s)).collect();
        assert_eq!(fired, vec![3, 7]);
        assert_eq!(inj.counters.nan_injected, 2);
        // Replayed steps (monotone counter keeps going) cannot re-fire.
        assert!(!inj.poison_step(3));
        assert_eq!(inj.counters.nan_injected, 2);
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded_nan(9, 5, 100);
        let b = FaultPlan::seeded_nan(9, 5, 100);
        assert_eq!(a.nan_loss_steps, b.nan_loss_steps);
        assert_eq!(a.nan_loss_steps.len(), 5);
        assert!(a.nan_loss_steps.iter().all(|&s| s < 100));
    }

    #[test]
    fn crash_fires_once() {
        let mut inj = FaultInjector::new(FaultPlan::default().with_crash_after(2));
        assert!(!inj.should_crash_after(1));
        assert!(inj.should_crash_after(2));
        assert!(!inj.should_crash_after(2));
        assert_eq!(inj.counters.crashes, 1);
    }

    #[test]
    fn corruption_mangles_the_file() {
        let dir = std::env::temp_dir().join(format!("dlr-fault-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("victim.bin");
        std::fs::write(&path, vec![0xAAu8; 64]).unwrap();
        let mut inj =
            FaultInjector::new(FaultPlan::default().with_corrupt_after(0, CorruptMode::Truncate));
        assert!(inj.corrupt_checkpoint(0, &path).unwrap());
        assert_eq!(std::fs::read(&path).unwrap().len(), 32);
        assert_eq!(inj.counters.corruptions, 1);
        // Consumed: does not fire again.
        assert!(!inj.corrupt_checkpoint(0, &path).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
