//! What a load phase will send, fixed before its clock starts. Every
//! schedule is a pure function of the seed and of request count, never of a
//! timing taken in the run, so two runs of one seed send the same requests
//! and meet each rollout step at the same request.

use crate::stats::Rng;

/// Due times in nanoseconds from phase start: a Poisson process of
/// `rate_per_s` over `seconds`.
pub fn poisson_arrivals(seed: u64, rate_per_s: f64, seconds: f64) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ 0xA881_7A15);
    let mut due = Vec::with_capacity((rate_per_s * seconds * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // 1 - u is in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.next_f64()).ln() / rate_per_s;
        if t >= seconds {
            return due;
        }
        due.push((t * 1e9) as u64);
    }
}

/// Documents in each of `count` requests, drawn from `(docs, share)` pairs
/// whose shares sum to 1.
pub fn request_sizes(seed: u64, mix: &[(usize, f64)], count: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x0005_12E5);
    (0..count)
        .map(|_| {
            let u = rng.next_f64();
            let mut acc = 0.0;
            for &(docs, share) in mix {
                acc += share;
                if u < acc {
                    return docs;
                }
            }
            mix.last().expect("a size mix has an entry").0
        })
        .collect()
}

/// Which of `count` responses are compared against direct scoring of the
/// same rows: a seeded one in a hundred.
pub fn audit_sample(seed: u64, count: usize) -> Vec<bool> {
    let mut rng = Rng::new(seed ^ 0x000A_0D17);
    (0..count)
        .map(|_| rng.next_u64().is_multiple_of(100))
        .collect()
}

/// One control-plane call of a model rollout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutStep {
    Load,
    Shadow,
    Canary,
    Promote,
}

/// The step the control plane takes once request number `sent` (counted
/// from 1 over the whole run) has been submitted, with one rollout every
/// `period` requests. Each step sits at a fixed eighth of its period; the
/// three eighths after `Promote` leave the hold window room to settle
/// before the next `Load`.
pub fn rollout_step(sent: u64, period: u64) -> Option<(u64, RolloutStep)> {
    let eighth = period / 8;
    let offset = sent % period;
    if eighth == 0 || !offset.is_multiple_of(eighth) {
        return None;
    }
    let step = match offset / eighth {
        1 => RolloutStep::Load,
        2 => RolloutStep::Shadow,
        4 => RolloutStep::Canary,
        5 => RolloutStep::Promote,
        _ => return None,
    };
    Some((sent / period + 1, step))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: [(usize, f64); 3] = [(64, 0.7), (16, 0.2), (256, 0.1)];

    #[test]
    fn same_seed_same_schedule_and_another_seed_another() {
        assert_eq!(
            poisson_arrivals(3, 800.0, 2.0),
            poisson_arrivals(3, 800.0, 2.0)
        );
        assert_ne!(
            poisson_arrivals(3, 800.0, 2.0),
            poisson_arrivals(4, 800.0, 2.0)
        );
        assert_eq!(request_sizes(3, &MIX, 500), request_sizes(3, &MIX, 500));
        assert_ne!(request_sizes(3, &MIX, 500), request_sizes(4, &MIX, 500));
        assert_eq!(audit_sample(3, 5_000), audit_sample(3, 5_000));
        assert_ne!(audit_sample(3, 5_000), audit_sample(4, 5_000));
    }

    #[test]
    fn arrivals_are_ordered_and_near_the_rate() {
        let due = poisson_arrivals(1, 4_000.0, 5.0);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(*due.last().expect("arrivals") < 5_000_000_000);
        let n = due.len() as f64;
        assert!((n - 20_000.0).abs() < 600.0, "{n} arrivals");
    }

    #[test]
    fn sizes_follow_the_mix() {
        let sizes = request_sizes(9, &MIX, 20_000);
        let share = |d: usize| sizes.iter().filter(|&&s| s == d).count() as f64 / 20_000.0;
        assert!((share(64) - 0.7).abs() < 0.02);
        assert!((share(16) - 0.2).abs() < 0.02);
        assert!((share(256) - 0.1).abs() < 0.02);
    }

    #[test]
    fn rollout_steps_depend_on_request_count_alone() {
        assert_eq!(rollout_step(999, 8_000), None);
        assert_eq!(rollout_step(1_000, 8_000), Some((1, RolloutStep::Load)));
        assert_eq!(rollout_step(3_000, 8_000), None);
        assert_eq!(rollout_step(5_000, 8_000), Some((1, RolloutStep::Promote)));
        assert_eq!(rollout_step(9_000, 8_000), Some((2, RolloutStep::Load)));
        assert_eq!(rollout_step(20_000, 8_000), Some((3, RolloutStep::Canary)));
        let steps = (1..=16_000).filter_map(|n| rollout_step(n, 8_000)).count();
        assert_eq!(steps, 8);
    }
}
