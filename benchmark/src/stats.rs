//! Order statistics and the seeded generator every schedule is drawn from.

/// SplitMix64: small, seedable, and the same on every platform, so a
/// schedule is a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the driver's rule).
///
/// # Panics
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are finite"));
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The value a tenth of the way into `values` from the metric's better
/// side: the first decile for a metric that is better lower, the ninth for
/// one that is better higher (nearest rank).
///
/// Interference on the host (a neighbour's burst, a hypervisor stall, a
/// timer that overshoots) only ever makes a block worse, so the quiet end of
/// the blocks moves less from run to run than their median does, while a
/// change to the code moves every block. On the reference host the median of
/// the block p99s read 602 to 781 µs over six runs of one build, their
/// quiet decile 474 to 507 µs.
pub fn quiet_decile(values: &[f64], better_lower: bool) -> f64 {
    assert!(!values.is_empty(), "decile of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are finite"));
    let rank = v.len().div_ceil(10);
    if better_lower {
        v[rank - 1]
    } else {
        v[v.len() - rank]
    }
}

/// Percentile `p` of each block of `block` consecutive samples, by nearest
/// rank within the block; a trailing partial block is left out, unless it
/// is the only one.
pub fn block_percentiles(samples: &[u64], block: usize, p: f64) -> Vec<f64> {
    let nearest_rank = |chunk: &[u64]| {
        let mut sorted = chunk.to_vec();
        sorted.sort_unstable();
        let rank = (p * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1] as f64
    };
    if samples.len() < block {
        return vec![nearest_rank(samples)];
    }
    samples.chunks_exact(block).map(nearest_rank).collect()
}

/// Index into `n` sorted samples of percentile `p`, lowered until at least
/// ten samples lie beyond it: a tail read from fewer is one request's luck.
/// With eleven samples or fewer the index is 0.
pub fn tail_index(n: usize, p: f64) -> usize {
    let wanted = ((p * n as f64).ceil() as usize).saturating_sub(1);
    wanted.min(n.saturating_sub(11))
}

/// `samples` sorted ascending, read at [`tail_index`].
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    sorted[tail_index(sorted.len(), p)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_keeps_ten_samples_beyond_it() {
        // 1000 samples: rank 990 (index 989) has exactly ten beyond it.
        assert_eq!(tail_index(1000, 0.99), 989);
        // 500 samples: p99 would leave five beyond; lowered to leave ten.
        assert_eq!(tail_index(500, 0.99), 489);
        assert_eq!(tail_index(100_000, 0.99), 98_999);
        assert_eq!(tail_index(1000, 0.50), 499);
        assert_eq!(tail_index(5, 0.99), 0);
        let sorted: Vec<u64> = (0..500).collect();
        assert_eq!(percentile(&sorted, 0.99), 489);
    }

    #[test]
    fn block_median_ignores_one_outlier_block() {
        let mut blocks = vec![5.0; 39];
        blocks.push(50.0);
        assert_eq!(median(&blocks), 5.0);
        let mean = blocks.iter().sum::<f64>() / blocks.len() as f64;
        assert!(mean > 6.0, "the mean would have moved: {mean}");
    }

    #[test]
    fn quiet_decile_takes_the_better_side_and_ignores_slow_blocks() {
        // Half of the blocks ten times slower: the quiet decile of a
        // better-lower metric does not move, the median already has.
        let mut blocks = vec![5.0; 20];
        blocks.extend([50.0; 20]);
        assert_eq!(quiet_decile(&blocks, true), 5.0);
        assert_eq!(quiet_decile(&blocks, false), 50.0);
        assert_eq!(median(&blocks), 27.5);
        assert_eq!(quiet_decile(&[7.0], true), 7.0);
        // Nearest rank: the tenth of a hundred values from the better side.
        let ramp: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quiet_decile(&ramp, true), 10.0);
        assert_eq!(quiet_decile(&ramp, false), 91.0);
    }

    #[test]
    fn block_percentiles_rank_within_each_block() {
        let samples: Vec<u64> = (1..=250).collect();
        // Nearest rank: p99 of 100 samples is the 99th smallest.
        assert_eq!(block_percentiles(&samples, 100, 0.99), [99.0, 199.0]);
        assert_eq!(block_percentiles(&samples, 100, 0.50), [50.0, 150.0]);
        assert_eq!(block_percentiles(&samples[..30], 100, 0.99), [30.0]);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), [1.5, 4.0, 12.0]);
    }

    #[test]
    fn rng_is_a_function_of_its_seed() {
        let a: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7);
            move || r.next_u64()
        })
        .take(4)
        .collect();
        let b: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7);
            move || r.next_u64()
        })
        .take(4)
        .collect();
        assert_eq!(a, b);
        assert_ne!(a[0], Rng::new(8).next_u64());
        let u = Rng::new(1).next_f64();
        assert!((0.0..1.0).contains(&u));
    }
}
