//! The calculations behind the reported metrics.

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with
/// at least `q` of the samples at or below it. `NaN` when empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A timing distribution: its sample count, median and p99.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Samples.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
    /// Mean.
    pub mean: f64,
}

impl Dist {
    /// Summarizes `samples` (any order).
    pub fn of(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let mean = if n == 0 {
            f64::NAN
        } else {
            samples.iter().sum::<f64>() / n as f64
        };
        Self {
            n,
            p50: nearest_rank(&samples, 0.50),
            p99: nearest_rank(&samples, 0.99),
            mean,
        }
    }
}

/// Samples per block of the blocked estimates below: the smallest block
/// whose p99 has ten samples beyond it.
pub const BLOCK: usize = 1000;

/// Median, over consecutive blocks of [`BLOCK`] samples (in arrival
/// order), of each block's nearest-rank p99, and the number of blocks. A
/// host stall then spoils the blocks it falls in, not the estimate. With
/// fewer than [`BLOCK`] samples, the p99 of all of them as one block; a
/// trailing partial block is left out.
pub fn blocked_p99(samples: &[f64]) -> (f64, usize) {
    let blocks: Vec<f64> = if samples.len() < BLOCK {
        vec![Dist::of(samples.to_vec()).p99]
    } else {
        samples
            .chunks_exact(BLOCK)
            .map(|b| Dist::of(b.to_vec()).p99)
            .collect()
    };
    (median(&blocks), blocks.len())
}

/// Median, over consecutive blocks of [`BLOCK`] completions, of each
/// block's completions per second. `done` holds completion times and
/// `start` the time the traffic started, in the same unit (seconds).
pub fn blocked_rate(start: f64, done: &[f64]) -> f64 {
    let mut t = done.to_vec();
    t.sort_by(f64::total_cmp);
    if t.len() < BLOCK {
        return t.len() as f64 / (t.last().copied().unwrap_or(start) - start);
    }
    let rates: Vec<f64> = (0..t.len() / BLOCK)
        .map(|k| {
            let from = if k == 0 { start } else { t[k * BLOCK - 1] };
            BLOCK as f64 / (t[(k + 1) * BLOCK - 1] - from)
        })
        .collect();
    median(&rates)
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// (transport errors + non-2xx) ÷ attempted. A refused request is a
/// non-2xx answer, so it counts as failed.
pub fn fail_ratio(attempted: u64, transport_errors: u64, non_2xx: u64) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    (transport_errors + non_2xx) as f64 / attempted as f64
}

/// One rung of the open-loop rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Share of the rung's requests over the latency limit: answered late,
    /// failed, refused, or never answered.
    pub over: f64,
}

/// Share of requests a rung may have over the limit and still pass: the
/// limit applies to the p99.
pub const OVER_LIMIT_SHARE: f64 = 0.01;

/// The highest offered rate that meets the limit, interpolated between
/// the last passing rung and the first failing one (rungs in ascending
/// rate order) where the over-limit share crosses [`OVER_LIMIT_SHARE`].
/// Below the first rung the share is taken to rise from 0 at rate 0.
/// Returns `None` when no rung fails: the ladder never found the limit.
pub fn capacity(rungs: &[Rung]) -> Option<f64> {
    let b = rungs.iter().position(|r| r.over > OVER_LIMIT_SHARE)?;
    let (rate_a, over_a) = if b == 0 {
        (0.0, 0.0)
    } else {
        (rungs[b - 1].rate, rungs[b - 1].over)
    };
    let fail = rungs[b];
    let t = (OVER_LIMIT_SHARE - over_a) / (fail.over - over_a);
    Some(rate_a + (fail.rate - rate_a) * t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_with_counts() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.50), 50.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
        assert!(nearest_rank(&[], 0.5).is_nan());
        let d = Dist::of(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((d.n, d.p50, d.p99, d.mean), (5, 3.0, 5.0, 3.0));
        let big = Dist::of((0..2000).map(f64::from).collect());
        assert_eq!((big.n, big.p50, big.p99), (2000, 999.0, 1979.0));
    }

    #[test]
    fn blocked_estimates_shrug_off_one_stalled_block() {
        // Three blocks of 1..=1000 µs; a 50 ms stall hits 20 samples of one.
        let mut v: Vec<f64> = (0..3).flat_map(|_| (1..=1000).map(f64::from)).collect();
        for x in &mut v[1000..1020] {
            *x = 50_000.0;
        }
        assert_eq!(blocked_p99(&v), (990.0, 3));
        assert_eq!(blocked_p99(&v[..500]), (495.0, 1));
        // 1000 completions per second, except a block slowed to 500/s.
        let mut done: Vec<f64> = (1..=1000).map(|i| f64::from(i) / 1000.0).collect();
        done.extend((1..=1000).map(|i| 1.0 + f64::from(i) / 500.0));
        done.extend((1..=1000).map(|i| 3.0 + f64::from(i) / 1000.0));
        assert!((blocked_rate(0.0, &done) - 1000.0).abs() < 1e-6);
        assert!((blocked_rate(0.0, &done[..10]) - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn fail_ratio_counts_refusals_as_failures() {
        assert_eq!(fail_ratio(200, 0, 0), 0.0);
        assert_eq!(fail_ratio(200, 1, 3), 0.02);
        assert_eq!(fail_ratio(0, 0, 0), 0.0);
    }

    #[test]
    fn capacity_interpolates_between_rungs() {
        let rung = |rate, over| Rung { rate, over };
        // Share crosses 1% a quarter of the way from 1000 to 1200.
        let rungs = [
            rung(800.0, 0.0),
            rung(1000.0, 0.0),
            rung(1200.0, 0.04),
            rung(1400.0, 0.5),
        ];
        assert!((capacity(&rungs).unwrap() - 1050.0).abs() < 1e-9);
        // Not a step function: a slightly worse failing rung moves it.
        let worse = [rung(800.0, 0.0), rung(1000.0, 0.0), rung(1200.0, 0.05)];
        assert!(capacity(&worse).unwrap() < capacity(&rungs).unwrap());
        // A passing rung with some lateness pulls it toward that rung.
        let some = [rung(1000.0, 0.005), rung(1200.0, 0.015)];
        assert!((capacity(&some).unwrap() - 1100.0).abs() < 1e-9);
        // First rung already fails: interpolate from zero.
        assert!((capacity(&[rung(500.0, 0.02)]).unwrap() - 250.0).abs() < 1e-9);
        // The first failing rung decides, even if a later one passes.
        let noisy = [rung(1000.0, 0.0), rung(1200.0, 0.02), rung(1400.0, 0.0)];
        assert!((capacity(&noisy).unwrap() - 1100.0).abs() < 1e-9);
        assert_eq!(capacity(&[rung(1000.0, 0.0)]), None);
    }
}
