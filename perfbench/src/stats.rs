//! Order statistics for latency samples.
//!
//! Percentiles use the nearest-rank rule: the p-th percentile of `n`
//! sorted samples is the sample at 1-based rank `ceil(p/100 · n)`. A
//! tail percentile is only reported when at least [`MIN_BEYOND`]
//! samples lie beyond its rank, so a "p99" over 400 samples (four
//! beyond it) is never printed as if it meant something.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first.
const TAILS: [f64; 5] = [99.0, 97.5, 95.0, 90.0, 75.0];

/// Nearest-rank percentile of already sorted samples; `None` if empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the rank of percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Sort a copy of the samples.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile_sorted(&sorted(samples), 50.0)
}

/// The highest tail percentile with at least [`MIN_BEYOND`] samples
/// beyond it: `(p, value)`. `None` when even p75 is not supported.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(samples);
    TAILS
        .iter()
        .find(|&&p| beyond(s.len(), p) >= MIN_BEYOND)
        .and_then(|&p| percentile_sorted(&s, p).map(|v| (p, v)))
}

/// Median, tail and count of one latency distribution.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub tail_p: f64,
    pub tail: f64,
}

pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let p50 = median(samples)?;
    let (tail_p, tail) = tail(samples)?;
    Some(Summary {
        count: samples.len(),
        p50,
        tail_p,
        tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        // rank(1000, 99) = 990: ten samples beyond → p99 is reportable.
        assert_eq!(tail(&thousand), Some((99.0, 990.0)));

        let four_hundred: Vec<f64> = (1..=400).map(f64::from).collect();
        // p99 would leave 4 beyond; p97.5 (rank 390) leaves exactly 10.
        assert_eq!(beyond(400, 99.0), 4);
        assert_eq!(tail(&four_hundred), Some((97.5, 390.0)));

        let few: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&few), None, "20 samples support no tail");
        assert!(summarize(&few).is_none());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = sorted(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(percentile_sorted(&s, 50.0), Some(3.0));
        assert_eq!(percentile_sorted(&s, 0.0), Some(1.0));
        assert_eq!(percentile_sorted(&s, 100.0), Some(5.0));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[2.0, 1.0]), Some(1.0));
    }
}
