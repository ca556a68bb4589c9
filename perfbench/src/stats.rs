//! Order statistics under the benchmark's reporting rule: a percentile is
//! reported only where at least ten samples lie beyond it, and every reported
//! figure carries its sample count.

/// The percentiles the benchmark ever reports, highest last.
pub const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples that must lie strictly beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// One reported percentile with the sample count it rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    /// Which percentile (50 = median).
    pub p: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// How many samples it was taken over.
    pub n: usize,
}

/// Number of samples that lie beyond percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Nearest-rank index (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Percentile `p` of `samples`, or `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<Pct> {
    if samples.is_empty() || beyond(samples.len(), p) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Pct {
        p,
        value: sorted[rank(sorted.len(), p) - 1],
        n: sorted.len(),
    })
}

/// The highest percentile of [`LADDER`] that `basis` samples support.
///
/// A run that takes more samples than its workload guarantees still reports
/// the percentile the guaranteed count supports, so the figure names the
/// same percentile on a fast machine and a slow one.
pub fn tail_percentile(basis: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| basis > 0 && beyond(basis, p) >= MIN_BEYOND)
}

/// The median, whatever the sample count (for figures that are not
/// percentiles of a latency distribution, such as a per-pass rate).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Geometric mean; 1 (no change) for an empty set.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean; NaN for an empty set.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the functions must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // 20 samples: exactly 10 lie beyond the median, none beyond p90's
        // required 10.
        let s = ramp(20);
        assert_eq!(percentile(&s, 50.0).map(|p| p.value), Some(10.0));
        assert_eq!(percentile(&s, 90.0), None);
        // 19 samples leave only 9 beyond the median.
        assert_eq!(percentile(&ramp(19), 50.0), None);
        // 100 samples support p90 (10 beyond) but not p99.
        let s = ramp(100);
        assert_eq!(percentile(&s, 90.0).map(|p| p.value), Some(90.0));
        assert_eq!(percentile(&s, 99.0), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        // 1000 samples support p99; p99.9 needs 10 000.
        let t = percentile(&ramp(1000), 99.0).expect("p99 is supported");
        assert_eq!((t.p, t.value, t.n), (99.0, 990.0, 1000));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn beyond_counts_samples_strictly_above_the_rank() {
        assert_eq!(beyond(20, 50.0), 10);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
    }

    #[test]
    fn median_geomean_and_mean_on_hand_built_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
