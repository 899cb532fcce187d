//! Order statistics: medians, percentiles with the "ten samples beyond" rule,
//! and the quartile spread the acceptance check uses.

/// Median of the samples (mean of the two middle ones for an even count).
/// `NaN` for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`p` in percent) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentiles the benchmark may report, ascending.
pub const TAIL_CANDIDATES: [f64; 4] = [90.0, 95.0, 99.0, 99.9];

/// The highest tail percentile that still has at least ten of the `n`
/// samples strictly beyond it, if any: a p95 needs 200 samples, a p99 needs
/// 1000. Below 100 samples only the median is reported.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.iter().copied().rfind(|p| {
        // Integer per-mille arithmetic: 99.9 % of 10 000 must rank
        // exactly 9 990, which floating point does not promise.
        let per_mille = (p * 10.0).round() as usize;
        let rank = (per_mille * n).div_ceil(1000);
        n.saturating_sub(rank) >= 10
    })
}

/// Latency summary of one operation class.
#[derive(Clone, Debug)]
pub struct Summary {
    pub count: usize,
    pub min: f64,
    pub p50: f64,
    pub max: f64,
    /// The highest supported tail percentile and its value.
    pub tail: Option<(f64, f64)>,
    sorted: Vec<f64>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail = highest_supported_percentile(sorted.len()).map(|p| (p, percentile(&sorted, p)));
        Summary {
            count: sorted.len(),
            min: sorted.first().copied().unwrap_or(f64::NAN),
            p50: median(&sorted),
            max: sorted.last().copied().unwrap_or(f64::NAN),
            tail,
            sorted,
        }
    }

    /// The `p`-th percentile when the sample supports it.
    pub fn supported(&self, p: f64) -> Option<f64> {
        highest_supported_percentile(self.count)
            .is_some_and(|best| p <= best)
            .then(|| percentile(&self.sorted, p))
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn a_tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(9), None);
        assert_eq!(highest_supported_percentile(99), None);
        // 100 samples: rank 90 leaves exactly ten beyond the p90.
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn summary_reports_only_supported_tails() {
        let few: Vec<f64> = (0..8).map(f64::from).collect();
        let s = Summary::of(&few);
        assert_eq!((s.count, s.min, s.max, s.p50), (8, 0.0, 7.0, 3.5));
        assert!(s.tail.is_none());
        assert!(s.supported(95.0).is_none());
        let many: Vec<f64> = (1..=400).map(f64::from).collect();
        let s = Summary::of(&many);
        assert_eq!(s.tail, Some((95.0, 380.0)));
        assert_eq!(s.supported(95.0), Some(380.0));
        assert!(s.supported(99.0).is_none());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1.0, 2.0, 4.0, 8.0, 16.0], n=4)
        //   == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), [1.5, 4.0, 12.0]);
        assert_eq!(quartile_spread(&v), 1.0);
    }
}
