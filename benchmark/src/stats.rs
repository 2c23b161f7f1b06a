//! Latency summaries: nearest-rank percentiles and the rule for which tail
//! percentile a sample supports.

/// The tail percentiles a report may quote, ascending, in per mille (whole
/// numbers keep the ten-samples rule free of float rounding).
const TAILS_PER_MILLE: [u64; 5] = [750, 900, 950, 990, 999];

/// Nearest-rank percentile of an ascending-sorted sample (`p` in 0..=1).
/// Returns 0 for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => {
            let rank = (p * n as f64).ceil() as usize;
            sorted[rank.clamp(1, n) - 1]
        }
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// The highest tail percentile with at least ten samples beyond it, or
/// `None` when even p75 has fewer (report the median alone then).
pub fn supported_tail(samples: usize) -> Option<f64> {
    TAILS_PER_MILLE
        .iter()
        .rev()
        .find(|&&pm| samples as u64 * (1000 - pm) / 1000 >= 10)
        .map(|&pm| pm as f64 / 1000.0)
}

/// One operation class's latency sample, in the unit the caller chose.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    sorted: Vec<f64>,
}

impl Latencies {
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Self { sorted: samples }
    }

    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile `p` (0..=1) of the sample.
    pub fn at(&self, p: f64) -> f64 {
        percentile(&self.sorted, p)
    }

    /// `(percentile, value)` of the highest tail the sample supports.
    pub fn tail(&self) -> Option<(f64, f64)> {
        supported_tail(self.sorted.len()).map(|p| (p, percentile(&self.sorted, p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond_the_percentile() {
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(40), Some(0.75));
        assert_eq!(supported_tail(99), Some(0.75));
        assert_eq!(supported_tail(100), Some(0.90));
        assert_eq!(supported_tail(199), Some(0.90));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(1_000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
        assert_eq!(supported_tail(1_000_000), Some(0.999));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 0.5), 50.0);
        assert_eq!(percentile(&sample, 0.95), 95.0);
        assert_eq!(percentile(&sample, 1.0), 100.0);
        assert_eq!(percentile(&sample, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn latencies_sort_their_input() {
        let lat = Latencies::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(lat.count(), 3);
        assert_eq!(lat.at(0.5), 2.0);
        assert_eq!(lat.tail(), None);
        assert_eq!(median(&mut [9.0, 1.0, 5.0]), 5.0);
    }
}
