//! Order statistics over timing samples.

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile `p` (0–100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Percentiles a tail is reported at, lowest first.
const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it, and its value; `None` below forty samples, where no
/// percentile above the median is a tail.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    tail_percentile(values.len() as u64).map(|p| (p, percentile(values, p)))
}

fn tail_percentile(samples: u64) -> Option<f64> {
    let n = samples as f64;
    if samples < 40 {
        return None;
    }
    TAIL_LADDER.iter().rev().copied().find(|p| n * (1.0 - p / 100.0) >= 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 39]), None);
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.0), Some(99.0));
        let v: Vec<f64> = (0..100_000).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.0), Some(99.99));
    }
}

/// Sub-buckets per power of two in [`Histogram`]: 0.4 % resolution.
const SUB_BUCKETS: usize = 256;

/// A log-linear histogram of nanosecond timings. It holds a run of any
/// length in fixed memory, so the sample count does not move the
/// process's resident size.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    pub fn new() -> Self {
        Histogram { counts: vec![0; 64 * SUB_BUCKETS], total: 0 }
    }

    fn bucket(ns: u64) -> usize {
        if ns < SUB_BUCKETS as u64 {
            return ns as usize;
        }
        let octave = 63 - ns.leading_zeros() as usize; // >= 8
        let shift = octave - 8;
        (shift + 1) * SUB_BUCKETS + ((ns >> shift) as usize - SUB_BUCKETS)
    }

    /// The `[lo, hi)` nanosecond range of bucket `i`.
    fn range(i: usize) -> (f64, f64) {
        if i < SUB_BUCKETS {
            return (i as f64, i as f64 + 1.0);
        }
        let shift = i / SUB_BUCKETS - 1;
        let lo = ((SUB_BUCKETS + i % SUB_BUCKETS) as u64) << shift;
        (lo as f64, (lo + (1u64 << shift)) as f64)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Percentile `p` (0–100) in nanoseconds, interpolated inside its
    /// bucket; 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = p / 100.0 * self.total as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (seen + c) as f64 >= rank {
                let (lo, hi) = Self::range(i);
                return lo + (hi - lo) * ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
            }
            seen += c;
        }
        Self::range(self.counts.len() - 1).1
    }

    /// As [`tail`], from the histogram.
    pub fn tail(&self) -> Option<(f64, f64)> {
        tail_percentile(self.total).map(|p| (p, self.percentile(p)))
    }
}

#[cfg(test)]
mod histogram_tests {
    use super::*;

    #[test]
    fn histogram_percentiles_track_exact_ones() {
        let mut h = Histogram::new();
        let values: Vec<f64> = (0..100_000u64).map(|i| (1000 + i * 37 % 90_000) as f64).collect();
        for &v in &values {
            h.record(v as u64);
        }
        assert_eq!(h.count(), 100_000);
        for p in [50.0, 99.0, 99.9] {
            let exact = percentile(&values, p);
            assert!((h.percentile(p) - exact).abs() / exact < 0.005, "p{p}");
        }
        for ns in [0u64, 255, 256, 257, 511, 512, 1 << 40] {
            let (lo, hi) = Histogram::range(Histogram::bucket(ns));
            assert!(lo <= ns as f64 && (ns as f64) < hi, "{ns} not in [{lo}, {hi})");
        }
    }
}
