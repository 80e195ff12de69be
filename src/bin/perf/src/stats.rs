//! Order statistics for the ledger: medians, quartiles and the tail
//! percentile rule.
//!
//! Quartiles use the "exclusive" method of Python's
//! `statistics.quantiles(values, n=4)`, so the spreads this tool reports are
//! the same numbers a reader recomputes from the raw samples in Python.

/// Median, quartiles and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `values` (which must not be empty).
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "a summary needs at least one sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&sorted);
        Summary {
            n: sorted.len(),
            median: median(&sorted),
            q1,
            q3,
        }
    }

    /// Quartile spread as a share of the median (0 when the median is 0).
    pub fn rel_spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// Median of already sorted values.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile of already sorted values, by Python's
/// `statistics.quantiles(data, n=4, method="exclusive")`. A single sample
/// is its own quartiles.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let ld = sorted.len();
    if ld == 1 {
        return (sorted[0], sorted[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Percentiles the tail rule may report, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)`, using the nearest-rank definition. Fewer than
/// eleven samples have no such percentile; the median stands in and is
/// labelled 50.
pub fn tail_percentile(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "a tail needs at least one sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    for p in TAIL_PERCENTILES {
        let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        if n - rank >= 10 {
            return (p, sorted[rank - 1]);
        }
    }
    (50.0, median(&sorted))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).median, 2.0);
        assert_eq!(Summary::of(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
        assert_eq!(Summary::of(&[7.0]).median, 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert!(close(s.q1, 2.75) && close(s.q3, 8.25), "{s:?}");
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert!(close(s.q1, 1.5) && close(s.q3, 4.5), "{s:?}");
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = Summary::of(&[20.0, 10.0]);
        assert!(close(s.q1, 7.5) && close(s.q3, 22.5), "{s:?}");
        let s = Summary::of(&[3.0]);
        assert_eq!((s.q1, s.q3, s.n), (3.0, 3.0, 1));
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let s = Summary::of(&[9.0, 10.0, 10.0, 10.0, 11.0]);
        assert!(close(s.rel_spread(), (10.5 - 9.5) / 10.0), "{s:?}");
        assert_eq!(Summary::of(&[0.0]).rel_spread(), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        // p99 leaves 4 beyond, p95 leaves 20.
        assert_eq!(tail_percentile(&v), (95.0, 380.0));
        let v: Vec<f64> = (1..=160).map(f64::from).collect();
        // p95 leaves 8 beyond, p90 leaves 16.
        assert_eq!(tail_percentile(&v), (90.0, 144.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), (99.0, 990.0));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), (50.0, 10.0));
        assert_eq!(tail_percentile(&[4.0, 2.0, 3.0]), (50.0, 3.0));
    }
}
