//! Order statistics used by every report: medians, the tail-percentile
//! rule, and the quartile spread.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a latency distribution: the highest percentile that still
/// has at least `beyond` samples above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Percentile (0–100) the value sits at.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
}

/// Pick the highest percentile of `values` with at least `beyond` samples
/// strictly after it in sorted order.  The answer is the sample at sorted
/// index `n - beyond - 1`, which sits at percentile `100·(n - beyond)/n`.
/// With `beyond` or fewer samples there is no such percentile and the
/// median stands in (reported as percentile 50).
pub fn tail(values: &[f64], beyond: usize) -> Tail {
    let n = values.len();
    if n <= beyond {
        return Tail { percentile: 50.0, value: median(values), samples: n };
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = n - beyond - 1;
    Tail { percentile: 100.0 * (n - beyond) as f64 / n as f64, value: v[idx], samples: n }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples 1..=100: index 89 (value 90) has exactly 10 above it.
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&v, 10);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);

        // 24 samples: the sample with 10 above it is the 14th smallest.
        let v: Vec<f64> = (1..=24).map(f64::from).collect();
        let t = tail(&v, 10);
        assert_eq!(t.value, 14.0);
        assert!((t.percentile - 100.0 * 14.0 / 24.0).abs() < 1e-12);
    }

    #[test]
    fn tail_falls_back_to_the_median_when_too_few_samples() {
        let t = tail(&[5.0, 1.0, 3.0], 10);
        assert_eq!(t, Tail { percentile: 50.0, value: 3.0, samples: 3 });
    }
}
