//! Medians and quartiles of repeated measurements.

/// Median, quartiles and sample count of one metric over a set of runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

/// Summarises `values`; `None` when there are none.
///
/// Quartiles use the "exclusive" interpolation of Python's
/// `statistics.quantiles(values, n=4)`, so the spreads this benchmark
/// prints equal the ones an outside script computes from the same runs
/// (with two samples that method extrapolates beyond them). A single
/// sample is its own median and quartiles.
#[must_use]
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let [q1, median, q3] = match n {
        0 => return None,
        1 => [sorted[0]; 3],
        _ => [1, 2, 3].map(|i| exclusive_quartile(&sorted, i)),
    };
    Some(Summary { q1, median, q3, n })
}

/// The `i`-th of the three cut points dividing `sorted` (at least two
/// values) into quarters, by Python's exclusive method.
fn exclusive_quartile(sorted: &[f64], i: usize) -> f64 {
    let len = sorted.len();
    let m = len + 1;
    let j = (i * m / 4).clamp(1, len - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quartiles(values: &[f64]) -> [f64; 3] {
        let s = summarize(values).expect("non-empty");
        [s.q1, s.median, s.q3]
    }

    // Expected values are what Python's statistics.quantiles returns.
    #[test]
    fn odd_count() {
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[1.0, 2.0, 10.0]), [1.0, 2.0, 10.0]);
    }

    #[test]
    fn even_count() {
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), [1.25, 2.5, 3.75]);
        // With two samples the exclusive method extrapolates.
        assert_eq!(quartiles(&[1.0, 3.0]), [0.5, 2.0, 3.5]);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
    }

    #[test]
    fn single_and_empty() {
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(summarize(&[7.0]).map(|s| s.n), Some(1));
        assert_eq!(summarize(&[]), None);
    }
}
