//! The exponentially weighted moving average of Section IV-B.

use serde::{Deserialize, Serialize};

/// `αY + (1 − α)·Sample`: the one spelling of the update, shared by
/// [`Ewma`] and the inline cells of [`crate::StatsDb`] so both round
/// identically.
#[inline]
pub(crate) fn blend(alpha: f64, y: f64, sample: f64) -> f64 {
    alpha * y + (1.0 - alpha) * sample
}

/// One EWMA-estimated parameter: `Y ← αY + (1 − α)·Sample`.
///
/// "0 ≤ α ≤ 1 is the coefficient that determines how sensitive the value
/// changes with instantaneous readings (the smaller the α, the more
/// sensitive)" — the paper uses α = 0.5. The first sample initialises `Y`
/// directly (there is no prior to average with).
///
/// # Example
///
/// ```
/// use tstorm_monitor::Ewma;
///
/// let mut y = Ewma::new(0.5);
/// y.update(400.0);               // first sample initialises
/// assert_eq!(y.update(800.0), 600.0); // 0.5·400 + 0.5·800
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an estimator with the given coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `[0, 1]`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&alpha),
            "alpha must be within [0, 1], got {alpha}"
        );
        Self { alpha, value: None }
    }

    /// Applies one sample and returns the new estimate.
    pub fn update(&mut self, sample: f64) -> f64 {
        let next = match self.value {
            None => sample,
            Some(y) => blend(self.alpha, y, sample),
        };
        self.value = Some(next);
        next
    }

    /// The current estimate, if any sample has been applied.
    #[must_use]
    pub fn get(&self) -> Option<f64> {
        self.value
    }

    /// The coefficient.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initialises() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.get(), None);
        assert_eq!(e.update(10.0), 10.0);
        assert_eq!(e.get(), Some(10.0));
    }

    #[test]
    fn update_matches_paper_formula() {
        let mut e = Ewma::new(0.5);
        e.update(10.0);
        // Y = 0.5*10 + 0.5*20 = 15
        assert_eq!(e.update(20.0), 15.0);
        // Y = 0.5*15 + 0.5*5 = 10
        assert_eq!(e.update(5.0), 10.0);
    }

    #[test]
    fn alpha_zero_tracks_sample_exactly() {
        let mut e = Ewma::new(0.0);
        e.update(100.0);
        assert_eq!(e.update(3.0), 3.0);
    }

    #[test]
    fn alpha_one_never_moves() {
        let mut e = Ewma::new(1.0);
        e.update(100.0);
        assert_eq!(e.update(3.0), 100.0);
    }

    #[test]
    fn estimate_stays_within_sample_range() {
        let mut e = Ewma::new(0.7);
        let samples = [5.0, 9.0, 1.0, 7.0, 3.0];
        for s in samples {
            let y = e.update(s);
            assert!((1.0..=9.0).contains(&y), "estimate {y} escaped range");
        }
    }

    #[test]
    #[should_panic(expected = "alpha must be within")]
    fn invalid_alpha_panics() {
        let _ = Ewma::new(1.5);
    }
}
