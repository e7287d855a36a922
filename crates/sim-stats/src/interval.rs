//! Per-interval sample series and the PVE metric.
//!
//! The paper samples workload behaviour in fixed 10K-cycle intervals
//! (Sections 2.2 and 5.1) and evaluates DVM by the *percentage of
//! vulnerability emergencies* — the fraction of intervals whose IQ AVF
//! exceeds the pre-set reliability target (Section 5.2).

use serde::{Deserialize, Serialize};
use sim_snapshot::{Snap, SnapError, SnapReader, SnapWriter};

/// A series of per-interval scalar samples (e.g. interval IQ AVF).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct IntervalSeries {
    samples: Vec<f64>,
}

impl IntervalSeries {
    pub fn new() -> IntervalSeries {
        IntervalSeries::default()
    }

    pub fn push(&mut self, value: f64) {
        self.samples.push(value);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Maximum sample (the paper's MaxIQ_AVF when applied to interval
    /// AVF values of a baseline run).
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(f64::MIN, f64::max)
    }

    /// Percentage of vulnerability emergencies: the fraction of intervals
    /// in which the sample exceeds `threshold`. Returns a value in `[0, 1]`.
    pub fn pve(&self, threshold: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let over = self.samples.iter().filter(|&&v| v > threshold).count();
        over as f64 / self.samples.len() as f64
    }

    /// Fraction of emergency intervals whose excursion over `threshold`
    /// is at most `margin` (the paper notes most MEM emergencies surpass
    /// the threshold by ≤ 2 % AVF).
    pub fn pve_within_margin(&self, threshold: f64, margin: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let slight = self
            .samples
            .iter()
            .filter(|&&v| v > threshold && v <= threshold + margin)
            .count();
        slight as f64 / self.samples.len() as f64
    }
}

impl Snap for IntervalSeries {
    fn save(&self, w: &mut SnapWriter) {
        w.put(&self.samples);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(IntervalSeries { samples: r.get()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(vals: &[f64]) -> IntervalSeries {
        let mut s = IntervalSeries::new();
        for &v in vals {
            s.push(v);
        }
        s
    }

    #[test]
    fn pve_counts_exceedances() {
        let s = series(&[0.1, 0.5, 0.3, 0.7]);
        assert!((s.pve(0.4) - 0.5).abs() < 1e-12);
        assert_eq!(s.pve(1.0), 0.0);
        assert_eq!(s.pve(0.0), 1.0);
    }

    #[test]
    fn pve_is_strict_exceedance() {
        let s = series(&[0.5, 0.5]);
        assert_eq!(s.pve(0.5), 0.0, "equal-to-threshold is not an emergency");
    }

    #[test]
    fn max_and_mean() {
        let s = series(&[0.2, 0.8, 0.5]);
        assert!((s.max() - 0.8).abs() < 1e-12);
        assert!((s.mean() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_series_is_safe() {
        let s = IntervalSeries::new();
        assert_eq!(s.pve(0.5), 0.0);
        assert_eq!(s.pve(0.0), 0.0, "no intervals means no emergencies");
        assert_eq!(s.pve_within_margin(0.5, 0.02), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn single_sample_series() {
        let s = series(&[0.42]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.pve(0.41), 1.0);
        assert_eq!(s.pve(0.42), 0.0);
        assert!((s.max() - 0.42).abs() < 1e-12);
        assert!((s.mean() - 0.42).abs() < 1e-12);
    }

    #[test]
    fn serde_roundtrip_preserves_samples() {
        let s = series(&[0.1, 0.9, 0.5]);
        let text = serde::json::to_string(&s);
        let back: IntervalSeries = serde::json::from_str(&text).unwrap();
        assert_eq!(back.samples(), s.samples());
    }

    #[test]
    fn margin_classification() {
        let s = series(&[0.51, 0.56, 0.4]);
        // threshold 0.5, margin 0.02: only 0.51 is a "slight" emergency.
        assert!((s.pve_within_margin(0.5, 0.02) - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.pve(0.5) - 2.0 / 3.0).abs() < 1e-12);
    }
}
