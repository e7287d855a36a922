//! Integer-bucket histograms.

use serde::{Deserialize, Serialize};
use sim_snapshot::{Snap, SnapError, SnapReader, SnapWriter};

/// A dense histogram over small non-negative integer values
/// (e.g. ready-queue length per cycle, 0..=IQ size).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one observation of `value`.
    pub fn record(&mut self, value: usize) {
        self.record_n(value, 1);
    }

    /// Record `n` observations of `value` (the same as `n` calls to
    /// [`Self::record`]).
    pub fn record_n(&mut self, value: usize, n: u64) {
        if n == 0 {
            return;
        }
        if value >= self.counts.len() {
            self.counts.resize(value + 1, 0);
        }
        self.counts[value] += n;
        self.total += n;
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    pub fn count(&self, value: usize) -> u64 {
        self.counts.get(value).copied().unwrap_or(0)
    }

    /// Largest value observed, or `None` if empty.
    pub fn max_value(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }

    /// Fraction of observations equal to `value`.
    pub fn fraction(&self, value: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(value) as f64 / self.total as f64
        }
    }

    /// Fraction of observations strictly less than `value`.
    pub fn fraction_below(&self, value: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let below: u64 = self.counts.iter().take(value).sum();
        below as f64 / self.total as f64
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(v, &c)| v as u64 * c)
            .sum();
        sum as f64 / self.total as f64
    }

    /// The value with the highest count (distribution peak).
    pub fn mode(&self) -> Option<usize> {
        self.counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .filter(|(_, &c)| c > 0)
            .map(|(v, _)| v)
    }

    /// Iterate `(value, count)` over observed buckets.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(v, &c)| (v, c))
    }
}

/// A histogram whose every bucket also accumulates a companion ratio —
/// the paper's Figure 2: for each ready-queue length, the average
/// percentage of ACE instructions among the ready instructions.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CompanionHistogram {
    hist: Histogram,
    /// Per-bucket sum of companion numerators and denominators.
    num: Vec<f64>,
    den: Vec<f64>,
}

impl CompanionHistogram {
    pub fn new() -> CompanionHistogram {
        CompanionHistogram::default()
    }

    /// Record an observation of `value` with a companion ratio sample
    /// `num/den` (skipped when `den == 0`).
    pub fn record(&mut self, value: usize, num: f64, den: f64) {
        self.record_n(value, num, den, 1);
    }

    /// Record `n` observations of `value`, each with the companion
    /// sample `num/den`. Bit-identical to `n` [`Self::record`] calls when
    /// the samples are whole numbers and the bucket sums stay below 2^53
    /// (every partial sum is then exact), as the pipeline's counts do.
    pub fn record_n(&mut self, value: usize, num: f64, den: f64, n: u64) {
        if n == 0 {
            return;
        }
        self.hist.record_n(value, n);
        if value >= self.num.len() {
            self.num.resize(value + 1, 0.0);
            self.den.resize(value + 1, 0.0);
        }
        self.num[value] += num * n as f64;
        self.den[value] += den * n as f64;
    }

    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }

    /// Mean companion ratio for a bucket, or `None` if never observed
    /// with a nonzero denominator.
    pub fn companion(&self, value: usize) -> Option<f64> {
        let den = *self.den.get(value)?;
        if den == 0.0 {
            None
        } else {
            Some(self.num[value] / den)
        }
    }

    /// Overall companion ratio across all buckets.
    pub fn companion_overall(&self) -> Option<f64> {
        let den: f64 = self.den.iter().sum();
        if den == 0.0 {
            None
        } else {
            Some(self.num.iter().sum::<f64>() / den)
        }
    }
}

impl Snap for Histogram {
    fn save(&self, w: &mut SnapWriter) {
        w.put(&self.counts);
        w.put(&self.total);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let counts: Vec<u64> = r.get()?;
        let total: u64 = r.get()?;
        if counts.iter().sum::<u64>() != total {
            return Err(SnapError::Corrupt("histogram total mismatch".into()));
        }
        Ok(Histogram { counts, total })
    }
}

impl Snap for CompanionHistogram {
    fn save(&self, w: &mut SnapWriter) {
        self.hist.save(w);
        w.put(&self.num);
        w.put(&self.den);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let hist = Histogram::load(r)?;
        let num: Vec<f64> = r.get()?;
        let den: Vec<f64> = r.get()?;
        if num.len() != den.len() {
            return Err(SnapError::Corrupt("companion array length mismatch".into()));
        }
        Ok(CompanionHistogram { hist, num, den })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_fractions() {
        let mut h = Histogram::new();
        for v in [1, 1, 2, 5] {
            h.record(v);
        }
        assert_eq!(h.total(), 4);
        assert_eq!(h.count(1), 2);
        assert!((h.fraction(1) - 0.5).abs() < 1e-12);
        assert!((h.fraction_below(2) - 0.5).abs() < 1e-12);
        assert_eq!(h.max_value(), Some(5));
        assert_eq!(h.mode(), Some(1));
        assert!((h.mean() - 2.25).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.max_value(), None);
        assert_eq!(h.mode(), None);
        assert_eq!(h.fraction(3), 0.0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn iter_skips_empty_buckets() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(7);
        let items: Vec<_> = h.iter().collect();
        assert_eq!(items, vec![(0, 1), (7, 1)]);
    }

    #[test]
    fn companion_tracks_per_bucket_ratio() {
        let mut c = CompanionHistogram::new();
        // Bucket 4: two samples, 3/4 and 1/4 ACE -> pooled 4/8 = 0.5.
        c.record(4, 3.0, 4.0);
        c.record(4, 1.0, 4.0);
        c.record(9, 9.0, 9.0);
        assert!((c.companion(4).unwrap() - 0.5).abs() < 1e-12);
        assert!((c.companion(9).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(c.companion(5), None);
        assert!((c.companion_overall().unwrap() - 13.0 / 17.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_buckets_read_as_empty() {
        let mut h = Histogram::new();
        h.record(3);
        // Reads past the densely allocated range are defined, not panics.
        assert_eq!(h.count(100), 0);
        assert_eq!(h.fraction(100), 0.0);
        assert!((h.fraction_below(100) - 1.0).abs() < 1e-12);
        assert_eq!(h.max_value(), Some(3));
    }

    #[test]
    fn companion_out_of_range_is_none() {
        let mut c = CompanionHistogram::new();
        c.record(2, 1.0, 2.0);
        assert_eq!(c.companion(3), None, "bucket past the allocated range");
        assert_eq!(c.companion(usize::MAX), None);
        assert_eq!(c.histogram().count(usize::MAX), 0);
    }

    #[test]
    fn record_n_is_bit_identical_to_repeated_record() {
        let samples = [(3, 2.0, 3.0), (0, 0.0, 0.0), (7, 5.0, 9.0), (3, 1.0, 3.0)];
        for k in [0u64, 1, 2, 17, 1_000] {
            let (mut once, mut each) = (CompanionHistogram::new(), CompanionHistogram::new());
            for &(v, num, den) in &samples {
                once.record_n(v, num, den, k);
                for _ in 0..k {
                    each.record(v, num, den);
                }
            }
            assert_eq!(once.hist.counts, each.hist.counts, "k={k}");
            assert_eq!(once.hist.total, each.hist.total, "k={k}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&once.num), bits(&each.num), "k={k}");
            assert_eq!(bits(&once.den), bits(&each.den), "k={k}");
        }
    }

    #[test]
    fn companion_zero_denominator_ignored() {
        let mut c = CompanionHistogram::new();
        c.record(0, 0.0, 0.0);
        assert_eq!(c.companion(0), None);
        assert_eq!(c.companion_overall(), None);
        assert_eq!(c.histogram().total(), 1, "the count itself still lands");
    }
}
