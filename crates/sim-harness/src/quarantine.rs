//! Quarantine registry: sideline jobs that keep failing so the rest of
//! the campaign can complete. The registry lives in memory for one
//! campaign; [`Quarantine::report`] is what the campaign manifest and
//! the bench and fault-inject reports record as their quarantined
//! section.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::error::JobError;
use crate::journal::JobKey;

/// One quarantined job, as reported in the campaign manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantineEntry {
    pub key: JobKey,
    /// Total failed attempts before quarantine.
    pub failures: u32,
    /// The last error observed — usually the most informative one.
    pub error: JobError,
}

/// Tracks per-job failure counts and quarantines a job once it reaches
/// `threshold` failures. A quarantined job is never retried again in
/// this campaign; it appears in [`Quarantine::report`] instead of
/// silently vanishing from the results.
#[derive(Debug)]
pub struct Quarantine {
    threshold: u32,
    counts: HashMap<JobKey, u32>,
    entries: Vec<QuarantineEntry>,
}

impl Quarantine {
    /// `threshold` is clamped to at least 1 (a threshold of 0 would
    /// quarantine jobs that never failed).
    pub fn new(threshold: u32) -> Quarantine {
        Quarantine {
            threshold: threshold.max(1),
            counts: HashMap::new(),
            entries: Vec::new(),
        }
    }

    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Record one failed attempt. Returns `true` when this failure
    /// crosses the threshold and the job becomes newly quarantined.
    pub fn record_failure(&mut self, key: &JobKey, err: &JobError) -> bool {
        let count = self.counts.entry(key.clone()).or_insert(0);
        *count += 1;
        if *count == self.threshold {
            self.entries.push(QuarantineEntry {
                key: key.clone(),
                failures: *count,
                error: err.clone(),
            });
            true
        } else {
            false
        }
    }

    pub fn is_quarantined(&self, key: &JobKey) -> bool {
        self.counts
            .get(key)
            .map(|c| *c >= self.threshold)
            .unwrap_or(false)
    }

    pub fn failures(&self, key: &JobKey) -> u32 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Quarantined jobs in the order they were quarantined.
    pub fn report(&self) -> Vec<QuarantineEntry> {
        self.entries.clone()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JobKey;

    fn key(seed: u64) -> JobKey {
        JobKey::new("fig1", "base", seed, 0)
    }

    fn err() -> JobError {
        JobError::Panic {
            message: "boom".into(),
        }
    }

    #[test]
    fn quarantines_at_threshold() {
        let mut q = Quarantine::new(3);
        assert!(!q.record_failure(&key(1), &err()));
        assert!(!q.is_quarantined(&key(1)));
        assert!(!q.record_failure(&key(1), &err()));
        assert!(q.record_failure(&key(1), &err())); // third strike
        assert!(q.is_quarantined(&key(1)));
        // Further failures don't re-report it as newly quarantined.
        assert!(!q.record_failure(&key(1), &err()));
        assert_eq!(q.failures(&key(1)), 4);
        assert_eq!(q.report().len(), 1);
        assert_eq!(q.report()[0].failures, 3);
    }

    #[test]
    fn jobs_are_tracked_independently() {
        let mut q = Quarantine::new(2);
        q.record_failure(&key(1), &err());
        q.record_failure(&key(2), &err());
        assert!(!q.is_quarantined(&key(1)));
        assert!(!q.is_quarantined(&key(2)));
        assert!(q.record_failure(&key(2), &err()));
        assert!(q.is_quarantined(&key(2)));
        assert!(!q.is_quarantined(&key(1)));
    }

    #[test]
    fn threshold_zero_clamps_to_one() {
        let mut q = Quarantine::new(0);
        assert_eq!(q.threshold(), 1);
        assert!(q.record_failure(&key(1), &err()));
        assert!(q.is_quarantined(&key(1)));
    }

    #[test]
    fn entry_records_last_error_kind() {
        let mut q = Quarantine::new(1);
        let e = JobError::Deadline { limit_ms: 100 };
        q.record_failure(&key(9), &e);
        let report = q.report();
        assert_eq!(report[0].error, e);
        assert_eq!(report[0].key, key(9));
    }
}
