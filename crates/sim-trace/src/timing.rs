//! Coarse wall-clock self-profiling: the named phase timers that run
//! manifests carry.

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Wall-clock durations of the coarse phases of one experiment run.
/// All values are host seconds (not simulated time).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseTimings {
    /// Workload generation / program tagging.
    pub generate_s: f64,
    /// Cache/predictor warm-up simulation.
    pub warmup_s: f64,
    /// Measured simulation window.
    pub measure_s: f64,
    /// AVF post-processing and report collection.
    pub collect_s: f64,
}

impl PhaseTimings {
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.warmup_s + self.measure_s + self.collect_s
    }

    /// Run `f`, adding its wall-clock time to the named accumulator.
    pub fn time<R>(slot: &mut f64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        *slot += start.elapsed().as_secs_f64();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn phase_timer_accumulates() {
        let mut timings = PhaseTimings::default();
        let out = PhaseTimings::time(&mut timings.warmup_s, || {
            std::thread::sleep(Duration::from_millis(2));
            42
        });
        assert_eq!(out, 42);
        assert!(timings.warmup_s > 0.0);
        assert!(timings.total_s() >= timings.warmup_s);
    }

    #[test]
    fn phase_timings_roundtrip_json() {
        let timings = PhaseTimings {
            generate_s: 0.5,
            warmup_s: 1.25,
            measure_s: 3.0,
            collect_s: 0.125,
        };
        let back: PhaseTimings = serde::json::from_str(&serde::json::to_string(&timings)).unwrap();
        assert_eq!(back, timings);
    }
}
