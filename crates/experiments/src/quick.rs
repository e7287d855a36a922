//! Tiny smoke-run entry points used by doc examples and the umbrella
//! crate's quickstart.

use crate::context::{ExperimentContext, ExperimentParams};
use crate::runner::run_scheme;
use iq_reliability::Scheme;
use smt_sim::FetchPolicyKind;

/// A minimal demo configuration (tiny budgets; seconds, not minutes).
pub struct QuickConfig {
    ctx: ExperimentContext,
}

/// Summary of a smoke run.
pub struct QuickSummary {
    pub cycles: u64,
    pub ipc: f64,
    pub iq_avf: f64,
}

/// Build the demo configuration.
pub fn visa_demo_config() -> QuickConfig {
    let mut params = ExperimentParams::fast();
    params.profile_insts = 20_000;
    params.warmup_insts = 20_000;
    params.run_cycles = 30_000;
    QuickConfig {
        ctx: ExperimentContext::new(params),
    }
}

impl QuickConfig {
    /// Run VISA on the CPU-A mix for a handful of intervals.
    pub fn run_smoke(&self) -> QuickSummary {
        let mix = workload_gen::mix_by_name("CPU-A").expect("CPU-A");
        let out = run_scheme(&self.ctx, &mix, Scheme::Visa, FetchPolicyKind::Icount);
        QuickSummary {
            cycles: out.avf.cycles,
            ipc: out.stats.throughput_ipc(),
            iq_avf: out.avf.iq_avf,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_in_bounds() {
        let s = visa_demo_config().run_smoke();
        assert!(s.cycles > 0);
        assert!(s.ipc > 0.0 && s.ipc <= 8.0);
        assert!((0.0..=1.0).contains(&s.iq_avf));
    }
}
