//! Shared helpers for the Criterion benchmark targets (see `benches/`).
//!
//! Three bench families:
//! * `hot_loops` — the simulator's inner loops in isolation (pipeline
//!   stepping, ACE analysis, the AVF collector, offline profiling, cache
//!   and predictor microbenches, the checkpoint encode and its CRC) —
//!   the numbers that matter when scaling runs up.
//! * `exhibits` — one regeneration harness per paper table/figure at a
//!   micro measurement budget, so `cargo bench` exercises every
//!   experiment path end to end.
//! * `ablations` — the design-parameter sweeps the paper reports doing
//!   (opt1 region count, Tcache_miss, interval size, DVM trigger
//!   fraction, wq_ratio adaptation), printing the metric outcomes
//!   alongside the timing.

use avf::{profiler, AvfCollector};
use iq_reliability::Scheme;
use smt_sim::pipeline::PipelinePolicies;
use smt_sim::{FetchPolicyKind, MachineConfig, Pipeline, SimLimits};
use std::sync::Arc;
use workload_gen::{mix_by_name, Program};

/// Profiled programs for a standard mix (tiny profile budget).
pub fn tagged_mix(name: &str) -> Vec<Arc<Program>> {
    let mix = mix_by_name(name).expect("standard mix");
    mix.programs()
        .iter()
        .map(|p| profiler::profile_and_tag(p, 30_000, 40_000).0)
        .collect()
}

/// Build a warmed pipeline for a mix under a scheme.
pub fn warmed_pipeline(
    programs: &[Arc<Program>],
    scheme: Scheme,
    fetch: FetchPolicyKind,
) -> Pipeline {
    let machine = MachineConfig::table2();
    let (policies, _) = scheme.policies(fetch, machine.iq_size);
    let mut p = Pipeline::new(machine, programs.to_vec(), policies);
    p.warm_up(80_000);
    p
}

/// Run a scheme for a micro cycle budget; returns (iq_avf, ipc).
pub fn micro_run(
    programs: &[Arc<Program>],
    scheme: Scheme,
    fetch: FetchPolicyKind,
    cycles: u64,
) -> (f64, f64) {
    let machine = MachineConfig::table2();
    let (policies, _) = scheme.policies(fetch, machine.iq_size);
    let mut p = Pipeline::new(machine.clone(), programs.to_vec(), policies);
    let start = p.warm_up(80_000);
    let mut col = AvfCollector::standard(&machine).with_start_cycle(start);
    let r = p.run(SimLimits::cycles(cycles), &mut col);
    (col.report().iq_avf, r.stats.throughput_ipc())
}

/// A bare pipeline with default policies (no warmup).
pub fn cold_pipeline(programs: &[Arc<Program>]) -> Pipeline {
    Pipeline::new(
        MachineConfig::table2(),
        programs.to_vec(),
        PipelinePolicies::default(),
    )
}
