//! Figures 8 and 9 — DVM efficiency and its performance impact.
//!
//! For reliability targets 0.7–0.3 × MaxIQ_AVF (MaxIQ_AVF measured per
//! mix on its own baseline run): the percentage of vulnerability
//! emergencies (PVE) without and with DVM, plus throughput and harmonic
//! IPC degradation. Figure 8 uses ICOUNT as the fetch policy, Figure 9
//! uses FLUSH; both come from [`run_with_fetch`].
//!
//! Expected shape: DVM eliminates the vast majority of emergencies at
//! every threshold; the performance cost grows as the target tightens;
//! MIX throughput can improve while its harmonic IPC degrades most
//! (fairness is traded for throughput).

use crate::context::ExperimentContext;
use crate::parallel::parallel_map;
use crate::report::Rendered;
use crate::runner::run_scheme;
use iq_reliability::Scheme;
use sim_stats::{mean, Table};
use smt_sim::FetchPolicyKind;
use workload_gen::{standard_mixes, MixGroup};

/// One (group, threshold-fraction) cell.
#[derive(Debug, Clone)]
pub struct DvmCell {
    pub group: MixGroup,
    pub frac: f64,
    pub baseline_pve: f64,
    pub dvm_pve: f64,
    /// Positive = slowdown, negative = speedup (the paper plots
    /// "% in performance degradation").
    pub throughput_degradation: f64,
    pub harmonic_degradation: f64,
}

pub struct Fig8Result {
    pub fetch: FetchPolicyKind,
    pub cells: Vec<DvmCell>,
}

/// Distinct threshold fractions, preserving order.
pub(crate) fn unique_fracs(fracs: &[f64; 5]) -> Vec<f64> {
    let mut out: Vec<f64> = Vec::new();
    for &f in fracs {
        if !out.iter().any(|&g| (g - f).abs() < 1e-12) {
            out.push(f);
        }
    }
    out
}

pub fn run_with_fetch(ctx: &ExperimentContext, fetch: FetchPolicyKind) -> Fig8Result {
    // Baselines first (they anchor MaxIQ_AVF per mix).
    let mixes = standard_mixes();
    let baselines = parallel_map(mixes.clone(), |mix| {
        run_scheme(ctx, mix, Scheme::Baseline, fetch)
    });

    // DVM runs: every (mix, threshold) pair. Duplicate thresholds are
    // deduplicated (micro-budget benches pass a repeated single value).
    let fracs = unique_fracs(&ctx.params.threshold_fracs);
    let jobs: Vec<(usize, f64)> = (0..mixes.len())
        .flat_map(|i| fracs.iter().map(move |&f| (i, f)))
        .collect();
    let dvm_runs = parallel_map(jobs.clone(), |&(i, frac)| {
        let target = frac * baselines[i].avf.max_interval_iq_avf();
        run_scheme(ctx, &mixes[i], Scheme::DvmDynamic { target }, fetch)
    });

    // Fold to group × threshold cells.
    let mut cells = Vec::new();
    for group in MixGroup::ALL {
        for &frac in &fracs {
            let mut b_pve = Vec::new();
            let mut d_pve = Vec::new();
            let mut thr = Vec::new();
            let mut har = Vec::new();
            for (k, &(i, f)) in jobs.iter().enumerate() {
                if f != frac || mixes[i].group != group {
                    continue;
                }
                let base = &baselines[i];
                let dvm = &dvm_runs[k];
                let target = frac * base.avf.max_interval_iq_avf();
                b_pve.push(base.avf.iq_interval_avf.pve(target));
                d_pve.push(dvm.avf.iq_interval_avf.pve(target));
                let (base_thr, base_har) = (base.stats.throughput_ipc(), base.stats.harmonic_ipc());
                if base_thr > 0.0 {
                    thr.push(1.0 - dvm.stats.throughput_ipc() / base_thr);
                }
                if base_har > 0.0 {
                    har.push(1.0 - dvm.stats.harmonic_ipc() / base_har);
                }
            }
            cells.push(DvmCell {
                group,
                frac,
                baseline_pve: mean(&b_pve),
                dvm_pve: mean(&d_pve),
                throughput_degradation: mean(&thr),
                harmonic_degradation: mean(&har),
            });
        }
    }
    Fig8Result { fetch, cells }
}

pub fn run(ctx: &ExperimentContext) -> Fig8Result {
    run_with_fetch(ctx, FetchPolicyKind::Icount)
}

pub fn render(result: &Fig8Result) -> Rendered {
    let mut t = Table::new(vec![
        "workload",
        "target",
        "PVE baseline",
        "PVE w/ DVM",
        "thru. degr.",
        "harm. degr.",
    ]);
    for c in &result.cells {
        t.row(vec![
            c.group.label().to_string(),
            format!("{:.1}*MaxAVF", c.frac),
            format!("{:.0}%", c.baseline_pve * 100.0),
            format!("{:.0}%", c.dvm_pve * 100.0),
            format!("{:+.1}%", c.throughput_degradation * 100.0),
            format!("{:+.1}%", c.harmonic_degradation * 100.0),
        ]);
    }
    let figure = if result.fetch == FetchPolicyKind::Flush {
        "Figure 9"
    } else {
        "Figure 8"
    };
    Rendered::new(
        format!(
            "{figure}: DVM efficiency and performance impact (fetch policy: {})",
            result.fetch.label()
        ),
        t,
    )
    .note("positive degradation = slowdown; the paper reports MIX/MEM throughput *gains* (negative) at mild targets")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentParams;

    #[test]
    fn dvm_eliminates_most_emergencies() {
        let mut params = ExperimentParams::fast();
        params.threshold_fracs = [0.5; 5]; // single threshold, fast
        let ctx = ExperimentContext::new(params);
        let result = run(&ctx);
        for c in result.cells.iter().filter(|c| c.frac == 0.5) {
            // Only meaningful where the baseline actually has
            // emergencies.
            if c.baseline_pve > 0.2 {
                assert!(
                    c.dvm_pve < c.baseline_pve * 0.5,
                    "{}: PVE {:.2} -> {:.2}",
                    c.group.label(),
                    c.baseline_pve,
                    c.dvm_pve
                );
            }
        }
    }
}
