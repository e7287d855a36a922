//! Figure 10 — DVM versus the open-loop reliability optimizations.
//!
//! PVE of VISA, VISA+opt1, VISA+opt2, DVM (static ratio) and DVM
//! (dynamic ratio) at every reliability threshold. The open-loop schemes
//! reduce *average* vulnerability but cannot hold a runtime threshold
//! (high PVE); the static DVM manages it partially; the dynamic DVM
//! dominates — "the dynamic approach always outperforms the static".
//!
//! The static variant's pinned ratio is derived per mix from the dynamic
//! run's average adaptive ratio, exactly as the paper does.

use crate::context::ExperimentContext;
use crate::fig8::unique_fracs;
use crate::parallel::parallel_map;
use crate::report::Rendered;
use crate::runner::{run_scheme, RunOutcome};
use iq_reliability::Scheme;
use sim_stats::{mean, Table};
use smt_sim::FetchPolicyKind;
use workload_gen::{standard_mixes, MixGroup};

pub const SCHEME_LABELS: [&str; 5] = [
    "VISA",
    "VISA+opt1",
    "VISA+opt2",
    "DVM (static ratio)",
    "DVM (dynamic ratio)",
];

pub struct Fig10Result {
    /// (group, threshold fraction, scheme label, PVE).
    pub cells: Vec<(MixGroup, f64, &'static str, f64)>,
}

pub fn run(ctx: &ExperimentContext) -> Fig10Result {
    let fetch = FetchPolicyKind::Icount;
    let mixes = standard_mixes();

    // Baselines anchor MaxIQ_AVF; open-loop schemes run once per mix
    // (their PVE is then evaluated at every threshold).
    let baselines = parallel_map(mixes.clone(), |mix| {
        run_scheme(ctx, mix, Scheme::Baseline, fetch)
    });
    let open_loop: Vec<(Scheme, Vec<RunOutcome>)> =
        [Scheme::Visa, Scheme::VisaOpt1, Scheme::VisaOpt2]
            .into_iter()
            .map(|s| {
                let runs = parallel_map(mixes.clone(), |mix| run_scheme(ctx, mix, s, fetch));
                (s, runs)
            })
            .collect();

    // DVM dynamic per (mix, threshold); static re-runs with the dynamic
    // run's average ratio.
    // Duplicate thresholds are deduplicated (micro-budget benches pass a
    // repeated single value).
    let fracs = unique_fracs(&ctx.params.threshold_fracs);
    let jobs: Vec<(usize, f64)> = (0..mixes.len())
        .flat_map(|i| fracs.iter().map(move |&f| (i, f)))
        .collect();
    let dvm_pairs = parallel_map(jobs.clone(), |&(i, frac)| {
        let target = frac * baselines[i].avf.max_interval_iq_avf();
        let dynamic = run_scheme(ctx, &mixes[i], Scheme::DvmDynamic { target }, fetch);
        let ratio = dynamic.dvm_avg_ratio.unwrap_or(1.0).max(0.25);
        let stat = run_scheme(ctx, &mixes[i], Scheme::DvmStatic { target, ratio }, fetch);
        (dynamic, stat)
    });

    let mut cells = Vec::new();
    for group in MixGroup::ALL {
        for &frac in &fracs {
            // Open-loop schemes: PVE of their own interval series against
            // the baseline-anchored target.
            for (scheme, runs) in &open_loop {
                let mut pves = Vec::new();
                for (i, mix) in mixes.iter().enumerate() {
                    if mix.group != group {
                        continue;
                    }
                    let target = frac * baselines[i].avf.max_interval_iq_avf();
                    pves.push(runs[i].avf.iq_interval_avf.pve(target));
                }
                cells.push((group, frac, scheme.label(), mean(&pves)));
            }
            let mut stat_pves = Vec::new();
            let mut dyn_pves = Vec::new();
            for (k, &(i, f)) in jobs.iter().enumerate() {
                if f != frac || mixes[i].group != group {
                    continue;
                }
                let target = frac * baselines[i].avf.max_interval_iq_avf();
                dyn_pves.push(dvm_pairs[k].0.avf.iq_interval_avf.pve(target));
                stat_pves.push(dvm_pairs[k].1.avf.iq_interval_avf.pve(target));
            }
            cells.push((group, frac, "DVM (static ratio)", mean(&stat_pves)));
            cells.push((group, frac, "DVM (dynamic ratio)", mean(&dyn_pves)));
        }
    }
    Fig10Result { cells }
}

pub fn render(result: &Fig10Result) -> Rendered {
    let mut t = Table::new(vec!["workload", "target", "scheme", "PVE"]);
    for (group, frac, scheme, pve) in &result.cells {
        t.row(vec![
            group.label().to_string(),
            format!("{frac:.1}*MaxAVF"),
            scheme.to_string(),
            format!("{:.0}%", pve * 100.0),
        ]);
    }
    Rendered::new(
        "Figure 10: PVE comparison — DVM vs open-loop reliability optimizations (ICOUNT)",
        t,
    )
    .note("expected ordering per cell: DVM(dynamic) <= DVM(static) << VISA-family")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentParams;
    use crate::fig8;

    #[test]
    fn after_fig8_reuses_its_runs_and_renders_identically() {
        let mut params = ExperimentParams::fast();
        params.profile_insts = 20_000;
        params.warmup_insts = 10_000;
        params.run_cycles = 10_000;
        params.threshold_fracs = [0.5; 5];

        let shared = ExperimentContext::new(params);
        fig8::run(&shared);
        assert_eq!(shared.drain_manifests().len(), 18);
        assert_eq!(shared.take_memo_hits(), 0);
        let after_fig8 = render(&run(&shared)).to_string();
        // Figure 8's 9 baselines and 9 dynamic runs are reused; the 27
        // open-loop and 9 static runs are new.
        assert_eq!(shared.drain_manifests().len(), 36);
        assert_eq!(shared.take_memo_hits(), 18);

        let fresh = ExperimentContext::new(params);
        let alone = render(&run(&fresh)).to_string();
        assert_eq!(fresh.drain_manifests().len(), 54);
        assert_eq!(after_fig8, alone);
    }

    #[test]
    fn dvm_beats_open_loop_schemes() {
        let mut params = ExperimentParams::fast();
        params.threshold_fracs = [0.5; 5];
        let ctx = ExperimentContext::new(params);
        let result = run(&ctx);
        for group in MixGroup::ALL {
            let pve_of = |label: &str| {
                result
                    .cells
                    .iter()
                    .find(|(g, f, s, _)| *g == group && *f == 0.5 && *s == label)
                    .map(|(_, _, _, p)| *p)
                    .unwrap()
            };
            let dynamic = pve_of("DVM (dynamic ratio)");
            let visa = pve_of("VISA");
            assert!(
                dynamic <= visa + 1e-9,
                "{}: dynamic {:.2} vs VISA {:.2}",
                group.label(),
                dynamic,
                visa
            );
            assert!(
                dynamic < 0.35,
                "{}: dynamic PVE {:.2}",
                group.label(),
                dynamic
            );
        }
    }
}
