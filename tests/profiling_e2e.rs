//! End-to-end profiler coverage from outside the crates: a profiled
//! run exports the promised artifacts (JSON report, collapsed stacks,
//! hot-spot table), the per-stage attribution accounts for the
//! measured tick wall-time, and profiling never perturbs the
//! simulation itself.

use smtsim::experiments::context::{ExperimentContext, ExperimentParams};
use smtsim::experiments::runner::run_scheme;
use smtsim::profile::ProfileReport;
use smtsim::reliability::Scheme;
use smtsim::sim::FetchPolicyKind;
use smtsim::workloads::mix_by_name;
use std::fs;
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("smtsim-profiling-e2e").join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Does node `i`'s parent chain reach `root`?
fn under(report: &ProfileReport, root: usize, mut i: usize) -> bool {
    loop {
        if i == root {
            return true;
        }
        match report.nodes[i].parent {
            Some(p) => i = p,
            None => return false,
        }
    }
}

#[test]
fn profiled_run_attributes_tick_time_and_exports_artifacts() {
    let dir = scratch("attribution");
    let ctx = ExperimentContext::new(ExperimentParams::fast()).with_profile_dir(&dir);
    let mix = mix_by_name("CPU-B").unwrap();
    let out = run_scheme(&ctx, &mix, Scheme::Baseline, FetchPolicyKind::Icount);
    assert!(!out.deadlocked);
    assert!(out.cycles_per_sec > 0.0, "throughput gauge not populated");
    assert!(out.stage_seconds.is_some(), "stage breakdown missing");

    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    let names: Vec<String> = files
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        files.len(),
        2,
        "expected .collapsed + .profile.json: {names:?}"
    );
    assert!(names[0].ends_with(".collapsed"), "{names:?}");
    assert!(names[1].ends_with(".profile.json"), "{names:?}");

    // The JSON report round-trips and the tick subtree's self-times
    // account for at least 90% of the measured tick wall-time.
    let report: ProfileReport =
        serde::json::from_str(&fs::read_to_string(&files[1]).unwrap()).unwrap();
    let tick_idx = report
        .nodes
        .iter()
        .position(|n| n.name == "tick")
        .expect("tick span present");
    let tick = &report.nodes[tick_idx];
    // Each measured cycle is either stepped (one `tick`) or skipped by
    // the idle fast-forward (one `fast_forward` call, outside `tick`).
    let fast_forward = report
        .nodes
        .iter()
        .find(|n| n.name == "fast_forward")
        .expect("fast_forward span present");
    assert!(fast_forward.parent.is_none(), "fast_forward nested in tick");
    assert_eq!(
        tick.calls + fast_forward.calls,
        ctx.params.run_cycles,
        "stepped plus fast-forwarded cycles"
    );
    assert!(tick.total_ns > 0);
    let attributed: u64 = report
        .nodes
        .iter()
        .enumerate()
        .filter(|&(i, _)| under(&report, tick_idx, i))
        .map(|(_, n)| n.self_ns)
        .sum();
    assert!(
        attributed as f64 >= 0.9 * tick.total_ns as f64,
        "stage self-times cover {attributed} of {} tick ns",
        tick.total_ns
    );
    for span in [
        "commit",
        "writeback",
        "issue",
        "wakeup",
        "select",
        "dispatch",
        "fetch",
    ] {
        let n = report.nodes.iter().find(|n| n.name == span).unwrap();
        assert_eq!(n.calls, tick.calls, "{span} once per tick");
    }

    // The collapsed-stack export parses back and leads with the tick.
    let collapsed = fs::read_to_string(&files[0]).unwrap();
    let stacks = ProfileReport::parse_collapsed(&collapsed).unwrap();
    assert!(!stacks.is_empty());
    assert!(
        stacks
            .iter()
            .any(|(frames, _)| frames.first().map(String::as_str) == Some("tick")),
        "no tick-rooted stack in {collapsed:?}"
    );

    // The hot-spot table renders with the header the CLI prints.
    let table = report.hotspot_table();
    assert!(table.contains("self%"), "{table}");
    assert!(table.contains("tick"), "{table}");
}

#[test]
fn profiling_does_not_perturb_the_simulation() {
    let dir = scratch("perturbation");
    let mix = mix_by_name("MEM-A").unwrap();

    let plain_ctx = ExperimentContext::new(ExperimentParams::fast());
    let plain = run_scheme(&plain_ctx, &mix, Scheme::Baseline, FetchPolicyKind::Icount);

    let prof_ctx = ExperimentContext::new(ExperimentParams::fast()).with_profile_dir(&dir);
    let profiled = run_scheme(&prof_ctx, &mix, Scheme::Baseline, FetchPolicyKind::Icount);

    // Bit-identical simulation results: profiling only watches the
    // host clock, never the simulated machine.
    assert_eq!(plain.throughput_ipc, profiled.throughput_ipc);
    assert_eq!(plain.harmonic_ipc, profiled.harmonic_ipc);
    assert_eq!(plain.avf.iq_avf, profiled.avf.iq_avf);
    assert_eq!(plain.l2_misses, profiled.l2_misses);
    assert_eq!(plain.flushes, profiled.flushes);
    // And the unprofiled run carries no stage attribution.
    assert!(plain.stage_seconds.is_none());
    assert!(profiled.stage_seconds.is_some());
}
