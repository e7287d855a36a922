//! End-to-end coverage of the reporting stack from outside the crates:
//! register runs into a store, diff two batches through the CLI driver,
//! and render the HTML dashboard — all through the public API surface
//! the `experiments report` subcommand uses.

use smtsim::experiments::manifest::{
    BudgetSummary, FinalMetrics, MachineSummary, RunManifest, MANIFEST_SCHEMA_VERSION,
};
use smtsim::experiments::reportcmd::{cmd_report, register_manifest, ArtifactDirs, ReportArgs};
use smtsim::report::{RunStore, Selector};
use smtsim::trace::timing::PhaseTimings;
use std::path::PathBuf;

fn manifest(run_id: u64, salt: u64, scheme: &str, iq_avf: f64, measure_s: f64) -> RunManifest {
    RunManifest {
        schema_version: MANIFEST_SCHEMA_VERSION,
        run_id,
        exhibit: "fig5".to_string(),
        mix: "MIX-A".to_string(),
        benchmarks: vec!["gcc".to_string(), "mcf".to_string()],
        seeds: vec![11, 22],
        salt,
        scheme: scheme.to_string(),
        fetch_policy: "Icount".to_string(),
        machine: MachineSummary {
            width: 8,
            fetch_threads_per_cycle: 2,
            fetch_queue_size: 32,
            iq_size: 96,
            rob_size: 96,
            lsq_size: 48,
            num_threads: 4,
            mshr_per_thread: 8,
            lsq_disambiguation: false,
        },
        budget: BudgetSummary {
            profile_insts: 60_000,
            warmup_insts: 150_000,
            run_cycles: 120_000,
            ace_window: 40_000,
        },
        timings: PhaseTimings {
            generate_s: 0.1,
            warmup_s: 0.4,
            measure_s,
            collect_s: 0.05,
        },
        metrics: FinalMetrics {
            iq_avf,
            throughput_ipc: 3.1 - iq_avf,
            harmonic_ipc: 0.7,
            l2_misses: 42,
            flushes: 2,
            mispredict_rate: 0.04,
            governor_stall_cycles: 0,
            dvm_avg_ratio: None,
            deadlocked: false,
            cycles_per_sec: 110_000.0,
        },
        sim_metrics: None,
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smtsim_report_e2e_{name}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Populate a store with two batches: batch 1 is the baseline, batch 2
/// either repeats it (drift = seed noise only) or regresses.
fn populate(dir: &PathBuf, regressed: bool) {
    let mut store = RunStore::open(dir).unwrap();
    let artifacts = store.artifact_dir();
    std::fs::create_dir_all(&artifacts).unwrap();
    let dirs = ArtifactDirs {
        metrics: Some(artifacts.clone()),
        ..ArtifactDirs::default()
    };
    let mut run_id = 0;
    for batch in 1..=2u64 {
        for salt in 0..3u64 {
            // A tiny deterministic per-seed wiggle, well inside every
            // gate; the regression (+6 % AVF, +25 % wall) is not.
            let wiggle = 1.0 + 0.001 * salt as f64;
            let (avf, wall) = if batch == 2 && regressed {
                (0.30 * 1.06 * wiggle, 2.0 * 1.25)
            } else {
                (0.30 * wiggle, 2.0)
            };
            let m = manifest(run_id, salt, "VISA+opt1", avf, wall);
            run_id += 1;
            // One series artifact per run so single-run diffs align
            // intervals and the dashboard has chart data.
            let series = artifacts.join(format!("run{:04}_mix-a_visa-opt1.series.jsonl", m.run_id));
            let rows: String = (0..5)
                .map(|i| {
                    format!(
                        "{{\"interval\":{i},\"start_cycle\":{},\"cycles\":10000,\
                         \"values\":[[\"iq.interval_avf\",{}],[\"iq.occupancy\",{}]]}}\n",
                        i * 10_000,
                        avf * (1.0 + 0.01 * i as f64),
                        60.0 + i as f64
                    )
                })
                .collect();
            std::fs::write(&series, rows).unwrap();
            let manifest_path = m.write(&artifacts).unwrap();
            register_manifest(
                &mut store,
                batch,
                "exhibit",
                &m,
                Some(&manifest_path),
                &dirs,
            )
            .unwrap();
        }
    }
}

#[test]
fn equal_batches_diff_clean_and_render_a_self_contained_dashboard() {
    let dir = tmp("clean");
    populate(&dir, false);

    // The index round-trips and selectors slice it.
    let store = RunStore::open(&dir).unwrap();
    assert_eq!(store.records().len(), 6);
    let sel = Selector::parse("batch=2,scheme=visa-opt1").unwrap();
    assert_eq!(sim_report_select_len(&store, &sel), 3);

    // Identical configurations: the diff gate stays quiet (exit 0).
    let code = cmd_report(&ReportArgs {
        store: dir.clone(),
        diff: true,
        selectors: vec!["batch=1".to_string(), "batch=2".to_string()],
        ..ReportArgs::default()
    });
    assert_eq!(code, 0, "seed noise must not flag");

    // The dashboard renders every section and references nothing
    // outside the file.
    let html_path = dir.join("report.html");
    let code = cmd_report(&ReportArgs {
        store: dir.clone(),
        html: Some(html_path.clone()),
        title: Some("e2e dashboard".to_string()),
        ..ReportArgs::default()
    });
    assert_eq!(code, 0);
    let html = std::fs::read_to_string(&html_path).unwrap();
    let low = html.to_ascii_lowercase();
    for needle in ["<svg", "iq.interval_avf", "iq.occupancy", "e2e dashboard"] {
        assert!(low.contains(needle), "dashboard lacks {needle:?}");
    }
    for banned in ["http", "://", "<script", "url(", "@import", "xmlns"] {
        assert!(!low.contains(banned), "dashboard references {banned:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn doctored_regression_diffs_significant_with_exit_3() {
    let dir = tmp("regressed");
    populate(&dir, true);
    let code = cmd_report(&ReportArgs {
        store: dir.clone(),
        diff: true,
        selectors: vec!["batch=1".to_string(), "batch=2".to_string()],
        ..ReportArgs::default()
    });
    assert_eq!(code, 3, "+6% AVF and +25% wall must flag as significant");
    std::fs::remove_dir_all(&dir).ok();
}

fn sim_report_select_len(store: &RunStore, sel: &Selector) -> usize {
    smtsim::report::select(store.records(), sel).len()
}
