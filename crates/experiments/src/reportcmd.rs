//! The `report` subcommand and the run-store registration glue.
//!
//! Registration is write-side: every run mode that was given `--store
//! DIR` appends one [`RunRecord`] per finished simulation (or per
//! fault-injection campaign) into `DIR/runs.jsonl`, with artifact paths
//! discovered by probing the known exporter filename patterns. The
//! read side is [`cmd_report`]: `--list` prints the index, two
//! positional selectors under `--diff` run the cross-run diff engine
//! (same gates as `--check-baseline`), and `--html FILE` renders the
//! self-contained dashboard from whatever artifacts the selected runs
//! left behind.
//!
//! Exit codes follow the CLI contract: `0` success (diff found no
//! significant drift), `1` usage (bad selectors, or no store at the
//! given path: reading never creates one), `3` fatal (I/O,
//! unknown schema version anywhere, or a significant diff).

use crate::faultinject::{FaultInjectReport, FAULT_SCHEMA_VERSION};
use crate::manifest::{RunManifest, MANIFEST_SCHEMA_VERSION};
use crate::{EXIT_FATAL, EXIT_USAGE};
use sim_harness::fnv1a;
use sim_profile::ProfileReport;
use sim_report::store::slugify;
use sim_report::{
    align_series, check_schema, diff_groups, parse_series_jsonl, render_html, select, InjectView,
    ReportError, ReportInput, RunRecord, RunStore, Selector,
};
use std::path::{Path, PathBuf};

/// Where a registration pass should probe for per-run artifact files
/// (the exporters' output directories, when enabled for the run).
#[derive(Debug, Clone, Default)]
pub struct ArtifactDirs {
    pub metrics: Option<PathBuf>,
    pub profile: Option<PathBuf>,
    pub trace: Option<PathBuf>,
}

/// Everything that determines a run's meaning, hashed: two runs are
/// comparable exactly when their config hashes agree. Workload salt is
/// deliberately excluded — seed replicas of one configuration share a
/// hash so they aggregate into one [`sim_stats::SeedSummary`] group.
pub fn config_hash(m: &RunManifest) -> u64 {
    fnv1a(&format!(
        "v{}|{}|{}|{}|{}|{}x{}x{}x{}|{}+{}+{}+{}",
        m.schema_version,
        m.exhibit,
        m.mix,
        m.scheme,
        m.fetch_policy,
        m.machine.width,
        m.machine.iq_size,
        m.machine.rob_size,
        m.machine.num_threads,
        m.budget.profile_insts,
        m.budget.warmup_insts,
        m.budget.run_cycles,
        m.budget.ace_window,
    ))
}

/// Probe `dir/name`, returning the store-relative artifact path string
/// when the file exists.
fn probe(store: &RunStore, dir: Option<&Path>, name: &str) -> Option<String> {
    let path = dir?.join(name);
    path.exists().then(|| store.relativize(&path))
}

/// Append one record for a finished, manifest-described run. Returns
/// the new record's id.
pub fn register_manifest(
    store: &mut RunStore,
    batch: u64,
    mode: &str,
    m: &RunManifest,
    manifest_path: Option<&Path>,
    dirs: &ArtifactDirs,
) -> Result<String, ReportError> {
    let id = format!(
        "r{:05}-{}-{}-{}-s{}",
        store.next_seq(),
        slugify(&m.exhibit),
        slugify(&m.mix),
        slugify(&m.scheme),
        m.salt
    );
    let mut artifacts: Vec<(String, String)> = Vec::new();
    if let Some(path) = manifest_path {
        artifacts.push(("manifest".to_string(), store.relativize(path)));
    }
    // The exporters key files on run id + slugged mix/scheme; probe the
    // patterns they actually write (see runner.rs).
    let base = format!(
        "run{:04}_{}_{}",
        m.run_id,
        slugify(&m.mix),
        slugify(&m.scheme)
    );
    for (kind, dir, name) in [
        (
            "series",
            dirs.metrics.as_deref(),
            format!("{base}.series.jsonl"),
        ),
        ("prom", dirs.metrics.as_deref(), format!("{base}.prom")),
        (
            "profile",
            dirs.profile.as_deref(),
            format!("{base}.profile.json"),
        ),
        (
            "collapsed",
            dirs.profile.as_deref(),
            format!("{base}.collapsed"),
        ),
        ("trace", dirs.trace.as_deref(), format!("{base}.trace.json")),
    ] {
        if let Some(rel) = probe(store, dir, &name) {
            artifacts.push((kind.to_string(), rel));
        }
    }
    let record = RunRecord {
        schema_version: 0, // stamped by append
        id: id.clone(),
        batch,
        mode: mode.to_string(),
        exhibit: m.exhibit.clone(),
        mix: m.mix.clone(),
        scheme: m.scheme.clone(),
        fetch: m.fetch_policy.clone(),
        salt: m.salt,
        config_hash: config_hash(m),
        wall_time_s: m.timings.total_s(),
        cycles_per_sec: m.metrics.cycles_per_sec,
        iq_avf: m.metrics.iq_avf,
        throughput_ipc: m.metrics.throughput_ipc,
        harmonic_ipc: m.metrics.harmonic_ipc,
        artifacts,
        sim_metrics: m.sim_metrics.clone(),
    };
    store.append(record)?;
    Ok(id)
}

/// Append one record per scheme campaign of a fault-injection report.
/// Host-cost scalars are unknown at this granularity and recorded as 0
/// (the diff engine skips them); the ACE IQ AVF and golden-run IPC are
/// the comparable metrics.
pub fn register_inject(
    store: &mut RunStore,
    batch: u64,
    report: &FaultInjectReport,
    report_path: Option<&Path>,
    metrics_dir: Option<&Path>,
) -> Result<Vec<String>, ReportError> {
    let mut ids = Vec::new();
    for sc in &report.campaigns {
        let id = format!(
            "r{:05}-fault-inject-{}-{}-s{}",
            store.next_seq(),
            slugify(&report.mix),
            slugify(&sc.scheme),
            sc.salt
        );
        let mut artifacts: Vec<(String, String)> = Vec::new();
        if let Some(path) = report_path {
            artifacts.push(("inject".to_string(), store.relativize(path)));
        }
        let prom = format!("inject_s{}_{}.prom", sc.salt, slugify(&sc.scheme));
        if let Some(rel) = probe(store, metrics_dir, &prom) {
            artifacts.push(("prom".to_string(), rel));
        }
        let throughput_ipc = if sc.result.cycles > 0 {
            sc.result.committed as f64 / sc.result.cycles as f64
        } else {
            0.0
        };
        let record = RunRecord {
            schema_version: 0, // stamped by append
            id: id.clone(),
            batch,
            mode: "fault-inject".to_string(),
            exhibit: "fault-inject".to_string(),
            mix: report.mix.clone(),
            scheme: sc.scheme.clone(),
            fetch: "Icount".to_string(),
            salt: sc.salt,
            config_hash: fnv1a(&format!(
                "v{}|fault-inject|{}|{}|{}+{}+{}",
                report.schema_version,
                report.mix,
                sc.scheme,
                report.iq_trials,
                report.rob_trials,
                report.rf_trials,
            )),
            wall_time_s: 0.0,
            cycles_per_sec: 0.0,
            iq_avf: sc.result.ace_iq_avf,
            throughput_ipc,
            harmonic_ipc: 0.0,
            artifacts,
            sim_metrics: None,
        };
        store.append(record)?;
        ids.push(id);
    }
    Ok(ids)
}

/// Parsed `report` subcommand arguments.
#[derive(Debug, Clone, Default)]
pub struct ReportArgs {
    pub store: PathBuf,
    pub list: bool,
    pub diff: bool,
    /// Positional selectors (`key=value,...` or run-id prefixes).
    pub selectors: Vec<String>,
    pub html: Option<PathBuf>,
    pub title: Option<String>,
}

fn fatal(e: &ReportError) -> i32 {
    eprintln!("report: {e}");
    EXIT_FATAL
}

/// Print the index as a table.
fn list_records(records: &[RunRecord]) {
    let mut table = sim_stats::Table::new(vec![
        "id",
        "batch",
        "mode",
        "exhibit",
        "mix",
        "scheme",
        "salt",
        "iq_avf",
        "ipc",
        "artifacts",
    ]);
    for r in records {
        table.row(vec![
            r.id.clone(),
            r.batch.to_string(),
            r.mode.clone(),
            r.exhibit.clone(),
            r.mix.clone(),
            r.scheme.clone(),
            r.salt.to_string(),
            format!("{:.4}", r.iq_avf),
            format!("{:.3}", r.throughput_ipc),
            r.artifacts
                .iter()
                .map(|(k, _)| k.as_str())
                .collect::<Vec<_>>()
                .join("+"),
        ]);
    }
    println!("{}", table.render());
    println!("{} run(s) in store", records.len());
}

fn parse_selector_or_exit(text: &str) -> Selector {
    match Selector::parse(text) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("report: bad selector {text:?}: {msg}");
            std::process::exit(EXIT_USAGE);
        }
    }
}

/// Read + schema-check a versioned JSON artifact, returning its parsed
/// `Value`. The version lives in a top-level `schema_version` field.
fn load_versioned(path: &Path, what: &str, supported: u32) -> Result<serde::Value, ReportError> {
    let text = std::fs::read_to_string(path)?;
    let value = serde::json::parse(&text).map_err(|e| ReportError::Parse {
        what: format!("{what} {}", path.display()),
        detail: format!("{e:?}"),
    })?;
    let found = value
        .get("schema_version")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| ReportError::Parse {
            what: format!("{what} {}", path.display()),
            detail: "no schema_version field".to_string(),
        })? as u32;
    check_schema(&format!("{what} {}", path.display()), found, supported)?;
    Ok(value)
}

/// Assemble the HTML renderer's input from the selected records'
/// artifacts. Every versioned artifact read is schema-checked; an
/// unknown version is a typed, fatal error rather than a misread.
fn assemble_input(
    store: &RunStore,
    records: &[&RunRecord],
    title: &str,
    diff: Option<sim_report::DiffReport>,
) -> Result<ReportInput, ReportError> {
    let mut input = ReportInput {
        title: title.to_string(),
        subtitle: format!(
            "store {} — {} run(s) selected of {}",
            store.root().display(),
            records.len(),
            store.records().len()
        ),
        records: records.iter().map(|r| (*r).clone()).collect(),
        diff,
        ..ReportInput::default()
    };
    let mut inject_paths: Vec<PathBuf> = Vec::new();
    for r in records {
        if let Some(path) = store.artifact_path(r, "manifest") {
            // Validate provenance: a manifest stamped by a different
            // layout must fail loudly, not render half-garbage.
            load_versioned(&path, "manifest", MANIFEST_SCHEMA_VERSION)?;
        }
        if input.series.len() < 8 {
            if let Some(path) = store.artifact_path(r, "series") {
                let text = std::fs::read_to_string(&path)?;
                let rows = parse_series_jsonl(&text).map_err(|detail| ReportError::Parse {
                    what: path.display().to_string(),
                    detail,
                })?;
                if !rows.is_empty() {
                    let label = format!("{} s{}", r.scheme, r.salt);
                    input.series.push((label, r.scheme.clone(), rows));
                }
            }
        }
        if input.profiles.len() < 4 {
            if let Some(path) = store.artifact_path(r, "profile") {
                let text = std::fs::read_to_string(&path)?;
                let profile: ProfileReport =
                    serde::json::from_str(&text).map_err(|e| ReportError::Parse {
                        what: path.display().to_string(),
                        detail: format!("{e:?}"),
                    })?;
                input
                    .profiles
                    .push((format!("{} s{}", r.scheme, r.salt), profile));
            }
        }
        if let Some(path) = store.artifact_path(r, "inject") {
            if !inject_paths.contains(&path) {
                inject_paths.push(path);
            }
        }
    }
    for path in inject_paths {
        let value = load_versioned(&path, "inject report", FAULT_SCHEMA_VERSION)?;
        let report: FaultInjectReport =
            serde::json::from_value(&value).map_err(|e| ReportError::Parse {
                what: path.display().to_string(),
                detail: format!("{e:?}"),
            })?;
        for sc in &report.campaigns {
            for stats in &sc.result.structures {
                let ace = match stats.structure.as_str() {
                    "rob" => sc.result.ace_rob_avf,
                    "rf" => sc.result.ace_rf_avf,
                    _ => sc.result.ace_iq_avf,
                };
                input.injects.push(InjectView {
                    scheme: sc.scheme.clone(),
                    salt: sc.salt,
                    ace_prediction: ace,
                    stats: stats.clone(),
                });
            }
        }
    }
    Ok(input)
}

/// The `experiments report` driver. Returns the process exit code.
pub fn cmd_report(args: &ReportArgs) -> i32 {
    // Opening creates a store; reading must not, or a mistyped path
    // would list an empty store and exit 0.
    if !args.store.join(RunStore::INDEX_FILE).exists() {
        eprintln!("report: no run store at {}", args.store.display());
        return EXIT_USAGE;
    }
    let store = match RunStore::open(&args.store) {
        Ok(s) => s,
        Err(e) => return fatal(&e),
    };
    let damage = store.damage();
    if let Some(first) = damage.first_line {
        eprintln!(
            "report: warning: skipped {} damaged line(s) of {}, the first at line {first}",
            damage.count,
            args.store.join(RunStore::INDEX_FILE).display()
        );
    }
    let mut code = 0;

    let mut diff_report = None;
    if args.diff {
        if args.selectors.len() != 2 {
            eprintln!(
                "report --diff wants exactly two positional selectors (base, current), got {}",
                args.selectors.len()
            );
            return EXIT_USAGE;
        }
        let sel_a = parse_selector_or_exit(&args.selectors[0]);
        let sel_b = parse_selector_or_exit(&args.selectors[1]);
        let base = select(store.records(), &sel_a);
        let cur = select(store.records(), &sel_b);
        for (name, group) in [(&args.selectors[0], &base), (&args.selectors[1], &cur)] {
            if group.is_empty() {
                eprintln!("report: selector {name:?} matched no runs (try --list)");
                return EXIT_USAGE;
            }
        }
        let mut report = diff_groups(&base, &cur, &args.selectors[0], &args.selectors[1]);
        // Single-run-per-side diffs additionally align the raw
        // per-interval series, when both runs exported them.
        if let (1, 1) = (base.len(), cur.len()) {
            let load = |r: &RunRecord| -> Option<Vec<sim_metrics::export::SeriesRow>> {
                let path = store.artifact_path(r, "series")?;
                let text = std::fs::read_to_string(path).ok()?;
                parse_series_jsonl(&text).ok()
            };
            if let (Some(a), Some(b)) = (load(base[0]), load(cur[0])) {
                report.series = align_series(&a, &b);
            }
        }
        print!("{}", report.render());
        if !report.significant().is_empty() {
            code = EXIT_FATAL;
        }
        diff_report = Some(report);
    } else if args.selectors.len() > 1 {
        eprintln!("report: multiple selectors only make sense with --diff");
        return EXIT_USAGE;
    }

    if args.list || (!args.diff && args.html.is_none()) {
        list_records(store.records());
    }

    if let Some(path) = &args.html {
        // Without --diff, an optional single selector narrows the page.
        let chosen: Vec<&RunRecord> = if !args.diff && args.selectors.len() == 1 {
            let sel = parse_selector_or_exit(&args.selectors[0]);
            select(store.records(), &sel)
        } else {
            store.records().iter().collect()
        };
        if chosen.is_empty() {
            eprintln!("report: nothing to render (store empty or selector matched no runs)");
            return EXIT_USAGE;
        }
        let title = args
            .title
            .clone()
            .unwrap_or_else(|| format!("smtsim report — {}", args.store.display()));
        let input = match assemble_input(&store, &chosen, &title, diff_report) {
            Ok(i) => i,
            Err(e) => return fatal(&e),
        };
        let html = render_html(&input);
        if let Err(e) = sim_harness::atomic_write(path, &html) {
            return fatal(&ReportError::Io(e));
        }
        println!(
            "  [report -> {} ({} run(s), {} chart series, {} inject row(s))]",
            path.display(),
            input.records.len(),
            input.series.len(),
            input.injects.len()
        );
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{BudgetSummary, FinalMetrics, MachineSummary};
    use sim_trace::timing::PhaseTimings;

    fn sample_manifest(salt: u64, scheme: &str) -> RunManifest {
        RunManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            run_id: salt,
            exhibit: "fig2".to_string(),
            mix: "CPU-A".to_string(),
            benchmarks: vec!["gcc".to_string()],
            seeds: vec![1],
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
                generate_s: 0.5,
                warmup_s: 1.0,
                measure_s: 2.0,
                collect_s: 0.25,
            },
            metrics: FinalMetrics {
                iq_avf: 0.31,
                throughput_ipc: 3.2,
                harmonic_ipc: 0.74,
                l2_misses: 10,
                flushes: 1,
                mispredict_rate: 0.05,
                governor_stall_cycles: 0,
                dvm_avg_ratio: None,
                deadlocked: false,
                cycles_per_sec: 100_000.0,
            },
            sim_metrics: None,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("smtsim_reportcmd_{name}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn config_hash_groups_seed_replicas_and_splits_configs() {
        let a0 = sample_manifest(0, "Baseline");
        let a1 = sample_manifest(1, "Baseline");
        assert_eq!(config_hash(&a0), config_hash(&a1), "salts share a hash");
        let b = sample_manifest(0, "VISA+opt1");
        assert_ne!(config_hash(&a0), config_hash(&b), "schemes split");
        let mut c = sample_manifest(0, "Baseline");
        c.budget.run_cycles += 1;
        assert_ne!(config_hash(&a0), config_hash(&c), "budgets split");
    }

    #[test]
    fn registration_probes_real_artifacts_and_skips_missing_ones() {
        let dir = tmp("register");
        let mut store = RunStore::open(&dir).unwrap();
        let artifacts = store.artifact_dir();
        std::fs::create_dir_all(&artifacts).unwrap();
        let m = sample_manifest(0, "Baseline");
        // Only the series file exists; prom/profile/trace must not be
        // invented.
        let series = artifacts.join("run0000_cpu-a_baseline.series.jsonl");
        std::fs::write(
            &series,
            "{\"interval\":0,\"start_cycle\":0,\"cycles\":10,\"values\":[[\"ipc\",1.0]]}\n",
        )
        .unwrap();
        let manifest_path = m.write(&artifacts).unwrap();
        let dirs = ArtifactDirs {
            metrics: Some(artifacts.clone()),
            profile: Some(artifacts.clone()),
            trace: None,
        };
        let id =
            register_manifest(&mut store, 1, "exhibit", &m, Some(&manifest_path), &dirs).unwrap();
        let rec = store.get(&id).expect("registered");
        assert_eq!(rec.exhibit, "fig2");
        assert_eq!(rec.config_hash, config_hash(&m));
        assert!((rec.wall_time_s - 3.75).abs() < 1e-9);
        assert!(rec.artifact("manifest").is_some());
        assert!(rec.artifact("series").unwrap().starts_with("artifacts/"));
        assert!(rec.artifact("prom").is_none());
        assert!(rec.artifact("profile").is_none());
        // Round-trips through a fresh open.
        let back = RunStore::open(&dir).unwrap();
        assert_eq!(back.records().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cmd_report_diff_of_identical_selectors_is_insignificant() {
        let dir = tmp("diffsame");
        let mut store = RunStore::open(&dir).unwrap();
        for salt in 0..2 {
            let m = sample_manifest(salt, "Baseline");
            register_manifest(&mut store, 1, "exhibit", &m, None, &ArtifactDirs::default())
                .unwrap();
        }
        drop(store);
        let args = ReportArgs {
            store: dir.clone(),
            diff: true,
            selectors: vec!["scheme=baseline".to_string(), "scheme=baseline".to_string()],
            ..ReportArgs::default()
        };
        assert_eq!(cmd_report(&args), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cmd_report_diff_flags_doctored_regression_with_exit_3() {
        let dir = tmp("diffdrift");
        let mut store = RunStore::open(&dir).unwrap();
        for salt in 0..2 {
            let m = sample_manifest(salt, "Baseline");
            register_manifest(&mut store, 1, "exhibit", &m, None, &ArtifactDirs::default())
                .unwrap();
        }
        for salt in 0..2 {
            let mut m = sample_manifest(salt, "Baseline");
            m.metrics.iq_avf *= 1.05; // +5% metric drift, past the 2% gate
            m.timings.measure_s *= 1.3; // +16% wall time, past the 15% gate
            register_manifest(&mut store, 2, "exhibit", &m, None, &ArtifactDirs::default())
                .unwrap();
        }
        drop(store);
        let args = ReportArgs {
            store: dir.clone(),
            diff: true,
            selectors: vec!["batch=1".to_string(), "batch=2".to_string()],
            ..ReportArgs::default()
        };
        assert_eq!(cmd_report(&args), EXIT_FATAL);
        // The reverse direction: wall got *faster*, AVF still drifted.
        let args = ReportArgs {
            store: dir.clone(),
            diff: true,
            selectors: vec!["batch=2".to_string(), "batch=1".to_string()],
            ..ReportArgs::default()
        };
        assert_eq!(cmd_report(&args), EXIT_FATAL);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cmd_report_diff_selector_problems_are_usage_errors() {
        let dir = tmp("diffusage");
        let mut store = RunStore::open(&dir).unwrap();
        let m = sample_manifest(0, "Baseline");
        register_manifest(&mut store, 1, "exhibit", &m, None, &ArtifactDirs::default()).unwrap();
        drop(store);
        // One selector: usage.
        let args = ReportArgs {
            store: dir.clone(),
            diff: true,
            selectors: vec!["batch=1".to_string()],
            ..ReportArgs::default()
        };
        assert_eq!(cmd_report(&args), EXIT_USAGE);
        // No-match selector: usage.
        let args = ReportArgs {
            store: dir.clone(),
            diff: true,
            selectors: vec!["batch=1".to_string(), "batch=99".to_string()],
            ..ReportArgs::default()
        };
        assert_eq!(cmd_report(&args), EXIT_USAGE);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cmd_report_without_a_store_is_a_usage_error_and_creates_nothing() {
        let dir = tmp("nostore");
        for args in [
            ReportArgs {
                store: dir.clone(),
                list: true,
                ..ReportArgs::default()
            },
            ReportArgs {
                store: dir.clone(),
                diff: true,
                selectors: vec!["onlyone".to_string()],
                ..ReportArgs::default()
            },
        ] {
            assert_eq!(cmd_report(&args), EXIT_USAGE);
            assert!(!dir.exists(), "report created {}", dir.display());
        }
    }

    #[test]
    fn cmd_report_html_renders_and_rejects_unknown_manifest_schema() {
        let dir = tmp("html");
        let mut store = RunStore::open(&dir).unwrap();
        let artifacts = store.artifact_dir();
        std::fs::create_dir_all(&artifacts).unwrap();
        let m = sample_manifest(0, "Baseline");
        let manifest_path = m.write(&artifacts).unwrap();
        let dirs = ArtifactDirs {
            metrics: Some(artifacts.clone()),
            ..ArtifactDirs::default()
        };
        register_manifest(&mut store, 1, "exhibit", &m, Some(&manifest_path), &dirs).unwrap();
        drop(store);
        let out = dir.join("report.html");
        let args = ReportArgs {
            store: dir.clone(),
            html: Some(out.clone()),
            title: Some("test page".to_string()),
            ..ReportArgs::default()
        };
        assert_eq!(cmd_report(&args), 0);
        let html = std::fs::read_to_string(&out).unwrap();
        assert!(html.contains("test page"));
        assert!(!html.to_ascii_lowercase().contains("http"));
        // Doctor the manifest to a future schema: the read path must
        // refuse with the typed fatal code, not render garbage.
        let doctored = std::fs::read_to_string(&manifest_path).unwrap().replace(
            &format!("\"schema_version\": {MANIFEST_SCHEMA_VERSION}"),
            "\"schema_version\": 99",
        );
        assert_ne!(doctored, std::fs::read_to_string(&manifest_path).unwrap());
        std::fs::write(&manifest_path, doctored).unwrap();
        assert_eq!(cmd_report(&args), EXIT_FATAL);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn register_inject_records_one_row_per_campaign() {
        use sim_faultinject::{CampaignResult, SinkDigest, StructureStats};
        use sim_stats::WilsonCi;
        let dir = tmp("inject");
        let mut store = RunStore::open(&dir).unwrap();
        let result = CampaignResult {
            seed: 7,
            cycles: 1000,
            committed: 3200,
            ace_iq_avf: 0.31,
            ace_rob_avf: 0.2,
            ace_rf_avf: 0.1,
            ace_max_interval_iq_avf: 0.5,
            golden: SinkDigest {
                chains: vec![0],
                sinks: vec![0],
                committed: vec![0],
                rf_hash: 0,
            },
            structures: vec![StructureStats {
                structure: "iq".to_string(),
                trials: 100,
                masked: 70,
                sdc: 15,
                detected: 10,
                hang: 5,
                latent: 2,
                avf_estimate: 0.3,
                ci95: WilsonCi {
                    estimate: 0.3,
                    lo: 0.22,
                    hi: 0.39,
                },
            }],
        };
        let report = FaultInjectReport {
            schema_version: FAULT_SCHEMA_VERSION,
            mix: "CPU-A".to_string(),
            seeds: 1,
            iq_trials: 100,
            rob_trials: 0,
            rf_trials: 0,
            campaigns: vec![
                crate::faultinject::SchemeCampaign {
                    salt: 0,
                    scheme: "Baseline".to_string(),
                    target: None,
                    result: result.clone(),
                },
                crate::faultinject::SchemeCampaign {
                    salt: 0,
                    scheme: "DVM (dynamic ratio)".to_string(),
                    target: Some(0.25),
                    result,
                },
            ],
            quarantined: Vec::new(),
        };
        let ids = register_inject(&mut store, 3, &report, None, None).unwrap();
        assert_eq!(ids.len(), 2);
        let rec = store.get(&ids[0]).unwrap();
        assert_eq!(rec.mode, "fault-inject");
        assert_eq!(rec.batch, 3);
        assert!((rec.throughput_ipc - 3.2).abs() < 1e-9);
        assert_eq!(rec.wall_time_s, 0.0);
        // The two schemes hash differently (not comparable).
        let rec2 = store.get(&ids[1]).unwrap();
        assert_ne!(rec.config_hash, rec2.config_hash);
        std::fs::remove_dir_all(&dir).ok();
    }
}
