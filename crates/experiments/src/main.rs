//! CLI: regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [--fast] [--jobs N] [--csv DIR] [--manifest DIR]
//!             [--trace DIR] [--metrics DIR] [--profile DIR] [EXHIBIT...]
//! experiments --list
//! experiments bench-baseline [--seeds N] [--jobs N] [--out FILE]
//!             [--check-baseline FILE] [--resume DIR] [--deadline-s N]
//!             [--snapshot-every CYCLES] [--selfcheck] [--heartbeat-s N]
//!             [--trace DIR] [--metrics DIR] [--profile DIR]
//! experiments fault-inject [--fast] [--seeds N] [--trials N] [--jobs N]
//!             [--out FILE] [--check-avf] [--resume DIR] [--deadline-s N]
//!             [--heartbeat-s N] [--trace DIR] [--metrics DIR]
//! experiments report --store DIR [--list] [--diff SEL_A SEL_B]
//!             [--html FILE] [--title TITLE]
//! experiments chaos [--seed N] [--rounds N] [--scratch DIR] [--out FILE]
//! ```
//!
//! With no exhibit arguments, everything runs (`all`). `--fast` uses the
//! reduced measurement budget (quick sanity pass); the default is the
//! full budget recorded in EXPERIMENTS.md. Exhibits in one invocation
//! share runs: a simulation an earlier exhibit already performed is
//! reused, not repeated, and each exhibit's summary line counts both
//! (`[fig10 took 16.2s; 45 simulated, 81 reused]`). `--csv DIR` additionally
//! writes each exhibit's table as `DIR/<exhibit>.csv`. `--manifest DIR`
//! writes one JSON run manifest per simulation (machine config, seeds,
//! scheme, budget, phase timings, final metrics), under the first
//! exhibit that performed it. `--trace DIR` exports
//! a Chrome trace-event file per simulation (open in Perfetto or
//! `chrome://tracing`). `--metrics DIR` records a sim-metrics registry
//! per simulation and exports its per-interval series as
//! `run*.series.jsonl` plus a Prometheus text file, and merges a digest
//! into the run's manifest. `--profile DIR` turns on the sim-profile
//! span profiler for every simulation and exports, per run, a JSON
//! profile report (`run*.profile.json`) and a collapsed-stack file
//! (`run*.collapsed`, feed to `flamegraph.pl` or any flamegraph
//! renderer), printing each run's hot-spot table on stderr; with
//! `--trace DIR` too, the span tree is also merged into the Chrome
//! trace as a flame chart on the `profile` track.
//!
//! `--list` prints the exhibit catalog (name + description) and exits.
//! `--help` (or `-h`) prints usage and exits 0; any other `--flag` the
//! CLI does not know exits 1 with usage before anything runs. So does a
//! value flag given as the last argument, and a path flag whose value
//! is empty or starts with `--` (a missing value that swallowed the
//! next flag).
//!
//! `--jobs N` sets the simulation worker-pool size for all parallel
//! fan-out (default: `available_parallelism`; use `--jobs 1` on
//! single-core hosts).
//!
//! `bench-baseline` runs the fixed regression exhibit set over `--seeds`
//! workload salts (default 3) and prints the cross-seed report;
//! `--out FILE` records the schema-versioned baseline JSON and
//! `--check-baseline FILE` compares against a recorded one, failing on
//! any wall-time (>15 %) or simulation-metric (>2 % beyond seed noise)
//! regression.
//!
//! `fault-inject` runs Monte-Carlo SEU campaigns (baseline and DVM) over
//! `--seeds` workload salts with `--trials` IQ injections each and
//! prints the per-structure outcome table; `--out FILE` records the
//! campaign JSON and `--check-avf` fails unless the ACE-analysis IQ
//! AVF falls inside every campaign's injection Wilson interval *and*
//! DVM measures strictly less pooled IQ vulnerability than baseline.
//!
//! Both campaign subcommands run under the `sim-harness` supervisor:
//! `--resume DIR` keeps a checkpoint journal in DIR and replays already
//! completed jobs on re-run; `--deadline-s N` cancels any single job
//! after N wall-clock seconds; a SIGINT or SIGTERM checkpoints or
//! drains in-flight jobs, flushes the journal and `DIR/campaign.json`,
//! then exits 130 (a second signal aborts immediately).
//!
//! With `--resume DIR`, `bench-baseline` additionally persists mid-run
//! pipeline snapshots under `DIR/snapshots/` so an interrupted *job*
//! resumes bit-identically from its latest valid checkpoint instead of
//! re-simulating from cycle zero; `--snapshot-every CYCLES` sets the
//! snapshot cadence (default: every 10 000-cycle sampling interval) and
//! `--selfcheck` validates structural pipeline invariants at every
//! snapshot boundary, failing the job fast instead of persisting a
//! poisoned checkpoint.
//!
//! `--heartbeat-s N` prints a campaign heartbeat to stderr every N
//! seconds: jobs done/total, aggregate simulated throughput (Mcycles/s)
//! and a coarse ETA. On a TTY the line overwrites itself; in a log it
//! appends one line per beat.
//!
//! `--store DIR` (any run mode) registers every finished simulation in
//! the append-only run store `DIR/runs.jsonl` — scheme, seed, config
//! hash, headline metrics, and the paths of whatever artifacts the run
//! exported. When `--store` is given, `--manifest` and `--metrics`
//! default to `DIR/artifacts` so one flag yields a fully chartable
//! store; explicit flags still override. `bench-baseline` defaults
//! `--out` to `DIR/artifacts/BENCH.json` and `fault-inject` to
//! `DIR/artifacts/INJECT.json`, and each fault-inject scheme campaign
//! registers as its own record.
//!
//! `report` reads a store back: `--list` prints the index, `--diff
//! SEL_A SEL_B` compares two run selections (`key=value,...` selectors
//! over exhibit/mix/scheme/salt/batch/config, or run-id prefixes) with
//! the same significance gates as `--check-baseline` and exits `3` on
//! significant drift, and `--html FILE` renders a self-contained
//! dashboard (summary tables, per-interval SVG charts, fault-injection
//! outcome breakdowns, profiler hot spots — no external references).
//!
//! `chaos` runs the deterministic crash-recovery torture loop (see
//! `experiments::chaos`): `--rounds` seeded rounds (default 20), each
//! driving a journal + snapshot + run-store campaign through a
//! fault-injecting filesystem and then asserting the recovery contract
//! on a clean restart. `--seed N` reproduces a run bit-identically,
//! `--scratch DIR` relocates the (per-round wiped) working directory,
//! and `--out FILE` writes the timestamp-free report JSON. Exits `3`
//! on any contract violation, keeping the scratch tree for inspection.
//!
//! Exit codes: `0` success, `1` usage error (bad flags or unknown
//! exhibits — rejected up front before any simulation starts), `2`
//! campaign completed but quarantined at least one job, `3` fatal
//! (I/O failure, a `--check-*` gate regression, or a chaos contract
//! violation), `130` interrupted.

use experiments::context::{ExperimentContext, ExperimentParams};
use experiments::manifest::CampaignManifest;
use experiments::{bench, exhibits, faultinject};
use sim_harness::{HarnessConfig, HarnessObservers, HarnessStats, QuarantineEntry};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Usage error: bad flags, unknown exhibits.
const EXIT_USAGE: i32 = 1;
/// The campaign finished but quarantined at least one job.
const EXIT_PARTIAL: i32 = 2;
/// I/O failure or a `--check-*` gate regression.
const EXIT_FATAL: i32 = 3;

/// Flags that consume the following argument.
const VALUE_FLAGS: [&str; 20] = [
    "--csv",
    "--manifest",
    "--trace",
    "--metrics",
    "--profile",
    "--out",
    "--check-baseline",
    "--seeds",
    "--trials",
    "--jobs",
    "--resume",
    "--deadline-s",
    "--snapshot-every",
    "--heartbeat-s",
    "--store",
    "--html",
    "--title",
    "--seed",
    "--rounds",
    "--scratch",
];

/// Flags that take no value.
const BOOL_FLAGS: [&str; 5] = ["--fast", "--list", "--selfcheck", "--check-avf", "--diff"];

/// One-line usage reminder printed alongside flag-validation errors.
const USAGE: &str = "usage: experiments [--fast] [--jobs N] [--profile DIR] [EXHIBIT...] \
     | experiments --list \
     | experiments bench-baseline|fault-inject [--seeds N] [--deadline-s N] \
     [--resume DIR] [--snapshot-every CYCLES] [--selfcheck] [--heartbeat-s N] \
     | experiments report --store DIR [--list] [--diff SEL_A SEL_B] [--html FILE] \
     | experiments chaos [--seed N] [--rounds N] [--scratch DIR] [--out FILE] \
     (see crate docs)";

/// Scan the command line for `--help`/`-h` and for flags the CLI does
/// not know, skipping the value after each of [`VALUE_FLAGS`] as the
/// exhibit filter does. `Ok(true)` asks for usage; `Err` names the
/// first unknown flag, or a value flag given as the last argument (its
/// value is missing, and reading it as absent would drop it silently).
fn scan_flags(args: &[String]) -> Result<bool, String> {
    let mut rejected = None;
    let mut skip_next = false;
    for (i, a) in args.iter().enumerate() {
        if std::mem::take(&mut skip_next) {
            continue;
        }
        if a == "--help" || a == "-h" {
            return Ok(true);
        }
        if VALUE_FLAGS.contains(&a.as_str()) {
            if i + 1 == args.len() {
                rejected.get_or_insert_with(|| format!("{a} wants a value, got nothing"));
            }
            skip_next = true;
        } else if a.starts_with("--") && !BOOL_FLAGS.contains(&a.as_str()) {
            rejected.get_or_insert_with(|| format!("unknown flag: {a}"));
        }
    }
    rejected.map_or(Ok(false), Err)
}

/// The argument after the first occurrence of `flag`, if any.
fn value_of<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parse one positive-integer flag value. `Ok(None)` when the flag was
/// not given; `Err` explains the rejection (zero, negative or garbage —
/// all refused up front, before any simulation starts).
fn parse_positive(flag: &str, raw: Option<&str>) -> Result<Option<u64>, String> {
    let Some(raw) = raw else {
        return Ok(None);
    };
    match raw.parse::<u64>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        Ok(_) => Err(format!("{flag} wants a positive integer, got 0")),
        Err(_) => Err(format!("{flag} wants a positive integer, got {raw:?}")),
    }
}

/// Parse one path-valued flag. `Ok(None)` when the flag was not given;
/// `Err` when its value is empty or another flag (the argument slot was
/// consumed by the next option — a silent foot-gun if accepted as a
/// path).
fn parse_dir(flag: &str, raw: Option<&str>) -> Result<Option<PathBuf>, String> {
    let Some(raw) = raw else {
        return Ok(None);
    };
    if raw.is_empty() {
        return Err(format!("{flag} wants a path, got an empty string"));
    }
    if raw.starts_with("--") {
        return Err(format!(
            "{flag} wants a path, got flag-like {raw:?} (value missing?)"
        ));
    }
    Ok(Some(PathBuf::from(raw)))
}

/// Print `msg` and the usage line, then exit with [`EXIT_USAGE`].
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("{USAGE}");
    std::process::exit(EXIT_USAGE)
}

/// Unwrap a flag check, exiting with usage when it was rejected.
fn or_usage<T>(checked: Result<T, String>) -> T {
    checked.unwrap_or_else(|msg| usage_error(&msg))
}

fn main() {
    sim_harness::signal::install_sigint_handler();
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Without this, `--help` would start the full-budget campaign and a
    // mistyped flag would be dropped by the exhibit filter below.
    if or_usage(scan_flags(&args)) {
        println!("{USAGE}");
        return;
    }
    // `report --list` lists the run store, not the exhibit catalog.
    if args.iter().any(|a| a == "--list") && !args.iter().any(|a| a == "report") {
        print!("{}", exhibits::list_text());
        return;
    }
    let fast = args.iter().any(|a| a == "--fast");
    let value = |flag: &str| value_of(&args, flag);
    let positive_flag = |flag: &str| or_usage(parse_positive(flag, value(flag)));
    let dir_flag = |flag: &str| or_usage(parse_dir(flag, value(flag)));
    let csv_dir = dir_flag("--csv");
    let manifest_dir = dir_flag("--manifest");
    let trace_dir = dir_flag("--trace");
    let metrics_dir = dir_flag("--metrics");
    let profile_dir = dir_flag("--profile");
    let store_dir = dir_flag("--store");
    // With a run store, manifests and metrics default into its artifact
    // directory so a single `--store` flag yields a chartable store;
    // explicit `--manifest`/`--metrics` still win.
    let artifact_default = store_dir
        .as_ref()
        .map(|d| d.join(sim_report::RunStore::ARTIFACT_DIR));
    let manifest_dir = manifest_dir.or_else(|| artifact_default.clone());
    let metrics_dir = metrics_dir.or_else(|| artifact_default.clone());
    if let Some(n) = positive_flag("--jobs") {
        sim_harness::set_default_jobs(n as usize);
    }
    let deadline = positive_flag("--deadline-s").map(Duration::from_secs);
    let snapshot_every = positive_flag("--snapshot-every");
    let selfcheck = args.iter().any(|a| a == "--selfcheck");
    let heartbeat = positive_flag("--heartbeat-s").map(Duration::from_secs);
    let resume_dir = dir_flag("--resume");
    let campaign_cfg = HarnessConfig {
        deadline,
        snapshot_every,
        selfcheck,
        heartbeat,
        ..HarnessConfig::default()
    };

    let mut skip_next = false;
    let requested: Vec<&str> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if VALUE_FLAGS.contains(&a.as_str()) {
                skip_next = true;
                return false;
            }
            !a.starts_with("--")
        })
        .map(|s| s.as_str())
        .collect();

    if requested.first() == Some(&"report") {
        let Some(store) = store_dir else {
            usage_error("report wants --store DIR (the run store to read)");
        };
        let report_args = experiments::ReportArgs {
            store,
            list: args.iter().any(|a| a == "--list"),
            diff: args.iter().any(|a| a == "--diff"),
            selectors: requested[1..].iter().map(|s| s.to_string()).collect(),
            html: dir_flag("--html"),
            title: value("--title").map(String::from),
        };
        std::process::exit(experiments::cmd_report(&report_args));
    }

    if requested.first() == Some(&"chaos") {
        let extra: Vec<&str> = requested[1..].to_vec();
        if !extra.is_empty() {
            eprintln!("chaos takes no exhibit arguments: {extra:?}");
            std::process::exit(EXIT_USAGE);
        }
        // Seed 0 is legitimate — parse it as any u64, not "positive".
        let seed = value("--seed").map_or(0, |raw| {
            raw.parse::<u64>().unwrap_or_else(|_| {
                usage_error(&format!("--seed wants an unsigned integer, got {raw:?}"))
            })
        });
        let chaos_args = experiments::ChaosArgs {
            seed,
            rounds: positive_flag("--rounds").unwrap_or(20),
            scratch: dir_flag("--scratch"),
            out: dir_flag("--out"),
        };
        std::process::exit(experiments::cmd_chaos(&chaos_args));
    }

    if requested.first() == Some(&"bench-baseline") {
        let extra: Vec<&str> = requested[1..].to_vec();
        if !extra.is_empty() {
            eprintln!("bench-baseline takes no exhibit arguments: {extra:?}");
            std::process::exit(EXIT_USAGE);
        }
        let seeds = positive_flag("--seeds").unwrap_or(3);
        run_bench_baseline(
            seeds,
            dir_flag("--out"),
            dir_flag("--check-baseline"),
            metrics_dir,
            trace_dir,
            profile_dir,
            resume_dir,
            store_dir,
            campaign_cfg,
        );
        return;
    }

    if requested.first() == Some(&"fault-inject") {
        let extra: Vec<&str> = requested[1..].to_vec();
        if !extra.is_empty() {
            eprintln!("fault-inject takes no exhibit arguments: {extra:?}");
            std::process::exit(EXIT_USAGE);
        }
        let seeds = positive_flag("--seeds").unwrap_or(3);
        let trials = positive_flag("--trials").unwrap_or(120);
        run_fault_inject(
            seeds,
            trials,
            fast,
            dir_flag("--out"),
            args.iter().any(|a| a == "--check-avf"),
            trace_dir,
            metrics_dir,
            profile_dir,
            resume_dir,
            store_dir,
            campaign_cfg,
        );
        return;
    }

    // Validate every exhibit name before any simulation starts, so a
    // typo at the end of a long campaign list fails in milliseconds,
    // not hours.
    let unknown: Vec<&str> = requested
        .iter()
        .copied()
        .filter(|e| *e != "all" && exhibits::find(e).is_none())
        .collect();
    if !unknown.is_empty() {
        for e in &unknown {
            eprintln!("unknown exhibit: {e}");
        }
        let names: Vec<&str> = exhibits::EXHIBITS.iter().map(|e| e.name).collect();
        eprintln!("known exhibits: {} all", names.join(" "));
        std::process::exit(EXIT_USAGE);
    }

    let wanted: Vec<&str> = if requested.is_empty() || requested.contains(&"all") {
        exhibits::DEFAULT_ORDER.to_vec()
    } else {
        // Dedupe repeated names, preserving first-occurrence order.
        let mut seen = Vec::new();
        for e in requested {
            if !seen.contains(&e) {
                seen.push(e);
            }
        }
        seen
    };

    let params = if fast {
        ExperimentParams::fast()
    } else {
        ExperimentParams::full()
    };
    let mut ctx = ExperimentContext::new(params);
    if let Some(dir) = &trace_dir {
        ctx = ctx.with_trace_dir(dir);
    }
    if let Some(dir) = &metrics_dir {
        ctx = ctx.with_metrics_dir(dir);
    }
    if let Some(dir) = &profile_dir {
        ctx = ctx.with_profile_dir(dir);
    }
    let ctx = ctx;
    // One store handle and one batch number for the whole invocation, so
    // `batch=N` selects everything this campaign produced.
    let mut store = store_dir
        .as_ref()
        .map(|dir| match sim_report::RunStore::open(dir) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("experiments: cannot open run store {}: {e}", dir.display());
                std::process::exit(EXIT_FATAL);
            }
        });
    let batch = store.as_ref().map(|s| s.next_batch()).unwrap_or(0);
    if let Some(s) = &store {
        ctx.set_run_id_base(s.next_seq());
    }
    println!(
        "# smtsim experiment campaign ({} budget: warmup {} insts, {} measured cycles/run)\n",
        if fast { "fast" } else { "full" },
        params.warmup_insts,
        params.run_cycles
    );

    let emit = |exhibit: &str, rendered: Vec<experiments::Rendered>| {
        for (i, r) in rendered.iter().enumerate() {
            println!("{r}");
            if let Some(dir) = &csv_dir {
                let slug = if rendered.len() > 1 {
                    format!("{exhibit}_{i}")
                } else {
                    exhibit.to_string()
                };
                match r.write_csv(dir, &slug) {
                    Ok(path) => println!("  [csv: {}]", path.display()),
                    Err(e) => eprintln!("  [csv export failed: {e}]"),
                }
            }
        }
    };

    for exhibit in wanted {
        let t0 = Instant::now();
        let entry = exhibits::find(exhibit).expect("exhibit validated above");
        emit(exhibit, entry.run(&ctx));
        // Drain per-run manifests accumulated by this exhibit; write
        // them out if requested, otherwise discard to bound memory.
        let manifests = ctx.drain_manifests();
        let simulated = manifests.len();
        let reused = ctx.take_memo_hits();
        if manifest_dir.is_some() || store.is_some() {
            let mut phases = sim_trace::timing::PhaseTimings::default();
            let mut written = 0usize;
            let mut registered = 0usize;
            for mut m in manifests {
                m.exhibit = exhibit.to_string();
                phases.generate_s += m.timings.generate_s;
                phases.warmup_s += m.timings.warmup_s;
                phases.measure_s += m.timings.measure_s;
                phases.collect_s += m.timings.collect_s;
                let mut manifest_path = None;
                if let Some(dir) = &manifest_dir {
                    match m.write(dir) {
                        Ok(path) => {
                            written += 1;
                            manifest_path = Some(path);
                        }
                        Err(e) => eprintln!("  [manifest export failed: {e}]"),
                    }
                }
                if let Some(store) = store.as_mut() {
                    let dirs = experiments::ArtifactDirs {
                        metrics: metrics_dir.clone(),
                        profile: profile_dir.clone(),
                        trace: trace_dir.clone(),
                    };
                    match experiments::register_manifest(
                        store,
                        batch,
                        "exhibit",
                        &m,
                        manifest_path.as_deref(),
                        &dirs,
                    ) {
                        Ok(_) => registered += 1,
                        Err(e) => eprintln!("  [run-store registration failed: {e}]"),
                    }
                }
            }
            if written > 0 {
                println!(
                    "  [{written} manifest(s) -> {}; phases: generate {:.2}s, warmup {:.2}s, measure {:.2}s, collect {:.2}s]",
                    manifest_dir.as_deref().unwrap_or(Path::new("?")).display(),
                    phases.generate_s,
                    phases.warmup_s,
                    phases.measure_s,
                    phases.collect_s
                );
            }
            if registered > 0 {
                println!(
                    "  [{registered} run(s) registered in store {} (batch {batch})]",
                    store_dir.as_deref().unwrap_or(Path::new("?")).display()
                );
            }
        }
        println!(
            "  [{exhibit} took {:.1?}; {simulated} simulated, {reused} reused]\n",
            t0.elapsed()
        );
    }
}

/// Harness observers for a campaign subcommand: a live metrics registry
/// (so `harness.*` counters are always collected) and a Chrome tracer
/// for job lifecycle events when `--trace DIR` is given.
fn campaign_observers(trace_dir: Option<&Path>, name: &str) -> HarnessObservers {
    let tracer = match trace_dir {
        Some(dir) if std::fs::create_dir_all(dir).is_ok() => {
            let path = dir.join(format!("harness_{name}.trace.json"));
            sim_trace::Tracer::new(sim_trace::chrome::ChromeTraceSink::new(path))
        }
        _ => sim_trace::Tracer::off(),
    };
    HarnessObservers {
        metrics: sim_metrics::Metrics::new(),
        tracer,
        shutdown: None, // None → the process SIGINT flag
        progress: None, // installed per-campaign by wire_heartbeat
    }
}

/// Wire one campaign-wide cycle counter into both the harness (which
/// reads it for the heartbeat line and the campaign manifest's
/// `simulated_cycles`) and the experiment context (whose runs feed it
/// through their pipelines' interval clocks). Always on: the cost is
/// one atomic add per 10K simulated cycles per job, and the manifest's
/// fleet-throughput figure should not depend on whether a heartbeat
/// happened to be requested.
fn wire_heartbeat(ctx: &ExperimentContext, obs: &mut HarnessObservers) {
    let progress = Arc::new(AtomicU64::new(0));
    ctx.set_progress_counter(Arc::clone(&progress));
    obs.progress = Some(progress);
}

/// Post-campaign bookkeeping shared by `bench-baseline` and
/// `fault-inject`: print the supervision summary, export harness
/// metrics/traces, write `DIR/campaign.json`, and translate the
/// campaign state into the process exit code. Returns the code the
/// subcommand should exit with after its own reporting (0 or
/// EXIT_PARTIAL); exits directly when the campaign was interrupted.
#[allow(clippy::too_many_arguments)]
fn finish_campaign(
    name: &str,
    interrupted: bool,
    stats: &HarnessStats,
    quarantined: &[QuarantineEntry],
    simulated_cycles: u64,
    resume_dir: Option<&Path>,
    metrics_dir: Option<&Path>,
    obs: &HarnessObservers,
) -> i32 {
    println!(
        "  [harness: {} completed ({} from journal), {} retries, {} quarantined, {} skipped]",
        stats.completed + stats.resumed,
        stats.resumed,
        stats.retries,
        stats.quarantined,
        stats.skipped
    );
    obs.tracer.flush();
    if let Some(dir) = metrics_dir {
        let snapshot = obs.metrics.snapshot();
        let export = std::fs::create_dir_all(dir).and_then(|_| {
            sim_harness::atomic_write(
                &dir.join(format!("harness_{name}.prom")),
                &sim_metrics::export::render_prometheus(&snapshot),
            )
        });
        if let Err(e) = export {
            eprintln!("experiments: harness metrics export failed: {e}");
        }
    }
    let exit_code = if interrupted {
        sim_harness::signal::EXIT_INTERRUPTED
    } else if !quarantined.is_empty() {
        EXIT_PARTIAL
    } else {
        0
    };
    if let Some(dir) = resume_dir {
        let manifest = CampaignManifest {
            schema_version: experiments::manifest::MANIFEST_SCHEMA_VERSION,
            campaign: name.to_string(),
            interrupted,
            exit_code: exit_code as u32,
            stats: *stats,
            simulated_cycles,
            quarantined: quarantined.to_vec(),
        };
        match manifest.write(dir) {
            Ok(path) => println!("  [campaign manifest -> {}]", path.display()),
            Err(e) => eprintln!("experiments: cannot write campaign manifest: {e}"),
        }
    }
    if interrupted {
        match resume_dir {
            Some(dir) => eprintln!(
                "{name}: interrupted; progress journaled — re-run with --resume {} to continue",
                dir.display()
            ),
            None => eprintln!(
                "{name}: interrupted; re-run with --resume DIR to make campaigns resumable"
            ),
        }
        std::process::exit(exit_code);
    }
    exit_code
}

/// The `bench-baseline` subcommand: run under supervision, report,
/// optionally record and/or gate against a recorded baseline.
#[allow(clippy::too_many_arguments)]
fn run_bench_baseline(
    seeds: u64,
    out: Option<PathBuf>,
    check: Option<PathBuf>,
    metrics_dir: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
    profile_dir: Option<PathBuf>,
    resume_dir: Option<PathBuf>,
    store_dir: Option<PathBuf>,
    cfg: HarnessConfig,
) {
    let artifact_dir = store_dir
        .as_ref()
        .map(|d| d.join(sim_report::RunStore::ARTIFACT_DIR));
    // With a store, the baseline JSON lands in its artifact directory by
    // default so the store stays self-describing.
    let out = out.or_else(|| artifact_dir.as_ref().map(|d| d.join("BENCH.json")));
    let mut store = store_dir
        .as_ref()
        .map(|dir| match sim_report::RunStore::open(dir) {
            Ok(s) => s,
            Err(e) => {
                eprintln!(
                    "bench-baseline: cannot open run store {}: {e}",
                    dir.display()
                );
                std::process::exit(EXIT_FATAL);
            }
        });
    let mut ctx = ExperimentContext::new(ExperimentParams::bench());
    if let Some(s) = &store {
        ctx.set_run_id_base(s.next_seq());
    }
    if let Some(dir) = &metrics_dir {
        ctx = ctx.with_metrics_dir(dir);
    }
    if let Some(dir) = &profile_dir {
        ctx = ctx.with_profile_dir(dir);
    }
    println!(
        "# smtsim bench-baseline (schema v{}, {} seed(s)/exhibit, warmup {} insts, {} measured cycles/run)\n",
        bench::BENCH_SCHEMA_VERSION,
        seeds,
        ctx.params.warmup_insts,
        ctx.params.run_cycles
    );
    let mut obs = campaign_observers(trace_dir.as_deref(), "bench");
    wire_heartbeat(&ctx, &mut obs);
    let t0 = Instant::now();
    let campaign = match bench::run_bench_supervised(&ctx, seeds, &cfg, &obs, resume_dir.as_deref())
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench-baseline: campaign journal failure: {e}");
            std::process::exit(EXIT_FATAL);
        }
    };
    println!("  [bench ran in {:.1?}]", t0.elapsed());
    // Bench digests outcomes itself; the drained manifests only feed
    // run-store registration (when `--store` was given).
    let manifests = ctx.drain_manifests();
    let code = finish_campaign(
        "bench-baseline",
        campaign.interrupted,
        &campaign.stats,
        &campaign.baseline.quarantined,
        campaign.simulated_cycles,
        resume_dir.as_deref(),
        metrics_dir.as_deref(),
        &obs,
    );
    let current = campaign.baseline;
    println!("{}", bench::render(&current));

    if let Some(path) = &out {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).ok();
        }
        match current.write(path) {
            Ok(()) => println!("  [baseline -> {}]", path.display()),
            Err(e) => {
                eprintln!("cannot write baseline {}: {e}", path.display());
                std::process::exit(EXIT_FATAL);
            }
        }
    }
    if let Some(store) = store.as_mut() {
        let artifacts = store.artifact_dir();
        let batch = store.next_batch();
        let dirs = experiments::ArtifactDirs {
            metrics: metrics_dir.clone(),
            profile: profile_dir.clone(),
            trace: trace_dir.clone(),
        };
        let mut registered = 0usize;
        for mut m in manifests {
            m.exhibit = bench_exhibit_for(&m);
            // Persist each bench run's manifest alongside the store so
            // the dashboard can audit provenance.
            let manifest_path = m.write(&artifacts).ok();
            match experiments::register_manifest(
                store,
                batch,
                "bench-baseline",
                &m,
                manifest_path.as_deref(),
                &dirs,
            ) {
                Ok(_) => registered += 1,
                Err(e) => eprintln!("  [run-store registration failed: {e}]"),
            }
        }
        println!(
            "  [{registered} run(s) registered in store {} (batch {batch})]",
            store.root().display()
        );
    }
    if let Some(path) = &check {
        let baseline = match bench::BenchBaseline::load(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot load baseline {}: {e}", path.display());
                std::process::exit(EXIT_FATAL);
            }
        };
        let regressions = bench::compare(&baseline, &current);
        if regressions.is_empty() {
            println!(
                "  [baseline check passed against {} ({} exhibit(s))]",
                path.display(),
                baseline.exhibits.len()
            );
        } else {
            eprintln!("baseline check FAILED against {}:", path.display());
            for r in &regressions {
                eprintln!("  - {r}");
            }
            std::process::exit(EXIT_FATAL);
        }
    }
    std::process::exit(code);
}

/// Resolve the exhibit name of one bench-baseline run by matching its
/// (mix, scheme, fetch policy) against the fixed bench case table.
fn bench_exhibit_for(m: &experiments::manifest::RunManifest) -> String {
    bench::bench_cases()
        .iter()
        .find(|c| {
            m.mix == c.mix
                && m.scheme == c.scheme.label()
                && m.fetch_policy == format!("{:?}", c.fetch)
        })
        .map(|c| c.name.to_string())
        .unwrap_or_else(|| "bench".to_string())
}

/// The `fault-inject` subcommand: run the campaigns under supervision,
/// report, optionally record JSON and/or gate on model agreement.
#[allow(clippy::too_many_arguments)]
fn run_fault_inject(
    seeds: u64,
    trials: u64,
    fast: bool,
    out: Option<PathBuf>,
    check_avf: bool,
    trace_dir: Option<PathBuf>,
    metrics_dir: Option<PathBuf>,
    profile_dir: Option<PathBuf>,
    resume_dir: Option<PathBuf>,
    store_dir: Option<PathBuf>,
    cfg: HarnessConfig,
) {
    // With a store, the campaign JSON lands in its artifact directory by
    // default so `report --html` finds the injection outcomes.
    let out = out.or_else(|| {
        store_dir.as_ref().map(|d| {
            d.join(sim_report::RunStore::ARTIFACT_DIR)
                .join("INJECT.json")
        })
    });
    let mut store = store_dir
        .as_ref()
        .map(|dir| match sim_report::RunStore::open(dir) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("fault-inject: cannot open run store {}: {e}", dir.display());
                std::process::exit(EXIT_FATAL);
            }
        });
    let params = if fast {
        ExperimentParams::fast()
    } else {
        ExperimentParams::full()
    };
    let mut ctx = ExperimentContext::new(params);
    if let Some(s) = &store {
        ctx.set_run_id_base(s.next_seq());
    }
    if let Some(dir) = &trace_dir {
        ctx = ctx.with_trace_dir(dir);
    }
    if let Some(dir) = &metrics_dir {
        ctx = ctx.with_metrics_dir(dir);
    }
    if let Some(dir) = &profile_dir {
        ctx = ctx.with_profile_dir(dir);
    }
    println!(
        "# smtsim fault-inject (schema v{}, {} salt(s), {} IQ trials/campaign, warmup {} insts, {} measured cycles/run)\n",
        faultinject::FAULT_SCHEMA_VERSION,
        seeds,
        trials,
        ctx.params.warmup_insts,
        ctx.params.run_cycles
    );
    let mut obs = campaign_observers(trace_dir.as_deref(), "inject");
    wire_heartbeat(&ctx, &mut obs);
    let t0 = Instant::now();
    let campaign = match faultinject::run_fault_inject_supervised(
        &ctx,
        seeds,
        trials,
        &cfg,
        &obs,
        resume_dir.as_deref(),
    ) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("fault-inject: campaign journal failure: {e}");
            std::process::exit(EXIT_FATAL);
        }
    };
    println!("  [fault-inject ran in {:.1?}]", t0.elapsed());
    let code = finish_campaign(
        "fault-inject",
        campaign.interrupted,
        &campaign.stats,
        &campaign.report.quarantined,
        campaign.simulated_cycles,
        resume_dir.as_deref(),
        metrics_dir.as_deref(),
        &obs,
    );
    let report = campaign.report;
    println!("{}", faultinject::render(&report));

    if let Some(path) = &out {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).ok();
        }
        match report.write(path) {
            Ok(()) => println!("  [campaign report -> {}]", path.display()),
            Err(e) => {
                eprintln!("cannot write campaign report {}: {e}", path.display());
                std::process::exit(EXIT_FATAL);
            }
        }
    }
    if let Some(store) = store.as_mut() {
        let batch = store.next_batch();
        match experiments::register_inject(
            store,
            batch,
            &report,
            out.as_deref(),
            metrics_dir.as_deref(),
        ) {
            Ok(ids) => println!(
                "  [{} campaign(s) registered in store {} (batch {batch})]",
                ids.len(),
                store.root().display()
            ),
            Err(e) => eprintln!("fault-inject: run-store registration failed: {e}"),
        }
    }
    if check_avf {
        let failures = faultinject::check(&report);
        if failures.is_empty() {
            println!(
                "  [AVF check passed: ACE analysis agrees with injection on all {} campaign(s)]",
                report.campaigns.len()
            );
        } else {
            eprintln!("AVF check FAILED:");
            for f in &failures {
                eprintln!("  - {f}");
            }
            std::process::exit(EXIT_FATAL);
        }
    }
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::{parse_dir, parse_positive, scan_flags, value_of};
    use std::path::PathBuf;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn help_asks_for_usage_wherever_it_appears() {
        for line in [
            "--help",
            "-h",
            "--fast --help fig2",
            "fig2 -h",
            "--fats --help",
        ] {
            assert_eq!(scan_flags(&args(line)), Ok(true), "{line}");
        }
    }

    #[test]
    fn known_flags_and_their_values_pass() {
        for line in [
            "",
            "--fast table2 fig5",
            "--fast --jobs 2 --csv out --manifest m fig1",
            "bench-baseline --seeds 2 --selfcheck --resume j",
            "fault-inject --fast --check-avf --trials 40",
            "report --store s --diff batch=1 batch=2 --list",
            // A value is never read as a flag, even when it looks like one.
            "report --store s --title --not-a-flag",
        ] {
            assert_eq!(scan_flags(&args(line)), Ok(false), "{line}");
        }
    }

    #[test]
    fn unknown_flags_are_named() {
        for (line, flag) in [
            ("--fats table2", "--fats"),
            ("--fast fig2 --manfest m", "--manfest"),
            ("bench-baseline --seed 2 --check", "--check"),
            ("--fast --jobs=2 fig2", "--jobs=2"),
            // `serve` is not a subcommand; its flags are unknown like any typo.
            ("serve --dir d --drain", "--dir"),
        ] {
            let err = scan_flags(&args(line)).expect_err(line);
            assert!(err.contains(flag), "{line}: {err}");
        }
    }

    #[test]
    fn missing_and_flag_like_values_are_rejected() {
        // A value flag given last has no value; one followed by another
        // flag would read that flag as its path. Both must fail, naming
        // the flag, instead of being dropped or creating `./--fast`.
        for (line, flag) in [
            ("table2 --csv", "--csv"),
            ("--csv --fast table2", "--csv"),
            ("bench-baseline --check-baseline", "--check-baseline"),
            ("--fast fig2 --jobs", "--jobs"),
        ] {
            let a = args(line);
            let err = scan_flags(&a)
                .and_then(|_| parse_dir(flag, value_of(&a, flag)))
                .expect_err(line);
            assert!(err.contains(flag), "{line}: {err}");
        }
    }

    #[test]
    fn positive_integers_parse() {
        assert_eq!(parse_positive("--jobs", Some("1")), Ok(Some(1)));
        assert_eq!(parse_positive("--seeds", Some("42")), Ok(Some(42)));
        assert_eq!(
            parse_positive("--snapshot-every", Some("10000")),
            Ok(Some(10_000))
        );
    }

    #[test]
    fn absent_flag_is_none_not_an_error() {
        assert_eq!(parse_positive("--jobs", None), Ok(None));
    }

    #[test]
    fn zero_is_rejected_with_the_flag_named() {
        let err = parse_positive("--deadline-s", Some("0")).unwrap_err();
        assert!(err.contains("--deadline-s"), "{err}");
        assert!(err.contains("positive"), "{err}");
    }

    #[test]
    fn negative_and_garbage_are_rejected() {
        for bad in ["-3", "abc", "1.5", "", " 7", "0x10", "18446744073709551616"] {
            let err = parse_positive("--jobs", Some(bad))
                .expect_err(&format!("{bad:?} must be rejected"));
            assert!(err.contains("--jobs"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn heartbeat_seconds_validate_like_any_positive_flag() {
        assert_eq!(parse_positive("--heartbeat-s", Some("5")), Ok(Some(5)));
        assert_eq!(parse_positive("--heartbeat-s", None), Ok(None));
        for bad in ["0", "-1", "2.5", "soon"] {
            let err = parse_positive("--heartbeat-s", Some(bad))
                .expect_err(&format!("{bad:?} must be rejected"));
            assert!(err.contains("--heartbeat-s"), "{err}");
        }
    }

    #[test]
    fn profile_dir_accepts_paths_and_rejects_garbage() {
        assert_eq!(
            parse_dir("--profile", Some("out/profiles")),
            Ok(Some(PathBuf::from("out/profiles")))
        );
        assert_eq!(parse_dir("--profile", None), Ok(None));
        let err = parse_dir("--profile", Some("")).unwrap_err();
        assert!(err.contains("--profile"), "{err}");
        assert!(err.contains("empty"), "{err}");
        // The value slot swallowed the next flag: refuse, don't create
        // a directory literally named "--trace".
        let err = parse_dir("--profile", Some("--trace")).unwrap_err();
        assert!(err.contains("--profile"), "{err}");
        assert!(err.contains("--trace"), "{err}");
    }
}
