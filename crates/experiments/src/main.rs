//! CLI: regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [--fast] [--list] [--jobs N] [--csv DIR] [--manifest DIR]
//!             [--trace DIR] [--metrics DIR] [--profile DIR] [--store DIR]
//!             [EXHIBIT...]
//! experiments bench-baseline [--seeds N] [--jobs N] [--out FILE]
//!             [--check-baseline FILE] [--resume DIR] [--deadline-s N]
//!             [--snapshot-every CYCLES] [--selfcheck] [--heartbeat-s N]
//!             [--trace DIR] [--metrics DIR] [--profile DIR] [--store DIR]
//! experiments fault-inject [--fast] [--seeds N] [--trials N] [--jobs N]
//!             [--out FILE] [--check-avf] [--resume DIR] [--deadline-s N]
//!             [--heartbeat-s N] [--trace DIR] [--metrics DIR]
//!             [--profile DIR] [--store DIR]
//! experiments report [--store DIR] [--list] [--diff] [--html FILE]
//!             [--title TITLE] [SELECTOR...]
//! experiments chaos [--seed N] [--rounds N] [--scratch DIR] [--out FILE]
//! ```
//!
//! With no subcommand and no exhibit arguments, everything runs (`all`). `--fast` uses the
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
//! `--help` (or `-h`) anywhere prints the synopsis above and exits 0. A
//! subcommand is the first argument, and each flag belongs to the modes
//! whose synopsis lists it. A flag the mode does not take, a flag given
//! twice, a value flag given last, a value of the wrong kind (a path
//! that is empty or starts with `--` swallowed the next flag) or a
//! positional to a mode that takes none exits 1 with usage, naming the
//! flag and the mode, before anything runs or any file is created.
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
//! `--store DIR` (every simulating mode) registers every finished
//! simulation in the append-only run store `DIR/runs.jsonl` — scheme, seed, config
//! hash, headline metrics, and the paths of whatever artifacts the run
//! exported. When `--store` is given, `--manifest` and `--metrics`
//! default to `DIR/artifacts` so one flag yields a fully chartable
//! store; explicit flags still override. `bench-baseline` defaults
//! `--out` to `DIR/artifacts/BENCH.json` and `fault-inject` to
//! `DIR/artifacts/INJECT.json`, and each fault-inject scheme campaign
//! registers as its own record.
//!
//! `report` reads back the store that `--store DIR` names, which must
//! hold a `runs.jsonl` (reading never creates a store). `--list` prints
//! the index, `--diff SEL_A SEL_B` compares two run selections
//! (`key=value,...` selectors
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
//! Exit codes: `0` success, `1` usage error (a bad flag or value, an
//! unknown exhibit, or `report` on a missing store — rejected before
//! any simulation starts), `2` campaign completed but quarantined at
//! least one job, `3` fatal (I/O failure, a `--check-*` gate
//! regression, or a chaos contract violation), `130` interrupted.

use experiments::context::{ExperimentContext, ExperimentParams};
use experiments::manifest::CampaignManifest;
use experiments::{bench, exhibits, faultinject, ArtifactDirs};
use experiments::{EXIT_FATAL, EXIT_USAGE};
use sim_harness::{HarnessConfig, HarnessObservers, HarnessStats, QuarantineEntry};
use sim_report::RunStore;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a flag's value must be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// No value: the flag is on when given.
    Switch,
    /// An integer of at least 1.
    Positive,
    /// Any `u64`, 0 included.
    Uint,
    /// A non-empty path. One that starts with `--` is the next flag,
    /// swallowed because this flag's own value is missing.
    Path,
    /// Any text, even `--x`.
    Text,
}

impl Kind {
    /// Check one value; `Err` says what the flag wants instead.
    fn parse(self, raw: &str) -> Result<Value, &'static str> {
        match self {
            Kind::Switch => Ok(Value::On),
            Kind::Positive => match raw.parse() {
                Ok(n) if n > 0 => Ok(Value::Num(n)),
                _ => Err("a positive integer"),
            },
            Kind::Uint => raw
                .parse()
                .map(Value::Num)
                .map_err(|_| "an unsigned integer"),
            Kind::Path if raw.is_empty() || raw.starts_with("--") => Err("a path"),
            Kind::Path => Ok(Value::Path(raw.into())),
            Kind::Text => Ok(Value::Text(raw.to_string())),
        }
    }
}

/// The flag table: every flag the CLI knows, the kind of value it takes
/// and how usage names that value.
static FLAGS: [(&str, Kind, &str); 25] = [
    ("--fast", Kind::Switch, ""),
    ("--list", Kind::Switch, ""),
    ("--selfcheck", Kind::Switch, ""),
    ("--check-avf", Kind::Switch, ""),
    ("--diff", Kind::Switch, ""),
    ("--jobs", Kind::Positive, "N"),
    ("--seeds", Kind::Positive, "N"),
    ("--trials", Kind::Positive, "N"),
    ("--deadline-s", Kind::Positive, "N"),
    ("--snapshot-every", Kind::Positive, "CYCLES"),
    ("--heartbeat-s", Kind::Positive, "N"),
    ("--rounds", Kind::Positive, "N"),
    ("--seed", Kind::Uint, "N"),
    ("--csv", Kind::Path, "DIR"),
    ("--manifest", Kind::Path, "DIR"),
    ("--trace", Kind::Path, "DIR"),
    ("--metrics", Kind::Path, "DIR"),
    ("--profile", Kind::Path, "DIR"),
    ("--out", Kind::Path, "FILE"),
    ("--check-baseline", Kind::Path, "FILE"),
    ("--resume", Kind::Path, "DIR"),
    ("--store", Kind::Path, "DIR"),
    ("--html", Kind::Path, "FILE"),
    ("--scratch", Kind::Path, "DIR"),
    ("--title", Kind::Text, "TITLE"),
];

/// One row of the subcommand table.
#[derive(Debug)]
struct Subcommand {
    /// The first argument that selects this mode. The first row is the
    /// default mode, which no argument selects.
    name: &'static str,
    /// Every flag the mode reads; the parser rejects any other.
    flags: &'static [&'static str],
    /// How usage names the positional arguments; `None` when the mode
    /// takes none.
    positionals: Option<&'static str>,
    /// Runs the mode and returns the process exit code; `Err` is a fatal
    /// error, which exits with [`EXIT_FATAL`].
    run: fn(&Cli) -> Result<i32, String>,
}

/// The subcommand table: for each mode, the flags it reads and whether
/// it takes positional arguments.
#[rustfmt::skip]
static SUBCOMMANDS: [Subcommand; 5] = [
    Subcommand {
        name: "exhibits",
        flags: &["--fast", "--list", "--jobs", "--csv", "--manifest", "--trace", "--metrics",
            "--profile", "--store"],
        positionals: Some("[EXHIBIT...]"),
        run: run_exhibits,
    },
    Subcommand {
        name: "bench-baseline",
        flags: &["--seeds", "--jobs", "--out", "--check-baseline", "--resume", "--deadline-s",
            "--snapshot-every", "--selfcheck", "--heartbeat-s", "--trace", "--metrics",
            "--profile", "--store"],
        positionals: None,
        run: run_bench_baseline,
    },
    Subcommand {
        name: "fault-inject",
        flags: &["--fast", "--seeds", "--trials", "--jobs", "--out", "--check-avf", "--resume",
            "--deadline-s", "--heartbeat-s", "--trace", "--metrics", "--profile", "--store"],
        positionals: None,
        run: run_fault_inject,
    },
    Subcommand {
        name: "report",
        flags: &["--store", "--list", "--diff", "--html", "--title"],
        positionals: Some("[SELECTOR...]"),
        run: run_report,
    },
    Subcommand {
        name: "chaos",
        flags: &["--seed", "--rounds", "--scratch", "--out"],
        positionals: None,
        run: run_chaos,
    },
];

/// One parsed flag value.
#[derive(Debug, PartialEq)]
enum Value {
    On,
    Num(u64),
    Path(PathBuf),
    Text(String),
}

/// A command line checked against its mode's row.
#[derive(Debug)]
struct Cli {
    cmd: &'static Subcommand,
    values: Vec<(&'static str, Value)>,
    positionals: Vec<String>,
}

impl Cli {
    fn value(&self, flag: &str) -> Option<&Value> {
        self.values.iter().find(|(f, _)| *f == flag).map(|(_, v)| v)
    }

    /// Whether the switch `flag` was given.
    fn on(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    fn num(&self, flag: &str) -> Option<u64> {
        let Value::Num(n) = self.value(flag)? else {
            unreachable!("{flag} takes no number")
        };
        Some(*n)
    }

    fn path(&self, flag: &str) -> Option<PathBuf> {
        let Value::Path(path) = self.value(flag)? else {
            unreachable!("{flag} takes no path")
        };
        Some(path.clone())
    }

    fn text(&self, flag: &str) -> Option<String> {
        let Value::Text(text) = self.value(flag)? else {
            unreachable!("{flag} takes no text")
        };
        Some(text.clone())
    }
}

/// Check a whole command line against the row of the mode its first
/// argument selects. `Ok(None)` asks for usage; `Err` names the mode and
/// the offending flag or argument.
fn parse(args: &[String]) -> Result<Option<Cli>, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(None);
    }
    let first = args.first().map(String::as_str);
    let (cmd, rest) = match SUBCOMMANDS[1..].iter().find(|c| first == Some(c.name)) {
        Some(cmd) => (cmd, &args[1..]),
        None => (&SUBCOMMANDS[0], args),
    };
    let mode = cmd.name;
    let mut cli = Cli {
        cmd,
        values: Vec::new(),
        positionals: Vec::new(),
    };
    let mut rest = rest.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            if cmd.positionals.is_none() {
                return Err(format!("{mode} takes no positional arguments, got {arg:?}"));
            }
            cli.positionals.push(arg.clone());
            continue;
        }
        let Some(&(flag, kind, _)) = FLAGS
            .iter()
            .find(|(f, ..)| f == arg && cmd.flags.contains(f))
        else {
            return Err(format!("{mode} does not take {arg}"));
        };
        if cli.value(flag).is_some() {
            return Err(format!("{mode}: {flag} given twice"));
        }
        let value = if kind == Kind::Switch {
            Value::On
        } else {
            let raw = rest
                .next()
                .ok_or_else(|| format!("{mode}: {flag} wants a value, got nothing"))?;
            kind.parse(raw)
                .map_err(|want| format!("{mode}: {flag} wants {want}, got {raw:?}"))?
        };
        cli.values.push((flag, value));
    }
    Ok(Some(cli))
}

/// The synopsis of every mode, generated from the two tables and
/// wrapped at 80 columns.
fn usage() -> String {
    let mut text = String::new();
    for (i, cmd) in SUBCOMMANDS.iter().enumerate() {
        let flags = cmd
            .flags
            .iter()
            .map(|&flag| match FLAGS.iter().find(|(f, ..)| *f == flag) {
                Some((_, Kind::Switch, _)) => format!("[{flag}]"),
                Some((.., meta)) => format!("[{flag} {meta}]"),
                None => unreachable!("{flag} is not in the flag table"),
            });
        let name = (i > 0).then(|| cmd.name.to_string());
        let mut line = String::from("       experiments");
        for word in name
            .into_iter()
            .chain(flags)
            .chain(cmd.positionals.map(String::from))
        {
            if line.len() + 1 + word.len() > 80 {
                text += &(line + "\n");
                // Continue under the first word after `usage: experiments`.
                line = " ".repeat(18);
            }
            line += &format!(" {word}");
        }
        text += &(line + "\n");
    }
    text.replacen("       ", "usage: ", 1)
}

/// Write `text` to stderr in one write whose failure is ignored:
/// `eprint!` panics when stderr is a closed pipe, which would turn a
/// usage error's exit 1 into a panic's 101.
fn print_stderr(text: &str) {
    let _ = std::io::stderr().write_all(text.as_bytes());
}

/// Print `msg` and usage, then exit with [`EXIT_USAGE`].
fn usage_error(msg: &str) -> ! {
    print_stderr(&format!("{msg}\n{}", usage()));
    std::process::exit(EXIT_USAGE)
}

fn main() {
    sim_harness::signal::install_sigint_handler();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(Some(cli)) => cli,
        Ok(None) => {
            print!("{}", usage());
            return;
        }
        Err(msg) => usage_error(&msg),
    };
    if let Some(n) = cli.num("--jobs") {
        sim_harness::set_default_jobs(usize::try_from(n).unwrap_or(usize::MAX));
    }
    match (cli.cmd.run)(&cli) {
        Ok(code) => std::process::exit(code),
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(EXIT_FATAL)
        }
    }
}

/// The exhibits to run, in order and each once: every exhibit for no
/// name or `all`. `Err` lists the names that match no exhibit.
fn select_exhibits(names: &[String]) -> Result<Vec<&str>, Vec<&str>> {
    let unknown: Vec<&str> = names
        .iter()
        .map(String::as_str)
        .filter(|e| *e != "all" && exhibits::find(e).is_none())
        .collect();
    if !unknown.is_empty() {
        return Err(unknown);
    }
    if names.is_empty() || names.iter().any(|e| e == "all") {
        return Ok(exhibits::DEFAULT_ORDER.to_vec());
    }
    let mut seen = std::collections::HashSet::new();
    Ok(names
        .iter()
        .map(String::as_str)
        .filter(|e| seen.insert(*e))
        .collect())
}

/// The `--store` run store, if one was given, opened and created if
/// missing.
fn open_store(cli: &Cli) -> Result<Option<RunStore>, String> {
    let Some(dir) = cli.path("--store") else {
        return Ok(None);
    };
    RunStore::open(&dir).map(Some).map_err(|e| {
        let mode = cli.cmd.name;
        format!("{mode}: cannot open run store {}: {e}", dir.display())
    })
}

/// The context a simulating mode runs on, with run ids after the store's
/// records (so artifact names never collide across invocations) and the
/// directories its runs export into; metrics default to the store's
/// artifact directory, so one `--store` flag yields a chartable store.
fn context(
    cli: &Cli,
    params: ExperimentParams,
    store: Option<&RunStore>,
) -> (ExperimentContext, ArtifactDirs) {
    let dirs = ArtifactDirs {
        metrics: cli
            .path("--metrics")
            .or_else(|| store.map(RunStore::artifact_dir)),
        profile: cli.path("--profile"),
        trace: cli.path("--trace"),
    };
    let mut ctx = ExperimentContext::new(params);
    if let Some(dir) = &dirs.trace {
        ctx = ctx.with_trace_dir(dir);
    }
    if let Some(dir) = &dirs.metrics {
        ctx = ctx.with_metrics_dir(dir);
    }
    if let Some(dir) = &dirs.profile {
        ctx = ctx.with_profile_dir(dir);
    }
    if let Some(store) = store {
        ctx.set_run_id_base(store.next_seq());
    }
    (ctx, dirs)
}

/// The supervisor settings of a campaign mode.
fn harness_config(cli: &Cli) -> HarnessConfig {
    HarnessConfig {
        deadline: cli.num("--deadline-s").map(Duration::from_secs),
        snapshot_every: cli.num("--snapshot-every"),
        selfcheck: cli.on("--selfcheck"),
        heartbeat: cli.num("--heartbeat-s").map(Duration::from_secs),
        ..HarnessConfig::default()
    }
}

/// The default mode: run the named exhibits on one shared context.
fn run_exhibits(cli: &Cli) -> Result<i32, String> {
    if cli.on("--list") {
        print!("{}", exhibits::list_text());
        return Ok(0);
    }
    // Validate every exhibit name before any simulation starts, so a
    // typo at the end of a long campaign list fails in milliseconds,
    // not hours.
    let wanted = match select_exhibits(&cli.positionals) {
        Ok(wanted) => wanted,
        Err(unknown) => {
            let mut msg: String = unknown
                .iter()
                .map(|e| format!("unknown exhibit: {e}\n"))
                .collect();
            let names: Vec<&str> = exhibits::EXHIBITS.iter().map(|e| e.name).collect();
            msg += &format!("known exhibits: {} all\n", names.join(" "));
            print_stderr(&msg);
            return Ok(EXIT_USAGE);
        }
    };
    let fast = cli.on("--fast");
    let params = if fast {
        ExperimentParams::fast()
    } else {
        ExperimentParams::full()
    };
    // One store handle and one batch number for the whole invocation, so
    // `batch=N` selects everything this campaign produced.
    let mut store = open_store(cli)?;
    let (ctx, dirs) = context(cli, params, store.as_ref());
    let batch = store.as_ref().map_or(0, RunStore::next_batch);
    let manifest_dir = cli
        .path("--manifest")
        .or_else(|| store.as_ref().map(RunStore::artifact_dir));
    let csv_dir = cli.path("--csv");
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
            if let Some(store) = store.as_ref().filter(|_| registered > 0) {
                println!(
                    "  [{registered} run(s) registered in store {} (batch {batch})]",
                    store.root().display()
                );
            }
        }
        println!(
            "  [{exhibit} took {:.1?}; {simulated} simulated, {reused} reused]\n",
            t0.elapsed()
        );
    }
    Ok(0)
}

/// Harness observers for a campaign subcommand: a live metrics registry
/// (so `harness.*` counters are always collected), a Chrome tracer for
/// job lifecycle events when the context traces, and a cycle counter
/// that the context's runs feed and the heartbeat and the campaign
/// manifest's `simulated_cycles` read. The counter costs one atomic add
/// per 10K simulated cycles per job, so it is on even without heartbeats.
fn campaign_observers(ctx: &ExperimentContext, name: &str) -> HarnessObservers {
    let tracer = match ctx.trace_dir() {
        Some(dir) if std::fs::create_dir_all(dir).is_ok() => {
            let path = dir.join(format!("harness_{name}.trace.json"));
            sim_trace::Tracer::new(sim_trace::chrome::ChromeTraceSink::new(path))
        }
        _ => sim_trace::Tracer::off(),
    };
    let progress = Arc::new(AtomicU64::new(0));
    ctx.set_progress_counter(Arc::clone(&progress));
    HarnessObservers {
        metrics: sim_metrics::Metrics::new(),
        tracer,
        shutdown: None, // None → the process SIGINT flag
        progress: Some(progress),
    }
}

/// Post-campaign bookkeeping shared by `bench-baseline` and
/// `fault-inject`: print the supervision summary, export harness
/// metrics/traces, write `DIR/campaign.json`, and translate the
/// campaign state into the process exit code. Returns the code the
/// subcommand should exit with after its own reporting (0 or
/// EXIT_PARTIAL); exits directly when the campaign was interrupted.
fn finish_campaign(
    cli: &Cli,
    metrics_dir: Option<&Path>,
    obs: &HarnessObservers,
    interrupted: bool,
    stats: &HarnessStats,
    quarantined: &[QuarantineEntry],
    simulated_cycles: u64,
) -> i32 {
    let name = cli.cmd.name;
    let resume_dir = cli.path("--resume");
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
    let exit_code = sim_harness::signal::campaign_exit_code(interrupted, quarantined.len());
    if let Some(dir) = &resume_dir {
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
fn run_bench_baseline(cli: &Cli) -> Result<i32, String> {
    let seeds = cli.num("--seeds").unwrap_or(3);
    let mut store = open_store(cli)?;
    let (ctx, dirs) = context(cli, ExperimentParams::bench(), store.as_ref());
    // With a store, the baseline JSON lands in its artifact directory by
    // default so the store stays self-describing.
    let out = cli
        .path("--out")
        .or_else(|| store.as_ref().map(|s| s.artifact_dir().join("BENCH.json")));
    println!(
        "# smtsim bench-baseline (schema v{}, {} seed(s)/exhibit, warmup {} insts, {} measured cycles/run)\n",
        bench::BENCH_SCHEMA_VERSION,
        seeds,
        ctx.params.warmup_insts,
        ctx.params.run_cycles
    );
    let obs = campaign_observers(&ctx, "bench");
    let t0 = Instant::now();
    let resume_dir = cli.path("--resume");
    let config = harness_config(cli);
    let campaign = bench::run_bench_supervised(&ctx, seeds, &config, &obs, resume_dir.as_deref())
        .map_err(|e| format!("bench-baseline: campaign journal failure: {e}"))?;
    println!("  [bench ran in {:.1?}]", t0.elapsed());
    // Bench digests outcomes itself; the drained manifests only feed
    // run-store registration (when `--store` was given).
    let manifests = ctx.drain_manifests();
    let code = finish_campaign(
        cli,
        dirs.metrics.as_deref(),
        &obs,
        campaign.interrupted,
        &campaign.stats,
        &campaign.baseline.quarantined,
        campaign.simulated_cycles,
    );
    let current = campaign.baseline;
    println!("{}", bench::render(&current));

    if let Some(path) = &out {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).ok();
        }
        current
            .write(path)
            .map_err(|e| format!("cannot write baseline {}: {e}", path.display()))?;
        println!("  [baseline -> {}]", path.display());
    }
    if let Some(store) = store.as_mut() {
        let artifacts = store.artifact_dir();
        let batch = store.next_batch();
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
    if let Some(path) = cli.path("--check-baseline") {
        let baseline = bench::BenchBaseline::load(&path)
            .map_err(|e| format!("cannot load baseline {}: {e}", path.display()))?;
        let regressions = bench::compare(&baseline, &current);
        if !regressions.is_empty() {
            let list: String = regressions.iter().map(|r| format!("\n  - {r}")).collect();
            return Err(format!(
                "baseline check FAILED against {}:{list}",
                path.display()
            ));
        }
        println!(
            "  [baseline check passed against {} ({} exhibit(s))]",
            path.display(),
            baseline.exhibits.len()
        );
    }
    Ok(code)
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
fn run_fault_inject(cli: &Cli) -> Result<i32, String> {
    let seeds = cli.num("--seeds").unwrap_or(3);
    let trials = cli.num("--trials").unwrap_or(120);
    let params = if cli.on("--fast") {
        ExperimentParams::fast()
    } else {
        ExperimentParams::full()
    };
    let mut store = open_store(cli)?;
    let (ctx, dirs) = context(cli, params, store.as_ref());
    // With a store, the campaign JSON lands in its artifact directory by
    // default so `report --html` finds the injection outcomes.
    let out = cli
        .path("--out")
        .or_else(|| store.as_ref().map(|s| s.artifact_dir().join("INJECT.json")));
    println!(
        "# smtsim fault-inject (schema v{}, {} salt(s), {} IQ trials/campaign, warmup {} insts, {} measured cycles/run)\n",
        faultinject::FAULT_SCHEMA_VERSION,
        seeds,
        trials,
        ctx.params.warmup_insts,
        ctx.params.run_cycles
    );
    let obs = campaign_observers(&ctx, "inject");
    let t0 = Instant::now();
    let resume_dir = cli.path("--resume");
    let config = harness_config(cli);
    let campaign = faultinject::run_fault_inject_supervised(
        &ctx,
        seeds,
        trials,
        &config,
        &obs,
        resume_dir.as_deref(),
    )
    .map_err(|e| format!("fault-inject: campaign journal failure: {e}"))?;
    println!("  [fault-inject ran in {:.1?}]", t0.elapsed());
    let code = finish_campaign(
        cli,
        dirs.metrics.as_deref(),
        &obs,
        campaign.interrupted,
        &campaign.stats,
        &campaign.report.quarantined,
        campaign.simulated_cycles,
    );
    let report = campaign.report;
    println!("{}", faultinject::render(&report));

    if let Some(path) = &out {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).ok();
        }
        report
            .write(path)
            .map_err(|e| format!("cannot write campaign report {}: {e}", path.display()))?;
        println!("  [campaign report -> {}]", path.display());
    }
    if let Some(store) = store.as_mut() {
        let batch = store.next_batch();
        match experiments::register_inject(
            store,
            batch,
            &report,
            out.as_deref(),
            dirs.metrics.as_deref(),
        ) {
            Ok(ids) => println!(
                "  [{} campaign(s) registered in store {} (batch {batch})]",
                ids.len(),
                store.root().display()
            ),
            Err(e) => eprintln!("fault-inject: run-store registration failed: {e}"),
        }
    }
    if cli.on("--check-avf") {
        let failures = faultinject::check(&report);
        if !failures.is_empty() {
            let list: String = failures.iter().map(|f| format!("\n  - {f}")).collect();
            return Err(format!("AVF check FAILED:{list}"));
        }
        println!(
            "  [AVF check passed: ACE analysis agrees with injection on all {} campaign(s)]",
            report.campaigns.len()
        );
    }
    Ok(code)
}

/// The `report` subcommand: read a run store back.
fn run_report(cli: &Cli) -> Result<i32, String> {
    let Some(store) = cli.path("--store") else {
        usage_error("report wants --store DIR (the run store to read)");
    };
    Ok(experiments::cmd_report(&experiments::ReportArgs {
        store,
        list: cli.on("--list"),
        diff: cli.on("--diff"),
        selectors: cli.positionals.clone(),
        html: cli.path("--html"),
        title: cli.text("--title"),
    }))
}

/// The `chaos` subcommand: the crash-recovery torture loop.
fn run_chaos(cli: &Cli) -> Result<i32, String> {
    Ok(experiments::cmd_chaos(&experiments::ChaosArgs {
        seed: cli.num("--seed").unwrap_or(0),
        rounds: cli.num("--rounds").unwrap_or(20),
        scratch: cli.path("--scratch"),
        out: cli.path("--out"),
    }))
}

#[cfg(test)]
mod tests {
    use super::{parse, select_exhibits, usage, Cli, Kind, Value, FLAGS, SUBCOMMANDS};
    use std::path::PathBuf;

    /// Split a command line as a shell would, for lines made of plain
    /// words and `"..."` quotes.
    fn args(line: &str) -> Vec<String> {
        let mut words = Vec::new();
        let mut word: Option<String> = None;
        let mut quoted = false;
        for c in line.chars() {
            match c {
                '"' => {
                    quoted = !quoted;
                    word.get_or_insert_with(String::new);
                }
                ' ' if !quoted => words.extend(word.take()),
                _ => word.get_or_insert_with(String::new).push(c),
            }
        }
        words.extend(word);
        words
    }

    fn accepted(line: &str) -> Cli {
        match parse(&args(line)) {
            Ok(Some(cli)) => cli,
            other => panic!("{line:?} must parse, got {other:?}"),
        }
    }

    fn rejected(words: &[&str]) -> String {
        let words: Vec<String> = words.iter().map(|w| w.to_string()).collect();
        parse(&words).expect_err(&format!("{words:?} must be rejected"))
    }

    /// A valid value of each kind, and what it parses to.
    fn sample(kind: Kind) -> (Option<&'static str>, Value) {
        match kind {
            Kind::Switch => (None, Value::On),
            Kind::Positive => (Some("2"), Value::Num(2)),
            Kind::Uint => (Some("0"), Value::Num(0)),
            Kind::Path => (Some("p"), Value::Path(PathBuf::from("p"))),
            Kind::Text => (Some("--x"), Value::Text("--x".to_string())),
        }
    }

    #[test]
    fn every_flag_is_listed_once_and_read_by_some_mode() {
        for (i, (flag, ..)) in FLAGS.iter().enumerate() {
            assert!(!FLAGS[..i].iter().any(|(f, ..)| f == flag), "{flag} twice");
            assert!(
                SUBCOMMANDS.iter().any(|c| c.flags.contains(flag)),
                "no mode reads {flag}"
            );
        }
        assert!(usage().starts_with("usage: experiments"));
    }

    #[test]
    fn each_mode_takes_exactly_the_flags_of_its_row() {
        for (i, cmd) in SUBCOMMANDS.iter().enumerate() {
            for &(flag, kind, _) in &FLAGS {
                let (raw, value) = sample(kind);
                let line: Vec<String> = (i > 0)
                    .then_some(cmd.name)
                    .into_iter()
                    .chain([flag])
                    .chain(raw)
                    .map(String::from)
                    .collect();
                match parse(&line) {
                    Ok(Some(cli)) if cmd.flags.contains(&flag) => {
                        assert_eq!(cli.cmd.name, cmd.name, "{line:?}");
                        assert_eq!(cli.value(flag), Some(&value), "{line:?}");
                    }
                    Err(err) if !cmd.flags.contains(&flag) => {
                        assert!(err.contains(flag) && err.contains(cmd.name), "{err}");
                    }
                    other => panic!("{line:?}: {other:?}"),
                }
            }
        }
    }

    /// How the parser this one replaced read a line: the value after
    /// the first occurrence of each value flag, each switch's presence,
    /// and the other non-flag arguments, the first of which named the
    /// mode when it was a subcommand.
    fn previous_reading(args: &[String]) -> (String, Vec<(&str, String)>, Vec<String>) {
        let takes_value = |a: &str| FLAGS.iter().any(|&(f, k, _)| f == a && k != Kind::Switch);
        let mut positionals = Vec::new();
        let mut skip = false;
        for a in args {
            if std::mem::take(&mut skip) {
                continue;
            }
            skip = takes_value(a);
            if !skip && !a.starts_with("--") {
                positionals.push(a.clone());
            }
        }
        let mode = match positionals.first() {
            Some(p) if SUBCOMMANDS[1..].iter().any(|c| c.name == p) => positionals.remove(0),
            _ => SUBCOMMANDS[0].name.to_string(),
        };
        let values = FLAGS
            .iter()
            .filter_map(|&(flag, kind, _)| {
                let i = args.iter().position(|a| a == flag)?;
                let raw = if kind == Kind::Switch {
                    ""
                } else {
                    &args[i + 1]
                };
                Some((flag, raw.to_string()))
            })
            .collect();
        (mode, values, positionals)
    }

    /// The same view of a line this parser accepted.
    fn reading(cli: &Cli) -> (String, Vec<(&str, String)>, Vec<String>) {
        let values = FLAGS
            .iter()
            .filter_map(|&(flag, ..)| {
                let raw = match cli.value(flag)? {
                    Value::On => String::new(),
                    Value::Num(n) => n.to_string(),
                    Value::Path(p) => p.display().to_string(),
                    Value::Text(t) => t.clone(),
                };
                Some((flag, raw))
            })
            .collect();
        (cli.cmd.name.to_string(), values, cli.positionals.clone())
    }

    /// Every distinct command line that CI, README.md, EXPERIMENTS.md,
    /// DESIGN.md and the verify notes document as working.
    const DOCUMENTED: &[&str] = &[
        "",
        "all",
        "--fast all",
        "fig1",
        "fig2",
        "fig5",
        "fig6",
        "fig8",
        "fig9",
        "fig10",
        "table1",
        "table2",
        "table3",
        "--list",
        "--csv DIR",
        "--manifest DIR",
        "--fast --manifest /tmp/manifests fig2",
        "--fast --csv /tmp/a --manifest /tmp/ma fig1 fig5",
        "--fast --csv /tmp/b fig5",
        "--fast --manifest out/ fig2",
        "--fast --trace out/ fig5",
        "--fast --metrics out/ --manifest out/ fig2 fig8",
        "--fast --store /tmp/store fig2 fig8",
        "--fast --store /tmp/store fig2",
        "--fast --store runs/ fig2 fig5",
        "--fast --profile prof/ fig5",
        "--fast --profile prof/ --trace traces/ fig5",
        "--fast --manifest /tmp/m --trace /tmp/tr fig2",
        "--fast --metrics /tmp/mx --manifest /tmp/mx fig2",
        "--fast --profile /tmp/p --trace /tmp/ptr fig2",
        "--fast --store /tmp/vs fig2",
        "bench-baseline --seeds 2 --out /tmp/BENCH_ci.json --metrics /tmp/bench-metrics",
        "bench-baseline --seeds 2 --check-baseline /tmp/BENCH_ci.json",
        "bench-baseline --seeds 1 --heartbeat-s 1 --profile /tmp/profiles --trace /tmp/profile-traces",
        "bench-baseline --seeds 2 --out /tmp/BENCH_clean.json",
        "bench-baseline --seeds 2 --jobs 1 --resume /tmp/bench-journal --out /tmp/BENCH_interrupted.json",
        "bench-baseline --seeds 2 --resume /tmp/bench-journal --out /tmp/BENCH_resumed.json",
        "bench-baseline --seeds 1 --out /tmp/BENCH_clean.json",
        "bench-baseline --seeds 1 --jobs 1 --selfcheck --resume /tmp/midrun-journal --metrics /tmp/midrun-metrics --out /tmp/BENCH_killed.json",
        "bench-baseline --seeds 1 --jobs 1 --selfcheck --resume /tmp/midrun-journal --metrics /tmp/midrun-metrics --out /tmp/BENCH_resumed.json",
        "bench-baseline --out BENCH_2026-08-07.json",
        "bench-baseline --check-baseline BENCH_2026-08-07.json",
        "bench-baseline --heartbeat-s 5",
        "bench-baseline --resume out/ --out BENCH.json",
        "bench-baseline --resume out/ --snapshot-every 50000 --selfcheck",
        "bench-baseline --seeds 3 --store runs/",
        "bench-baseline --seeds 2 --out /tmp/B.json",
        "bench-baseline --seeds 2 --check-baseline /tmp/B.json",
        "bench-baseline --seeds 1 --jobs 1 --heartbeat-s 1 --resume /tmp/hj --out /tmp/HB.json",
        "bench-baseline --seeds 2 --jobs 1 --resume /tmp/j --out /tmp/B2.json",
        "bench-baseline --seeds 1 --jobs 1 --selfcheck --resume /tmp/mj --out /tmp/BK.json",
        "bench-baseline --seeds 1 --jobs 1 --selfcheck --resume /tmp/mj --out /tmp/BR.json",
        "fault-inject --fast --seeds 1 --trials 80 --out /tmp/INJECT_ci.json --check-avf",
        "fault-inject --fast --seeds 1 --trials 80 --out /tmp/INJECT.json --check-avf",
        "fault-inject --fast --seeds 1 --trials 40 --store /tmp/store",
        "fault-inject --fast --seeds 1 --trials 40 --store /tmp/vs",
        "fault-inject --fast --store runs/",
        "fault-inject --fast --out INJECT.json",
        "fault-inject --fast --check-avf",
        "fault-inject --check-avf",
        "fault-inject --resume out/ --deadline-s 600",
        "report --store /tmp/store --list",
        "report --store /tmp/store --diff batch=1,exhibit=fig2 batch=1,exhibit=fig2",
        "report --store /tmp/store-doctored --diff batch=1,exhibit=fig2 batch=2,exhibit=fig2",
        "report --store /tmp/store --html /tmp/report.html --title \"CI report smoke\"",
        "report --store runs/ --list",
        "report --store runs/ --diff batch=1 batch=2",
        "report --store runs/ --html report.html",
        "report --store /tmp/vs --list",
        "report --store /tmp/vs --diff batch=1,exhibit=fig2 batch=1,exhibit=fig2",
        "report --store /tmp/vs --html /tmp/r.html --title t",
        // Parses; `cmd_report` then exits 1 without creating the store.
        "report --store /tmp/nostore --list",
        "chaos --seed 7 --rounds 50 --scratch /tmp/chaos-scratch --out /tmp/chaos-report.json",
        "chaos --seed 7 --rounds 50 --scratch /tmp/chaos-scratch-replay --out /tmp/chaos-report-replay.json",
        "chaos --seed 7 --rounds 50 --scratch /tmp/chaos --out /tmp/chaos.json",
        "chaos --seed 7 --rounds 50 --out chaos.json",
        "chaos --seed 7 --rounds 50 --out replay.json",
        "chaos --seed 7 --rounds 50 --out /tmp/b.json",
    ];

    #[test]
    fn documented_lines_parse_as_the_previous_parser_read_them() {
        for line in DOCUMENTED {
            let a = args(line);
            assert_eq!(reading(&accepted(line)), previous_reading(&a), "{line}");
        }
    }

    #[test]
    fn documented_usage_errors_are_rejected() {
        for line in [
            "--fats fig2",
            "serve --dir /tmp/s",
            "table2 --csv",
            "--csv --fast table2",
            "--profile \"\" --fast fig2",
            "bench-baseline --heartbeat-s 0",
            "bench-baseline --jobs 0",
            "bench-baseline --snapshot-every abc",
            "chaos --seeds 3",
            "bench-baseline --seed 2",
            "bench-baseline --list",
            "--out /tmp/o table2",
            "fault-inject --selfcheck",
            "--fast --fast fig2",
        ] {
            assert!(parse(&args(line)).is_err(), "{line} must be rejected");
        }
        // An unknown exhibit is a positional the exhibit runner rejects.
        let cli = accepted("bogus");
        assert_eq!(select_exhibits(&cli.positionals), Err(vec!["bogus"]));
    }

    #[test]
    fn crate_doc_synopsis_is_the_generated_usage() {
        let doc: Vec<&str> = include_str!("main.rs")
            .lines()
            .skip_while(|l| *l != "//! ```text")
            .skip(1)
            .take_while(|l| *l != "//! ```")
            .map(|l| l.strip_prefix("//! ").unwrap_or(l))
            .collect();
        let usage = usage();
        let synopsis: Vec<&str> = usage.lines().map(|l| &l["usage: ".len()..]).collect();
        assert_eq!(doc, synopsis);
    }

    #[test]
    fn exhibit_names_run_once_in_the_order_given() {
        let names = args("fig5 fig1 fig5");
        assert_eq!(select_exhibits(&names), Ok(vec!["fig5", "fig1"]));
        assert_eq!(select_exhibits(&args("fig2 all")).unwrap().len(), 10);
        assert_eq!(select_exhibits(&[]).unwrap().len(), 10);
    }

    #[test]
    fn help_asks_for_usage_wherever_it_appears() {
        for line in [
            "--help",
            "-h",
            "--fast --help fig2",
            "fig2 -h",
            "--fats --help",
            "chaos --seeds 3 -h",
        ] {
            assert!(matches!(parse(&args(line)), Ok(None)), "{line}");
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
        ] {
            accepted(line);
        }
        // A value is never read as a flag, even when it looks like one.
        let cli = accepted("report --store s --title --not-a-flag");
        assert_eq!(cli.text("--title").as_deref(), Some("--not-a-flag"));
        assert!(!cli.on("--list"));
    }

    #[test]
    fn unknown_flags_are_named() {
        for (line, flag) in [
            ("--fats table2", "--fats"),
            ("--fast fig2 --manfest m", "--manfest"),
            ("bench-baseline --seed 2 --check", "--seed"),
            ("--fast --jobs=2 fig2", "--jobs=2"),
            // `serve` is not a subcommand; its flags are unknown like any typo.
            ("serve --dir d --drain", "--dir"),
        ] {
            let err = parse(&args(line)).expect_err(line);
            assert!(err.contains(flag), "{line}: {err}");
        }
    }

    #[test]
    fn positionals_and_repeats_are_rejected_naming_the_mode() {
        for (line, mode, culprit) in [
            ("chaos extra", "chaos", "extra"),
            ("bench-baseline fig2", "bench-baseline", "fig2"),
            ("--fast --fast fig2", "exhibits", "--fast"),
            ("report --store a --store b", "report", "--store"),
        ] {
            let err = parse(&args(line)).expect_err(line);
            assert!(err.contains(mode) && err.contains(culprit), "{line}: {err}");
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
            let err = parse(&args(line)).expect_err(line);
            assert!(err.contains(flag), "{line}: {err}");
        }
    }

    #[test]
    fn positive_integers_parse() {
        assert_eq!(accepted("--jobs 1 fig2").num("--jobs"), Some(1));
        assert_eq!(
            accepted("bench-baseline --seeds 42").num("--seeds"),
            Some(42)
        );
        let cli = accepted("bench-baseline --snapshot-every 10000");
        assert_eq!(cli.num("--snapshot-every"), Some(10_000));
    }

    #[test]
    fn absent_flag_is_none_not_an_error() {
        assert_eq!(accepted("fig2").num("--jobs"), None);
    }

    #[test]
    fn zero_is_rejected_with_the_flag_named() {
        let err = rejected(&["bench-baseline", "--deadline-s", "0"]);
        assert!(err.contains("--deadline-s"), "{err}");
        assert!(err.contains("positive"), "{err}");
    }

    #[test]
    fn negative_and_garbage_are_rejected() {
        for bad in ["-3", "abc", "1.5", "", " 7", "0x10", "18446744073709551616"] {
            let err = rejected(&["--jobs", bad]);
            assert!(err.contains("--jobs"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn heartbeat_seconds_validate_like_any_positive_flag() {
        let cli = accepted("bench-baseline --heartbeat-s 5");
        assert_eq!(cli.num("--heartbeat-s"), Some(5));
        assert_eq!(accepted("bench-baseline").num("--heartbeat-s"), None);
        for bad in ["0", "-1", "2.5", "soon"] {
            let err = rejected(&["bench-baseline", "--heartbeat-s", bad]);
            assert!(err.contains("--heartbeat-s"), "{err}");
        }
    }

    #[test]
    fn chaos_seed_takes_zero_but_not_garbage() {
        assert_eq!(accepted("chaos --seed 0").num("--seed"), Some(0));
        let err = rejected(&["chaos", "--seed", "-1"]);
        assert!(err.contains("--seed") && err.contains("unsigned"), "{err}");
    }

    #[test]
    fn profile_dir_accepts_paths_and_rejects_garbage() {
        let cli = accepted("--profile out/profiles fig2");
        assert_eq!(cli.path("--profile"), Some(PathBuf::from("out/profiles")));
        assert_eq!(accepted("fig2").path("--profile"), None);
        let err = rejected(&["--profile", ""]);
        assert!(err.contains("--profile") && err.contains("\"\""), "{err}");
        // The value slot swallowed the next flag: refuse, don't create
        // a directory literally named "--trace".
        let err = rejected(&["--profile", "--trace"]);
        assert!(err.contains("--profile"), "{err}");
        assert!(err.contains("--trace"), "{err}");
    }
}
