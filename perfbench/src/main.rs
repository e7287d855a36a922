//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1 [--out FILE]
//! perfbench compare PARENT.jsonl CHANGE.jsonl [--spec BENCHMARK.json]
//! perfbench pin --workload W --seeds A-B
//! ```
//!
//! A run repeats set-up and a pass of the workload for `--seconds`.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! untraced and traced passes and prints the per-layer metrics, measured
//! through decorators at the simulator's seams. Every simulated output
//! is checked against the digests pinned in `digests.txt`. The last line
//! of standard output is the result as one JSON object; `--out` also
//! appends it, with the host and budget it was measured on, to a
//! JSON-lines file that `compare` reads.

mod compare;
mod digest;
mod host;
mod layers;
mod stats;
mod workloads;

use digest::Pin;
use host::Host;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{Pass, Workload};

/// Passes a run makes at least, however long they take. Each follows a
/// timed set-up, so this is also the fewest set-ups `setup_s` is the
/// median of.
const MIN_PASSES: usize = 5;

/// End-to-end metrics (untraced run): name, unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("ns_per_cycle", "ns"),
    ("ns_per_inst", "ns"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run): name, unit. Values are per pass.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("workload-gen.generate_s", "s"),
    ("avf.profile_s", "s"),
    ("avf.observe_s", "s"),
    ("avf.observe_calls", "count"),
    ("avf.report_s", "s"),
    ("avf.iq_avf", "ratio"),
    ("smt-sim.new_s", "s"),
    ("smt-sim.warm_up_s", "s"),
    ("smt-sim.run_s", "s"),
    ("smt-sim.run_self_s", "s"),
    ("smt-sim.fetch_policy_s", "s"),
    ("smt-sim.fetch_policy_calls", "count"),
    ("smt-sim.cycles", "count"),
    ("smt-sim.committed", "count"),
    ("smt-sim.squashed", "count"),
    ("smt-sim.fetched", "count"),
    ("smt-sim.avg_iq_occupancy", "entries"),
    ("smt-sim.avg_ready_len", "entries"),
    ("smt-sim.useful_fraction", "ratio"),
    ("smt-sim.throughput_ipc", "inst/cycle"),
    ("smt-sim.harmonic_ipc", "inst/cycle"),
    ("iq-reliability.governor_s", "s"),
    ("iq-reliability.governor_calls", "count"),
    ("iq-reliability.dispatch_denied_fraction", "ratio"),
    ("iq-reliability.issue_s", "s"),
    ("iq-reliability.issue_calls", "count"),
    ("iq-reliability.ready_items", "count"),
    ("mem-hier.l2_misses", "count"),
    ("mem-hier.l2_mpki", "1/kinst"),
    ("branch-pred.branches", "count"),
    ("branch-pred.mispredict_rate", "ratio"),
    ("experiments.exhibit_s.fig8", "s"),
    ("experiments.exhibit_s.fig10", "s"),
    ("experiments.runs", "count"),
    ("experiments.repeat_runs", "count"),
    ("experiments.unique_run_fraction", "ratio"),
    ("sim-harness.snapshots_written", "count"),
    ("sim-harness.snapshot_bytes", "bytes"),
    ("sim-harness.journal_records", "count"),
    ("sim-harness.replay_s", "s"),
    ("sim-harness.jobs_retried", "count"),
    ("sim-harness.checkpoint_overhead_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.traced_wall_s", "s"),
];

const USAGE: &str = "usage:
  perfbench --workload <cpu-tick|mem-govern|paper-sweep|journaled-campaign> \
--seed <n> --seconds <s> --trace <0|1> [--out <results.jsonl>]
  perfbench compare <parent.jsonl> <change.jsonl> [--spec <BENCHMARK.json>]
  perfbench pin --workload <name> --seeds <a>-<b>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("pin") => pin_main(&args[1..]),
        _ => run_main(&args),
    };
    std::process::exit(code);
}

fn usage(err: &str) -> i32 {
    eprintln!("perfbench: {err}\n{USAGE}");
    2
}

/// Parsed `--flag value` pairs; unknown flags are an error.
fn flags(args: &[String], known: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.insert(flag.clone(), value.clone());
    }
    Ok(out)
}

/// Checked run options.
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let f = flags(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--out"],
    )?;
    let get = |k: &str| f.get(k).ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?.clone();
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be a whole number".to_string())?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        trace,
        out: f.get("--out").map(PathBuf::from),
    })
}

/// Scratch directory for this process, inside the working directory.
fn work_dir() -> PathBuf {
    Path::new(".perfbench-work").join(std::process::id().to_string())
}

extern "C" {
    /// glibc's allocator tuning call.
    fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
}

/// glibc `M_ARENA_MAX`.
const M_ARENA_MAX: std::ffi::c_int = -8;

/// Keep every thread on one malloc arena. The campaign workloads start
/// harness threads, and with per-thread arenas the peak RSS of the same
/// run varied by a fifth depending on which arena each thread drew;
/// with one arena it repeats to within a few percent.
fn single_malloc_arena() {
    // SAFETY: mallopt only adjusts allocator parameters; it is called
    // before this process starts any thread, and an unsupported
    // parameter is reported through the return value, not UB.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

fn run_main(args: &[String]) -> i32 {
    let a = match parse_run(args) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    single_malloc_arena();
    sim_harness::set_default_jobs(1);
    let work = work_dir();
    let mut w = workloads::build(&a.workload, a.seed, &work).expect("name was validated");
    let result = measure(w.as_mut(), &a);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench-work");

    let host = Host::probe();
    let line = result.json();
    println!(
        "# {} seed {} trace {}: {} pass(es), runs_failed {}/{} ({:.3}), {} unverified digest(s); {}",
        a.workload,
        a.seed,
        u8::from(a.trace),
        result.passes,
        result.failed,
        result.attempted,
        stats::failed_share(result.failed, result.attempted),
        result.unverified,
        w.describe()
    );
    println!(
        "# host: {} | nproc {} | {} | commit {}",
        host.cpu_model, host.nproc, host.rustc, host.git_commit
    );
    for (name, value, unit) in &result.metrics {
        println!("#   {name:<42} {value:>16.6} {unit}");
    }
    if let Some(path) = &a.out {
        let record = format!(
            "{{\"workload\":{},\"seed\":{},\"trace\":{},\"seconds\":{},\"passes\":{},\
\"unverified\":{},\"input\":{},\"host\":{{\"cpu_model\":{},\"nproc\":{},\"rustc\":{},\
\"git_commit\":{}}},\"result\":{}}}\n",
            json_str(&a.workload),
            a.seed,
            u8::from(a.trace),
            a.seconds,
            result.passes,
            result.unverified,
            json_str(&w.describe()),
            json_str(&host.cpu_model),
            host.nproc,
            json_str(&host.rustc),
            json_str(&host.git_commit),
            line
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()));
        if let Err(e) = appended {
            eprintln!("perfbench: cannot append to {}: {e}", path.display());
            return 1;
        }
    }
    println!("{line}");
    0
}

/// A finished run.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    passes: usize,
    unverified: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

/// `{"name": {"value": v, "unit": u}, ...}`
fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

impl RunResult {
    fn json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Run one pass, turning a panic into a pass whose runs all failed.
fn guarded_pass(w: &mut dyn Workload, traced: bool) -> Pass {
    match catch_unwind(AssertUnwindSafe(|| w.pass(traced))) {
        Ok(p) => p,
        Err(_) => {
            let runs = w.runs_per_pass();
            Pass {
                attempted: runs,
                failed: runs,
                ..Pass::default()
            }
        }
    }
}

/// Checks every pass's digests against the pinned table and against each
/// other (every pass of a run, traced or not, must produce the same
/// outputs), charging mismatches to the pass's failed runs.
#[derive(Default)]
struct DigestBook {
    first: HashMap<String, u64>,
    unverified: std::collections::HashSet<String>,
}

impl DigestBook {
    fn check(&mut self, workload: &str, pass: &mut Pass) {
        for (key, d, runs) in &pass.digests {
            let pinned = digest::check(workload, key, *d);
            if pinned == Pin::Unverified {
                self.unverified.insert(key.clone());
            }
            let first = *self.first.entry(key.clone()).or_insert(*d);
            if pinned == Pin::Mismatch || first != *d {
                eprintln!(
                    "perfbench: {workload} {key}: output digest {d:016x} does not match \
{} digest",
                    if first != *d {
                        "an earlier pass's"
                    } else {
                        "the pinned"
                    }
                );
                pass.failed += runs;
            }
        }
    }
}

/// Repeat set-up and passes for the run's budget. Set-ups are spread
/// over the whole run rather than made up front, so their median sees
/// the same host as the passes do.
fn measure(w: &mut dyn Workload, a: &RunArgs) -> RunResult {
    let mut book = DigestBook::default();
    let mut setup: Vec<f64> = Vec::new();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let start = Instant::now();
    loop {
        let t = Instant::now();
        w.setup();
        setup.push(t.elapsed().as_secs_f64());
        let mut p = guarded_pass(w, false);
        book.check(&a.workload, &mut p);
        let mut last = p.wall_s;
        plain.push(p);
        if a.trace {
            let mut p = guarded_pass(w, true);
            book.check(&a.workload, &mut p);
            last += p.wall_s;
            traced.push(p);
        }
        let elapsed = start.elapsed().as_secs_f64();
        if plain.len() >= MIN_PASSES && elapsed + last > a.seconds {
            break;
        }
    }

    let all = plain.iter().chain(&traced);
    let attempted: u64 = all.clone().map(|p| p.attempted).sum();
    let failed: u64 = all.map(|p| p.failed).sum();
    let metrics = if a.trace {
        per_layer(w, &plain, &traced)
    } else {
        end_to_end(&setup, &plain)
    };
    RunResult {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        passes: plain.len(),
        unverified: book.unverified.len(),
        metrics,
    }
}

/// End-to-end metrics. Pass times are the sum over the pass's units of
/// each unit's best time over the run (see [`stats::best_sum`]); the
/// simulated counts are the same in every pass.
fn end_to_end(setup: &[f64], passes: &[Pass]) -> Vec<(&'static str, f64, &'static str)> {
    let units = || passes.iter().flat_map(|p| &p.units);
    let wall_s = stats::best_sum(units().map(|u| (u.key.as_str(), u.wall_s)));
    let measure_ns = stats::best_sum(units().map(|u| (u.key.as_str(), u.measure_ns)));
    let count = |f: fn(&Pass) -> u64| passes.iter().map(f).max().unwrap_or(0);
    let (cycles, committed, squashed) = (
        count(|p| p.cycles),
        count(|p| p.committed),
        count(|p| p.squashed),
    );
    let values = [
        wall_s,
        stats::median(setup),
        measure_ns / cycles.max(1) as f64,
        stats::ns_per_inst(measure_ns, committed, squashed),
        host::peak_rss_mb(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

fn per_layer(
    w: &dyn Workload,
    plain: &[Pass],
    traced: &[Pass],
) -> Vec<(&'static str, f64, &'static str)> {
    let mut sum: BTreeMap<&'static str, f64> = BTreeMap::new();
    for p in traced {
        for (&k, &v) in &p.layers {
            *sum.entry(k).or_insert(0.0) += v;
        }
    }
    let n = traced.len().max(1) as f64;
    let mut v: BTreeMap<&'static str, f64> = sum.iter().map(|(&k, &x)| (k, x / n)).collect();
    v.extend(w.setup_layers());
    let get = |v: &BTreeMap<&str, f64>, k: &str| v.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };

    let cycles = get(&v, "smt-sim.cycles");
    let committed = get(&v, "smt-sim.committed");
    let sims = get(&v, "_sims");
    v.insert(
        "smt-sim.avg_iq_occupancy",
        ratio(get(&v, "_iq_occupancy_sum"), cycles),
    );
    v.insert(
        "smt-sim.avg_ready_len",
        ratio(get(&v, "_ready_len_sum"), cycles),
    );
    v.insert(
        "smt-sim.useful_fraction",
        ratio(committed, get(&v, "smt-sim.fetched")),
    );
    v.insert(
        "iq-reliability.dispatch_denied_fraction",
        ratio(get(&v, "_dispatch_denied"), get(&v, "_dispatch_asked")),
    );
    v.insert(
        "mem-hier.l2_mpki",
        ratio(get(&v, "mem-hier.l2_misses") * 1000.0, committed),
    );
    let branches = get(&v, "branch-pred.branches");
    let mispredict = if branches > 0.0 {
        ratio(get(&v, "_mispredicts"), branches)
    } else {
        ratio(get(&v, "_mispredict_rate_sum"), sims)
    };
    v.insert("branch-pred.mispredict_rate", mispredict);
    v.insert(
        "smt-sim.throughput_ipc",
        ratio(get(&v, "_throughput_ipc_sum"), sims),
    );
    v.insert(
        "smt-sim.harmonic_ipc",
        ratio(get(&v, "_harmonic_ipc_sum"), sims),
    );
    v.insert("avf.iq_avf", ratio(get(&v, "_iq_avf_sum"), sims));
    // Simulation workloads call the simulator directly: every run is
    // its own, so their runs are the simulations themselves.
    let runs = if v.contains_key("experiments.runs") {
        get(&v, "experiments.runs")
    } else {
        sims
    };
    v.insert("experiments.runs", runs);
    v.insert(
        "experiments.unique_run_fraction",
        ratio(runs - get(&v, "experiments.repeat_runs"), runs),
    );
    let plain_wall = stats::median(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let traced_wall = stats::median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    v.insert("bench.trace_overhead", ratio(traced_wall, plain_wall));
    v.insert("bench.traced_wall_s", traced_wall);

    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, get(&v, name), unit))
        .collect()
}

/// `pin`: print the `digests.txt` lines of one pass per seed.
fn pin_main(args: &[String]) -> i32 {
    let f = match flags(args, &["--workload", "--seeds"]) {
        Ok(f) => f,
        Err(e) => return usage(&e),
    };
    let (Some(name), Some(range)) = (f.get("--workload"), f.get("--seeds")) else {
        return usage("pin needs --workload and --seeds");
    };
    let Some((lo, hi)) = range
        .split_once('-')
        .and_then(|(a, b)| Some((a.parse::<u64>().ok()?, b.parse::<u64>().ok()?)))
    else {
        return usage("--seeds must look like 0-15");
    };
    sim_harness::set_default_jobs(1);
    let work = work_dir();
    let mut lines = std::collections::BTreeSet::new();
    for seed in lo..=hi {
        let Some(mut w) = workloads::build(name, seed, &work) else {
            return usage(&format!("unknown workload {name}"));
        };
        w.setup();
        let p = w.pass(false);
        if p.failed > 0 {
            eprintln!("perfbench: seed {seed} failed; not pinning it");
            continue;
        }
        for (key, d, _) in &p.digests {
            lines.insert(digest::pin_line(name, key, *d));
        }
    }
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench-work");
    for l in lines {
        println!("{l}");
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric table in the code and the one in `BENCHMARK.json`
    /// must agree, name for name and unit for unit.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let spec = serde::json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap().to_string(),
                        m.get("unit").unwrap().as_str().unwrap().to_string(),
                    )
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, workloads::NAMES);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            correct: true,
            attempted: 4,
            failed: 0,
            passes: 2,
            unverified: 0,
            metrics: vec![("wall_s", 1.25, "s"), ("setup_s", 0.5, "s")],
        };
        let v = serde::json::parse(&r.json()).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = v.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn run_arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_run(&args("--workload cpu-tick --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 10.0, true));
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 1",
            "--workload cpu-tick --seed -1 --seconds 10 --trace 1",
            "--workload cpu-tick --seed 3 --seconds 0 --trace 1",
            "--workload cpu-tick --seed 3 --seconds 10 --trace 2",
            "--workload cpu-tick --seed 3 --seconds 10",
            "--workload cpu-tick --seed 3 --seconds 10 --trace 1 --bogus 1",
        ] {
            assert!(parse_run(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn digest_book_charges_mismatches_to_failed_runs() {
        let mut book = DigestBook::default();
        let mut a = Pass {
            digests: vec![("k".into(), 1, 3)],
            ..Pass::default()
        };
        book.check("no-such-workload", &mut a);
        assert_eq!(a.failed, 0);
        assert_eq!(book.unverified.len(), 1, "nothing is pinned for it");
        let mut b = Pass {
            digests: vec![("k".into(), 2, 3)],
            ..Pass::default()
        };
        book.check("no-such-workload", &mut b);
        assert_eq!(
            b.failed, 3,
            "a pass that disagrees with an earlier one fails"
        );
    }

    /// One pass of every workload at its real budget: the digests of the
    /// pinned seeds must match and nothing may fail.
    #[test]
    #[ignore = "runs every workload once; about 15 s in release mode"]
    fn smoke_every_workload_once() {
        sim_harness::set_default_jobs(1);
        let work = std::env::temp_dir().join(format!("perfbench-smoke-{}", std::process::id()));
        for name in workloads::NAMES {
            let mut w = workloads::build(name, 1, &work).unwrap();
            w.setup();
            let mut p = w.pass(true);
            let mut book = DigestBook::default();
            book.check(name, &mut p);
            assert!(p.attempted > 0 && p.failed == 0, "{name} failed");
            assert!(book.unverified.is_empty(), "{name} seed 1 is pinned");
            let measure_ns: f64 = p.units.iter().map(|u| u.measure_ns).sum();
            assert!(p.wall_s > 0.0 && p.cycles > 0 && measure_ns > 0.0);
            let covered: f64 = p.units.iter().map(|u| u.wall_s).sum();
            assert!((covered - p.wall_s).abs() < 1e-9, "{name}: units cover the pass");
        }
        let _ = std::fs::remove_dir_all(&work);
    }
}
