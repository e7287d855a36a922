//! The four workloads. Each is chosen so that a different layer does
//! most of the work, and each runs one simulation at a time so the
//! numbers measure the program rather than the host's scheduler.
//!
//! A workload is set up (program generation, profiling and pipeline
//! construction, or pre-filling a campaign's program cache) and then
//! run as a *pass*, repeatedly. A pass is made of *units* (phases of
//! its simulations, plus the rest of the pass), each the same work in
//! every pass, from which the benchmark derives wall time and host
//! cost per simulated cycle and per retired instruction.

use crate::digest::{sim_digest, text_digest};
use crate::layers::{wrap_policies, SeamClock, TimedObserver};
use avf::profiler::profile_and_tag;
use avf::AvfCollector;
use experiments::bench::run_bench_supervised;
use experiments::{fig10, fig8, ExperimentContext, ExperimentParams, RunManifest};
use iq_reliability::Scheme;
use sim_harness::{HarnessConfig, HarnessObservers};
use smt_sim::{FetchPolicyKind, MachineConfig, Pipeline, SimLimits};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;
use workload_gen::Program;

/// Workload names, in the order the benchmark documents them.
pub const NAMES: [&str; 4] = [
    "cpu-tick",
    "mem-govern",
    "paper-sweep",
    "journaled-campaign",
];

/// ACE-analysis window for every simulation (the paper's 40 000).
const ACE_WINDOW: usize = 40_000;
/// AVF sampling interval, matching the pipeline's default.
const AVF_INTERVAL: u64 = 10_000;

/// Salts a simulation workload simulates in every pass. A single
/// salt's host cost varies up to 2x between salts on the memory-bound
/// mixes, so a pass covers the whole bank and the seed only orders it:
/// the figures then compare across seeds, and every output is pinned.
pub const SALTS: u64 = 8;

/// DVM thresholds (fractions of MaxIQ_AVF) of Figures 8–10; the
/// `paper-sweep` seed picks one.
pub const THRESHOLD_FRACS: [f64; 5] = [0.7, 0.6, 0.5, 0.4, 0.3];

/// Host time of one unit of work in a pass: a phase of one simulation,
/// one run of a campaign, or the rest of the pass outside them. The
/// same key names the same work in every pass of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Unit {
    pub key: String,
    pub wall_s: f64,
    /// Host time inside the measured simulation phase (`Pipeline::run`).
    pub measure_ns: f64,
}

/// What one pass measured.
#[derive(Debug, Default, Clone)]
pub struct Pass {
    pub wall_s: f64,
    /// Every unit of the pass; their `wall_s` add up to the pass's.
    pub units: Vec<Unit>,
    pub cycles: u64,
    pub committed: u64,
    pub squashed: u64,
    /// Simulations attempted and failed (deadlock, watchdog, cancel,
    /// quarantine, panic; digest mismatches are added by the caller).
    pub attempted: u64,
    pub failed: u64,
    /// `(key, digest, runs it covers)` for every checked output.
    pub digests: Vec<(String, u64, u64)>,
    /// Per-layer values summed over the pass (traced passes only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Pass {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.layers.entry(name).or_insert(0.0) += v;
    }

    fn unit(&mut self, key: String, wall_s: f64, measure_s: f64) {
        self.units.push(Unit {
            key,
            wall_s,
            measure_ns: measure_s * 1e9,
        });
    }

    /// Close a pass that took `wall_s`: the part of it no unit covers
    /// becomes one more unit.
    fn finish(&mut self, wall_s: f64) {
        self.wall_s = wall_s;
        let covered: f64 = self.units.iter().map(|u| u.wall_s).sum();
        self.unit("rest".into(), (wall_s - covered).max(0.0), 0.0);
    }
}

/// A benchmark workload.
pub trait Workload {
    /// Build the inputs the next pass runs on, replacing the previous
    /// ones. Called before every pass.
    fn setup(&mut self);
    /// Per-layer times of the most recent setup (workload-gen, avf
    /// profiling, pipeline construction).
    fn setup_layers(&self) -> BTreeMap<&'static str, f64>;
    /// Run one pass; `traced` wraps every seam with timing decorators.
    fn pass(&mut self, traced: bool) -> Pass;
    /// Simulations in one pass (counted as failed if the pass panics).
    fn runs_per_pass(&self) -> u64;
    /// The seed-derived input and budget, for provenance.
    fn describe(&self) -> String;
}

/// Build workload `name` for `seed`, keeping scratch files under `work`.
pub fn build(name: &str, seed: u64, work: &Path) -> Option<Box<dyn Workload>> {
    let salts = shuffled_salts(seed);
    match name {
        "cpu-tick" => Some(Box::new(SimWorkload::new(
            vec![
                SimCase::new("CPU-A", Scheme::Baseline, FetchPolicyKind::Icount),
                SimCase::new("CPU-A", Scheme::Visa, FetchPolicyKind::Icount),
            ],
            salts,
            CPU_BUDGET,
        ))),
        "mem-govern" => Some(Box::new(SimWorkload::new(
            vec![
                SimCase::new(
                    "MEM-A",
                    Scheme::DvmDynamic { target: 0.15 },
                    FetchPolicyKind::Icount,
                ),
                SimCase::new("MEM-B", Scheme::VisaOpt2, FetchPolicyKind::Flush),
                SimCase::new("MIX-A", Scheme::VisaOpt1, FetchPolicyKind::Icount),
            ],
            salts,
            MEM_BUDGET,
        ))),
        "paper-sweep" => Some(Box::new(PaperSweep::new(
            THRESHOLD_FRACS[(seed % THRESHOLD_FRACS.len() as u64) as usize],
        ))),
        "journaled-campaign" => Some(Box::new(JournaledCampaign::new(work.join("journal")))),
        _ => None,
    }
}

/// The salt bank `0..SALTS` in an order drawn from `seed`
/// (Fisher–Yates driven by splitmix64).
pub fn shuffled_salts(seed: u64) -> Vec<u64> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut salts: Vec<u64> = (0..SALTS).collect();
    for i in (1..salts.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        salts.swap(i, j);
    }
    salts
}

/// Instruction and cycle budget of one simulation.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub profile_insts: u64,
    pub warmup_insts: u64,
    pub run_cycles: u64,
}

/// `cpu-tick`: IPC ≈ 3.4, so the per-cycle tick work, issue-select and
/// per-commit AVF accounting dominate; governors are no-ops.
const CPU_BUDGET: Budget = Budget {
    profile_insts: 60_000,
    warmup_insts: 20_000,
    run_cycles: 25_000,
};

/// `mem-govern`: IPC 0.2–0.6, a full IQ of waiting instructions, L2
/// misses, FLUSH squashes and a governor call on every cycle; warm-up
/// is a large share of the wall time.
const MEM_BUDGET: Budget = Budget {
    profile_insts: 60_000,
    warmup_insts: 40_000,
    run_cycles: 40_000,
};

/// `paper-sweep` budget (thinned so a Figure 8 + Figure 10 pass takes
/// seconds, not minutes).
const SWEEP_BUDGET: Budget = Budget {
    profile_insts: 20_000,
    warmup_insts: 10_000,
    run_cycles: 10_000,
};

/// `journaled-campaign` budget: three snapshot intervals per job.
const JOURNAL_BUDGET: Budget = Budget {
    profile_insts: 20_000,
    warmup_insts: 20_000,
    run_cycles: 30_000,
};

/// Salts of the journaled bench campaign (salts `0..JOURNAL_SEEDS`).
const JOURNAL_SEEDS: u64 = 2;

fn params(b: Budget, frac: f64) -> ExperimentParams {
    ExperimentParams {
        profile_insts: b.profile_insts,
        warmup_insts: b.warmup_insts,
        run_cycles: b.run_cycles,
        ace_window: ACE_WINDOW,
        threshold_fracs: [frac; 5],
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One (mix, scheme, fetch policy) simulation of a simulation workload.
pub struct SimCase {
    mix: &'static str,
    scheme: Scheme,
    fetch: FetchPolicyKind,
}

impl SimCase {
    fn new(mix: &'static str, scheme: Scheme, fetch: FetchPolicyKind) -> SimCase {
        SimCase { mix, scheme, fetch }
    }

    fn key(&self, salt: u64) -> String {
        let scheme = self.scheme.label().replace([' ', '(', ')'], "");
        format!(
            "{}/{}/{}/salt{}",
            self.mix,
            scheme,
            self.fetch.label(),
            salt
        )
    }
}

/// `cpu-tick` and `mem-govern`: simulations driven directly through
/// `Pipeline`, so every seam can be wrapped in the traced run.
struct SimWorkload {
    cases: Vec<SimCase>,
    /// The salt bank, in this run's order.
    salts: Vec<u64>,
    budget: Budget,
    machine: MachineConfig,
    /// Tagged programs per (salt, case), in salt × `cases` order. Set-up
    /// builds them in salt order whatever the seed, so the allocation
    /// pattern, and with it peak memory, does not depend on the seed.
    programs: Vec<Vec<Arc<Program>>>,
    setup_layers: BTreeMap<&'static str, f64>,
}

impl SimWorkload {
    fn new(cases: Vec<SimCase>, salts: Vec<u64>, budget: Budget) -> SimWorkload {
        SimWorkload {
            cases,
            salts,
            budget,
            machine: MachineConfig::table2(),
            programs: Vec::new(),
            setup_layers: BTreeMap::new(),
        }
    }

    fn run_case(
        &self,
        case: &SimCase,
        salt: u64,
        programs: &[Arc<Program>],
        traced: bool,
        out: &mut Pass,
    ) {
        let start_unit = Instant::now();
        let t = start_unit;
        let clock = Rc::new(SeamClock::default());
        let (policies, _dvm) = case.scheme.policies(case.fetch, self.machine.iq_size);
        let policies = if traced {
            wrap_policies(policies, &clock)
        } else {
            policies
        };
        let mut pipeline = Pipeline::new(self.machine.clone(), programs.to_vec(), policies);
        let new_s = secs(t);

        let t = Instant::now();
        let start = pipeline.warm_up(self.budget.warmup_insts);
        let warm_up_s = secs(t);

        let before = clock.totals();
        let mut collector =
            AvfCollector::new(&self.machine, ACE_WINDOW, AVF_INTERVAL).with_start_cycle(start);
        let limits = SimLimits::cycles(self.budget.run_cycles);
        let t = Instant::now();
        let result = if traced {
            pipeline.run(
                limits,
                &mut TimedObserver::new(&mut collector, clock.clone()),
            )
        } else {
            pipeline.run(limits, &mut collector)
        };
        let run_s = secs(t);

        let t = Instant::now();
        let avf = collector.report();
        let report_s = secs(t);
        // Two units per simulation rather than one: the shorter a unit,
        // the likelier one of its repetitions finds the host quiet.
        let key = case.key(salt);
        out.unit(format!("{key}/run"), run_s + report_s, run_s);
        out.unit(
            format!("{key}/warm_up"),
            secs(start_unit) - run_s - report_s,
            0.0,
        );

        let stats = &result.stats;
        out.cycles += stats.cycles;
        out.committed += stats.total_committed();
        out.squashed += stats.squashed;
        out.attempted += 1;
        if result.deadlocked || result.cancelled {
            out.failed += 1;
        }
        out.digests
            .push((case.key(salt), sim_digest(stats, avf.iq_avf), 1));
        if !traced {
            return;
        }
        let seams = clock.totals().since(&before);
        out.add("smt-sim.new_s", new_s);
        out.add("smt-sim.warm_up_s", warm_up_s);
        out.add("smt-sim.run_s", run_s);
        out.add("smt-sim.run_self_s", run_s - seams.seam_ns() as f64 / 1e9);
        out.add("avf.report_s", report_s);
        out.add("avf.observe_s", seams.observe_ns as f64 / 1e9);
        out.add("avf.observe_calls", seams.observe_calls as f64);
        out.add("iq-reliability.governor_s", seams.governor_ns as f64 / 1e9);
        out.add("iq-reliability.governor_calls", seams.governor_calls as f64);
        out.add("_dispatch_asked", seams.dispatch_asked as f64);
        out.add("_dispatch_denied", seams.dispatch_denied as f64);
        out.add("iq-reliability.issue_s", seams.issue_ns as f64 / 1e9);
        out.add("iq-reliability.issue_calls", seams.issue_calls as f64);
        out.add("iq-reliability.ready_items", seams.ready_items as f64);
        out.add("smt-sim.fetch_policy_s", seams.fetch_ns as f64 / 1e9);
        out.add("smt-sim.fetch_policy_calls", seams.fetch_calls as f64);
        add_sim_counts(out, stats, avf.iq_avf);
    }
}

/// Simulated counts every traced simulation contributes.
fn add_sim_counts(out: &mut Pass, stats: &smt_sim::SimStats, iq_avf: f64) {
    out.add("smt-sim.cycles", stats.cycles as f64);
    out.add("smt-sim.committed", stats.total_committed() as f64);
    out.add("smt-sim.squashed", stats.squashed as f64);
    out.add("smt-sim.fetched", stats.fetched as f64);
    out.add("_iq_occupancy_sum", stats.iq_occupancy_sum as f64);
    out.add("_ready_len_sum", stats.ready_len_sum as f64);
    out.add("mem-hier.l2_misses", stats.l2_misses as f64);
    out.add("branch-pred.branches", stats.branches as f64);
    out.add("_mispredicts", stats.mispredicts as f64);
    out.add("_sims", 1.0);
    out.add("_throughput_ipc_sum", stats.throughput_ipc());
    out.add("_harmonic_ipc_sum", stats.harmonic_ipc());
    out.add("_iq_avf_sum", iq_avf);
}

impl Workload for SimWorkload {
    fn setup(&mut self) {
        // Drop the previous inputs first, so peak memory holds one set.
        self.programs.clear();
        let (mut generate_s, mut profile_s) = (0.0, 0.0);
        let mut programs = Vec::new();
        for salt in 0..SALTS {
            let mut tagged: HashMap<&'static str, Arc<Program>> = HashMap::new();
            for case in &self.cases {
                let mix = workload_gen::mix_by_name(case.mix).expect("workload mix exists");
                let progs = mix.benchmarks.map(|name| {
                    tagged
                        .entry(name)
                        .or_insert_with(|| {
                            let t = Instant::now();
                            let model =
                                workload_gen::model_by_name(name).expect("benchmark model exists");
                            let raw = Arc::new(workload_gen::generate_program_salted(&model, salt));
                            generate_s += secs(t);
                            let t = Instant::now();
                            let (p, _) =
                                profile_and_tag(&raw, self.budget.profile_insts, ACE_WINDOW);
                            profile_s += secs(t);
                            p
                        })
                        .clone()
                });
                programs.push(progs.to_vec());
            }
        }
        let t = Instant::now();
        let cases = (0..SALTS).flat_map(|_| &self.cases);
        for (case, progs) in cases.zip(&programs) {
            let (policies, _) = case.scheme.policies(case.fetch, self.machine.iq_size);
            std::hint::black_box(Pipeline::new(self.machine.clone(), progs.clone(), policies));
        }
        self.setup_layers = BTreeMap::from([
            ("smt-sim.new_s", secs(t)),
            ("workload-gen.generate_s", generate_s),
            ("avf.profile_s", profile_s),
        ]);
        self.programs = programs;
    }

    fn setup_layers(&self) -> BTreeMap<&'static str, f64> {
        self.setup_layers.clone()
    }

    fn pass(&mut self, traced: bool) -> Pass {
        let t = Instant::now();
        let mut out = Pass::default();
        let n = self.cases.len();
        for &salt in &self.salts {
            for (i, case) in self.cases.iter().enumerate() {
                let programs = &self.programs[salt as usize * n + i];
                self.run_case(case, salt, programs, traced, &mut out);
            }
        }
        out.finish(secs(t));
        out
    }

    fn runs_per_pass(&self) -> u64 {
        (self.salts.len() * self.cases.len()) as u64
    }

    fn describe(&self) -> String {
        let cases: Vec<String> = self.cases.iter().map(|c| c.key(0)).collect();
        format!(
            "{} over salts {:?} | {:?}",
            cases.join(", "),
            self.salts,
            self.budget
        )
    }
}

/// Digest key of a run for repeat detection: its identity (mix,
/// scheme, fetch, salt, budget) plus its outputs.
fn run_identity(m: &RunManifest) -> String {
    format!(
        "{}|{}|{}|{}|{:?}|{:x}|{:x}|{:x}|{}|{}",
        m.mix,
        m.scheme,
        m.fetch_policy,
        m.salt,
        m.budget,
        m.metrics.iq_avf.to_bits(),
        m.metrics.throughput_ipc.to_bits(),
        m.metrics.harmonic_ipc.to_bits(),
        m.metrics.l2_misses,
        m.metrics.flushes,
    )
}

/// Fold a campaign's run manifests into a pass: one unit per run (a
/// campaign runs its jobs one at a time in a fixed order, so the n-th
/// run is the same work in every pass), cycles and committed
/// instructions (squashes are not visible through the campaign API, so
/// `ns_per_inst` counts committed only here), and in traced passes the
/// per-phase times and simulated counts.
fn add_manifests(out: &mut Pass, manifests: &[RunManifest], run_cycles: u64, traced: bool) {
    let mut seen = HashSet::new();
    let mut repeats = 0u64;
    for (n, m) in manifests.iter().enumerate() {
        out.unit(format!("run{n}"), m.timings.total_s(), m.timings.measure_s);
        out.cycles += run_cycles;
        out.committed += (m.metrics.throughput_ipc * run_cycles as f64).round() as u64;
        out.attempted += 1;
        if m.metrics.deadlocked {
            out.failed += 1;
        }
        if !seen.insert(run_identity(m)) {
            repeats += 1;
        }
        if traced {
            out.add("smt-sim.warm_up_s", m.timings.warmup_s);
            out.add("smt-sim.run_s", m.timings.measure_s);
            out.add("smt-sim.run_self_s", m.timings.measure_s);
            out.add("avf.report_s", m.timings.collect_s);
            out.add("smt-sim.cycles", run_cycles as f64);
            out.add(
                "smt-sim.committed",
                (m.metrics.throughput_ipc * run_cycles as f64).round(),
            );
            out.add("mem-hier.l2_misses", m.metrics.l2_misses as f64);
            out.add("_sims", 1.0);
            out.add("_throughput_ipc_sum", m.metrics.throughput_ipc);
            out.add("_harmonic_ipc_sum", m.metrics.harmonic_ipc);
            out.add("_iq_avf_sum", m.metrics.iq_avf);
            out.add("_mispredict_rate_sum", m.metrics.mispredict_rate);
        }
    }
    if traced {
        out.add("experiments.runs", manifests.len() as f64);
        out.add("experiments.repeat_runs", repeats as f64);
    }
}

/// Time generating and profiling every (benchmark, salt) a campaign
/// uses, the same calls its program cache makes, split by layer.
fn campaign_setup_layers(
    mixes: &[workload_gen::WorkloadMix],
    salts: std::ops::Range<u64>,
    profile_insts: u64,
) -> BTreeMap<&'static str, f64> {
    let mut names: Vec<&'static str> = mixes.iter().flat_map(|m| m.benchmarks).collect();
    names.sort_unstable();
    names.dedup();
    let (mut generate_s, mut profile_s) = (0.0, 0.0);
    for salt in salts {
        for &name in &names {
            let t = Instant::now();
            let model = workload_gen::model_by_name(name).expect("benchmark model exists");
            let raw = Arc::new(workload_gen::generate_program_salted(&model, salt));
            generate_s += secs(t);
            let t = Instant::now();
            std::hint::black_box(profile_and_tag(&raw, profile_insts, ACE_WINDOW));
            profile_s += secs(t);
        }
    }
    BTreeMap::from([
        ("workload-gen.generate_s", generate_s),
        ("avf.profile_s", profile_s),
    ])
}

/// `paper-sweep`: Figure 8 then Figure 10 on one context — the campaign
/// layer users regenerate the paper with. Its runs repeat (Figure 10
/// re-simulates Figure 8's baselines and DVM runs), which is where run
/// memoization would show.
struct PaperSweep {
    frac: f64,
    ctx: Option<ExperimentContext>,
}

impl PaperSweep {
    fn new(frac: f64) -> PaperSweep {
        PaperSweep { frac, ctx: None }
    }

    fn ctx(&self) -> &ExperimentContext {
        self.ctx.as_ref().expect("setup ran before the first pass")
    }
}

impl Workload for PaperSweep {
    fn setup(&mut self) {
        self.ctx = None;
        let ctx = ExperimentContext::new(params(SWEEP_BUDGET, self.frac));
        for mix in workload_gen::standard_mixes() {
            ctx.mix_programs(&mix);
        }
        self.ctx = Some(ctx);
    }

    fn setup_layers(&self) -> BTreeMap<&'static str, f64> {
        campaign_setup_layers(
            &workload_gen::standard_mixes(),
            0..1,
            SWEEP_BUDGET.profile_insts,
        )
    }

    fn pass(&mut self, traced: bool) -> Pass {
        let ctx = self.ctx();
        let t = Instant::now();
        let f8 = fig8::run(ctx);
        let fig8_s = secs(t);
        let t10 = Instant::now();
        let f10 = fig10::run(ctx);
        let fig10_s = secs(t10);
        let wall_s = secs(t);
        let mut out = Pass::default();
        let manifests = ctx.drain_manifests();
        add_manifests(&mut out, &manifests, SWEEP_BUDGET.run_cycles, traced);
        out.finish(wall_s);
        let tables = format!("{}\n{}", fig8::render(&f8), fig10::render(&f10));
        out.digests.push((
            format!("frac{}", self.frac),
            text_digest(&tables),
            manifests.len() as u64,
        ));
        if traced {
            out.add("experiments.exhibit_s.fig8", fig8_s);
            out.add("experiments.exhibit_s.fig10", fig10_s);
        }
        out
    }

    fn runs_per_pass(&self) -> u64 {
        // Nine mixes: Figure 8 runs 9 baselines + 9 DVM, Figure 10 runs
        // 9 baselines, 27 open-loop and 9 + 9 DVM (dynamic, static).
        72
    }

    fn describe(&self) -> String {
        format!(
            "fig8+fig10 at threshold {} x MaxIQ_AVF | {:?}",
            self.frac, SWEEP_BUDGET
        )
    }
}

/// `journaled-campaign`: the supervised bench campaign with a fresh
/// journal directory (the fsync'd write path: journal records and
/// mid-run snapshots), then the same call on that directory (the
/// replay path). Salts are fixed, so the seed does not vary it.
struct JournaledCampaign {
    dir: PathBuf,
    ctx: Option<ExperimentContext>,
}

impl JournaledCampaign {
    fn new(dir: PathBuf) -> JournaledCampaign {
        JournaledCampaign { dir, ctx: None }
    }

    fn cfg() -> HarnessConfig {
        HarnessConfig {
            jobs: Some(1),
            ..HarnessConfig::default()
        }
    }

    fn mixes() -> Vec<workload_gen::WorkloadMix> {
        experiments::bench::bench_cases()
            .iter()
            .map(|c| workload_gen::mix_by_name(c.mix).expect("bench mix exists"))
            .collect()
    }
}

/// The campaign result with its host-time fields blanked, so it can be
/// compared bit for bit across runs (as the bench resume tests do).
fn blanked_baseline(b: &experiments::BenchBaseline) -> String {
    let mut b = b.clone();
    for e in &mut b.exhibits {
        e.wall_time_s = Default::default();
        e.cycles_per_sec = Default::default();
    }
    serde::json::to_string(&b)
}

impl Workload for JournaledCampaign {
    fn setup(&mut self) {
        self.ctx = None;
        let ctx = ExperimentContext::new(params(JOURNAL_BUDGET, 0.5));
        for mix in Self::mixes() {
            for salt in 0..JOURNAL_SEEDS {
                ctx.mix_programs_salted(&mix, salt);
            }
        }
        self.ctx = Some(ctx);
    }

    fn setup_layers(&self) -> BTreeMap<&'static str, f64> {
        campaign_setup_layers(
            &Self::mixes(),
            0..JOURNAL_SEEDS,
            JOURNAL_BUDGET.profile_insts,
        )
    }

    fn pass(&mut self, traced: bool) -> Pass {
        let ctx = self.ctx.as_ref().expect("setup ran before the first pass");
        let jobs = experiments::bench::bench_cases().len() as u64 * JOURNAL_SEEDS;
        let mut out = Pass::default();
        let _ = std::fs::remove_dir_all(&self.dir);
        let metrics = sim_metrics::Metrics::new();
        let obs = HarnessObservers {
            metrics: metrics.clone(),
            ..HarnessObservers::off()
        };

        let t = Instant::now();
        let written = run_bench_supervised(ctx, JOURNAL_SEEDS, &Self::cfg(), &obs, Some(&self.dir));
        let write_s = secs(t);
        let journal_records = std::fs::read_to_string(self.dir.join("journal.jsonl"))
            .map_or(0, |s| s.lines().count());
        let t2 = Instant::now();
        let replayed =
            run_bench_supervised(ctx, JOURNAL_SEEDS, &Self::cfg(), &obs, Some(&self.dir));
        let replay_s = secs(t2);
        let wall_s = secs(t);
        let manifests = ctx.drain_manifests();
        add_manifests(&mut out, &manifests, JOURNAL_BUDGET.run_cycles, traced);
        out.unit("replay".into(), replay_s, 0.0);
        out.finish(wall_s);
        out.attempted += jobs; // the replayed jobs
        let _ = std::fs::remove_dir_all(&self.dir);

        let (written, replayed) = match (written, replayed) {
            (Ok(w), Ok(r)) => (w, r),
            (w, r) => {
                eprintln!(
                    "perfbench: journaled campaign failed: {:?} / {:?}",
                    w.err(),
                    r.err()
                );
                out.failed = out.attempted;
                return out;
            }
        };
        let digest = text_digest(&blanked_baseline(&written.baseline));
        out.failed +=
            (written.baseline.quarantined.len() + replayed.baseline.quarantined.len()) as u64;
        if replayed.stats.resumed != jobs
            || text_digest(&blanked_baseline(&replayed.baseline)) != digest
        {
            eprintln!("perfbench: journal replay did not reproduce the written campaign");
            out.failed += jobs;
        }
        out.digests.push(("campaign".into(), digest, 2 * jobs));
        if !traced {
            return out;
        }
        // The same campaign without a journal: the difference is what
        // the fsync'd checkpoint path costs.
        let t = Instant::now();
        let bare = run_bench_supervised(
            ctx,
            JOURNAL_SEEDS,
            &Self::cfg(),
            &HarnessObservers::off(),
            None,
        );
        let bare_s = secs(t);
        ctx.drain_manifests();
        match bare {
            Ok(b) if text_digest(&blanked_baseline(&b.baseline)) == digest => {}
            _ => {
                eprintln!("perfbench: journal-less campaign differs from the journaled one");
                out.failed += jobs;
            }
        }
        let snap = metrics.snapshot();
        out.add(
            "sim-harness.snapshots_written",
            snap.counter(experiments::C_SNAPSHOTS_WRITTEN).unwrap_or(0) as f64,
        );
        out.add("sim-harness.snapshot_bytes", snapshot_bytes(ctx) as f64);
        out.add("sim-harness.journal_records", journal_records as f64);
        out.add("sim-harness.replay_s", replay_s);
        out.add(
            "sim-harness.jobs_retried",
            (written.stats.retries + replayed.stats.retries) as f64,
        );
        out.add("sim-harness.checkpoint_overhead_s", write_s - bare_s);
        out
    }

    fn runs_per_pass(&self) -> u64 {
        2 * experiments::bench::bench_cases().len() as u64 * JOURNAL_SEEDS
    }

    fn describe(&self) -> String {
        format!(
            "bench cases x salts 0..{JOURNAL_SEEDS}, journaled then replayed | {:?}",
            JOURNAL_BUDGET
        )
    }
}

/// Size of one checkpoint of the campaign's first job, taken at the
/// start of its measured window (the bytes each snapshot writes).
fn snapshot_bytes(ctx: &ExperimentContext) -> usize {
    let case = &experiments::bench::bench_cases()[0];
    let mix = workload_gen::mix_by_name(case.mix).expect("bench mix exists");
    let (policies, _) = case.scheme.policies(case.fetch, ctx.machine.iq_size);
    let mut p = Pipeline::new(ctx.machine.clone(), ctx.mix_programs(&mix), policies);
    let start = p.warm_up(ctx.params.warmup_insts);
    let c = AvfCollector::new(&ctx.machine, ctx.params.ace_window, AVF_INTERVAL)
        .with_start_cycle(start);
    experiments::encode_checkpoint(&p, &c).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn salt_order_is_a_seeded_permutation_of_the_bank() {
        let a = shuffled_salts(3);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..SALTS).collect::<Vec<_>>());
        assert_eq!(a, shuffled_salts(3), "same seed, same order");
        let distinct: HashSet<Vec<u64>> = (0..10).map(shuffled_salts).collect();
        assert!(distinct.len() > 5, "seeds reorder the bank");
    }

    #[test]
    fn blanked_baseline_ignores_host_time_only() {
        let mut b = experiments::BenchBaseline {
            schema_version: experiments::BENCH_SCHEMA_VERSION,
            seeds: 1,
            budget: experiments::manifest::BudgetSummary {
                profile_insts: 1,
                warmup_insts: 1,
                run_cycles: 1,
                ace_window: 1,
            },
            exhibits: Vec::new(),
            quarantined: Vec::new(),
        };
        let summary = |mean: f64| sim_stats::SeedSummary {
            n: 1,
            mean,
            stddev: 0.0,
            ci95: 0.0,
        };
        b.exhibits.push(experiments::bench::BenchExhibit {
            name: "x".into(),
            mix: "CPU-A".into(),
            scheme: "baseline".into(),
            fetch: "Icount".into(),
            wall_time_s: summary(1.0),
            cycles_per_sec: summary(2.0),
            throughput_ipc: summary(3.0),
            harmonic_ipc: summary(4.0),
            iq_avf: summary(0.5),
        });
        let base = blanked_baseline(&b);
        let mut slower = b.clone();
        slower.exhibits[0].wall_time_s = summary(9.0);
        slower.exhibits[0].cycles_per_sec = summary(0.1);
        assert_eq!(blanked_baseline(&slower), base);
        let mut drifted = b.clone();
        drifted.exhibits[0].iq_avf = summary(0.5000001);
        assert_ne!(blanked_baseline(&drifted), base);
    }
}
