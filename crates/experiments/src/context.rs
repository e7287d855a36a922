//! Shared experiment state: profiled programs, measurement budgets and
//! the outcomes of the runs already simulated.

use crate::manifest::RunManifest;
use crate::runner::RunOutcome;
use avf::profiler::{profile_and_tag, ProfileResult};
use iq_reliability::Scheme;
use parking_lot::Mutex;
use smt_sim::{FetchPolicyKind, MachineConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use workload_gen::{Program, WorkloadMix};

/// Measurement budget of one experiment campaign.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentParams {
    /// Instructions per benchmark for the offline vulnerability profile.
    pub profile_insts: u64,
    /// Warmup instructions before measurement (plays the SimPoint
    /// fast-forward role; CPU-class mixes need ~1M to reach cache steady
    /// state).
    pub warmup_insts: u64,
    /// Measured cycles per run (100 sampling intervals by default).
    pub run_cycles: u64,
    /// ACE-analysis window (instructions; the paper uses 40 000).
    pub ace_window: usize,
    /// DVM reliability thresholds as fractions of MaxIQ_AVF (Figures
    /// 8–10 use 0.7 … 0.3).
    pub threshold_fracs: [f64; 5],
}

impl ExperimentParams {
    /// Full campaign (the numbers in EXPERIMENTS.md).
    pub fn full() -> ExperimentParams {
        ExperimentParams {
            profile_insts: 300_000,
            warmup_insts: 1_000_000,
            run_cycles: 1_000_000,
            ace_window: 40_000,
            threshold_fracs: [0.7, 0.6, 0.5, 0.4, 0.3],
        }
    }

    /// Reduced budget for integration tests and smoke runs.
    pub fn fast() -> ExperimentParams {
        ExperimentParams {
            profile_insts: 60_000,
            warmup_insts: 250_000,
            run_cycles: 250_000,
            ace_window: 40_000,
            threshold_fracs: [0.7, 0.6, 0.5, 0.4, 0.3],
        }
    }

    /// Bench-baseline budget: small enough that a multi-seed sweep
    /// finishes as a debug-build CI smoke job, large enough to close
    /// 12 sampling intervals per run. Baselines recorded under one
    /// budget are only comparable to runs under the same budget (the
    /// comparator enforces this).
    pub fn bench() -> ExperimentParams {
        ExperimentParams {
            profile_insts: 60_000,
            warmup_insts: 150_000,
            run_cycles: 120_000,
            ace_window: 40_000,
            threshold_fracs: [0.7, 0.6, 0.5, 0.4, 0.3],
        }
    }
}

/// The identity of one simulation: everything its result depends on.
/// Scheme `f64` fields compare by bits, so targets one ulp apart are
/// different runs.
#[derive(PartialEq, Eq, Hash)]
pub(crate) struct RunKey {
    mix: String,
    benchmarks: [&'static str; 4],
    salt: u64,
    fetch: FetchPolicyKind,
    scheme: (&'static str, [u64; 2]),
    /// Hash of the context's budget fields and machine configuration.
    config: u64,
}

/// Shared context: machine configuration plus lazily filled caches of
/// profiled (hint-tagged) program texts, one per benchmark, and of run
/// outcomes, one per distinct simulation.
pub struct ExperimentContext {
    pub params: ExperimentParams,
    pub machine: MachineConfig,
    #[allow(clippy::type_complexity)]
    tagged: Mutex<HashMap<(&'static str, u64), (Arc<Program>, ProfileResult)>>,
    /// When set, each run exports a Chrome trace-event file here.
    trace_dir: Option<PathBuf>,
    /// When set, each run records a sim-metrics registry and exports
    /// its per-interval JSONL series and Prometheus text here.
    metrics_dir: Option<PathBuf>,
    /// When set, each run enables span profiling and exports a JSON
    /// profile report plus a collapsed-stack (flamegraph-ready) file
    /// here.
    profile_dir: Option<PathBuf>,
    /// Campaign-wide simulated-cycle counter; when set, every run
    /// wires it into its pipeline's interval clock so the harness
    /// heartbeat can report aggregate throughput across workers.
    progress: Mutex<Option<Arc<AtomicU64>>>,
    /// Monotonic run ids tying manifests to trace file names.
    run_counter: AtomicU64,
    /// Manifests of completed runs; the CLI drains this after each
    /// exhibit (and discards if `--manifest` was not given).
    manifests: Mutex<Vec<RunManifest>>,
    /// Outcomes of finished runs, served again to any later exhibit
    /// that asks for the same [`RunKey`] (see `run_scheme_salted`).
    memo: Mutex<HashMap<RunKey, RunOutcome>>,
    /// Runs served from `memo` since the last [`take_memo_hits`](Self::take_memo_hits).
    memo_hits: AtomicU64,
}

impl ExperimentContext {
    pub fn new(params: ExperimentParams) -> ExperimentContext {
        ExperimentContext {
            params,
            machine: MachineConfig::table2(),
            tagged: Mutex::new(HashMap::new()),
            trace_dir: None,
            metrics_dir: None,
            profile_dir: None,
            progress: Mutex::new(None),
            run_counter: AtomicU64::new(0),
            manifests: Mutex::new(Vec::new()),
            memo: Mutex::new(HashMap::new()),
            memo_hits: AtomicU64::new(0),
        }
    }

    /// Enable per-run Chrome trace export into `dir`.
    pub fn with_trace_dir(mut self, dir: impl Into<PathBuf>) -> ExperimentContext {
        self.trace_dir = Some(dir.into());
        self
    }

    pub fn trace_dir(&self) -> Option<&Path> {
        self.trace_dir.as_deref()
    }

    /// Enable per-run sim-metrics recording and export into `dir`.
    pub fn with_metrics_dir(mut self, dir: impl Into<PathBuf>) -> ExperimentContext {
        self.metrics_dir = Some(dir.into());
        self
    }

    pub fn metrics_dir(&self) -> Option<&Path> {
        self.metrics_dir.as_deref()
    }

    /// Enable per-run wall-time profiling and export into `dir`.
    pub fn with_profile_dir(mut self, dir: impl Into<PathBuf>) -> ExperimentContext {
        self.profile_dir = Some(dir.into());
        self
    }

    pub fn profile_dir(&self) -> Option<&Path> {
        self.profile_dir.as_deref()
    }

    /// Install the campaign-wide progress counter (the same counter
    /// handed to `sim_harness` via `HarnessObservers::progress`).
    /// `&self` on purpose: the context is shared across worker threads
    /// by the time the campaign driver decides to enable heartbeats.
    pub fn set_progress_counter(&self, counter: Arc<AtomicU64>) {
        *self.progress.lock() = Some(counter);
    }

    pub fn progress_counter(&self) -> Option<Arc<AtomicU64>> {
        self.progress.lock().clone()
    }

    /// Next campaign-unique run id.
    pub fn next_run_id(&self) -> u64 {
        self.run_counter.fetch_add(1, Ordering::Relaxed)
    }

    /// Raise the run-id counter to at least `base`. A store-backed
    /// invocation seeds this with the store's record count so artifact
    /// file names (`run{id:04}_*`) never collide with — and silently
    /// overwrite — files an earlier registered invocation left in the
    /// shared artifact directory.
    pub fn set_run_id_base(&self, base: u64) {
        self.run_counter.fetch_max(base, Ordering::Relaxed);
    }

    /// Log a completed run's manifest.
    pub fn record_manifest(&self, manifest: RunManifest) {
        self.manifests.lock().push(manifest);
    }

    /// Take every manifest logged since the last drain.
    pub fn drain_manifests(&self) -> Vec<RunManifest> {
        std::mem::take(&mut *self.manifests.lock())
    }

    /// The memo key of one run under this context's budget and machine.
    pub(crate) fn run_key(
        &self,
        mix: &WorkloadMix,
        scheme: Scheme,
        fetch: FetchPolicyKind,
        salt: u64,
    ) -> RunKey {
        let bits = match scheme {
            Scheme::DvmDynamic { target } => [target.to_bits(), 0],
            Scheme::DvmStatic { target, ratio } => [target.to_bits(), ratio.to_bits()],
            _ => [0, 0],
        };
        let p = &self.params;
        RunKey {
            mix: mix.name.clone(),
            benchmarks: mix.benchmarks,
            salt,
            fetch,
            scheme: (scheme.label(), bits),
            config: sim_harness::fnv1a(&format!(
                "p{}w{}r{}a{}|{:?}",
                p.profile_insts, p.warmup_insts, p.run_cycles, p.ace_window, self.machine
            )),
        }
    }

    /// The stored outcome of an earlier run with this key, counted as a
    /// memo hit.
    pub(crate) fn memo_get(&self, key: &RunKey) -> Option<RunOutcome> {
        let hit = self.memo.lock().get(key).cloned();
        if hit.is_some() {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Store a finished run's outcome under its key. Cancelled and
    /// deadlocked runs are not stored; an earlier entry is kept.
    pub(crate) fn memo_insert(&self, key: RunKey, outcome: &RunOutcome) {
        if outcome.cancelled || outcome.deadlocked {
            return;
        }
        self.memo
            .lock()
            .entry(key)
            .or_insert_with(|| outcome.clone());
    }

    /// Runs served from the memo since the last call; the CLI reads it
    /// with each exhibit's manifests.
    pub fn take_memo_hits(&self) -> u64 {
        self.memo_hits.swap(0, Ordering::Relaxed)
    }

    /// The profiled, hint-tagged program for one benchmark (cached).
    pub fn tagged_program(&self, name: &'static str) -> (Arc<Program>, ProfileResult) {
        self.tagged_program_salted(name, 0)
    }

    /// Salted variant: salt 0 is the canonical seeded workload; other
    /// salts draw independent programs from the same benchmark model
    /// (cross-seed aggregation, bench baselines).
    pub fn tagged_program_salted(
        &self,
        name: &'static str,
        salt: u64,
    ) -> (Arc<Program>, ProfileResult) {
        if let Some(hit) = self.tagged.lock().get(&(name, salt)) {
            return hit.clone();
        }
        // Profile outside the lock: profiling is the expensive part and
        // distinct benchmarks may be profiled concurrently.
        let model =
            workload_gen::model_by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
        let raw = Arc::new(workload_gen::generate_program_salted(&model, salt));
        let entry = profile_and_tag(&raw, self.params.profile_insts, self.params.ace_window);
        let mut cache = self.tagged.lock();
        cache.entry((name, salt)).or_insert(entry).clone()
    }

    /// The four tagged programs of a mix, in context order.
    pub fn mix_programs(&self, mix: &WorkloadMix) -> Vec<Arc<Program>> {
        self.mix_programs_salted(mix, 0)
    }

    /// Salted variant of [`mix_programs`](Self::mix_programs).
    pub fn mix_programs_salted(&self, mix: &WorkloadMix, salt: u64) -> Vec<Arc<Program>> {
        mix.benchmarks
            .iter()
            .map(|&n| self.tagged_program_salted(n, salt).0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tagged_programs_are_cached() {
        let ctx = ExperimentContext::new(ExperimentParams::fast());
        let (a, ra) = ctx.tagged_program("gcc");
        let (b, rb) = ctx.tagged_program("gcc");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(ra.accuracy, rb.accuracy);
        assert!(a.insts.iter().any(|i| i.ace_hint), "hints installed");
    }

    #[test]
    fn salted_programs_cache_independently() {
        let ctx = ExperimentContext::new(ExperimentParams::fast());
        let (canonical, _) = ctx.tagged_program("gcc");
        let (salt0, _) = ctx.tagged_program_salted("gcc", 0);
        let (salt1, _) = ctx.tagged_program_salted("gcc", 1);
        assert!(Arc::ptr_eq(&canonical, &salt0), "salt 0 is canonical");
        assert!(!Arc::ptr_eq(&canonical, &salt1));
        let (salt1b, _) = ctx.tagged_program_salted("gcc", 1);
        assert!(Arc::ptr_eq(&salt1, &salt1b), "salted entries cached too");
    }

    #[test]
    fn mix_programs_resolve_all_contexts() {
        let ctx = ExperimentContext::new(ExperimentParams::fast());
        let mix = workload_gen::mix_by_name("CPU-A").unwrap();
        assert_eq!(ctx.mix_programs(&mix).len(), 4);
    }

    #[test]
    fn param_tiers_are_ordered() {
        let full = ExperimentParams::full();
        let fast = ExperimentParams::fast();
        assert!(full.warmup_insts > fast.warmup_insts);
        assert!(full.run_cycles > fast.run_cycles);
        assert_eq!(full.threshold_fracs, fast.threshold_fracs);
    }
}
