//! The simulation driver behind every experiment. One private function,
//! `simulate`, runs a simulation end to end; [`run_scheme_salted`] (the
//! memoized entry every exhibit goes through) and
//! [`run_scheme_supervised`] (campaign jobs) are its only callers.

use crate::checkpoint::{
    decode_checkpoint, run_measured_checkpointed, CheckpointPolicy, C_SNAPSHOTS_RESTORED,
    C_SNAPSHOTS_SKIPPED_CORRUPT,
};
use crate::context::ExperimentContext;
use crate::manifest::RunManifest;
use avf::{AvfCollector, AvfReport};
use iq_reliability::{DvmHandle, Scheme};
use sim_harness::JobError;
use sim_metrics::summary::MetricsSummary;
use sim_metrics::Metrics;
use sim_profile::ProfileReport;
use sim_report::store::slugify;
use sim_trace::chrome::ChromeTraceSink;
use sim_trace::timing::PhaseTimings;
use sim_trace::{TraceEvent, Tracer};
use smt_sim::{CancelToken, FetchPolicyKind, Pipeline, SimLimits, SimStats};
use std::sync::Arc;
use workload_gen::{Program, WorkloadMix};

/// Everything one simulation produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    pub mix: String,
    pub scheme: &'static str,
    pub fetch: FetchPolicyKind,
    pub avf: AvfReport,
    /// Pipeline statistics of the measured window: IPC, L2 misses,
    /// flushes, governor stalls, Figure 2's ready-queue histogram.
    pub stats: SimStats,
    /// Average adaptive wq_ratio (DVM runs only).
    pub dvm_avg_ratio: Option<f64>,
    pub deadlocked: bool,
    /// True when a cooperative cancel token stopped the measured run
    /// early (wall-clock deadline enforcement); the statistics cover
    /// only the cycles that ran and must not be aggregated.
    pub cancelled: bool,
    /// Workload-generation salt (0 = canonical workload).
    pub salt: u64,
    /// Host wall-clock cost of the run, by phase.
    pub timings: PhaseTimings,
    /// Simulated cycles per host second over the measured window — the
    /// simulator's throughput. For a checkpoint-restored run the cycle
    /// count covers the whole measured window while the wall time covers
    /// only the simulated tail, so the figure is only comparable across
    /// fresh (non-restored) runs; the bench baseline uses fresh runs.
    pub cycles_per_sec: f64,
    /// Digest of the run's sim-metrics registry (metrics-enabled
    /// contexts only).
    pub sim_metrics: Option<MetricsSummary>,
}

/// Run one (mix, scheme, fetch policy) combination under the context's
/// budget: profile-tagged programs, warmup, then a fixed measured cycle
/// window with ground-truth AVF collection. Each simulation self-times
/// its phases, logs one [`RunManifest`] on the context, and — when the
/// context has a trace directory — exports a Chrome trace-event file.
/// A combination the context already simulated is not simulated again:
/// see [`run_scheme_salted`].
pub fn run_scheme(
    ctx: &ExperimentContext,
    mix: &WorkloadMix,
    scheme: Scheme,
    fetch: FetchPolicyKind,
) -> RunOutcome {
    run_scheme_salted(ctx, mix, scheme, fetch, 0)
}

/// [`run_scheme`] with an explicit workload-generation salt: salt 0 is
/// the canonical workload; other salts draw independent programs from
/// the same benchmark models (cross-seed statistics, bench baselines).
///
/// Exhibits repeat runs: every DVM threshold is anchored on the same
/// per-mix baseline, and Figure 10 re-plots Figure 5's and Figure 8's
/// runs. A run's result depends only on its key (mix, salt, fetch
/// policy, scheme, budget and machine), so a key this context already
/// simulated returns the stored outcome. A hit simulates nothing and
/// records nothing: no run id, manifest, artifact or progress.
pub fn run_scheme_salted(
    ctx: &ExperimentContext,
    mix: &WorkloadMix,
    scheme: Scheme,
    fetch: FetchPolicyKind,
    salt: u64,
) -> RunOutcome {
    let key = ctx.run_key(mix, scheme, fetch, salt);
    if let Some(hit) = ctx.memo_get(&key) {
        return hit;
    }
    // The memo is not locked while simulating, so two concurrent misses
    // on one key both simulate; their outcomes are identical and the
    // second insert keeps the first. No exhibit issues one key twice
    // inside one `parallel_map`, so in-flight runs are not deduplicated.
    let outcome = simulate(ctx, mix, scheme, fetch, salt, None, None)
        .expect("only snapshot loads and writes fail, and this run has no checkpoints");
    ctx.memo_insert(key, &outcome);
    outcome
}

/// A campaign job's run: the simulation [`run_scheme_salted`] performs,
/// under the harness's per-attempt cancel token, so a wall-clock
/// deadline or a shutdown request stops it at the next interval-clock
/// poll — in warm-up as well as in the measured window. It always
/// simulates: it neither reads nor fills the context's memo.
///
/// With a checkpoint policy, the job's
/// [`SnapshotStore`](sim_harness::SnapshotStore) is consulted first and
/// the newest valid snapshot — if any — is restored (skipping corrupt
/// generations, with a typed [`JobError::Corrupt`] when every
/// generation is bad), so the run continues bit-identically from the
/// last checkpoint instead of re-simulating from cycle zero. A restored
/// run skips warmup — the warmed-up, mid-measurement machine *is* the
/// snapshot. During the measured window a snapshot lands in the store
/// every `policy.every` simulated cycles (rounded to the
/// sampling-interval grid) and `on_checkpoint` fires once per durable
/// snapshot — the hook the campaign layer uses to mark the journal
/// `checkpointed`. With `policy.selfcheck`, structural invariants are
/// validated at every boundary and the run fails fast as
/// [`JobError::Diverged`] instead of persisting a poisoned checkpoint.
#[allow(clippy::too_many_arguments)]
pub fn run_scheme_supervised(
    ctx: &ExperimentContext,
    mix: &WorkloadMix,
    scheme: Scheme,
    fetch: FetchPolicyKind,
    salt: u64,
    cancel: &CancelToken,
    checkpoint: Option<&CheckpointPolicy<'_>>,
    mut on_checkpoint: impl FnMut(u64),
) -> Result<RunOutcome, JobError> {
    let checkpoint = checkpoint.map(|policy| (policy, &mut on_checkpoint as &mut dyn FnMut(u64)));
    simulate(ctx, mix, scheme, fetch, salt, Some(cancel), checkpoint)
}

/// One simulation's live state: the pipeline with its attachments, the
/// ground-truth AVF observer and the DVM telemetry handle.
struct Machine {
    pipeline: Pipeline,
    collector: AvfCollector,
    dvm: Option<DvmHandle>,
}

/// A fresh machine with every attachment in place, in one order: the
/// cancel token, a new metrics registry, the tracer, the profiler and
/// the progress counter. They go on before warm-up or restore, so a
/// deadline stops warm-up too, a snapshot taken with metrics on
/// restores onto a registry that is on, and traces and progress cover
/// warm-up on every path.
fn build_machine(
    ctx: &ExperimentContext,
    programs: &[Arc<Program>],
    scheme: Scheme,
    fetch: FetchPolicyKind,
    cancel: Option<&CancelToken>,
    tracer: &Tracer,
) -> Machine {
    let (policies, dvm) = scheme.policies(fetch, ctx.machine.iq_size);
    let mut pipeline = Pipeline::new(ctx.machine.clone(), programs.to_vec(), policies);
    if let Some(token) = cancel {
        pipeline.set_cancel_token(token.clone());
    }
    if ctx.metrics_dir().is_some() {
        pipeline.set_metrics(Metrics::new());
    }
    if tracer.is_on() {
        pipeline.set_tracer(tracer.clone());
    }
    // A traced run carries the profile as a flame chart, so tracing
    // turns the span profiler on as well.
    if ctx.profile_dir().is_some() || tracer.is_on() {
        pipeline.set_stage_profiling(true);
    }
    if let Some(counter) = ctx.progress_counter() {
        pipeline.set_progress_counter(counter);
    }
    let mut collector = AvfCollector::new(&ctx.machine, ctx.params.ace_window, 10_000);
    collector.set_profiling(ctx.profile_dir().is_some());
    Machine {
        pipeline,
        collector,
        dvm,
    }
}

/// Run one simulation end to end: generate the tagged programs, build
/// the machine, warm it up — or, with a checkpoint policy, restore the
/// newest valid snapshot — measure the context's cycle window, collect
/// AVF, export the run's profile, trace and metrics, and log its
/// manifest. Without a checkpoint policy the measured window is a plain
/// [`Pipeline::run`] into the collector, and nothing can fail.
fn simulate(
    ctx: &ExperimentContext,
    mix: &WorkloadMix,
    scheme: Scheme,
    fetch: FetchPolicyKind,
    salt: u64,
    cancel: Option<&CancelToken>,
    checkpoint: Option<(&CheckpointPolicy<'_>, &mut dyn FnMut(u64))>,
) -> Result<RunOutcome, JobError> {
    let mut timings = PhaseTimings::default();
    let run_id = ctx.next_run_id();
    let base = format!(
        "run{run_id:04}_{}_{}",
        slugify(&mix.name),
        slugify(scheme.label())
    );
    let programs = PhaseTimings::time(&mut timings.generate_s, || {
        ctx.mix_programs_salted(mix, salt)
    });
    let tracer = open_tracer(ctx, &base);
    let build = || build_machine(ctx, &programs, scheme, fetch, cancel, &tracer);

    // Each snapshot candidate decodes into a machine of its own, so a
    // partial restore from a corrupt file never leaks into the state an
    // older valid snapshot then restores into.
    let restored = match &checkpoint {
        Some((policy, _)) => {
            let loaded = policy.store.load_latest_valid(|bytes| {
                let mut m = build();
                decode_checkpoint(bytes, &mut m.pipeline, &mut m.collector)?;
                Ok(m)
            })?;
            if let Some(loaded) = &loaded {
                if loaded.skipped_corrupt > 0 {
                    policy
                        .metrics
                        .counter_add(C_SNAPSHOTS_SKIPPED_CORRUPT, loaded.skipped_corrupt as u64);
                    eprintln!(
                        "experiments: skipped {} corrupt snapshot(s) for {} / {}; resuming from cycle {}",
                        loaded.skipped_corrupt,
                        mix.name,
                        scheme.label(),
                        loaded.cycle,
                    );
                }
                policy.metrics.counter_add(C_SNAPSHOTS_RESTORED, 1);
            }
            loaded.map(|loaded| loaded.value)
        }
        None => None,
    };
    let mut m = match restored {
        Some(m) => m,
        None => {
            let mut m = build();
            let start = PhaseTimings::time(&mut timings.warmup_s, || {
                m.pipeline.warm_up(ctx.params.warmup_insts)
            });
            m.collector = m.collector.with_start_cycle(start);
            m
        }
    };

    // The cycle budget is measured from the measurement origin, which a
    // snapshot carries, so a restored run stops at the same absolute
    // cycle a straight-through run would have.
    let limits = SimLimits::cycles(ctx.params.run_cycles);
    let result = match checkpoint {
        None => PhaseTimings::time(&mut timings.measure_s, || {
            m.pipeline.run(limits, &mut m.collector)
        }),
        Some((policy, on_checkpoint)) => {
            let run = PhaseTimings::time(&mut timings.measure_s, || {
                run_measured_checkpointed(
                    &mut m.pipeline,
                    m.collector,
                    limits,
                    policy,
                    on_checkpoint,
                )
            });
            match run {
                Ok(run) => {
                    m.collector = run.collector;
                    run.result
                }
                Err(err) => {
                    // A failed attempt still leaves whole artifacts: a
                    // drained or resumed campaign must never find torn
                    // trace or metrics files.
                    tracer.flush();
                    export_metrics(ctx, m.pipeline.metrics(), &base);
                    return Err(err);
                }
            }
        }
    };
    let avf = PhaseTimings::time(&mut timings.collect_s, || m.collector.report());
    let mut profile = m.pipeline.profile_report();
    profile.merge(&m.collector.profile_report(), "avf");
    export_profile(ctx, &tracer, &profile, &base);
    tracer.flush();
    let sim_metrics = export_metrics(ctx, m.pipeline.metrics(), &base);

    let outcome = RunOutcome {
        mix: mix.name.clone(),
        scheme: scheme.label(),
        fetch,
        avf,
        dvm_avg_ratio: m.dvm.map(|h| h.lock().average_ratio()),
        deadlocked: result.deadlocked,
        cancelled: result.cancelled,
        salt,
        cycles_per_sec: cycles_per_sec(result.stats.cycles, timings.measure_s),
        stats: result.stats,
        timings,
        sim_metrics,
    };
    ctx.record_manifest(RunManifest::new(run_id, ctx, mix, scheme, fetch, &outcome));
    Ok(outcome)
}

/// Simulated cycles per host wall-clock second over the measured window.
fn cycles_per_sec(cycles: u64, measure_s: f64) -> f64 {
    if measure_s > 0.0 {
        cycles as f64 / measure_s
    } else {
        0.0
    }
}

/// A Chrome trace exporter writing `<base>.trace.json` into the
/// context's trace directory, or an off tracer when the context has
/// none (or it cannot be created).
fn open_tracer(ctx: &ExperimentContext, base: &str) -> Tracer {
    let Some(dir) = ctx.trace_dir() else {
        return Tracer::off();
    };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!(
            "experiments: cannot create trace dir {}: {e}",
            dir.display()
        );
        return Tracer::off();
    }
    Tracer::new(ChromeTraceSink::new(dir.join(format!("{base}.trace.json"))))
}

/// Export a finished run's merged profile: a JSON report and a
/// collapsed-stack (flamegraph-ready) file into the profile directory, a
/// hot-spot table on stderr, and — when the run is also traced — the
/// laid-out profile spans merged into the Chrome trace stream as a flame
/// chart on the `profile` track.
fn export_profile(ctx: &ExperimentContext, tracer: &Tracer, profile: &ProfileReport, base: &str) {
    if profile.nodes.iter().all(|n| n.calls == 0) {
        return; // profiling was off
    }
    // Merge the span flame chart into the trace stream (no-op when the
    // run is untraced) before the sink is flushed.
    for span in profile.chrome_spans(0) {
        tracer.emit(move || TraceEvent::ProfileSpan {
            start_us: span.start_us,
            dur_us: span.dur_us,
            name: span.name,
            depth: span.depth,
            calls: span.calls,
        });
    }
    let Some(dir) = ctx.profile_dir() else {
        return;
    };
    let export = std::fs::create_dir_all(dir)
        .and_then(|_| {
            sim_harness::atomic_write(
                &dir.join(format!("{base}.profile.json")),
                &serde::json::to_string(profile),
            )
        })
        .and_then(|_| {
            sim_harness::atomic_write(
                &dir.join(format!("{base}.collapsed")),
                &profile.to_collapsed(),
            )
        });
    if let Err(e) = export {
        eprintln!("experiments: profile export failed for {base}: {e}");
    }
    eprintln!("profile {base}:\n{}", profile.hotspot_table());
}

/// Export a finished run's registry (per-interval JSONL series +
/// Prometheus text) into the context's metrics directory and digest it
/// for the manifest. `None` when the context records no metrics.
fn export_metrics(
    ctx: &ExperimentContext,
    metrics: &Metrics,
    base: &str,
) -> Option<MetricsSummary> {
    let dir = ctx.metrics_dir()?;
    let snapshot = metrics.snapshot();
    // Atomic exports: stream to a buffer, then `.tmp` + rename, so a
    // crash (or SIGINT) mid-export never leaves a torn file for a
    // resumed campaign to trip over.
    let export = std::fs::create_dir_all(dir)
        .and_then(|_| {
            let mut buf = Vec::new();
            sim_metrics::export::write_series_jsonl(&snapshot, &mut buf)?;
            let text = String::from_utf8(buf)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            sim_harness::atomic_write(&dir.join(format!("{base}.series.jsonl")), &text)
        })
        .and_then(|_| {
            sim_harness::atomic_write(
                &dir.join(format!("{base}.prom")),
                &sim_metrics::export::render_prometheus(&snapshot),
            )
        });
    if let Err(e) = export {
        eprintln!("experiments: metrics export failed for {base}: {e}");
    }
    Some(MetricsSummary::from_snapshot(&snapshot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentParams;
    use sim_harness::SnapshotStore;

    #[test]
    fn baseline_run_completes_and_reports() {
        let ctx = ExperimentContext::new(ExperimentParams::fast());
        let mix = workload_gen::mix_by_name("CPU-A").unwrap();
        let out = run_scheme(&ctx, &mix, Scheme::Baseline, FetchPolicyKind::Icount);
        assert!(!out.deadlocked);
        assert!(out.stats.throughput_ipc() > 0.5);
        assert!(out.avf.iq_avf > 0.0 && out.avf.iq_avf < 1.0);
        assert!(out.dvm_avg_ratio.is_none());
        assert_eq!(out.mix, "CPU-A");
        // Self-profiling: every phase saw wall-clock time.
        assert!(out.timings.warmup_s > 0.0);
        assert!(out.timings.measure_s > 0.0);
        assert!(out.timings.total_s() > 0.0);
        // The run logged a manifest mirroring the outcome.
        let manifests = ctx.drain_manifests();
        assert_eq!(manifests.len(), 1);
        assert_eq!(manifests[0].mix, "CPU-A");
        assert_eq!(manifests[0].metrics.l2_misses, out.stats.l2_misses);
        assert_eq!(manifests[0].seeds.len(), manifests[0].benchmarks.len());
        assert!(ctx.drain_manifests().is_empty(), "drain empties the log");

        // Profiling is opt-in: without a profile or trace directory the
        // machine's span profiler stays off, so its report — the one
        // `export_profile` would write — counts no call.
        let mut plain = build_machine(
            &ctx,
            &ctx.mix_programs(&mix),
            Scheme::Baseline,
            FetchPolicyKind::Icount,
            None,
            &Tracer::off(),
        );
        plain
            .pipeline
            .run(SimLimits::cycles(1_000), &mut plain.collector);
        let report = plain.pipeline.profile_report();
        assert!(
            report.nodes.iter().all(|n| n.calls == 0),
            "profiling is opt-in"
        );
    }

    /// A budget small enough for memo tests: what the memo does does not
    /// depend on run length.
    fn tiny_params() -> ExperimentParams {
        let mut p = ExperimentParams::fast();
        p.profile_insts = 20_000;
        p.warmup_insts = 10_000;
        p.run_cycles = 30_000;
        p
    }

    fn interval_bits(out: &RunOutcome) -> Vec<u64> {
        let samples = out.avf.iq_interval_avf.samples();
        samples.iter().map(|v| v.to_bits()).collect()
    }

    /// The simulated outputs of two runs agree bit for bit.
    fn assert_same_run(a: &RunOutcome, b: &RunOutcome) {
        assert_eq!(a.avf.iq_avf.to_bits(), b.avf.iq_avf.to_bits());
        assert_eq!(
            a.stats.throughput_ipc().to_bits(),
            b.stats.throughput_ipc().to_bits()
        );
        assert_eq!(
            a.stats.harmonic_ipc().to_bits(),
            b.stats.harmonic_ipc().to_bits()
        );
        assert_eq!(a.stats.l2_misses, b.stats.l2_misses);
        assert_eq!(a.stats.flushes, b.stats.flushes);
        assert_eq!(interval_bits(a), interval_bits(b));
    }

    /// Scratch directory for one test, emptied first.
    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn repeated_run_is_served_from_the_memo_bit_for_bit() {
        let ctx = ExperimentContext::new(tiny_params());
        let mix = workload_gen::mix_by_name("MIX-A").unwrap();
        let scheme = Scheme::DvmDynamic { target: 0.2 };
        let first = run_scheme(&ctx, &mix, scheme, FetchPolicyKind::Icount);
        let again = run_scheme(&ctx, &mix, scheme, FetchPolicyKind::Icount);
        // The memo is sound only because a run is deterministic in its
        // key: a fresh context simulating the same key agrees too.
        let fresh = run_scheme(
            &ExperimentContext::new(tiny_params()),
            &mix,
            scheme,
            FetchPolicyKind::Icount,
        );
        for out in [&again, &fresh] {
            assert_same_run(out, &first);
        }
        assert_eq!(interval_bits(&first).len(), 3, "one sample per interval");
        assert_eq!(
            ctx.drain_manifests().len(),
            1,
            "one simulation, one manifest"
        );
        assert_eq!(ctx.next_run_id(), 1, "the hit took no run id");
        assert_eq!(ctx.take_memo_hits(), 1);
        assert_eq!(ctx.take_memo_hits(), 0, "taking the count resets it");
    }

    #[test]
    fn changing_any_key_field_simulates_again() {
        let mut ctx = ExperimentContext::new(tiny_params());
        let mix = workload_gen::mix_by_name("MEM-A").unwrap();
        let other_mix = workload_gen::mix_by_name("MEM-B").unwrap();
        let (icount, flush) = (FetchPolicyKind::Icount, FetchPolicyKind::Flush);
        let t = 0.2_f64;
        let next_ulp = f64::from_bits(t.to_bits() + 1);
        let dynamic = |target| Scheme::DvmDynamic { target };
        let stat = |ratio| Scheme::DvmStatic { target: t, ratio };
        // The reference run, then one run per changed field.
        let runs = [
            (&mix, dynamic(t), icount, 0),
            (&other_mix, dynamic(t), icount, 0),
            (&mix, dynamic(t), icount, 1),
            (&mix, dynamic(t), flush, 0),
            (&mix, dynamic(next_ulp), icount, 0),
            (&mix, stat(0.5), icount, 0),
            (&mix, stat(0.75), icount, 0),
        ];
        for (n, &(m, scheme, fetch, salt)) in runs.iter().enumerate() {
            run_scheme_salted(&ctx, m, scheme, fetch, salt);
            assert_eq!(ctx.drain_manifests().len(), 1, "run {n} must simulate");
        }
        assert_eq!(ctx.take_memo_hits(), 0);
        for &(m, scheme, fetch, salt) in &runs {
            run_scheme_salted(&ctx, m, scheme, fetch, salt);
        }
        assert!(ctx.drain_manifests().is_empty(), "every key is stored");
        assert_eq!(ctx.take_memo_hits(), runs.len() as u64);

        // The budget and the machine are part of the key as well.
        ctx.params.run_cycles += 10_000;
        run_scheme(&ctx, &mix, dynamic(t), icount);
        assert_eq!(ctx.drain_manifests().len(), 1, "budget change simulates");
        ctx.machine.flush_cooldown += 1;
        run_scheme(&ctx, &mix, dynamic(t), icount);
        assert_eq!(ctx.drain_manifests().len(), 1, "machine change simulates");
        assert_eq!(ctx.take_memo_hits(), 0);
    }

    #[test]
    fn supervised_runs_bypass_the_memo_and_cancelled_runs_are_not_stored() {
        let ctx = ExperimentContext::new(tiny_params());
        let mix = workload_gen::mix_by_name("CPU-A").unwrap();
        let (scheme, fetch) = (Scheme::Baseline, FetchPolicyKind::Icount);
        let supervised = |salt, token: &CancelToken| {
            run_scheme_supervised(&ctx, &mix, scheme, fetch, salt, token, None, |_| {}).unwrap()
        };
        run_scheme(&ctx, &mix, scheme, fetch);
        assert_eq!(ctx.drain_manifests().len(), 1);
        for _ in 0..2 {
            let out = supervised(0, &CancelToken::new());
            assert!(!out.cancelled);
            assert_eq!(ctx.drain_manifests().len(), 1, "a supervised run simulates");
        }
        assert_eq!(ctx.take_memo_hits(), 0);

        // A cancelled outcome is refused by the memo, so the next
        // uncancelled call with its key simulates in full.
        let token = CancelToken::new();
        token.cancel();
        let cancelled = supervised(1, &token);
        assert!(cancelled.cancelled);
        ctx.memo_insert(ctx.run_key(&mix, scheme, fetch, 1), &cancelled);
        let full = run_scheme_salted(&ctx, &mix, scheme, fetch, 1);
        assert!(!full.cancelled);
        assert_eq!(ctx.drain_manifests().len(), 2);
        assert_eq!(ctx.take_memo_hits(), 0);
    }

    #[test]
    fn checkpointed_rerun_restores_and_matches_bit_for_bit() {
        let dir = scratch("smtsim_runner_ckpt_test");
        let ctx = ExperimentContext::new(ExperimentParams::bench());
        let mix = workload_gen::mix_by_name("CPU-A").unwrap();
        let store = SnapshotStore::new(&dir, "cpu-a-baseline");
        let metrics = Metrics::off();
        let policy = CheckpointPolicy {
            store: &store,
            every: 10_000,
            selfcheck: true,
            metrics: &metrics,
        };
        let run = |on_checkpoint: &mut dyn FnMut(u64)| {
            let (scheme, fetch) = (Scheme::Baseline, FetchPolicyKind::Icount);
            let token = CancelToken::new();
            run_scheme_supervised(
                &ctx,
                &mix,
                scheme,
                fetch,
                0,
                &token,
                Some(&policy),
                on_checkpoint,
            )
            .unwrap()
        };

        let mut checkpoints = 0u64;
        let first = run(&mut |_| checkpoints += 1);
        assert!(!first.deadlocked && !first.cancelled);
        assert!(checkpoints >= 2, "bench budget spans several boundaries");
        assert!(!store.list().is_empty(), "snapshots persisted on disk");

        // A second invocation restores the newest snapshot (taken at
        // the last mid-run boundary), simulates only the tail, and
        // must land on the exact same statistics — and skip warmup.
        let resumed = run(&mut |_| {});
        assert_eq!(resumed.timings.warmup_s, 0.0, "restored runs skip warmup");
        assert_same_run(&resumed, &first);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A snapshot taken with metrics on records the registry as on, so
    /// it only restores onto a machine whose registry is on as well: the
    /// registry must be attached before the restore, not after it.
    #[test]
    fn metrics_on_rerun_restores_its_own_snapshot() {
        let dir = scratch("smtsim_runner_metrics_ckpt_test");
        let ctx = ExperimentContext::new(tiny_params()).with_metrics_dir(dir.join("metrics"));
        let mix = workload_gen::mix_by_name("MEM-A").unwrap();
        let scheme = Scheme::DvmDynamic { target: 0.15 };
        let store = SnapshotStore::new(&dir, "mem-a-dvm");
        let metrics = Metrics::new();
        let policy = CheckpointPolicy {
            store: &store,
            every: 10_000,
            selfcheck: false,
            metrics: &metrics,
        };
        let run = || {
            let token = CancelToken::new();
            let fetch = FetchPolicyKind::Icount;
            run_scheme_supervised(&ctx, &mix, scheme, fetch, 0, &token, Some(&policy), |_| {})
        };
        let first = run().unwrap();
        assert!(!store.list().is_empty(), "snapshots persisted on disk");
        let resumed = run().expect("a metrics-on snapshot restores with metrics on");
        assert_eq!(metrics.snapshot().counter(C_SNAPSHOTS_RESTORED), Some(1));
        assert_eq!(resumed.timings.warmup_s, 0.0, "restored runs skip warmup");
        assert_same_run(&resumed, &first);
        // The restored registry carries the snapshot's series, so the
        // resumed run still reports one point per measured interval.
        let points = |out: &RunOutcome| {
            out.sim_metrics
                .as_ref()
                .unwrap()
                .series("ipc")
                .unwrap()
                .points
        };
        assert_eq!(points(&resumed), points(&first));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A token cancelled before the call stops the checkpointed run at
    /// warm-up's first poll: the cancel token is attached before warm-up.
    #[test]
    fn cancelled_checkpointed_run_skips_warm_up() {
        let dir = scratch("smtsim_runner_cancel_ckpt_test");
        let mut params = ExperimentParams::bench();
        params.run_cycles = 20_000;
        let ctx = ExperimentContext::new(params);
        let mix = workload_gen::mix_by_name("CPU-A").unwrap();
        let metrics = Metrics::off();
        let run = |job: &str, token: &CancelToken| {
            let store = SnapshotStore::new(&dir, job);
            let policy = CheckpointPolicy {
                store: &store,
                every: 10_000,
                selfcheck: false,
                metrics: &metrics,
            };
            let (scheme, fetch) = (Scheme::Baseline, FetchPolicyKind::Icount);
            run_scheme_supervised(&ctx, &mix, scheme, fetch, 0, token, Some(&policy), |_| {})
                .unwrap()
        };
        let full = run("uncancelled", &CancelToken::new());
        assert!(!full.cancelled);
        let token = CancelToken::new();
        token.cancel();
        let stopped = run("cancelled", &token);
        assert!(stopped.cancelled);
        assert!(
            stopped.timings.warmup_s < full.timings.warmup_s / 10.0,
            "cancelled warm-up took {:.4}s, uncancelled {:.4}s",
            stopped.timings.warmup_s,
            full.timings.warmup_s
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dvm_run_exposes_ratio_telemetry() {
        let ctx = ExperimentContext::new(ExperimentParams::fast());
        let mix = workload_gen::mix_by_name("MEM-A").unwrap();
        let out = run_scheme(
            &ctx,
            &mix,
            Scheme::DvmDynamic { target: 0.15 },
            FetchPolicyKind::Icount,
        );
        assert!(!out.deadlocked);
        assert!(out.dvm_avg_ratio.unwrap() > 0.0);
    }

    #[test]
    fn metricized_run_exports_series_and_digest() {
        let dir = std::env::temp_dir().join("smtsim_runner_metrics_test");
        std::fs::remove_dir_all(&dir).ok();
        let ctx = ExperimentContext::new(ExperimentParams::fast()).with_metrics_dir(&dir);
        let mix = workload_gen::mix_by_name("MEM-A").unwrap();
        let out = run_scheme_salted(
            &ctx,
            &mix,
            Scheme::DvmDynamic { target: 0.15 },
            FetchPolicyKind::Icount,
            1,
        );
        assert_eq!(out.salt, 1);
        // The outcome and manifest both carry the registry digest, with
        // one point per closed interval in each pipeline series.
        let digest = out.sim_metrics.as_ref().expect("metrics recorded");
        let intervals = digest.series("ipc").unwrap().points;
        assert!(intervals >= 20, "fast budget closes ~25 intervals");
        for series in ["iq.ready_len", "iq.ace_fraction", "iq.interval_avf"] {
            assert_eq!(digest.series(series).unwrap().points, intervals);
        }
        assert!(digest.series("dvm.wq_ratio").is_some(), "governor gauge");
        let manifests = ctx.drain_manifests();
        assert_eq!(manifests[0].salt, 1);
        assert_eq!(manifests[0].sim_metrics.as_ref(), Some(digest));
        // Both export files landed next to each other.
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names.len(), 2, "{names:?}");
        assert!(names[0].ends_with(".prom"));
        assert!(names[1].ends_with(".series.jsonl"));
        let jsonl = std::fs::read_to_string(dir.join(&names[1])).unwrap();
        assert_eq!(jsonl.lines().count() as u64, intervals);
        let prom = std::fs::read_to_string(dir.join(&names[0])).unwrap();
        assert!(prom.contains("smtsim_dvm_wq_ratio"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn profiled_run_exports_report_and_collapsed_stacks() {
        let dir = scratch("smtsim_runner_profile_test");
        let ctx = ExperimentContext::new(ExperimentParams::fast()).with_profile_dir(&dir);
        let mix = workload_gen::mix_by_name("CPU-A").unwrap();
        let out = run_scheme(&ctx, &mix, Scheme::Baseline, FetchPolicyKind::Icount);
        assert!(!out.deadlocked);
        assert!(out.cycles_per_sec > 0.0, "throughput recorded");
        // Both export files landed, named after the run.
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names.len(), 2, "{names:?}");
        assert!(names[0].ends_with(".collapsed"));
        assert!(names[1].ends_with(".profile.json"));
        // The JSON report round-trips and carries the merged span tree:
        // pipeline stages plus the grafted component anchors.
        let report: ProfileReport =
            serde::json::from_str(&std::fs::read_to_string(dir.join(&names[1])).unwrap()).unwrap();
        for name in ["tick", "wakeup"] {
            assert!(
                report.nodes.iter().any(|n| n.name == name && n.calls > 0),
                "span {name} missing from exported report"
            );
        }
        // Every measured cycle is stepped (one `tick`, one call of each
        // stage) or fast-forwarded (one `fast_forward` call), and the
        // stages account for wall time.
        let calls = |name: &str| report.nodes.iter().find(|n| n.name == name).unwrap().calls;
        let ticks = calls("tick");
        assert_eq!(ticks + calls("fast_forward"), ctx.params.run_cycles);
        let stages = ["commit", "writeback", "issue", "dispatch", "fetch"];
        for stage in stages {
            assert_eq!(calls(stage), ticks, "{stage}");
        }
        let stage_s: f64 = stages.iter().map(|s| report.span_total_s(s)).sum();
        assert!(stage_s > 0.0, "stages carry no wall time");
        // Component trees are grafted under synthetic anchor nodes
        // (zero calls themselves); their children carry the counts.
        for anchor in ["mem_hier", "branch_pred", "avf"] {
            let idx = report
                .nodes
                .iter()
                .position(|n| n.name == anchor)
                .unwrap_or_else(|| panic!("anchor {anchor} missing from exported report"));
            assert!(
                report
                    .nodes
                    .iter()
                    .any(|n| n.parent == Some(idx) && n.calls > 0),
                "anchor {anchor} has no active child spans"
            );
        }
        // The collapsed-stack file parses and names tick-rooted stacks.
        let collapsed = std::fs::read_to_string(dir.join(&names[0])).unwrap();
        let rows = ProfileReport::parse_collapsed(&collapsed).unwrap();
        assert!(!rows.is_empty());
        assert!(rows
            .iter()
            .any(|(stack, _)| stack.first().map(String::as_str) == Some("tick")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traced_run_merges_profile_flame_chart() {
        let dir = std::env::temp_dir().join("smtsim_runner_trace_profile_test");
        std::fs::remove_dir_all(&dir).ok();
        let ctx = ExperimentContext::new(ExperimentParams::fast()).with_trace_dir(&dir);
        let mix = workload_gen::mix_by_name("CPU-A").unwrap();
        run_scheme(&ctx, &mix, Scheme::Baseline, FetchPolicyKind::Icount);
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        assert_eq!(files.len(), 1, "{files:?}");
        let doc = serde::json::parse(&std::fs::read_to_string(&files[0]).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let complete: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        assert!(
            complete.contains(&"tick"),
            "flame chart spans: {complete:?}"
        );
        assert!(complete.contains(&"issue"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traced_run_writes_chrome_export() {
        let dir = scratch("smtsim_runner_trace_test");
        let ctx = ExperimentContext::new(ExperimentParams::fast()).with_trace_dir(&dir);
        let mix = workload_gen::mix_by_name("MIX-A").unwrap();
        run_scheme(&ctx, &mix, Scheme::VisaOpt2, FetchPolicyKind::Icount);
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        assert_eq!(files.len(), 1, "one trace file per run: {files:?}");
        let doc = serde::json::parse(&std::fs::read_to_string(&files[0]).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty());
        // Tracing turns the profiler on: the flame chart carries the
        // profiled cycles and every stage's time under them. (Stages
        // whose sampled totals overflow `tick` are scaled into it, so
        // none drops out.)
        let calls = |name: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
                .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
                .filter_map(|e| e.get("args")?.get("calls")?.as_u64())
                .sum::<u64>()
        };
        assert!(calls("tick") > 0, "no profiled cycle in the flame chart");
        for stage in ["commit", "writeback", "issue", "dispatch", "fetch"] {
            assert!(calls(stage) > 0, "no {stage} time in the flame chart");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
