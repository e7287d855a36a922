//! Low-level simulation driver shared by every experiment.

use crate::checkpoint::{
    decode_checkpoint, run_measured_checkpointed, CheckpointPolicy, C_SNAPSHOTS_RESTORED,
    C_SNAPSHOTS_SKIPPED_CORRUPT,
};
use crate::context::ExperimentContext;
use crate::manifest::{slug, RunManifest};
use avf::{AvfCollector, AvfReport};
use iq_reliability::Scheme;
use sim_harness::JobError;
use sim_metrics::summary::MetricsSummary;
use sim_metrics::Metrics;
use sim_profile::ProfileReport;
use sim_trace::chrome::ChromeTraceSink;
use sim_trace::timing::{PhaseTimings, StageSeconds};
use sim_trace::{TraceEvent, Tracer};
use smt_sim::{CancelToken, FetchPolicyKind, Pipeline, SimLimits};
use workload_gen::WorkloadMix;

/// Everything one simulation produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    pub mix: String,
    pub scheme: &'static str,
    pub fetch: FetchPolicyKind,
    pub avf: AvfReport,
    pub throughput_ipc: f64,
    pub harmonic_ipc: f64,
    pub l2_misses: u64,
    pub flushes: u64,
    pub mispredict_rate: f64,
    pub governor_stall_cycles: u64,
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
    /// Per-pipeline-stage wall-clock breakdown (traced runs only).
    pub stage_seconds: Option<StageSeconds>,
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
    let outcome = run_scheme_cancellable(ctx, mix, scheme, fetch, salt, None);
    ctx.memo_insert(key, &outcome);
    outcome
}

/// [`run_scheme_salted`] with an optional cooperative cancel token: the
/// supervised campaign paths thread the harness's per-attempt token in
/// so a wall-clock deadline can stop the simulation at the next
/// interval-clock tick instead of waiting out the full cycle budget.
/// It always simulates: it neither reads nor fills the context's memo.
pub fn run_scheme_cancellable(
    ctx: &ExperimentContext,
    mix: &WorkloadMix,
    scheme: Scheme,
    fetch: FetchPolicyKind,
    salt: u64,
    cancel: Option<CancelToken>,
) -> RunOutcome {
    let mut timings = PhaseTimings::default();
    let run_id = ctx.next_run_id();

    let programs = PhaseTimings::time(&mut timings.generate_s, || {
        ctx.mix_programs_salted(mix, salt)
    });
    let (policies, dvm_handle) = scheme.policies(fetch, ctx.machine.iq_size);
    let mut pipeline = Pipeline::new(ctx.machine.clone(), programs, policies);
    if let Some(token) = cancel {
        pipeline.set_cancel_token(token);
    }
    attach_tracing(ctx, &mut pipeline, run_id, mix, scheme);
    attach_profiling(ctx, &mut pipeline);
    let metrics = attach_metrics(ctx, &mut pipeline);

    let start = PhaseTimings::time(&mut timings.warmup_s, || {
        pipeline.warm_up(ctx.params.warmup_insts)
    });
    let mut collector =
        AvfCollector::new(&ctx.machine, ctx.params.ace_window, 10_000).with_start_cycle(start);
    collector.set_profiling(ctx.profile_dir().is_some());
    let result = PhaseTimings::time(&mut timings.measure_s, || {
        pipeline.run(SimLimits::cycles(ctx.params.run_cycles), &mut collector)
    });
    let avf = PhaseTimings::time(&mut timings.collect_s, || collector.report());
    let mut profile = pipeline.profile_report();
    profile.merge(&collector.profile_report(), "avf");
    export_profile(ctx, &pipeline, &profile, run_id, mix, scheme);
    pipeline.tracer().flush();
    let stage_seconds = stage_snapshot(&profile);
    let sim_metrics = export_metrics(ctx, metrics.as_ref(), run_id, mix, scheme);

    let outcome = RunOutcome {
        mix: mix.name.clone(),
        scheme: scheme.label(),
        fetch,
        avf,
        throughput_ipc: result.stats.throughput_ipc(),
        harmonic_ipc: result.stats.harmonic_ipc(),
        l2_misses: result.stats.l2_misses,
        flushes: result.stats.flushes,
        mispredict_rate: result.stats.mispredict_rate(),
        governor_stall_cycles: result.stats.governor_stall_cycles,
        dvm_avg_ratio: dvm_handle.map(|h| h.lock().average_ratio()),
        deadlocked: result.deadlocked,
        cancelled: result.cancelled,
        salt,
        cycles_per_sec: cycles_per_sec(result.stats.cycles, timings.measure_s),
        timings,
        stage_seconds,
        sim_metrics,
    };
    ctx.record_manifest(RunManifest::new(run_id, ctx, mix, scheme, fetch, &outcome));
    outcome
}

/// [`run_scheme_cancellable`] with mid-run checkpointing: before
/// simulating, the job's [`SnapshotStore`](sim_harness::SnapshotStore)
/// is consulted and the newest valid snapshot — if any — is restored
/// (skipping corrupt generations, with a typed
/// [`JobError::Corrupt`] when every generation is bad), so the run
/// continues bit-identically from the last checkpoint instead of
/// re-simulating from cycle zero. A restored run skips warmup — the
/// warmed-up, mid-measurement machine *is* the snapshot.
///
/// During the measured window a snapshot lands in the store every
/// `policy.every` simulated cycles (rounded to the sampling-interval
/// grid) and `on_checkpoint` fires once per durable snapshot — the hook
/// the campaign layer uses to mark the journal `checkpointed`. With
/// `policy.selfcheck`, structural invariants are validated at every
/// boundary and the run fails fast as [`JobError::Diverged`] instead of
/// persisting a poisoned checkpoint.
#[allow(clippy::too_many_arguments)]
pub fn run_scheme_checkpointed(
    ctx: &ExperimentContext,
    mix: &WorkloadMix,
    scheme: Scheme,
    fetch: FetchPolicyKind,
    salt: u64,
    cancel: Option<CancelToken>,
    policy: &CheckpointPolicy<'_>,
    mut on_checkpoint: impl FnMut(u64),
) -> Result<RunOutcome, JobError> {
    let mut timings = PhaseTimings::default();
    let run_id = ctx.next_run_id();

    let programs = PhaseTimings::time(&mut timings.generate_s, || {
        ctx.mix_programs_salted(mix, salt)
    });
    // Fresh (pipeline, collector, dvm-handle) factory. The restore path
    // decodes each snapshot candidate into freshly built objects, so a
    // partial restore from a corrupt file can never contaminate the
    // state an older valid snapshot then restores into.
    let build = || {
        let (policies, dvm_handle) = scheme.policies(fetch, ctx.machine.iq_size);
        let pipeline = Pipeline::new(ctx.machine.clone(), programs.clone(), policies);
        let collector = AvfCollector::new(&ctx.machine, ctx.params.ace_window, 10_000);
        (pipeline, collector, dvm_handle)
    };

    let restored = policy.store.load_latest_valid(|bytes| {
        let (mut p, mut c, h) = build();
        let cycle = decode_checkpoint(bytes, &mut p, &mut c)?;
        Ok((p, c, h, cycle))
    })?;
    let (mut pipeline, mut collector, dvm_handle) = match restored {
        Some(loaded) => {
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
            let (p, c, h, _) = loaded.value;
            (p, c, h)
        }
        None => {
            let (mut p, c, h) = build();
            let start =
                PhaseTimings::time(&mut timings.warmup_s, || p.warm_up(ctx.params.warmup_insts));
            (p, c.with_start_cycle(start), h)
        }
    };
    if let Some(token) = cancel {
        pipeline.set_cancel_token(token);
    }
    attach_tracing(ctx, &mut pipeline, run_id, mix, scheme);
    attach_profiling(ctx, &mut pipeline);
    let metrics = attach_metrics(ctx, &mut pipeline);
    collector.set_profiling(ctx.profile_dir().is_some());

    // The cycle budget is measured relative to the snapshotted
    // measurement origin, so a restored run resumed with the same
    // limits stops at the same absolute cycle a straight-through run
    // would have.
    let run = PhaseTimings::time(&mut timings.measure_s, || {
        run_measured_checkpointed(
            &mut pipeline,
            collector,
            SimLimits::cycles(ctx.params.run_cycles),
            policy,
            &mut on_checkpoint,
        )
    });
    let run = match run {
        Ok(run) => run,
        Err(err) => {
            // A failed attempt must still leave whole observability
            // artifacts behind: flush the trace sink and export the
            // partial metrics registry before propagating, so a drained
            // or resumed campaign never finds torn files.
            pipeline.tracer().flush();
            export_metrics(ctx, metrics.as_ref(), run_id, mix, scheme);
            return Err(err);
        }
    };
    let result = run.result;
    let collector = run.collector;
    let avf = PhaseTimings::time(&mut timings.collect_s, || collector.report());
    let mut profile = pipeline.profile_report();
    profile.merge(&collector.profile_report(), "avf");
    export_profile(ctx, &pipeline, &profile, run_id, mix, scheme);
    pipeline.tracer().flush();
    let stage_seconds = stage_snapshot(&profile);
    let sim_metrics = export_metrics(ctx, metrics.as_ref(), run_id, mix, scheme);

    let outcome = RunOutcome {
        mix: mix.name.clone(),
        scheme: scheme.label(),
        fetch,
        avf,
        throughput_ipc: result.stats.throughput_ipc(),
        harmonic_ipc: result.stats.harmonic_ipc(),
        l2_misses: result.stats.l2_misses,
        flushes: result.stats.flushes,
        mispredict_rate: result.stats.mispredict_rate(),
        governor_stall_cycles: result.stats.governor_stall_cycles,
        dvm_avg_ratio: dvm_handle.map(|h| h.lock().average_ratio()),
        deadlocked: result.deadlocked,
        cancelled: result.cancelled,
        salt,
        cycles_per_sec: cycles_per_sec(result.stats.cycles, timings.measure_s),
        timings,
        stage_seconds,
        sim_metrics,
    };
    ctx.record_manifest(RunManifest::new(run_id, ctx, mix, scheme, fetch, &outcome));
    Ok(outcome)
}

/// Drive one combination for its raw pipeline statistics only, with no
/// ground-truth AVF collection (e.g. Figure 2's ready-queue census).
/// Phase timing, trace export, and manifest logging match
/// [`run_scheme`]; the manifest's AVF metrics read as zero.
pub fn run_stats_only(
    ctx: &ExperimentContext,
    mix: &WorkloadMix,
    scheme: Scheme,
    fetch: FetchPolicyKind,
) -> smt_sim::SimResult {
    let mut timings = PhaseTimings::default();
    let run_id = ctx.next_run_id();

    let programs = PhaseTimings::time(&mut timings.generate_s, || ctx.mix_programs(mix));
    let (policies, dvm_handle) = scheme.policies(fetch, ctx.machine.iq_size);
    let mut pipeline = Pipeline::new(ctx.machine.clone(), programs, policies);
    attach_tracing(ctx, &mut pipeline, run_id, mix, scheme);
    attach_profiling(ctx, &mut pipeline);
    let metrics = attach_metrics(ctx, &mut pipeline);

    PhaseTimings::time(&mut timings.warmup_s, || {
        pipeline.warm_up(ctx.params.warmup_insts)
    });
    let result = PhaseTimings::time(&mut timings.measure_s, || {
        pipeline.run(
            SimLimits::cycles(ctx.params.run_cycles),
            &mut smt_sim::NullObserver,
        )
    });
    let profile = pipeline.profile_report();
    export_profile(ctx, &pipeline, &profile, run_id, mix, scheme);
    pipeline.tracer().flush();
    let stage_seconds = stage_snapshot(&profile);
    let sim_metrics = export_metrics(ctx, metrics.as_ref(), run_id, mix, scheme);

    let outcome = RunOutcome {
        mix: mix.name.clone(),
        scheme: scheme.label(),
        fetch,
        avf: AvfReport::default(),
        throughput_ipc: result.stats.throughput_ipc(),
        harmonic_ipc: result.stats.harmonic_ipc(),
        l2_misses: result.stats.l2_misses,
        flushes: result.stats.flushes,
        mispredict_rate: result.stats.mispredict_rate(),
        governor_stall_cycles: result.stats.governor_stall_cycles,
        dvm_avg_ratio: dvm_handle.map(|h| h.lock().average_ratio()),
        deadlocked: result.deadlocked,
        cancelled: result.cancelled,
        salt: 0,
        cycles_per_sec: cycles_per_sec(result.stats.cycles, timings.measure_s),
        timings,
        stage_seconds,
        sim_metrics,
    };
    ctx.record_manifest(RunManifest::new(run_id, ctx, mix, scheme, fetch, &outcome));
    result
}

/// Simulated cycles per host wall-clock second over the measured window.
fn cycles_per_sec(cycles: u64, measure_s: f64) -> f64 {
    if measure_s > 0.0 {
        cycles as f64 / measure_s
    } else {
        0.0
    }
}

/// Flatten a merged profile report into the manifest's per-stage
/// breakdown. `None` when profiling was off (no cycle was counted).
/// The profile covers the window's cycles: stepped (`tick`) plus
/// fast-forwarded (`fast_forward`).
fn stage_snapshot(profile: &ProfileReport) -> Option<StageSeconds> {
    let calls = |name: &str| {
        profile
            .nodes
            .iter()
            .find(|n| n.name == name)
            .map_or(0, |n| n.calls)
    };
    let cycles = calls("tick") + calls("fast_forward");
    if cycles == 0 {
        return None;
    }
    Some(StageSeconds {
        commit_s: profile.span_total_s("commit"),
        writeback_s: profile.span_total_s("writeback"),
        issue_s: profile.span_total_s("issue"),
        dispatch_s: profile.span_total_s("dispatch"),
        fetch_s: profile.span_total_s("fetch"),
        profiled_cycles: cycles,
    })
}

/// When the context carries a profile directory, turn on span profiling
/// (independently of tracing — a `--profile` run need not pay for a
/// Chrome trace).
fn attach_profiling(ctx: &ExperimentContext, pipeline: &mut Pipeline) {
    if ctx.profile_dir().is_some() {
        pipeline.set_stage_profiling(true);
    }
    if let Some(counter) = ctx.progress_counter() {
        pipeline.set_progress_counter(counter);
    }
}

/// Export a finished run's merged profile: a JSON report and a
/// collapsed-stack (flamegraph-ready) file into the profile directory, a
/// hot-spot table on stderr, and — when the run is also traced — the
/// laid-out profile spans merged into the Chrome trace stream as a flame
/// chart on the `profile` track.
fn export_profile(
    ctx: &ExperimentContext,
    pipeline: &Pipeline,
    profile: &ProfileReport,
    run_id: u64,
    mix: &WorkloadMix,
    scheme: Scheme,
) {
    if profile.nodes.iter().all(|n| n.calls == 0) {
        return; // profiling was off
    }
    // Merge the span flame chart into the trace stream (no-op when the
    // run is untraced) before the sink is flushed.
    for span in profile.chrome_spans(0) {
        pipeline.tracer().emit(move || TraceEvent::ProfileSpan {
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
    let base = format!(
        "run{:04}_{}_{}",
        run_id,
        slug(&mix.name),
        slug(scheme.label()),
    );
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

/// When the context carries a trace directory, attach a per-run Chrome
/// trace exporter and coarse stage self-profiling to the pipeline.
fn attach_tracing(
    ctx: &ExperimentContext,
    pipeline: &mut Pipeline,
    run_id: u64,
    mix: &WorkloadMix,
    scheme: Scheme,
) {
    let Some(dir) = ctx.trace_dir() else {
        return;
    };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!(
            "experiments: cannot create trace dir {}: {e}",
            dir.display()
        );
        return;
    }
    let path = dir.join(format!(
        "run{:04}_{}_{}.trace.json",
        run_id,
        slug(&mix.name),
        slug(scheme.label()),
    ));
    pipeline.set_tracer(Tracer::new(ChromeTraceSink::new(path)));
    pipeline.set_stage_profiling(true);
}

/// When the context carries a metrics directory, attach a fresh
/// sim-metrics registry to the pipeline (and through it, the governor).
fn attach_metrics(ctx: &ExperimentContext, pipeline: &mut Pipeline) -> Option<Metrics> {
    ctx.metrics_dir()?;
    let metrics = Metrics::new();
    pipeline.set_metrics(metrics.clone());
    Some(metrics)
}

/// Export a finished run's registry (per-interval JSONL series +
/// Prometheus text) into the context's metrics directory and digest it
/// for the manifest.
fn export_metrics(
    ctx: &ExperimentContext,
    metrics: Option<&Metrics>,
    run_id: u64,
    mix: &WorkloadMix,
    scheme: Scheme,
) -> Option<MetricsSummary> {
    let metrics = metrics?;
    let snapshot = metrics.snapshot();
    if let Some(dir) = ctx.metrics_dir() {
        let base = format!(
            "run{:04}_{}_{}",
            run_id,
            slug(&mix.name),
            slug(scheme.label()),
        );
        // Atomic exports: stream to a buffer, then `.tmp` + rename, so
        // a crash (or SIGINT) mid-export never leaves a torn file for a
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
    }
    Some(MetricsSummary::from_snapshot(&snapshot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentParams;

    #[test]
    fn baseline_run_completes_and_reports() {
        let ctx = ExperimentContext::new(ExperimentParams::fast());
        let mix = workload_gen::mix_by_name("CPU-A").unwrap();
        let out = run_scheme(&ctx, &mix, Scheme::Baseline, FetchPolicyKind::Icount);
        assert!(!out.deadlocked);
        assert!(out.throughput_ipc > 0.5);
        assert!(out.avf.iq_avf > 0.0 && out.avf.iq_avf < 1.0);
        assert!(out.dvm_avg_ratio.is_none());
        assert!(out.stage_seconds.is_none(), "profiling is opt-in");
        assert_eq!(out.mix, "CPU-A");
        // Self-profiling: every phase saw wall-clock time.
        assert!(out.timings.warmup_s > 0.0);
        assert!(out.timings.measure_s > 0.0);
        assert!(out.timings.total_s() > 0.0);
        // The run logged a manifest mirroring the outcome.
        let manifests = ctx.drain_manifests();
        assert_eq!(manifests.len(), 1);
        assert_eq!(manifests[0].mix, "CPU-A");
        assert_eq!(manifests[0].metrics.l2_misses, out.l2_misses);
        assert_eq!(manifests[0].seeds.len(), manifests[0].benchmarks.len());
        assert!(ctx.drain_manifests().is_empty(), "drain empties the log");
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
            assert_eq!(out.avf.iq_avf.to_bits(), first.avf.iq_avf.to_bits());
            assert_eq!(out.throughput_ipc.to_bits(), first.throughput_ipc.to_bits());
            assert_eq!(out.harmonic_ipc.to_bits(), first.harmonic_ipc.to_bits());
            assert_eq!(interval_bits(out), interval_bits(&first));
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
        run_scheme(&ctx, &mix, scheme, fetch);
        assert_eq!(ctx.drain_manifests().len(), 1);
        for _ in 0..2 {
            let out =
                run_scheme_cancellable(&ctx, &mix, scheme, fetch, 0, Some(CancelToken::new()));
            assert!(!out.cancelled);
            assert_eq!(ctx.drain_manifests().len(), 1, "a supervised run simulates");
        }
        assert_eq!(ctx.take_memo_hits(), 0);

        // A cancelled outcome is refused by the memo, so the next
        // uncancelled call with its key simulates in full.
        let token = CancelToken::new();
        token.cancel();
        let cancelled = run_scheme_cancellable(&ctx, &mix, scheme, fetch, 1, Some(token));
        assert!(cancelled.cancelled);
        ctx.memo_insert(ctx.run_key(&mix, scheme, fetch, 1), &cancelled);
        let full = run_scheme_salted(&ctx, &mix, scheme, fetch, 1);
        assert!(!full.cancelled);
        assert_eq!(ctx.drain_manifests().len(), 2);
        assert_eq!(ctx.take_memo_hits(), 0);
    }

    #[test]
    fn checkpointed_rerun_restores_and_matches_bit_for_bit() {
        let dir = std::env::temp_dir().join("smtsim_runner_ckpt_test");
        std::fs::remove_dir_all(&dir).ok();
        let ctx = ExperimentContext::new(ExperimentParams::bench());
        let mix = workload_gen::mix_by_name("CPU-A").unwrap();
        let store = sim_harness::SnapshotStore::new(&dir, "cpu-a-baseline");
        let metrics = Metrics::off();
        let policy = CheckpointPolicy {
            store: &store,
            every: 10_000,
            selfcheck: true,
            metrics: &metrics,
        };

        let mut checkpoints = 0u64;
        let first = run_scheme_checkpointed(
            &ctx,
            &mix,
            Scheme::Baseline,
            FetchPolicyKind::Icount,
            0,
            None,
            &policy,
            |_| checkpoints += 1,
        )
        .unwrap();
        assert!(!first.deadlocked && !first.cancelled);
        assert!(checkpoints >= 2, "bench budget spans several boundaries");
        assert!(!store.list().is_empty(), "snapshots persisted on disk");

        // A second invocation restores the newest snapshot (taken at
        // the last mid-run boundary), simulates only the tail, and
        // must land on the exact same statistics — and skip warmup.
        let resumed = run_scheme_checkpointed(
            &ctx,
            &mix,
            Scheme::Baseline,
            FetchPolicyKind::Icount,
            0,
            None,
            &policy,
            |_| {},
        )
        .unwrap();
        assert_eq!(resumed.timings.warmup_s, 0.0, "restored runs skip warmup");
        assert_eq!(resumed.avf.iq_avf.to_bits(), first.avf.iq_avf.to_bits());
        assert_eq!(
            resumed.throughput_ipc.to_bits(),
            first.throughput_ipc.to_bits()
        );
        assert_eq!(resumed.l2_misses, first.l2_misses);
        assert_eq!(resumed.flushes, first.flushes);
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
        let dir = std::env::temp_dir().join("smtsim_runner_profile_test");
        std::fs::remove_dir_all(&dir).ok();
        let ctx = ExperimentContext::new(ExperimentParams::fast()).with_profile_dir(&dir);
        let mix = workload_gen::mix_by_name("CPU-A").unwrap();
        let out = run_scheme(&ctx, &mix, Scheme::Baseline, FetchPolicyKind::Icount);
        assert!(!out.deadlocked);
        assert!(out.cycles_per_sec > 0.0, "throughput recorded");
        let stages = out.stage_seconds.expect("profiled runs report stages");
        assert!(stages.total_s() > 0.0);
        assert_eq!(stages.profiled_cycles, ctx.params.run_cycles);
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
        // stage) or fast-forwarded (one `fast_forward` call).
        let calls = |name: &str| report.nodes.iter().find(|n| n.name == name).unwrap().calls;
        let ticks = calls("tick");
        assert_eq!(ticks + calls("fast_forward"), ctx.params.run_cycles);
        for stage in ["commit", "writeback", "issue", "dispatch", "fetch"] {
            assert_eq!(calls(stage), ticks, "{stage}");
        }
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
        let dir = std::env::temp_dir().join("smtsim_runner_trace_test");
        std::fs::remove_dir_all(&dir).ok();
        let ctx = ExperimentContext::new(ExperimentParams::fast()).with_trace_dir(&dir);
        let mix = workload_gen::mix_by_name("MIX-A").unwrap();
        let out = run_scheme(&ctx, &mix, Scheme::VisaOpt2, FetchPolicyKind::Icount);
        let stages = out.stage_seconds.expect("traced runs profile stages");
        assert!(stages.total_s() > 0.0);
        assert!(stages.profiled_cycles > 0);
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        assert_eq!(files.len(), 1, "one trace file per run: {files:?}");
        let doc = serde::json::parse(&std::fs::read_to_string(&files[0]).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
