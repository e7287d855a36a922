//! Run manifests: one self-describing JSON document per simulation.
//!
//! A manifest pins down everything needed to reproduce (and audit) one
//! simulation — machine configuration, per-benchmark workload seeds,
//! scheme and fetch policy, measurement budget — plus what it cost
//! (wall-clock phase timings) and what it produced (final metrics).
//! There is one manifest per simulation, not per `run_scheme` call: a
//! call the context serves from its run memo writes none. The
//! experiments CLI writes one file per simulation under `--manifest
//! DIR`; the round-trip through `serde` is part of the test surface, so
//! downstream tooling can rely on the schema.

use crate::context::ExperimentContext;
use crate::runner::RunOutcome;
use iq_reliability::Scheme;
use serde::{Deserialize, Serialize};
use sim_metrics::summary::MetricsSummary;
use sim_report::store::slugify;
use sim_trace::timing::PhaseTimings;
use smt_sim::{FetchPolicyKind, MachineConfig};
use std::io;
use std::path::{Path, PathBuf};
use workload_gen::WorkloadMix;

/// Schema version stamped into every [`RunManifest`] and
/// [`CampaignManifest`]. Bump on any incompatible layout change;
/// consumers (the `sim-report` ingestion path) refuse manifests stamped
/// with a version they don't understand instead of misreading them.
/// v2: run manifests no longer carry `stage_seconds`; the per-run
/// profile files hold the stage times.
pub const MANIFEST_SCHEMA_VERSION: u32 = 2;

/// The machine-configuration fields a manifest records (the stable,
/// scalar subset of [`MachineConfig`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineSummary {
    pub width: usize,
    pub fetch_threads_per_cycle: usize,
    pub fetch_queue_size: usize,
    pub iq_size: usize,
    pub rob_size: usize,
    pub lsq_size: usize,
    pub num_threads: usize,
    pub mshr_per_thread: u32,
    pub lsq_disambiguation: bool,
}

impl MachineSummary {
    pub fn from_config(c: &MachineConfig) -> MachineSummary {
        MachineSummary {
            width: c.width,
            fetch_threads_per_cycle: c.fetch_threads_per_cycle,
            fetch_queue_size: c.fetch_queue_size,
            iq_size: c.iq_size,
            rob_size: c.rob_size,
            lsq_size: c.lsq_size,
            num_threads: c.num_threads,
            mshr_per_thread: c.mshr_per_thread,
            lsq_disambiguation: c.lsq_disambiguation,
        }
    }
}

/// Measurement budget the run was performed under.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetSummary {
    pub profile_insts: u64,
    pub warmup_insts: u64,
    pub run_cycles: u64,
    pub ace_window: u64,
}

/// Final metrics of one run (mirrors the interesting parts of
/// [`RunOutcome`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FinalMetrics {
    pub iq_avf: f64,
    pub throughput_ipc: f64,
    pub harmonic_ipc: f64,
    pub l2_misses: u64,
    pub flushes: u64,
    pub mispredict_rate: f64,
    pub governor_stall_cycles: u64,
    pub dvm_avg_ratio: Option<f64>,
    pub deadlocked: bool,
    /// Simulated cycles per host second over the measured window — the
    /// simulator's own throughput, gated by the bench baseline.
    pub cycles_per_sec: f64,
}

/// One simulation, fully described.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Stamped [`MANIFEST_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Monotonic run id within one campaign (ties manifests to trace
    /// file names).
    pub run_id: u64,
    /// Exhibit that requested the run (filled in by the CLI when it
    /// drains the per-exhibit manifest log).
    pub exhibit: String,
    pub mix: String,
    /// Benchmarks of the mix, context order.
    pub benchmarks: Vec<String>,
    /// Per-benchmark workload-generation seeds (FNV-1a of the name,
    /// mixed with the run's salt), context order.
    pub seeds: Vec<u64>,
    /// Workload-generation salt (0 = the canonical seeded workload;
    /// nonzero for cross-seed replicas).
    pub salt: u64,
    pub scheme: String,
    pub fetch_policy: String,
    pub machine: MachineSummary,
    pub budget: BudgetSummary,
    /// Host wall-clock cost of each phase of the run.
    pub timings: PhaseTimings,
    pub metrics: FinalMetrics,
    /// Digest of the run's sim-metrics registry (runs with metrics
    /// recording enabled only).
    pub sim_metrics: Option<MetricsSummary>,
}

impl RunManifest {
    /// Assemble a manifest from a finished run.
    pub fn new(
        run_id: u64,
        ctx: &ExperimentContext,
        mix: &WorkloadMix,
        scheme: Scheme,
        fetch: FetchPolicyKind,
        outcome: &RunOutcome,
    ) -> RunManifest {
        let seeds = mix
            .benchmarks
            .iter()
            .map(|&name| {
                workload_gen::model_by_name(name)
                    .map(|m| m.seed_with(outcome.salt))
                    .unwrap_or(0)
            })
            .collect();
        RunManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            run_id,
            exhibit: String::new(),
            mix: mix.name.clone(),
            benchmarks: mix.benchmarks.iter().map(|&b| b.to_string()).collect(),
            seeds,
            salt: outcome.salt,
            scheme: scheme.label().to_string(),
            fetch_policy: format!("{fetch:?}"),
            machine: MachineSummary::from_config(&ctx.machine),
            budget: BudgetSummary {
                profile_insts: ctx.params.profile_insts,
                warmup_insts: ctx.params.warmup_insts,
                run_cycles: ctx.params.run_cycles,
                ace_window: ctx.params.ace_window as u64,
            },
            timings: outcome.timings.clone(),
            metrics: FinalMetrics {
                iq_avf: outcome.avf.iq_avf,
                throughput_ipc: outcome.stats.throughput_ipc(),
                harmonic_ipc: outcome.stats.harmonic_ipc(),
                l2_misses: outcome.stats.l2_misses,
                flushes: outcome.stats.flushes,
                mispredict_rate: outcome.stats.mispredict_rate(),
                governor_stall_cycles: outcome.stats.governor_stall_cycles,
                dvm_avg_ratio: outcome.dvm_avg_ratio,
                deadlocked: outcome.deadlocked,
                cycles_per_sec: outcome.cycles_per_sec,
            },
            sim_metrics: outcome.sim_metrics.clone(),
        }
    }

    /// File name this manifest is written under:
    /// `run<id>_<exhibit>_<mix>_<scheme>.json` (slugged).
    pub fn file_name(&self) -> String {
        format!(
            "run{:04}_{}_{}_{}.json",
            self.run_id,
            slugify(&self.exhibit),
            slugify(&self.mix),
            slugify(&self.scheme),
        )
    }

    /// Write pretty-printed JSON into `dir` (created if missing). The
    /// write is atomic (temp file + rename) so a crash or SIGINT never
    /// leaves a torn manifest behind.
    pub fn write(&self, dir: &Path) -> io::Result<PathBuf> {
        let path = dir.join(self.file_name());
        sim_harness::atomic_write(&path, &serde::json::to_string_pretty(self))?;
        Ok(path)
    }
}

/// Supervision summary of one campaign-shaped subcommand run
/// (`bench-baseline`, `fault-inject`): how the harness fared, written as
/// `campaign.json` into the `--resume` directory next to the journal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignManifest {
    /// Stamped [`MANIFEST_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Subcommand that ran the campaign.
    pub campaign: String,
    /// True when a SIGINT stopped the campaign before every job ran;
    /// the journal holds the completed prefix and `--resume` picks the
    /// remainder up.
    pub interrupted: bool,
    /// Process exit code the campaign terminated with (see the exit
    /// code contract in DESIGN.md: 0 ok, 2 partial with quarantine,
    /// 3 fatal, 130 interrupted).
    pub exit_code: u32,
    pub stats: sim_harness::HarnessStats,
    /// Aggregate simulated cycles the campaign's jobs reported through
    /// the shared progress counter (0 when no job wires it) — with the
    /// campaign wall time this gives the fleet-level throughput the
    /// heartbeat printed live.
    pub simulated_cycles: u64,
    pub quarantined: Vec<sim_harness::QuarantineEntry>,
}

impl CampaignManifest {
    pub const FILE_NAME: &'static str = "campaign.json";

    /// Atomically write `DIR/campaign.json`.
    pub fn write(&self, dir: &Path) -> io::Result<PathBuf> {
        let path = dir.join(Self::FILE_NAME);
        sim_harness::atomic_write(&path, &serde::json::to_string_pretty(self))?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        RunManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            run_id: 7,
            exhibit: "fig2".to_string(),
            mix: "CPU-A".to_string(),
            benchmarks: vec!["gcc".to_string(), "gzip".to_string()],
            seeds: vec![123, 456],
            salt: 0,
            scheme: "VISA+opt1".to_string(),
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
                warmup_insts: 250_000,
                run_cycles: 250_000,
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
                throughput_ipc: 3.4,
                harmonic_ipc: 0.8,
                l2_misses: 1234,
                flushes: 5,
                mispredict_rate: 0.04,
                governor_stall_cycles: 99,
                dvm_avg_ratio: Some(1.5),
                deadlocked: false,
                cycles_per_sec: 125_000.0,
            },
            sim_metrics: None,
        }
    }

    #[test]
    fn manifest_roundtrips_through_json() {
        let m = sample();
        let text = serde::json::to_string_pretty(&m);
        let back: RunManifest = serde::json::from_str(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn manifest_with_metrics_digest_roundtrips() {
        let mut m = sample();
        m.salt = 3;
        let reg = sim_metrics::Metrics::new();
        reg.counter_add("dvm.triggers", 2);
        reg.sample("iq.ready_len", 0, || 12.0);
        reg.interval_rollover(0, 0, 10_000);
        m.sim_metrics = Some(MetricsSummary::from_snapshot(&reg.snapshot()));
        let text = serde::json::to_string(&m);
        let back: RunManifest = serde::json::from_str(&text).unwrap();
        assert_eq!(back, m);
        let digest = back.sim_metrics.unwrap();
        assert_eq!(digest.counter("dvm.triggers"), Some(2));
        assert_eq!(digest.series("iq.ready_len").unwrap().points, 1);
    }

    #[test]
    fn file_names_are_slugged_and_unique_per_run() {
        let m = sample();
        assert_eq!(m.file_name(), "run0007_fig2_cpu-a_visa-opt1.json");
        let mut n = sample();
        n.run_id = 8;
        // A manifest without DVM telemetry must still roundtrip.
        n.metrics.dvm_avg_ratio = None;
        let text = serde::json::to_string(&n);
        let back: RunManifest = serde::json::from_str(&text).unwrap();
        assert_eq!(back, n);
        assert_ne!(m.file_name(), n.file_name());
    }

    #[test]
    fn campaign_manifest_roundtrips() {
        let m = CampaignManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            campaign: "bench-baseline".to_string(),
            interrupted: true,
            exit_code: 130,
            stats: sim_harness::HarnessStats {
                completed: 3,
                resumed: 1,
                retries: 2,
                panics: 1,
                deadlines: 0,
                watchdogs: 0,
                diverged: 0,
                io_errors: 0,
                corrupt: 0,
                quarantined: 1,
                skipped: 4,
            },
            simulated_cycles: 480_000,
            quarantined: vec![sim_harness::QuarantineEntry {
                key: sim_harness::JobKey::new("bench-baseline", "smt-icount", 1, 42),
                failures: 3,
                error: sim_harness::JobError::Panic {
                    message: "index out of bounds".into(),
                },
            }],
        };
        let dir = std::env::temp_dir().join("smtsim_campaign_manifest_test");
        let path = m.write(&dir).unwrap();
        assert!(path.ends_with("campaign.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        let back: CampaignManifest = serde::json::from_str(&text).unwrap();
        assert_eq!(back, m);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_creates_parseable_file() {
        let dir = std::env::temp_dir().join("smtsim_manifest_test");
        let m = sample();
        let path = m.write(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let back: RunManifest = serde::json::from_str(&text).unwrap();
        assert_eq!(back, m);
        assert!(back.timings.total_s() > 0.0);
        std::fs::remove_file(&path).ok();
    }
}
