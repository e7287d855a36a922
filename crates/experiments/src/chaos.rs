//! `experiments chaos` — crash-recovery torture testing of the
//! resilience stack under deterministic environment faults.
//!
//! Every round builds a miniature but *complete* resilience deployment
//! — a [`Journal`], per-job rotating [`SnapshotStore`]s using the real
//! `sim-snapshot` checksummed container codec, and a [`RunStore`] with
//! readback-verified artifacts — and drives a campaign of toy
//! deterministic state-machine jobs through it twice:
//!
//! 1. **Chaos pass** — all filesystem traffic goes through a seeded
//!    [`ChaosFs`] that injects short writes, torn renames, failed
//!    fsyncs, ENOSPC, read-time bit-rot, tmp-file litter, and (usually)
//!    a hard crash at a schedule-chosen operation index, after which
//!    every further filesystem operation fails as a dead process's
//!    would.
//! 2. **Recovery pass** — the same campaign re-runs against the real
//!    filesystem, exactly as an operator restarting after the crash.
//!
//! The recovery pass then asserts the contract the resilience stack
//! advertises, and any breach is recorded as a violation (the command
//! exits 3 when any round has one):
//!
//! * **No panics.** Both passes run under `catch_unwind`; every
//!   corruption must surface as a typed error ([`JobError`],
//!   [`ReportError`]), never a panic.
//! * **Resume identity.** Every recovered job's final value equals the
//!   pure in-memory reference — a job resumed from a mid-run snapshot
//!   continues bit-identically, and a snapshot that silently decoded
//!   wrong would show up here as divergence.
//! * **No double execution.** A job whose journal record survived the
//!   chaos pass is replayed, never re-run: its closure execution count
//!   in the recovery pass must be zero.
//! * **No lost completions.** Journal records that were durably written
//!   (and not damaged by injected faults) always replay, and every job
//!   the recovery pass completed replays its reference value when the
//!   journal is reopened after it.
//! * **Store integrity.** The run index either loads or fails typed;
//!   every record it admits must have an artifact that reads back
//!   bit-exact against the reference (registration readback-verifies
//!   before appending, so a corrupt artifact in the index means the
//!   verification gate leaked).
//! * **Exit-code contract.** The chaos pass maps to `0`, `2`
//!   (quarantined jobs) or `3` (fatal typed error); the recovery pass
//!   must reach `0`.
//!
//! Determinism: with the same `--seed` and `--rounds`, the fault
//! schedule, every per-round statistic, and the final report JSON are
//! byte-identical across runs (the report carries no timestamps and no
//! absolute paths), so any CI failure replays locally from the seed
//! alone.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use sim_chaos::{ChaosConfig, ChaosFs, FaultSpec, Vfs};
use sim_harness::journal::{fnv1a, JobKey, Journal};
use sim_harness::{
    atomic_write, atomic_write_bytes_in, run_journaled_in, Backoff, CampaignOutcome, HarnessConfig,
    HarnessObservers, JobError, JobOutcome, SnapshotStore,
};
use sim_report::{ReportError, RunRecord, RunStore};
use sim_snapshot::{read_container, write_container};

/// Bump when [`ChaosReport`] changes incompatibly.
pub const CHAOS_SCHEMA_VERSION: u32 = 1;

/// Simulated steps each toy job runs.
const TOTAL_STEPS: u64 = 32;
/// Snapshot cadence in steps (4 snapshots per job, rotated down to
/// [`SnapshotStore::KEEP`] generations).
const SNAP_EVERY: u64 = 8;
/// Independent jobs per round.
const JOBS_PER_ROUND: u64 = 3;

/// Parsed `experiments chaos` arguments.
#[derive(Debug, Clone)]
pub struct ChaosArgs {
    /// Master seed; every round's fault schedule derives from it.
    pub seed: u64,
    /// Torture rounds to run.
    pub rounds: u64,
    /// Scratch directory (wiped per round); defaults under the system
    /// temp dir, keyed by seed so concurrent invocations don't collide.
    pub scratch: Option<PathBuf>,
    /// Write the [`ChaosReport`] JSON here.
    pub out: Option<PathBuf>,
}

/// One round's outcome, fully deterministic given the master seed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoundReport {
    pub round: u64,
    /// Seed of this round's [`ChaosFs`] schedule.
    pub round_seed: u64,
    /// Fault-probability profile used (`"gentle"` or `"severe"`).
    pub severity: String,
    /// Operation index of the injected hard crash, if one was armed.
    pub crash_at: Option<u64>,
    /// Filesystem operations the chaos pass issued.
    pub chaos_ops: u64,
    /// Did the armed crash point actually fire?
    pub crashed: bool,
    /// Exit code the chaos pass mapped to (0, 2 or 3).
    pub chaos_exit: i32,
    /// Jobs that completed / were quarantined in the chaos pass.
    pub chaos_completed: u64,
    pub chaos_quarantined: u64,
    /// Injected faults by kind (`short_write`, `torn_rename`, ...),
    /// sorted by kind (the vendored serde has no map support, so the
    /// map flattens to deterministic pairs).
    pub fault_counts: Vec<(String, u64)>,
    /// Journal damage found when the recovery pass reopened it.
    pub journal_loaded: u64,
    pub journal_torn: u64,
    pub journal_first_damaged_line: Option<usize>,
    pub journal_reaped_tmp: u64,
    /// Jobs replayed from the journal (not re-executed) on recovery.
    pub replayed: u64,
    /// Jobs whose closure actually ran again on recovery.
    pub reexecuted: u64,
    /// All-generations-corrupt snapshot stores that surfaced typed
    /// [`JobError::Corrupt`] and were explicitly cleared and re-run.
    pub corrupt_snapshot_recoveries: u64,
    /// Run records admitted to the store and verified on recovery.
    pub store_records: u64,
    /// Typed error kind if the recovery-side store open failed (`"io"`
    /// or `"unknown_schema"`; damaged index lines are skipped, not
    /// fatal); `None` when it loaded.
    pub store_open_error: Option<String>,
    /// Contract breaches. Empty on a healthy stack.
    pub violations: Vec<String>,
}

/// Aggregates over all rounds.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ChaosTotals {
    pub rounds: u64,
    pub crashed_rounds: u64,
    pub faults_injected: u64,
    pub replayed: u64,
    pub reexecuted: u64,
    pub corrupt_snapshot_recoveries: u64,
    pub panics: u64,
    pub violations: u64,
}

/// The schema-versioned, timestamp-free torture report: byte-identical
/// across runs with the same seed and round count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosReport {
    pub schema_version: u32,
    pub seed: u64,
    pub totals: ChaosTotals,
    pub rounds: Vec<RoundReport>,
}

/// SplitMix64 finalizer: the toy state-machine step function and the
/// seed-derivation mixer. Chosen because consecutive states share no
/// obvious structure, so an off-by-one-step resume is unmistakable.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Pure reference: the toy machine's state after `steps` steps.
fn reference_state(start: u64, steps: u64) -> u64 {
    (0..steps).fold(start, |s, _| splitmix(s))
}

/// Starting state of job `j` in a round.
fn job_start(round_seed: u64, j: u64) -> u64 {
    splitmix(round_seed ^ (j + 1))
}

/// The artifact each completed job registers in the run store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ChaosArtifact {
    slug: String,
    final_state: u64,
}

/// Decode one snapshot container into `(step, state)`.
fn decode_snapshot(bytes: &[u8], config_hash: u64) -> Result<(u64, u64), String> {
    let (header, payload) = read_container(bytes, config_hash).map_err(|e| format!("{e:?}"))?;
    let state: [u8; 8] = payload
        .try_into()
        .map_err(|_| format!("payload is {} bytes, want 8", payload.len()))?;
    Ok((header.cycle, u64::from_le_bytes(state)))
}

/// The job closure both passes share: resume from the newest valid
/// snapshot (verifying it against the pure reference), fall back typed
/// — never by panic — when every generation is corrupt, then run the
/// remaining steps, snapshotting on cadence.
fn run_toy_job(
    vfs: &Arc<dyn Vfs>,
    snap_dir: &Path,
    key: &JobKey,
    start: u64,
    config_hash: u64,
    exec_counts: &Mutex<BTreeMap<String, u64>>,
    corrupt_recoveries: &AtomicU64,
) -> Result<u64, JobError> {
    *exec_counts.lock().entry(key.slug()).or_insert(0) += 1;
    let store = SnapshotStore::new_in(vfs.clone(), snap_dir, &key.slug());
    let (mut state, mut done) =
        match store.load_latest_valid(|bytes| decode_snapshot(bytes, config_hash)) {
            Ok(Some(loaded)) => {
                let (step, snap_state) = loaded.value;
                if step > TOTAL_STEPS || snap_state != reference_state(start, step) {
                    // A snapshot that decoded (CRC passed) but does not
                    // match the reference would be *silent* corruption;
                    // surface it typed and let the torture loop flag it.
                    return Err(JobError::Diverged {
                        detail: format!(
                            "snapshot at step {step} diverges from the deterministic reference"
                        ),
                    });
                }
                (snap_state, step)
            }
            Ok(None) => (start, 0),
            Err(JobError::Corrupt { .. }) => {
                // Every generation failed its checksum: the typed path
                // the rotation contract demands. Deciding to restart
                // from step 0 is the caller's explicit call — made
                // here, with the damage counted, never silently.
                corrupt_recoveries.fetch_add(1, Ordering::Relaxed);
                store.clear()?;
                (start, 0)
            }
            Err(e) => return Err(e),
        };
    while done < TOTAL_STEPS {
        state = splitmix(state);
        done += 1;
        if done % SNAP_EVERY == 0 {
            let container = write_container(config_hash, done, &state.to_le_bytes());
            store.save(done, &container)?;
        }
    }
    Ok(state)
}

/// Harness policy for torture campaigns: single worker (so the
/// filesystem-operation order, and with it the fault schedule, is a
/// pure function of the seed), no backoff sleeps, fast quarantine.
fn torture_config() -> HarnessConfig {
    HarnessConfig {
        max_attempts: 2,
        backoff: Backoff::none(),
        quarantine_threshold: 2,
        jobs: Some(1),
        ..HarnessConfig::default()
    }
}

/// Run one campaign pass (chaos or recovery) over `vfs`.
fn run_pass(
    vfs: &Arc<dyn Vfs>,
    round_dir: &Path,
    keys: &[(JobKey, u64)],
    config_hash: u64,
    exec_counts: &Mutex<BTreeMap<String, u64>>,
    corrupt_recoveries: &AtomicU64,
) -> Result<CampaignOutcome<u64>, JobError> {
    let journal = Mutex::new(Journal::open_in(vfs.clone(), round_dir)?);
    // SnapshotStore nests its own `snapshots/` under this base.
    let snap_dir = round_dir.to_path_buf();
    let items: Vec<(JobKey, u64)> = keys.to_vec();
    let vfs = vfs.clone();
    run_journaled_in(
        &journal,
        items,
        |start: &u64, ctx| {
            // Re-derive the key from the start value: the closure only
            // receives the payload, so the key rides inside it.
            let _ = ctx;
            let key = keys
                .iter()
                .find(|(_, s)| s == start)
                .map(|(k, _)| k.clone())
                .expect("job start values are unique per round");
            run_toy_job(
                &vfs,
                &snap_dir,
                &key,
                *start,
                config_hash,
                exec_counts,
                corrupt_recoveries,
            )
        },
        &torture_config(),
        &HarnessObservers::off(),
    )
}

/// Register every completed job in the round's [`RunStore`], writing
/// its artifact through `vfs` and **readback-verifying it before the
/// index ever references it** — the gate that keeps corrupt artifacts
/// from being admitted silently.
fn register_runs(vfs: &Arc<dyn Vfs>, store_root: &Path, outcome: &CampaignOutcome<u64>) -> u64 {
    let Ok(mut store) = RunStore::open_in(vfs.clone(), store_root) else {
        return 0;
    };
    let batch = store.next_batch();
    let mut registered = 0;
    for (key, job) in &outcome.jobs {
        let JobOutcome::Completed { value, .. } = job else {
            continue;
        };
        let artifact = ChaosArtifact {
            slug: key.slug(),
            final_state: *value,
        };
        let body = serde::json::to_string(&artifact);
        let path = store
            .artifact_dir()
            .join(format!("{}.state.json", key.slug()));
        if atomic_write_bytes_in(vfs.as_ref(), &path, body.as_bytes()).is_err() {
            continue; // typed failure: the run is simply not registered
        }
        // Verify the bytes on disk before admitting the record. A
        // short write (silent by design) dies here, not in the index.
        match vfs.read(&path) {
            Ok(bytes) if bytes == body.as_bytes() => {}
            _ => continue,
        }
        let record = RunRecord {
            schema_version: 0, // stamped by append
            id: format!("r{:05}-{}", store.next_seq(), key.slug()),
            batch,
            mode: "chaos".to_string(),
            exhibit: key.exhibit.clone(),
            mix: "toy".to_string(),
            scheme: key.scheme.clone(),
            fetch: "none".to_string(),
            salt: key.seed,
            config_hash: key.config_hash,
            wall_time_s: 0.0,
            cycles_per_sec: 0.0,
            iq_avf: 0.0,
            throughput_ipc: 0.0,
            harmonic_ipc: 0.0,
            artifacts: vec![("state".to_string(), store.relativize(&path))],
            sim_metrics: None,
        };
        if store.append(record).is_ok() {
            registered += 1;
        }
    }
    registered
}

/// Map a pass result to the CLI exit-code contract.
fn pass_exit<R>(result: &Result<CampaignOutcome<R>, JobError>) -> i32 {
    match result {
        Ok(outcome) => outcome.exit_code(),
        Err(_) => crate::EXIT_FATAL,
    }
}

/// Stable kind label for a recovery-side store-open failure.
fn report_error_kind(e: &ReportError) -> &'static str {
    match e {
        ReportError::UnknownSchema { .. } => "unknown_schema",
        ReportError::Parse { .. } => "parse",
        ReportError::Io(_) => "io",
    }
}

/// Execute one torture round. Everything that happens — fault
/// schedule, crash point, recovery statistics — derives from
/// `round_seed` alone.
fn run_round(round: u64, round_seed: u64, scratch: &Path) -> RoundReport {
    let round_dir = scratch.join(format!("round-{round:04}"));
    let _ = std::fs::remove_dir_all(&round_dir);
    std::fs::create_dir_all(&round_dir).expect("scratch directory must be writable");
    let store_root = round_dir.join("store");

    // Round parameters from the seed: severity alternates by parity,
    // the crash point lands anywhere in the round's operation range
    // (with a slice of rounds that never crash, exercising the clean
    // exit-0 path end to end).
    let severe = round_seed & 1 == 1;
    let spec = if severe {
        FaultSpec::severe()
    } else {
        FaultSpec::gentle()
    };
    let crash_raw = (splitmix(round_seed ^ 0xc4a5) >> 8) % 256;
    let crash_at = if crash_raw < 48 {
        None
    } else {
        Some(crash_raw - 48) // 0..208: anywhere from the first op on
    };
    let config_hash = fnv1a(&format!("chaos-round-{round_seed}"));
    let keys: Vec<(JobKey, u64)> = (0..JOBS_PER_ROUND)
        .map(|j| {
            (
                JobKey::new("chaos-torture", &format!("toy{j}"), j, config_hash),
                job_start(round_seed, j),
            )
        })
        .collect();
    let reference: BTreeMap<String, u64> = keys
        .iter()
        .map(|(k, start)| (k.slug(), reference_state(*start, TOTAL_STEPS)))
        .collect();

    let mut violations: Vec<String> = Vec::new();

    // ---- Chaos pass -------------------------------------------------
    let mut cfg = ChaosConfig::new(round_seed, spec);
    if let Some(n) = crash_at {
        cfg = cfg.crash_at(n);
    }
    let chaos = Arc::new(ChaosFs::new(cfg));
    let chaos_vfs: Arc<dyn Vfs> = chaos.clone();
    let chaos_execs = Mutex::new(BTreeMap::new());
    let chaos_corrupt = AtomicU64::new(0);
    let chaos_result = catch_unwind(AssertUnwindSafe(|| {
        let outcome = run_pass(
            &chaos_vfs,
            &round_dir,
            &keys,
            config_hash,
            &chaos_execs,
            &chaos_corrupt,
        );
        if let Ok(out) = &outcome {
            register_runs(&chaos_vfs, &store_root, out);
        }
        outcome
    }));
    let chaos_result = match chaos_result {
        Ok(r) => r,
        Err(_) => {
            violations.push("chaos pass panicked instead of failing typed".to_string());
            Err(JobError::Panic {
                message: "chaos pass panicked".to_string(),
            })
        }
    };
    let chaos_exit = pass_exit(&chaos_result);
    if ![0, 2, 3].contains(&chaos_exit) {
        violations.push(format!(
            "chaos pass exit {chaos_exit} outside the 0/2/3 contract"
        ));
    }
    let (chaos_completed, chaos_quarantined) = match &chaos_result {
        Ok(out) => (
            out.jobs
                .iter()
                .filter(|(_, j)| matches!(j, JobOutcome::Completed { .. }))
                .count() as u64,
            out.jobs
                .iter()
                .filter(|(_, j)| matches!(j, JobOutcome::Quarantined { .. }))
                .count() as u64,
        ),
        Err(_) => (0, 0),
    };
    if let Ok(out) = &chaos_result {
        if chaos_quarantined > 0 && out.exit_code() != 2 {
            violations.push("quarantined jobs did not map to exit 2".to_string());
        }
        // Completed values must match the reference even mid-chaos:
        // faults may fail a job, never corrupt a success.
        for (key, job) in &out.jobs {
            if let JobOutcome::Completed { value, .. } = job {
                if reference[&key.slug()] != *value {
                    violations.push(format!(
                        "chaos pass returned a wrong value for {}",
                        key.slug()
                    ));
                }
            }
        }
    }

    // ---- Recovery pass ----------------------------------------------
    let real_vfs: Arc<dyn Vfs> = Arc::new(sim_chaos::RealFs);
    let recovery_execs = Mutex::new(BTreeMap::new());
    let recovery_corrupt = AtomicU64::new(0);

    // Which jobs does the journal hold valid records for *before* the
    // recovery run? Those must replay, not re-execute.
    let (journal_stats, valid_before): (_, BTreeSet<String>) = {
        let probe = Journal::open(&round_dir).expect("recovery journal open cannot fail on RealFs");
        let valid = keys
            .iter()
            .filter(|(k, _)| matches!(probe.decode::<u64>(k), Some(Ok(_))))
            .map(|(k, _)| k.slug())
            .collect();
        (probe.load_stats(), valid)
    };

    let recovery_result = catch_unwind(AssertUnwindSafe(|| {
        run_pass(
            &real_vfs,
            &round_dir,
            &keys,
            config_hash,
            &recovery_execs,
            &recovery_corrupt,
        )
    }));
    let recovery_result = match recovery_result {
        Ok(r) => r,
        Err(_) => {
            violations.push("recovery pass panicked instead of failing typed".to_string());
            Err(JobError::Panic {
                message: "recovery pass panicked".to_string(),
            })
        }
    };

    let mut replayed = 0u64;
    match &recovery_result {
        Ok(out) => {
            if out.exit_code() != 0 {
                violations.push(format!(
                    "recovery pass exited {} — a restart on a healthy filesystem must fully \
                     complete",
                    out.exit_code()
                ));
            }
            for (key, job) in &out.jobs {
                let slug = key.slug();
                match job {
                    JobOutcome::Completed {
                        value,
                        from_journal,
                        ..
                    } => {
                        if reference[&slug] != *value {
                            violations.push(format!(
                                "resume identity broken: {slug} recovered to a wrong value"
                            ));
                        }
                        if *from_journal {
                            replayed += 1;
                        }
                        if valid_before.contains(&slug) {
                            if !from_journal {
                                violations.push(format!(
                                    "{slug} had a valid journal record but was not replayed"
                                ));
                            }
                            if recovery_execs.lock().get(&slug).copied().unwrap_or(0) > 0 {
                                violations.push(format!(
                                    "double execution: {slug} re-ran despite a journal record"
                                ));
                            }
                        }
                    }
                    other => violations.push(format!(
                        "recovery left {slug} as {other:?} instead of completing it"
                    )),
                }
            }
        }
        Err(e) => violations.push(format!("recovery pass failed: {}", e.kind())),
    }
    let reexecuted: u64 = recovery_execs.lock().values().sum();

    // Completions the recovery pass wrote must survive a reopen: a torn
    // tail the chaos pass left must not swallow the record after it.
    if let Ok(out) = &recovery_result {
        match Journal::open(&round_dir) {
            Ok(reopened) => {
                for (key, job) in &out.jobs {
                    let replays = matches!(reopened.decode::<u64>(key),
                        Some(Ok(v)) if v == reference[&key.slug()]);
                    if matches!(job, JobOutcome::Completed { .. }) && !replays {
                        violations.push(format!(
                            "lost completion: {} does not replay after the recovery pass",
                            key.slug()
                        ));
                    }
                }
            }
            Err(e) => violations.push(format!("journal reopen failed: {}", e.kind())),
        }
    }

    // ---- Store integrity --------------------------------------------
    let (store_records, store_open_error) = match catch_unwind(|| RunStore::open(&store_root)) {
        Ok(Ok(store)) => {
            let mut verified = 0u64;
            for record in store.records() {
                let Some(path) = store.artifact_path(record, "state") else {
                    violations.push(format!("record {} admitted without an artifact", record.id));
                    continue;
                };
                let ok = std::fs::read(&path)
                    .ok()
                    .and_then(|bytes| String::from_utf8(bytes).ok())
                    .and_then(|text| serde::json::from_str::<ChaosArtifact>(&text).ok())
                    .is_some_and(|artifact| {
                        reference.get(&artifact.slug).copied() == Some(artifact.final_state)
                    });
                if ok {
                    verified += 1;
                } else {
                    violations.push(format!(
                        "corrupt or orphaned artifact admitted to the index: {}",
                        record.id
                    ));
                }
            }
            (verified, None)
        }
        Ok(Err(e)) => (0, Some(report_error_kind(&e).to_string())),
        Err(_) => {
            violations.push("store open panicked instead of failing typed".to_string());
            (0, Some("panic".to_string()))
        }
    };

    RoundReport {
        round,
        round_seed,
        severity: if severe { "severe" } else { "gentle" }.to_string(),
        crash_at,
        chaos_ops: chaos.op_count(),
        crashed: chaos.is_crashed(),
        chaos_exit,
        chaos_completed,
        chaos_quarantined,
        fault_counts: chaos.fault_counts().into_iter().collect(),
        journal_loaded: journal_stats.loaded as u64,
        journal_torn: journal_stats.torn as u64,
        journal_first_damaged_line: journal_stats.first_damaged_line,
        journal_reaped_tmp: journal_stats.reaped_tmp as u64,
        replayed,
        reexecuted,
        corrupt_snapshot_recoveries: chaos_corrupt.load(Ordering::Relaxed)
            + recovery_corrupt.load(Ordering::Relaxed),
        store_records,
        store_open_error,
        violations,
    }
}

/// Run the full torture campaign. Pure given `(seed, rounds)` apart
/// from scratch-directory I/O; the returned report is what `--out`
/// serializes.
pub fn run_chaos(seed: u64, rounds: u64, scratch: &Path) -> ChaosReport {
    let mut round_reports = Vec::with_capacity(rounds as usize);
    let mut totals = ChaosTotals {
        rounds,
        ..ChaosTotals::default()
    };
    for round in 0..rounds {
        if sim_harness::signal::interrupted() {
            totals.rounds = round;
            break;
        }
        let round_seed = splitmix(seed ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let report = run_round(round, round_seed, scratch);
        totals.crashed_rounds += report.crashed as u64;
        totals.faults_injected += report.fault_counts.iter().map(|(_, n)| *n).sum::<u64>();
        totals.replayed += report.replayed;
        totals.reexecuted += report.reexecuted;
        totals.corrupt_snapshot_recoveries += report.corrupt_snapshot_recoveries;
        totals.panics += report
            .violations
            .iter()
            .filter(|v| v.contains("panic"))
            .count() as u64;
        totals.violations += report.violations.len() as u64;
        round_reports.push(report);
    }
    ChaosReport {
        schema_version: CHAOS_SCHEMA_VERSION,
        seed,
        totals,
        rounds: round_reports,
    }
}

/// CLI entry point: run the torture loop, print a summary, write the
/// report, and map to the exit-code contract (`0` clean, `3` on any
/// violation or report-write failure, `130` interrupted).
pub fn cmd_chaos(args: &ChaosArgs) -> i32 {
    let scratch = args
        .scratch
        .clone()
        .unwrap_or_else(|| std::env::temp_dir().join(format!("sim-chaos-torture-s{}", args.seed)));
    if std::fs::create_dir_all(&scratch).is_err() {
        eprintln!(
            "chaos: cannot create scratch directory {}",
            scratch.display()
        );
        return crate::EXIT_FATAL;
    }
    let report = run_chaos(args.seed, args.rounds, &scratch);

    eprintln!(
        "chaos: seed {} — {} round(s), {} crashed, {} fault(s) injected, {} replayed, \
         {} re-executed, {} corrupt-snapshot recover(ies), {} violation(s)",
        report.seed,
        report.totals.rounds,
        report.totals.crashed_rounds,
        report.totals.faults_injected,
        report.totals.replayed,
        report.totals.reexecuted,
        report.totals.corrupt_snapshot_recoveries,
        report.totals.violations,
    );
    for round in &report.rounds {
        for violation in &round.violations {
            eprintln!("chaos: round {:04}: VIOLATION: {violation}", round.round);
        }
    }

    if let Some(out) = &args.out {
        let json = serde::json::to_string_pretty(&report);
        if let Err(e) = atomic_write(out, &(json + "\n")) {
            eprintln!("chaos: writing report {}: {e}", out.display());
            return crate::EXIT_FATAL;
        }
        eprintln!("chaos: report written to {}", out.display());
    }

    if sim_harness::signal::interrupted() {
        return sim_harness::signal::EXIT_INTERRUPTED;
    }
    if report.totals.violations > 0 {
        eprintln!(
            "chaos: scratch kept for inspection at {}",
            scratch.display()
        );
        return crate::EXIT_FATAL;
    }
    let _ = std::fs::remove_dir_all(&scratch);
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_state_is_deterministic() {
        let a = reference_state(42, TOTAL_STEPS);
        let b = reference_state(42, TOTAL_STEPS);
        assert_eq!(a, b);
        assert_ne!(a, reference_state(43, TOTAL_STEPS));
        // Mid-run prefix agrees with a resumed run.
        let mid = reference_state(42, 8);
        assert_eq!(reference_state(mid, TOTAL_STEPS - 8), a);
    }

    #[test]
    fn snapshot_codec_round_trips() {
        let state = 0xdead_beef_u64;
        let container = write_container(99, 16, &state.to_le_bytes());
        assert_eq!(decode_snapshot(&container, 99), Ok((16, state)));
        assert!(decode_snapshot(&container, 98).is_err());
    }

    #[test]
    fn seeded_round_has_no_violations() {
        let dir = std::env::temp_dir().join("chaos-mod-clean-round");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Round seeds are derived, so probe a few until one is armed
        // with no crash and gentle severity is not required — any seed
        // must produce zero violations; that is the whole contract.
        let report = run_round(0, 12345, &dir);
        assert!(
            report.violations.is_empty(),
            "violations: {:?}",
            report.violations
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
