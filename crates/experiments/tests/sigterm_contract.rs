//! The SIGTERM exit-code contract, end to end: a campaign interrupted
//! by SIGTERM drains in-flight work, leaves a complete journal and
//! only whole-generation snapshots on disk, maps to exit 130, and a
//! restart resumes from the journal without re-executing anything that
//! completed — including when the signal lands *during* a snapshot
//! write.
//!
//! The signal handler and the interrupt flag are process-global, so
//! every test here serializes on one lock and resets the flag on both
//! ends.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use sim_chaos::{RealFs, Vfs};
use sim_harness::journal::{fnv1a, JobKey, Journal};
use sim_harness::signal::{self, EXIT_INTERRUPTED, SIGTERM};
use sim_harness::{
    run_journaled, HarnessConfig, HarnessObservers, JobError, JobOutcome, SnapshotStore,
};
use sim_snapshot::{read_container, write_container};

extern "C" {
    fn raise(signum: i32) -> i32;
}

/// Tests raising real signals share one handler installation and one
/// process-global interrupt flag — serialize them.
static SIGNAL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

const TOTAL_STEPS: u64 = 16;
const SNAP_EVERY: u64 = 4;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("experiments-sigterm-contract")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn reference(start: u64, steps: u64) -> u64 {
    (0..steps).fold(start, |s, _| splitmix(s))
}

/// Single-worker config so the job order (and therefore which jobs the
/// interrupt skips) is deterministic.
fn serial_config() -> HarnessConfig {
    HarnessConfig {
        max_attempts: 1,
        jobs: Some(1),
        ..HarnessConfig::default()
    }
}

/// A toy deterministic job that snapshots on cadence through `vfs` and
/// optionally raises SIGTERM at a chosen step of a chosen job.
#[allow(clippy::too_many_arguments)]
fn toy_job(
    vfs: &Arc<dyn Vfs>,
    snap_dir: &Path,
    key: &JobKey,
    start: u64,
    config_hash: u64,
    raise_in_job: Option<u64>,
    raise_at_step: u64,
    fired: &AtomicBool,
) -> Result<u64, JobError> {
    let store = SnapshotStore::new_in(vfs.clone(), snap_dir, &key.slug());
    let mut state = start;
    for step in 1..=TOTAL_STEPS {
        state = splitmix(state);
        if raise_in_job == Some(key.seed)
            && step == raise_at_step
            && !fired.swap(true, Ordering::SeqCst)
        {
            unsafe { raise(SIGTERM) };
        }
        if step % SNAP_EVERY == 0 {
            let container = write_container(config_hash, step, &state.to_le_bytes());
            store.save(step, &container)?;
        }
    }
    Ok(state)
}

/// Every snapshot file on disk must decode as one complete generation
/// — the container CRC rejects anything torn.
fn assert_snapshots_whole(snap_dir: &Path, config_hash: u64) -> usize {
    let Ok(entries) = std::fs::read_dir(snap_dir) else {
        return 0;
    };
    let mut checked = 0;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        assert!(
            !name.ends_with(".tmp"),
            "staged tmp file survived the interrupt: {name}"
        );
        let bytes = std::fs::read(entry.path()).unwrap();
        let (header, payload) = read_container(&bytes, config_hash)
            .unwrap_or_else(|e| panic!("torn snapshot {name} on disk: {e:?}"));
        // And the payload is a real mid-run state, not garbage.
        let state = u64::from_le_bytes(payload.try_into().unwrap());
        assert!(header.cycle > 0 && header.cycle <= TOTAL_STEPS);
        checked += 1;
        let _ = state;
    }
    checked
}

fn run_campaign(
    dir: &Path,
    vfs: Arc<dyn Vfs>,
    config_hash: u64,
    raise_in_job: Option<u64>,
    raise_at_step: u64,
) -> sim_harness::CampaignOutcome<u64> {
    // SnapshotStore nests its own `snapshots/` under this base.
    let snap_dir = dir.to_path_buf();
    let items: Vec<(JobKey, u64)> = (0..4)
        .map(|j| {
            (
                JobKey::new("sigterm", "toy", j, config_hash),
                splitmix(config_hash ^ (j + 1)),
            )
        })
        .collect();
    let keys = items.clone();
    let fired = AtomicBool::new(false);
    let executions = AtomicU64::new(0);
    let outcome = run_journaled(
        dir,
        items,
        |start: &u64, _ctx| {
            executions.fetch_add(1, Ordering::SeqCst);
            let key = keys
                .iter()
                .find(|(_, s)| s == start)
                .map(|(k, _)| k.clone())
                .unwrap();
            toy_job(
                &vfs,
                &snap_dir,
                &key,
                *start,
                config_hash,
                raise_in_job,
                raise_at_step,
                &fired,
            )
        },
        &serial_config(),
        &HarnessObservers::off(),
    )
    .expect("journal opens on a real filesystem");
    outcome
}

#[test]
fn sigterm_mid_campaign_exits_130_checkpoints_and_resumes() {
    let _guard = SIGNAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    signal::install_sigint_handler();
    signal::reset_interrupted();

    let dir = scratch("mid-campaign");
    let config_hash = fnv1a("sigterm-mid-campaign");
    let vfs: Arc<dyn Vfs> = Arc::new(RealFs);

    // SIGTERM lands in job 1, between two snapshot boundaries.
    let outcome = run_campaign(&dir, vfs.clone(), config_hash, Some(1), SNAP_EVERY + 1);
    assert!(outcome.interrupted, "the interrupt flag must be recorded");
    assert_eq!(
        outcome.exit_code(),
        EXIT_INTERRUPTED,
        "an interrupted campaign maps to exit 130"
    );

    // The in-flight job drains to completion; later jobs are skipped,
    // not failed.
    let by_seed = |seed: u64| {
        outcome
            .jobs
            .iter()
            .find(|(k, _)| k.seed == seed)
            .map(|(_, j)| j)
            .unwrap()
    };
    assert!(matches!(by_seed(0), JobOutcome::Completed { .. }));
    assert!(matches!(by_seed(1), JobOutcome::Completed { .. }));
    assert!(matches!(by_seed(2), JobOutcome::Skipped));
    assert!(matches!(by_seed(3), JobOutcome::Skipped));

    // Whatever snapshots exist are whole generations, never torn.
    assert!(assert_snapshots_whole(&dir.join("snapshots"), config_hash) > 0);

    // Completed jobs are journaled: the journal survived the interrupt.
    let journal = Journal::open(&dir).unwrap();
    assert_eq!(journal.load_stats().torn, 0);
    for seed in [0u64, 1] {
        let key = JobKey::new("sigterm", "toy", seed, config_hash);
        let recorded: u64 = journal.decode(&key).unwrap().unwrap();
        assert_eq!(
            recorded,
            reference(splitmix(config_hash ^ (seed + 1)), TOTAL_STEPS)
        );
    }

    // Restart: the completed jobs replay from the journal, the skipped
    // ones run, and the campaign reaches exit 0.
    signal::reset_interrupted();
    let resumed = run_campaign(&dir, vfs, config_hash, None, 0);
    assert_eq!(resumed.exit_code(), 0);
    for (key, job) in &resumed.jobs {
        match job {
            JobOutcome::Completed {
                value,
                from_journal,
                ..
            } => {
                assert_eq!(
                    *value,
                    reference(splitmix(config_hash ^ (key.seed + 1)), TOTAL_STEPS)
                );
                if key.seed <= 1 {
                    assert!(*from_journal, "job {} must replay, not re-run", key.seed);
                }
            }
            other => panic!("resume left {:?} as {other:?}", key.seed),
        }
    }
    signal::reset_interrupted();
}

/// A [`Vfs`] that raises SIGTERM from *inside* a snapshot write — the
/// moment the staged `.tmp` bytes are being written — then lets the
/// operation proceed. This is the graceful-drain model: the flag flips
/// mid-write, the write itself completes, and nothing on disk may be
/// torn.
struct RaiseDuringSnapshotWrite {
    inner: RealFs,
    fired: AtomicBool,
}

impl Vfs for RaiseDuringSnapshotWrite {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn write(&self, path: &Path, contents: &[u8]) -> std::io::Result<()> {
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
        if name.is_some_and(|n| n.ends_with(".tmp")) && !self.fired.swap(true, Ordering::SeqCst) {
            unsafe { raise(SIGTERM) };
        }
        self.inner.write(path, contents)
    }
    fn append(&self, path: &Path, contents: &[u8]) -> std::io::Result<()> {
        self.inner.append(path, contents)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        self.inner.create_dir_all(path)
    }
    fn read_dir(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        self.inner.read_dir(dir)
    }
    fn sync_file(&self, path: &Path) -> std::io::Result<()> {
        self.inner.sync_file(path)
    }
    fn sync_dir(&self, path: &Path) -> std::io::Result<()> {
        self.inner.sync_dir(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

#[test]
fn sigterm_during_snapshot_write_leaves_old_or_new_generation() {
    let _guard = SIGNAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    signal::install_sigint_handler();
    signal::reset_interrupted();

    let dir = scratch("during-snapshot-write");
    let config_hash = fnv1a("sigterm-during-write");
    let vfs: Arc<dyn Vfs> = Arc::new(RaiseDuringSnapshotWrite {
        inner: RealFs,
        fired: AtomicBool::new(false),
    });

    // No job raises directly; the very first snapshot write does.
    let outcome = run_campaign(&dir, vfs, config_hash, None, 0);
    assert!(outcome.interrupted);
    assert_eq!(outcome.exit_code(), EXIT_INTERRUPTED);

    // The interrupted write completed (graceful drain): every snapshot
    // on disk is a whole old-or-new generation, never torn, and no
    // staging litter survives.
    assert!(assert_snapshots_whole(&dir.join("snapshots"), config_hash) > 0);

    // Restart on a plain filesystem finishes everything.
    signal::reset_interrupted();
    let resumed = run_campaign(&dir, Arc::new(RealFs), config_hash, None, 0);
    assert_eq!(resumed.exit_code(), 0);
    assert!(resumed
        .jobs
        .iter()
        .all(|(_, j)| matches!(j, JobOutcome::Completed { .. })));
    signal::reset_interrupted();
}
