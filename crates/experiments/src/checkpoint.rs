//! Mid-run checkpointing of a measured simulation: the combined
//! (pipeline + AVF collector) snapshot codec and the checkpointed
//! measured-run driver.
//!
//! A resumable measured run has two pieces of live state: the
//! [`Pipeline`] itself and the [`AvfCollector`] observing it (whose ACE
//! window and interval accumulators are as much "simulation state" as
//! the issue queue is — drop them and the resumed AVF series diverges).
//! Both are serialized into one file wrapped in the `sim-snapshot`
//! container, so a single CRC covers machine and collector bytes alike
//! and any flipped bit anywhere in the file is rejected on load. The
//! container's config-hash binding uses [`Pipeline::config_hash`],
//! which means a snapshot can only be restored onto a pipeline built
//! from the same machine table, policies, interval and programs.
//!
//! Checkpoints are taken cooperatively from [`Pipeline::run_hooked`] on
//! the sampling-interval grid — the same boundary the cancel token is
//! polled on — so the snapshot always captures a quiescent
//! between-intervals state, never a mid-cycle one.

use std::cell::RefCell;

use avf::AvfCollector;
use sim_harness::{JobError, SnapshotStore};
use sim_metrics::Metrics;
use sim_snapshot::{read_container, SnapReader, SnapWriter};
use smt_sim::{HookAction, Pipeline, SimLimits, SimObserver, SimResult};

/// Default simulated-cycle spacing between snapshots: one per sampling
/// interval. `--snapshot-every` overrides it; values that are not a
/// multiple of the interval take effect at the first boundary at or
/// after the requested spacing.
pub const DEFAULT_SNAPSHOT_EVERY: u64 = smt_sim::DEFAULT_INTERVAL_CYCLES;

/// Snapshots durably written to disk.
pub const C_SNAPSHOTS_WRITTEN: &str = "harness.snapshots.written";
/// Runs that restored mid-measurement state from a snapshot.
pub const C_SNAPSHOTS_RESTORED: &str = "harness.snapshots.restored";
/// Corrupt/torn snapshot files skipped while restoring.
pub const C_SNAPSHOTS_SKIPPED_CORRUPT: &str = "harness.snapshots.skipped_corrupt";
/// `--selfcheck` invariant sweeps that failed at a snapshot boundary.
pub const C_SELFCHECK_FAILED: &str = "harness.snapshots.selfcheck_failures";

/// Serialize the full resumable state of a measured run. The result is
/// a `sim-snapshot` container whose payload holds the pipeline's own
/// (nested, independently checksummed) snapshot followed by the raw
/// collector state, each length-prefixed. Everything is written in one
/// pass into one buffer: the nested container and both length prefixes
/// are filled in place.
pub fn encode_checkpoint(pipeline: &Pipeline, collector: &AvfCollector) -> Vec<u8> {
    let mut w = SnapWriter::new();
    let file = w.open_container(pipeline.config_hash(), pipeline.cycle());
    let machine = w.open_len();
    pipeline.save_snapshot_into(&mut w);
    w.close_len(machine);
    let state = w.open_len();
    collector.save_state(&mut w);
    w.close_len(state);
    w.close_container(file);
    w.into_bytes()
}

/// Restore a combined checkpoint onto a freshly constructed pipeline
/// and collector. Returns the absolute cycle the snapshot was taken at.
/// Structural invariants are always checked after a restore — a
/// snapshot that decodes but describes an impossible machine must not
/// resume. On error the pipeline/collector may be partially written;
/// decode into fresh objects and discard them on failure.
pub fn decode_checkpoint(
    bytes: &[u8],
    pipeline: &mut Pipeline,
    collector: &mut AvfCollector,
) -> Result<u64, String> {
    let bail = |stage: &str, e: sim_snapshot::SnapError| format!("{stage}: {e:?}");
    let (header, payload) =
        read_container(bytes, pipeline.config_hash()).map_err(|e| bail("container", e))?;
    let mut r = SnapReader::new(payload);
    let mlen = r.get_len().map_err(|e| bail("machine length", e))?;
    let machine = r.take_bytes(mlen).map_err(|e| bail("machine bytes", e))?;
    let clen = r.get_len().map_err(|e| bail("collector length", e))?;
    let cbytes = r.take_bytes(clen).map_err(|e| bail("collector bytes", e))?;
    if r.remaining() != 0 {
        return Err(format!("{} trailing payload bytes", r.remaining()));
    }
    pipeline
        .restore_snapshot(machine)
        .map_err(|e| bail("pipeline restore", e))?;
    let mut cr = SnapReader::new(cbytes);
    collector
        .restore_state(&mut cr)
        .map_err(|e| bail("collector restore", e))?;
    if cr.remaining() != 0 {
        return Err(format!("{} trailing collector bytes", cr.remaining()));
    }
    pipeline
        .check_invariants()
        .map_err(|e| format!("restored state fails invariants: {e}"))?;
    Ok(header.cycle)
}

/// Checkpointing policy for one measured run.
pub struct CheckpointPolicy<'a> {
    /// Where snapshots for this job rotate.
    pub store: &'a SnapshotStore,
    /// Minimum simulated cycles between snapshots (snapshots land on
    /// the sampling-interval grid, so the effective spacing is this
    /// rounded up to the next boundary).
    pub every: u64,
    /// Run [`Pipeline::check_invariants`] at every snapshot boundary
    /// and fail fast instead of persisting a poisoned checkpoint.
    pub selfcheck: bool,
    /// Harness-level metrics registry for the `harness.snapshots.*`
    /// counters (written / restored / skipped-corrupt / selfcheck
    /// failures). Pass [`Metrics::off`] when not collecting.
    pub metrics: &'a Metrics,
}

/// A finished (or stopped) checkpointed measured run.
pub struct MeasuredRun {
    pub result: SimResult,
    pub collector: AvfCollector,
    /// Snapshots written during this run.
    pub snapshots: u64,
}

/// The observer seat shared with the checkpoint hook: the collector
/// must be visible both as the pipeline's `SimObserver` (mutably, per
/// retirement event) and to the hook (immutably, to serialize it at a
/// boundary), so it lives in a `RefCell` for the duration of the run.
struct SharedObserver<'a>(&'a RefCell<AvfCollector>);

impl SimObserver for SharedObserver<'_> {
    fn on_commit(&mut self, ev: &smt_sim::RetireEvent) {
        self.0.borrow_mut().on_commit(ev);
    }
    fn on_squash(&mut self, ev: &smt_sim::RetireEvent) {
        self.0.borrow_mut().on_squash(ev);
    }
    fn on_finish(&mut self, final_cycle: u64) {
        self.0.borrow_mut().on_finish(final_cycle);
    }
}

/// Drive the measured phase with periodic checkpoints. `on_checkpoint`
/// fires after each snapshot is durably on disk (journal `checkpointed`
/// marker hook). Fails with [`JobError::Diverged`] when `selfcheck`
/// catches an invariant violation — carrying the pipeline's diagnostic
/// — and with [`JobError::Io`] when a snapshot cannot be written.
pub fn run_measured_checkpointed(
    pipeline: &mut Pipeline,
    collector: AvfCollector,
    limits: SimLimits,
    policy: &CheckpointPolicy<'_>,
    mut on_checkpoint: impl FnMut(u64),
) -> Result<MeasuredRun, JobError> {
    let shared = RefCell::new(collector);
    let every = policy.every.max(1);
    // The hook also fires at the run's very first boundary (cycle zero
    // of the measured window, or the restore point); that state is
    // already on disk or trivially reconstructable, so the first call
    // only anchors the cadence.
    let mut last_ckpt: Option<u64> = None;
    let mut snapshots = 0u64;
    let mut failure: Option<JobError> = None;
    let mut obs = SharedObserver(&shared);
    let result = pipeline.run_hooked(limits, &mut obs, &mut |p| {
        let now = p.cycle();
        let due = match last_ckpt {
            None => {
                last_ckpt = Some(now);
                false
            }
            Some(prev) => now >= prev + every,
        };
        if !due {
            return HookAction::Continue;
        }
        if policy.selfcheck {
            // Invariant sweeps show up in the profile as their own root
            // span — they run between intervals, outside the tick.
            let tok = p.prof_mut().enter(smt_sim::pipeline::spans::SELFCHECK);
            let check = p.check_invariants();
            p.prof_mut().exit(tok);
            if let Err(why) = check {
                policy.metrics.counter_add(C_SELFCHECK_FAILED, 1);
                failure = Some(JobError::Diverged {
                    detail: format!("selfcheck: invariant violation at cycle {now}: {why}"),
                });
                return HookAction::Stop;
            }
        }
        let tok = p.prof_mut().enter(smt_sim::pipeline::spans::SNAPSHOT);
        let bytes = encode_checkpoint(p, &shared.borrow());
        let saved = policy.store.save(now, &bytes);
        p.prof_mut().exit(tok);
        match saved {
            Ok(_) => {
                last_ckpt = Some(now);
                snapshots += 1;
                policy.metrics.counter_add(C_SNAPSHOTS_WRITTEN, 1);
                on_checkpoint(now);
                HookAction::Continue
            }
            Err(e) => {
                failure = Some(e);
                HookAction::Stop
            }
        }
    });
    let collector = shared.into_inner();
    if let Some(err) = failure {
        return Err(err);
    }
    Ok(MeasuredRun {
        result,
        collector,
        snapshots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_sim::pipeline::PipelinePolicies;
    use smt_sim::{FetchPolicyKind, MachineConfig};
    use std::path::PathBuf;
    use std::sync::Arc;

    const INTERVAL: u64 = smt_sim::DEFAULT_INTERVAL_CYCLES;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("experiments-checkpoint")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fresh() -> (Pipeline, AvfCollector) {
        let cfg = MachineConfig::table2();
        let programs = ["gcc", "mcf", "swim", "bzip2"]
            .iter()
            .map(|n| {
                Arc::new(workload_gen::generate_program_salted(
                    &workload_gen::model_by_name(n).unwrap(),
                    7,
                ))
            })
            .collect();
        let policies = PipelinePolicies {
            fetch: FetchPolicyKind::Icount.build(),
            ..Default::default()
        };
        let collector = AvfCollector::new(&cfg, 2_000, INTERVAL);
        (Pipeline::new(cfg, programs, policies), collector)
    }

    #[test]
    fn checkpointed_run_matches_plain_run_bit_for_bit() {
        let limits = SimLimits::cycles(4 * INTERVAL);

        let (mut p_ref, mut c_ref) = fresh();
        let r_ref = p_ref.run(limits, &mut c_ref);
        assert!(!r_ref.deadlocked && !r_ref.cancelled);

        let dir = scratch("matches_plain");
        let store = SnapshotStore::new(&dir, "job");
        let (mut p, c) = fresh();
        let mut seen = Vec::new();
        let run = run_measured_checkpointed(
            &mut p,
            c,
            limits,
            &CheckpointPolicy {
                store: &store,
                every: INTERVAL,
                selfcheck: true,
                metrics: &Metrics::off(),
            },
            |cy| seen.push(cy),
        )
        .unwrap();
        assert!(!run.result.deadlocked && !run.result.cancelled);
        assert_eq!(run.snapshots, 3, "boundaries 1..=3 of the 4 intervals");
        assert_eq!(seen.len(), 3);
        assert_eq!(p.save_snapshot(), p_ref.save_snapshot());
        assert_eq!(
            run.collector.report().iq_avf.to_bits(),
            c_ref.report().iq_avf.to_bits()
        );

        // Resume from the newest on-disk snapshot and finish a longer
        // budget: identical to running that budget straight through.
        let long = SimLimits::cycles(6 * INTERVAL);
        let (mut p_long, mut c_long) = fresh();
        p_long.run(long, &mut c_long);
        let loaded = store
            .load_latest_valid(|bytes| {
                let (mut p2, mut c2) = fresh();
                let cycle = decode_checkpoint(bytes, &mut p2, &mut c2)?;
                Ok((p2, c2, cycle))
            })
            .unwrap()
            .unwrap();
        assert_eq!(loaded.skipped_corrupt, 0);
        let (mut p3, mut c3, _) = loaded.value;
        let r3 = p3.run(long, &mut c3);
        assert!(!r3.deadlocked && !r3.cancelled);
        assert_eq!(p3.save_snapshot(), p_long.save_snapshot());
        assert_eq!(
            c3.report().iq_avf.to_bits(),
            c_long.report().iq_avf.to_bits()
        );
    }

    #[test]
    fn selfcheck_catches_corrupted_live_ace_counter() {
        let dir = scratch("selfcheck_catches");
        let store = SnapshotStore::new(&dir, "job");
        let (mut p, c) = fresh();
        // Deliberately corrupt the live IQ ACE counter before the run;
        // the first selfcheck boundary must catch it and refuse to
        // write a poisoned checkpoint.
        p.corrupt_iq_ace_counter(1);
        let err = run_measured_checkpointed(
            &mut p,
            c,
            SimLimits::cycles(2 * INTERVAL),
            &CheckpointPolicy {
                store: &store,
                every: INTERVAL,
                selfcheck: true,
                metrics: &Metrics::off(),
            },
            |_| {},
        )
        .map(|run| run.snapshots)
        .unwrap_err();
        assert!(
            matches!(err, JobError::Diverged { ref detail }
                if detail.contains("selfcheck") && detail.contains("cycle")),
            "diagnostic names the check and the cycle: {err:?}"
        );
        assert!(
            store.list().is_empty(),
            "no checkpoint written after the violation"
        );

        // Without --selfcheck the same corruption sails through to a
        // (poisoned) checkpoint — which the *restore* path then rejects,
        // because invariants are always checked after a restore.
        let dir2 = scratch("selfcheck_off");
        let store2 = SnapshotStore::new(&dir2, "job");
        let (mut p2, c2) = fresh();
        p2.corrupt_iq_ace_counter(1);
        let run = run_measured_checkpointed(
            &mut p2,
            c2,
            SimLimits::cycles(2 * INTERVAL),
            &CheckpointPolicy {
                store: &store2,
                every: INTERVAL,
                selfcheck: false,
                metrics: &Metrics::off(),
            },
            |_| {},
        )
        .unwrap();
        assert!(run.snapshots >= 1);
        let err = store2
            .load_latest_valid(|bytes| {
                let (mut p3, mut c3) = fresh();
                decode_checkpoint(bytes, &mut p3, &mut c3)
            })
            .unwrap_err();
        assert!(matches!(err, JobError::Corrupt { ref detail } if detail.contains("invariant")));
    }

    #[test]
    fn flipped_bit_anywhere_rejects_and_falls_back() {
        let dir = scratch("flip_falls_back");
        let store = SnapshotStore::new(&dir, "job");
        let (mut p, c) = fresh();
        let run = run_measured_checkpointed(
            &mut p,
            c,
            SimLimits::cycles(3 * INTERVAL),
            &CheckpointPolicy {
                store: &store,
                every: INTERVAL,
                selfcheck: false,
                metrics: &Metrics::off(),
            },
            |_| {},
        )
        .unwrap();
        assert_eq!(run.snapshots, 2);
        let files = store.list();
        assert_eq!(files.len(), 2);

        // Flip one bit deep in the newest file's *collector* region —
        // past the nested machine container — to prove the outer CRC
        // covers the whole combined payload.
        let (newest_cycle, newest) = &files[0];
        let mut bytes = std::fs::read(newest).unwrap();
        let idx = bytes.len() - 16;
        bytes[idx] ^= 0x40;
        std::fs::write(newest, &bytes).unwrap();

        let loaded = store
            .load_latest_valid(|b| {
                let (mut p2, mut c2) = fresh();
                decode_checkpoint(b, &mut p2, &mut c2).map(|cy| (p2, c2, cy))
            })
            .unwrap()
            .unwrap();
        assert_eq!(loaded.skipped_corrupt, 1, "fell back past the bad file");
        assert!(loaded.cycle < *newest_cycle);
    }
}
