//! Append-only JSONL checkpoint journal for resumable campaigns.
//!
//! One line per completed job, written through an [`AppendLog`]. A
//! crash while appending can tear at most the final line; loading skips
//! and counts a damaged line, and the next append seals a torn tail, so
//! `--resume` loses at most the one job that was mid-write.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use serde::{Deserialize, Serialize, Value};
use sim_chaos::{sweep_tmp_files, RealFs, Vfs};

use crate::append_log::AppendLog;
use crate::error::JobError;

/// Version stamped into every record; records with a different version
/// are skipped (and counted) on load so old journals never corrupt a
/// resumed campaign silently.
///
/// History: v1 had no `state` field (every record was a completion);
/// v2 added `state` so mid-run checkpoints can live in the same journal
/// as final results. v1 journals replay as empty (all records counted
/// `wrong_version`), which merely re-runs their jobs.
pub const JOURNAL_SCHEMA_VERSION: u32 = 2;

/// `state` value for a finished job whose payload is the final result.
pub const STATE_DONE: &str = "done";

/// `state` value for a job interrupted mid-run; the payload points at
/// its latest snapshot (campaign-defined, typically a cycle count and
/// snapshot directory) rather than a result.
pub const STATE_CHECKPOINTED: &str = "checkpointed";

/// Identity of one unit of campaign work. Two runs of the same binary
/// with the same key must produce the same result (simulations are
/// deterministic given their seed), which is what makes journal replay
/// sound; `config_hash` exists to invalidate records when the campaign
/// configuration changes between runs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobKey {
    /// Campaign family, e.g. `"bench-baseline"` or `"fault-inject"`.
    pub exhibit: String,
    /// Scheme / configuration label within the campaign.
    pub scheme: String,
    /// Seed (or salt) distinguishing statistical repetitions.
    pub seed: u64,
    /// FNV-1a hash of the campaign configuration (see [`fnv1a`]).
    pub config_hash: u64,
}

impl JobKey {
    pub fn new(exhibit: &str, scheme: &str, seed: u64, config_hash: u64) -> JobKey {
        JobKey {
            exhibit: exhibit.to_string(),
            scheme: scheme.to_string(),
            seed,
            config_hash,
        }
    }

    /// Filesystem/trace-safe label (see [`slugify`]).
    pub fn slug(&self) -> String {
        slugify(&format!(
            "{}-{}-s{}-c{:08x}",
            self.exhibit, self.scheme, self.seed, self.config_hash
        ))
    }
}

impl std::fmt::Display for JobKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} seed={} cfg={:08x}",
            self.exhibit, self.scheme, self.seed, self.config_hash
        )
    }
}

/// Lowercase, filesystem-safe slug: runs of non-alphanumerics collapse
/// to one `-`, none at either end, and `x` if nothing is left. Used for
/// job labels, snapshot and artifact file names, and store run ids.
pub fn slugify(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut dash = false;
    for c in s.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
            dash = false;
        } else if !dash && !out.is_empty() {
            out.push('-');
            dash = true;
        }
    }
    while out.ends_with('-') {
        out.pop();
    }
    if out.is_empty() {
        out.push('x');
    }
    out
}

/// One journal line: schema version, key, and the job's result as an
/// embedded JSON string (kept opaque so the journal layer does not need
/// to know campaign result types).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord {
    pub v: u32,
    pub key: JobKey,
    /// [`STATE_DONE`] or [`STATE_CHECKPOINTED`].
    pub state: String,
    pub payload: String,
}

/// Statistics from loading an existing journal file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalLoadStats {
    /// Records accepted on load: completions and checkpoint markers.
    pub loaded: usize,
    /// Damaged lines: not JSON (a torn tail, corruption), no `v`, or
    /// the current `v` on a line that is not a record.
    pub torn: usize,
    /// Records stamped with another schema version (or an unknown
    /// `state`): skipped, so their jobs re-run.
    pub wrong_version: usize,
    /// 1-based line number of the first damaged line, if any. Only the
    /// damaged lines themselves are lost.
    pub first_damaged_line: Option<usize>,
    /// `.tmp` litter files reaped from the journal directory on open
    /// (leftovers of a crash between an atomic write and its rename).
    pub reaped_tmp: usize,
}

impl JournalLoadStats {
    /// Whether the journal file showed any damage (torn or corrupt
    /// lines) on load. Schema-version skew is not damage.
    pub fn damaged(&self) -> bool {
        self.first_damaged_line.is_some()
    }
}

/// Append-only JSONL journal living at `<dir>/journal.jsonl`.
///
/// All I/O goes through a [`Vfs`] handle so the chaos harness can
/// inject environment faults; production callers use [`Journal::open`],
/// which binds the real filesystem.
pub struct Journal {
    log: AppendLog,
    records: BTreeMap<JobKey, String>,
    load_stats: JournalLoadStats,
}

impl Journal {
    /// File name used inside the campaign directory.
    pub const FILE_NAME: &'static str = "journal.jsonl";

    /// Open (creating if absent) the journal in `dir`, replaying any
    /// existing records. Damaged lines are skipped and counted as
    /// `torn`; records with a different schema version are counted as
    /// `wrong_version`. When the same key appears more than once, the
    /// later record wins.
    pub fn open(dir: &Path) -> Result<Journal, JobError> {
        Self::open_in(Arc::new(RealFs), dir)
    }

    /// [`Journal::open`] against an explicit [`Vfs`] — the seam the
    /// chaos harness uses to torture the journal. Also reaps any `.tmp`
    /// litter a crashed atomic write left in `dir` (counted in
    /// [`JournalLoadStats::reaped_tmp`]); the sweep is safe here
    /// because a journal directory has exactly one writer, opened
    /// before any job runs.
    pub fn open_in(vfs: Arc<dyn Vfs>, dir: &Path) -> Result<Journal, JobError> {
        vfs.create_dir_all(dir).map_err(io_err)?;
        let reaped_tmp = sweep_tmp_files(vfs.as_ref(), dir, None).unwrap_or(0);
        let (log, lines, mut damage) =
            AppendLog::open_in(vfs.clone(), dir.join(Self::FILE_NAME)).map_err(io_err)?;
        if !vfs.exists(log.path()) {
            // Create the (empty) journal eagerly so the campaign
            // directory is observable as soon as the journal opens.
            vfs.append(log.path(), b"").map_err(io_err)?;
        }
        let mut records = BTreeMap::new();
        let (mut loaded, mut wrong_version) = (0, 0);
        for (line, value) in lines {
            match value.get("v").and_then(Value::as_u64) {
                None => damage.mark(line),
                Some(v) if v != u64::from(JOURNAL_SCHEMA_VERSION) => wrong_version += 1,
                Some(_) => match serde::json::from_value::<JournalRecord>(&value) {
                    Err(_) => damage.mark(line),
                    Ok(rec) if rec.state == STATE_DONE => {
                        records.insert(rec.key, rec.payload);
                        loaded += 1;
                    }
                    Ok(rec) if rec.state == STATE_CHECKPOINTED => loaded += 1,
                    // Unknown state from a future minor change: ignore
                    // the record rather than misread it.
                    Ok(_) => wrong_version += 1,
                },
            }
        }
        Ok(Journal {
            log,
            records,
            load_stats: JournalLoadStats {
                loaded,
                torn: damage.count,
                wrong_version,
                first_damaged_line: damage.first_line,
                reaped_tmp,
            },
        })
    }

    pub fn path(&self) -> &Path {
        self.log.path()
    }

    pub fn load_stats(&self) -> JournalLoadStats {
        self.load_stats
    }

    /// Number of distinct keys currently replayable.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Raw payload JSON for `key`, if journaled.
    pub fn lookup(&self, key: &JobKey) -> Option<&str> {
        self.records.get(key).map(|s| s.as_str())
    }

    /// Decode a journaled payload into its result type.
    pub fn decode<R: Deserialize>(&self, key: &JobKey) -> Option<Result<R, JobError>> {
        self.lookup(key).map(|payload| {
            serde::json::from_str::<R>(payload).map_err(|e| JobError::Io {
                detail: format!("journal payload for {key} failed to decode: {e:?}"),
            })
        })
    }

    fn append<R: Serialize>(
        &mut self,
        key: &JobKey,
        state: &str,
        body: &R,
    ) -> Result<String, JobError> {
        let rec = JournalRecord {
            v: JOURNAL_SCHEMA_VERSION,
            key: key.clone(),
            state: state.to_string(),
            payload: serde::json::to_string(body),
        };
        self.log.append(&rec).map_err(io_err)?;
        Ok(rec.payload)
    }

    /// Append one completed job. The record is written as a single line
    /// and flushed before returning, so a later crash cannot lose it.
    pub fn record<R: Serialize>(&mut self, key: &JobKey, result: &R) -> Result<(), JobError> {
        let payload = self.append(key, STATE_DONE, result)?;
        self.records.insert(key.clone(), payload);
        Ok(())
    }

    /// Append a mid-run checkpoint marker for `key`. The payload is
    /// campaign-defined — typically the snapshot cycle — and never
    /// replays as a result; resume finds the snapshot itself through
    /// [`SnapshotStore::load_latest_valid`](crate::SnapshotStore::load_latest_valid).
    pub fn record_checkpoint<R: Serialize>(
        &mut self,
        key: &JobKey,
        checkpoint: &R,
    ) -> Result<(), JobError> {
        self.append(key, STATE_CHECKPOINTED, checkpoint).map(drop)
    }
}

fn io_err(e: std::io::Error) -> JobError {
    JobError::Io {
        detail: e.to_string(),
    }
}

/// FNV-1a over the canonical text of a campaign configuration — the
/// standard way to derive [`JobKey::config_hash`].
pub fn fnv1a(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::{self, OpenOptions};
    use std::io::Write;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("sim-harness-journal").join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn key(seed: u64) -> JobKey {
        JobKey::new("bench-baseline", "icount", seed, fnv1a("cfg"))
    }

    #[test]
    fn roundtrip_and_replay() {
        let dir = scratch("roundtrip_and_replay");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.record(&key(1), &"alpha".to_string()).unwrap();
            j.record(&key(2), &"beta".to_string()).unwrap();
        }
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(j.load_stats().loaded, 2);
        assert_eq!(j.decode::<String>(&key(1)).unwrap().unwrap(), "alpha");
        assert_eq!(j.decode::<String>(&key(2)).unwrap().unwrap(), "beta");
        assert!(j.lookup(&key(3)).is_none());
    }

    #[test]
    fn later_record_wins() {
        let dir = scratch("later_record_wins");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.record(&key(1), &"old".to_string()).unwrap();
            j.record(&key(1), &"new".to_string()).unwrap();
        }
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(j.decode::<String>(&key(1)).unwrap().unwrap(), "new");
    }

    #[test]
    fn torn_tail_line_is_discarded() {
        let dir = scratch("torn_tail_line_is_discarded");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.record(&key(1), &"kept".to_string()).unwrap();
        }
        // Simulate a crash mid-append: half a record, no newline.
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(Journal::FILE_NAME))
            .unwrap();
        f.write_all(b"{\"v\":1,\"key\":{\"exhi").unwrap();
        drop(f);

        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(j.load_stats().torn, 1);
        assert_eq!(j.decode::<String>(&key(1)).unwrap().unwrap(), "kept");
    }

    #[test]
    fn wrong_schema_version_is_skipped() {
        let dir = scratch("wrong_schema_version_is_skipped");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.record(&key(1), &"v1".to_string()).unwrap();
        }
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(Journal::FILE_NAME))
            .unwrap();
        let future = JournalRecord {
            v: JOURNAL_SCHEMA_VERSION + 1,
            key: key(2),
            state: STATE_DONE.to_string(),
            payload: "\"future\"".to_string(),
        };
        let mut line = serde::json::to_string(&future);
        line.push('\n');
        f.write_all(line.as_bytes()).unwrap();
        drop(f);

        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(j.load_stats().wrong_version, 1);
        assert!(j.lookup(&key(2)).is_none());
    }

    #[test]
    fn v1_records_without_state_count_as_wrong_version() {
        let dir = scratch("v1_records_without_state");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.record(&key(1), &"current".to_string()).unwrap();
        }
        // A v1-era line: valid JSON, version stamp, but no `state`
        // field. It must be classified as an old schema, not a torn
        // write, and must not replay.
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(Journal::FILE_NAME))
            .unwrap();
        f.write_all(
            b"{\"v\":1,\"key\":{\"exhibit\":\"bench-baseline\",\"scheme\":\"icount\",\
              \"seed\":9,\"config_hash\":1},\"payload\":\"\\\"old\\\"\"}\n",
        )
        .unwrap();
        drop(f);

        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(j.load_stats().wrong_version, 1);
        assert_eq!(j.load_stats().torn, 0);
        assert!(j.lookup(&key(9)).is_none());
    }

    #[test]
    fn checkpoint_roundtrips_until_done_supersedes() {
        let dir = scratch("checkpoint_roundtrips");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.record_checkpoint(&key(1), &"cycle-10000".to_string())
                .unwrap();
            j.record_checkpoint(&key(2), &"cycle-10000".to_string())
                .unwrap();
            // A marker is not a result, in memory or on reload.
            assert!(j.lookup(&key(2)).is_none());
            j.record(&key(2), &"result".to_string()).unwrap();
        }
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.load_stats().loaded, 3, "markers load as records");
        // The finished job replays its result; the running one nothing.
        assert_eq!(j.decode::<String>(&key(2)).unwrap().unwrap(), "result");
        assert!(j.lookup(&key(1)).is_none());
        assert_eq!(j.len(), 1);
    }

    #[test]
    fn torn_tail_then_two_records_replays_both() {
        let dir = scratch("torn_tail_then_two_records");
        Journal::open(&dir)
            .unwrap()
            .record(&key(1), &"before".to_string())
            .unwrap();
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(Journal::FILE_NAME))
            .unwrap();
        f.write_all(b"{\"v\":2,\"key\":{\"exhi").unwrap();
        drop(f);
        {
            // The resumed campaign's first appends seal the torn tail.
            let mut j = Journal::open(&dir).unwrap();
            j.record(&key(2), &"after-1".to_string()).unwrap();
            j.record(&key(3), &"after-2".to_string()).unwrap();
        }
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.len(), 3);
        assert_eq!(j.load_stats().torn, 1);
        assert_eq!(j.load_stats().first_damaged_line, Some(2));
        assert_eq!(j.decode::<String>(&key(2)).unwrap().unwrap(), "after-1");
        assert_eq!(j.decode::<String>(&key(3)).unwrap().unwrap(), "after-2");
    }

    #[test]
    fn line_without_a_current_record_is_damage() {
        let dir = scratch("line_without_a_current_record");
        Journal::open(&dir)
            .unwrap()
            .record(&key(1), &"kept".to_string())
            .unwrap();
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(Journal::FILE_NAME))
            .unwrap();
        // Valid JSON, but no version stamp; then a v2 stamp on a line
        // that is not a v2 record.
        f.write_all(b"{\"key\":1}\n{\"v\":2,\"payload\":\"x\"}\n")
            .unwrap();
        drop(f);
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(j.load_stats().torn, 2);
        assert_eq!(j.load_stats().wrong_version, 0);
        assert_eq!(j.load_stats().first_damaged_line, Some(2));
    }

    #[test]
    fn slug_is_filesystem_safe() {
        let k = JobKey::new("fault-inject", "DVM/aggr", 7, 0xdead_beef);
        let slug = k.slug();
        assert_eq!(slug, "fault-inject-dvm-aggr-s7-cdeadbeef");
        assert!(slug.chars().all(|c| c.is_ascii_alphanumeric() || c == '-'));
    }

    #[test]
    fn fnv1a_is_stable() {
        // Reference vectors for the 64-bit FNV-1a parameters.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a("a"), fnv1a("b"));
        assert_eq!(fnv1a("campaign"), fnv1a("campaign"));
    }
}
