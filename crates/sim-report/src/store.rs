//! The run store: an append-only, schema-versioned index of completed
//! runs plus the artifact files they left behind.
//!
//! Layout under one store root:
//!
//! ```text
//! STORE/
//!   runs.jsonl          # one RunRecord per line, append-only
//!   artifacts/          # default artifact directory for registered runs
//!     run0000_*.json        (manifests)
//!     run0000_*.series.jsonl
//!     run0000_*.prom
//!     run0000_*.profile.json / *.collapsed
//!     BENCH.json / INJECT.json
//! ```
//!
//! The index is an [`AppendLog`], the harness journal's format: one
//! record per line, each appended and flushed in one write. A damaged
//! line — not JSON, no `schema_version`, or not a record — is skipped
//! and counted ([`RunStore::damage`]), and the next append seals a torn
//! tail, so a crash mid-append costs only the record being written. An
//! unknown `schema_version` anywhere is a typed, fatal
//! [`ReportError::UnknownSchema`]: a store written by a newer layout
//! must be rejected, not misread.

use serde::{Deserialize, Serialize, Value};
use sim_chaos::{RealFs, Vfs};
pub use sim_harness::slugify;
use sim_harness::{AppendLog, LogDamage};
use sim_metrics::summary::MetricsSummary;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Bump when the [`RunRecord`] layout changes incompatibly; loads
/// refuse records stamped with any other version.
pub const REPORT_SCHEMA_VERSION: u32 = 1;

/// Everything the store knows about one completed run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Stamped [`REPORT_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Store-unique run id, e.g. `r00003-opt1-mix-mix-a-visa-opt1-s1`.
    pub id: String,
    /// Registration batch: every CLI invocation that registers runs
    /// claims the next batch number, so "this campaign vs the previous
    /// one" is the selector `batch=N` vs `batch=N-1`.
    pub batch: u64,
    /// Producing mode: `exhibit`, `bench-baseline` or `fault-inject`.
    pub mode: String,
    /// Exhibit (or bench case) that requested the run.
    pub exhibit: String,
    pub mix: String,
    pub scheme: String,
    pub fetch: String,
    /// Workload-generation salt (the seed-set member).
    pub salt: u64,
    /// FNV-1a hash of everything that determines the run's meaning
    /// (budget, machine, scheme, mix); runs with different hashes are
    /// not comparable.
    pub config_hash: u64,
    /// Host wall-clock cost of the run in seconds (0 when unknown).
    pub wall_time_s: f64,
    /// Simulated cycles per host second (0 when unknown).
    pub cycles_per_sec: f64,
    pub iq_avf: f64,
    pub throughput_ipc: f64,
    pub harmonic_ipc: f64,
    /// `(kind, path)` pairs: the artifact files this run left behind.
    /// Paths are relative to the store root when the artifact lives
    /// under it, absolute otherwise. Kinds in use: `manifest`, `series`,
    /// `prom`, `profile`, `collapsed`, `trace`, `bench`, `inject`.
    pub artifacts: Vec<(String, String)>,
    /// Digest of the run's sim-metrics registry, when one was recorded.
    pub sim_metrics: Option<MetricsSummary>,
}

impl RunRecord {
    /// The first artifact path of the given kind, if any.
    pub fn artifact(&self, kind: &str) -> Option<&str> {
        self.artifacts
            .iter()
            .find(|(k, _)| k == kind)
            .map(|(_, p)| p.as_str())
    }
}

/// Typed failure of a store or artifact read.
#[derive(Debug)]
pub enum ReportError {
    /// A record or artifact carries a schema version this build does
    /// not understand.
    UnknownSchema {
        /// What was being read (file path or a description).
        what: String,
        found: u32,
        supported: u32,
    },
    /// An artifact (a manifest, a series file, a report) failed to
    /// parse. Damaged index lines are skipped, not fatal.
    Parse {
        what: String,
        detail: String,
    },
    Io(io::Error),
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::UnknownSchema {
                what,
                found,
                supported,
            } => write!(
                f,
                "{what}: unknown schema version {found} (this build supports v{supported})"
            ),
            ReportError::Parse { what, detail } => write!(f, "{what}: parse failure: {detail}"),
            ReportError::Io(e) => write!(f, "I/O failure: {e}"),
        }
    }
}

impl From<io::Error> for ReportError {
    fn from(e: io::Error) -> ReportError {
        ReportError::Io(e)
    }
}

/// Reject any schema version other than the supported one with the
/// typed error every ingestion path shares — also used by the CLI when
/// it reads versioned foreign artifacts (manifests, INJECT JSON).
pub fn check_schema(what: &str, found: u32, supported: u32) -> Result<(), ReportError> {
    if found == supported {
        Ok(())
    } else {
        Err(ReportError::UnknownSchema {
            what: what.to_string(),
            found,
            supported,
        })
    }
}

/// The open store: root directory plus the loaded index.
///
/// All index I/O goes through a [`Vfs`] handle so the chaos harness can
/// inject environment faults; production callers use [`RunStore::open`],
/// which binds the real filesystem.
pub struct RunStore {
    root: PathBuf,
    log: AppendLog,
    records: Vec<RunRecord>,
    damage: LogDamage,
}

impl fmt::Debug for RunStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunStore")
            .field("root", &self.root)
            .field("records", &self.records.len())
            .field("damage", &self.damage)
            .finish()
    }
}

impl RunStore {
    pub const INDEX_FILE: &'static str = "runs.jsonl";
    pub const ARTIFACT_DIR: &'static str = "artifacts";

    /// Open (creating the directory if missing) the store at `root` and
    /// load its index. Damaged lines are skipped and counted; an
    /// unknown schema version is a typed error.
    pub fn open(root: impl Into<PathBuf>) -> Result<RunStore, ReportError> {
        Self::open_in(Arc::new(RealFs), root)
    }

    /// [`RunStore::open`] against an explicit [`Vfs`] — the seam the
    /// chaos harness uses to torture the index.
    pub fn open_in(vfs: Arc<dyn Vfs>, root: impl Into<PathBuf>) -> Result<RunStore, ReportError> {
        let root = root.into();
        vfs.create_dir_all(&root)?;
        let (log, lines, mut damage) = AppendLog::open_in(vfs, root.join(Self::INDEX_FILE))?;
        let mut records = Vec::new();
        for (line, value) in lines {
            let Some(found) = value.get("schema_version").and_then(Value::as_u64) else {
                damage.mark(line);
                continue;
            };
            let what = format!("{}:{line}", log.path().display());
            let found = u32::try_from(found).unwrap_or(u32::MAX);
            check_schema(&what, found, REPORT_SCHEMA_VERSION)?;
            match serde::json::from_value(&value) {
                Ok(record) => records.push(record),
                Err(_) => damage.mark(line),
            }
        }
        Ok(RunStore {
            root,
            log,
            records,
            damage,
        })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The default artifact directory (`STORE/artifacts`).
    pub fn artifact_dir(&self) -> PathBuf {
        self.root.join(Self::ARTIFACT_DIR)
    }

    pub fn records(&self) -> &[RunRecord] {
        &self.records
    }

    pub fn get(&self, id: &str) -> Option<&RunRecord> {
        self.records.iter().find(|r| r.id == id)
    }

    /// Damaged index lines skipped on load.
    pub fn damage(&self) -> LogDamage {
        self.damage
    }

    /// Sequence number for the next record (`r{seq:05}-...` ids): one
    /// per record and per damaged line, so a new id never reuses the
    /// number of a line still in the index.
    pub fn next_seq(&self) -> u64 {
        (self.records.len() + self.damage.count) as u64
    }

    /// Batch number for a new registration pass: one past the largest
    /// recorded batch (starting at 1).
    pub fn next_batch(&self) -> u64 {
        self.records.iter().map(|r| r.batch).max().unwrap_or(0) + 1
    }

    /// Append one record to the index (stamping the schema version) and
    /// flush it to disk before returning.
    pub fn append(&mut self, mut record: RunRecord) -> Result<(), ReportError> {
        record.schema_version = REPORT_SCHEMA_VERSION;
        self.log.append(&record)?;
        self.records.push(record);
        Ok(())
    }

    /// Turn a filesystem path into the store's artifact-path string:
    /// relative when under the store root, absolute otherwise.
    pub fn relativize(&self, path: &Path) -> String {
        match path.strip_prefix(&self.root) {
            Ok(rel) => rel.display().to_string(),
            Err(_) => path.display().to_string(),
        }
    }

    /// Resolve a record's artifact of the given kind to a filesystem
    /// path (relative paths resolve against the store root).
    pub fn artifact_path(&self, record: &RunRecord, kind: &str) -> Option<PathBuf> {
        let raw = record.artifact(kind)?;
        let p = PathBuf::from(raw);
        Some(if p.is_absolute() {
            p
        } else {
            self.root.join(p)
        })
    }
}

#[cfg(test)]
pub(crate) fn sample_record(seq: u64, scheme: &str, salt: u64) -> RunRecord {
    RunRecord {
        schema_version: REPORT_SCHEMA_VERSION,
        id: format!("r{seq:05}-fig2-cpu-a-{}-s{salt}", slugify(scheme)),
        batch: 1,
        mode: "exhibit".to_string(),
        exhibit: "fig2".to_string(),
        mix: "CPU-A".to_string(),
        scheme: scheme.to_string(),
        fetch: "Icount".to_string(),
        salt,
        config_hash: 0xfeed,
        wall_time_s: 4.2,
        cycles_per_sec: 125_000.0,
        iq_avf: 0.31,
        throughput_ipc: 3.2,
        harmonic_ipc: 0.74,
        artifacts: vec![(
            "series".to_string(),
            format!(
                "artifacts/run{seq:04}_cpu-a_{}.series.jsonl",
                slugify(scheme)
            ),
        )],
        sim_metrics: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("smtsim_report_store_{name}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn open_append_reload_roundtrip() {
        let dir = tmp("roundtrip");
        let mut store = RunStore::open(&dir).unwrap();
        assert!(store.records().is_empty());
        assert_eq!(store.next_batch(), 1);
        store.append(sample_record(0, "baseline", 0)).unwrap();
        store.append(sample_record(1, "VISA+opt1", 1)).unwrap();
        assert_eq!(store.next_seq(), 2);

        let back = RunStore::open(&dir).unwrap();
        assert_eq!(back.damage(), LogDamage::default());
        assert_eq!(back.records(), store.records());
        assert_eq!(back.next_batch(), 2);
        assert!(back.get(&store.records()[1].id).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Append `text` to the index as it stands, without a newline.
    fn tear(dir: &Path, text: &str) {
        let index = dir.join(RunStore::INDEX_FILE);
        let mut bytes = std::fs::read(&index).unwrap();
        bytes.extend_from_slice(text.as_bytes());
        std::fs::write(&index, &bytes).unwrap();
    }

    const FRAGMENT: &str = "{\"schema_version\":1,\"id\":\"r0";

    #[test]
    fn torn_lines_are_skipped_and_counted_wherever_they_are() {
        let dir = tmp("torn");
        let mut store = RunStore::open(&dir).unwrap();
        store.append(sample_record(0, "baseline", 0)).unwrap();
        // Crash mid-append: a half-written final line.
        tear(&dir, FRAGMENT);
        let back = RunStore::open(&dir).unwrap();
        assert_eq!(back.records().len(), 1);
        assert_eq!(
            back.damage(),
            LogDamage {
                count: 1,
                first_line: Some(2)
            }
        );

        // The same garbage mid-file is one damaged line too.
        let index = dir.join(RunStore::INDEX_FILE);
        let mut lines: Vec<String> = std::fs::read_to_string(&index)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        lines.insert(0, FRAGMENT.to_string());
        std::fs::write(&index, lines.join("\n")).unwrap();
        let back = RunStore::open(&dir).unwrap();
        assert_eq!(back.records().len(), 1);
        assert_eq!(back.damage().count, 2);
        assert_eq!(back.damage().first_line, Some(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_then_two_appends_keeps_both_records() {
        let dir = tmp("torn_then_two");
        let mut store = RunStore::open(&dir).unwrap();
        store.append(sample_record(0, "baseline", 0)).unwrap();
        tear(&dir, FRAGMENT);
        let mut store = RunStore::open(&dir).unwrap();
        for (scheme, salt) in [("VISA", 1), ("DVM", 2)] {
            let seq = store.next_seq();
            store.append(sample_record(seq, scheme, salt)).unwrap();
        }
        let back = RunStore::open(&dir).unwrap();
        assert_eq!(back.records(), store.records());
        assert_eq!(back.records().len(), 3);
        assert_eq!(back.damage().count, 1);
        assert_eq!(back.damage().first_line, Some(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_middle_line_is_skipped_and_ids_stay_fresh() {
        let dir = tmp("damaged_middle");
        let mut store = RunStore::open(&dir).unwrap();
        for seq in 0..3 {
            store.append(sample_record(seq, "baseline", seq)).unwrap();
        }
        let index = dir.join(RunStore::INDEX_FILE);
        let mut lines: Vec<String> = std::fs::read_to_string(&index)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        // Line 2 rots; line 3 loses its schema stamp.
        lines[1] = "#rot#".to_string();
        lines[2] = lines[2].replace("\"schema_version\":1,", "");
        std::fs::write(&index, lines.join("\n") + "\n").unwrap();

        let back = RunStore::open(&dir).unwrap();
        assert_eq!(back.records().len(), 1);
        assert_eq!(
            back.damage(),
            LogDamage {
                count: 2,
                first_line: Some(2)
            }
        );
        let fresh = format!("r{:05}-", back.next_seq());
        assert!(
            store.records().iter().all(|r| !r.id.starts_with(&fresh)),
            "{fresh} reuses the id of a record still in the index"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_schema_version_is_a_typed_rejection() {
        let dir = tmp("schema");
        let mut store = RunStore::open(&dir).unwrap();
        store.append(sample_record(0, "baseline", 0)).unwrap();
        let index = dir.join(RunStore::INDEX_FILE);
        let text = std::fs::read_to_string(&index)
            .unwrap()
            .replace("\"schema_version\":1", "\"schema_version\":99");
        std::fs::write(&index, &text).unwrap();
        match RunStore::open(&dir) {
            Err(ReportError::UnknownSchema {
                found, supported, ..
            }) => {
                assert_eq!(found, 99);
                assert_eq!(supported, REPORT_SCHEMA_VERSION);
            }
            other => panic!("expected UnknownSchema, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_schema_helper_matches_exactly() {
        assert!(check_schema("x", 1, 1).is_ok());
        let err = check_schema("MANIFEST", 2, 1).unwrap_err();
        assert!(err.to_string().contains("unknown schema version 2"));
        assert!(check_schema("x", 0, 1).is_err());
    }

    #[test]
    fn artifact_paths_resolve_against_the_root() {
        let dir = tmp("artifacts");
        let store = RunStore::open(&dir).unwrap();
        let rec = sample_record(0, "baseline", 0);
        let resolved = store.artifact_path(&rec, "series").unwrap();
        assert!(resolved.starts_with(&dir));
        assert!(store.artifact_path(&rec, "profile").is_none());
        // Relativize round-trips a path under the root.
        let under = store.artifact_dir().join("x.json");
        assert_eq!(store.relativize(&under), "artifacts/x.json");
        let outside = PathBuf::from("/elsewhere/y.json");
        assert_eq!(store.relativize(&outside), "/elsewhere/y.json");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn slugify_normalizes() {
        assert_eq!(slugify("VISA+opt1"), "visa-opt1");
        assert_eq!(slugify("DVM (dynamic ratio)"), "dvm-dynamic-ratio");
        assert_eq!(slugify("CPU-A"), "cpu-a");
        assert_eq!(slugify(""), "x");
        assert_eq!(slugify("***"), "x");
    }
}
