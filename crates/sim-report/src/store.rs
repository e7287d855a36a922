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
//! The index mirrors the harness journal's durability contract: records
//! are appended one line at a time, a torn final line (crash or SIGINT
//! mid-append) is tolerated on load, and an unknown `schema_version`
//! anywhere is a typed, fatal [`ReportError::UnknownSchema`] — a store
//! written by a newer layout must be rejected, not misread.

use serde::{Deserialize, Serialize};
use sim_chaos::{RealFs, Vfs};
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
    /// A non-final index line (or an artifact) failed to parse.
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
    fs: Arc<dyn Vfs>,
    records: Vec<RunRecord>,
    /// True when the final index line was torn (unparseable) and was
    /// dropped on load — the crash-mid-append case.
    pub torn_tail: bool,
}

impl fmt::Debug for RunStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunStore")
            .field("root", &self.root)
            .field("records", &self.records.len())
            .field("torn_tail", &self.torn_tail)
            .finish()
    }
}

impl RunStore {
    pub const INDEX_FILE: &'static str = "runs.jsonl";
    pub const ARTIFACT_DIR: &'static str = "artifacts";

    /// Open (creating if missing) the store at `root` and load its
    /// index. A torn final line is tolerated and flagged; an unknown
    /// schema version or a torn *middle* line is a typed error.
    pub fn open(root: impl Into<PathBuf>) -> Result<RunStore, ReportError> {
        Self::open_in(Arc::new(RealFs), root)
    }

    /// [`RunStore::open`] against an explicit [`Vfs`] — the seam the
    /// chaos harness uses to torture the index. The index is read as
    /// raw bytes and decoded lossily so read-time bit-rot degrades to a
    /// typed per-line parse failure, never a whole-store I/O error.
    pub fn open_in(vfs: Arc<dyn Vfs>, root: impl Into<PathBuf>) -> Result<RunStore, ReportError> {
        let root = root.into();
        vfs.create_dir_all(&root)?;
        let index = root.join(Self::INDEX_FILE);
        let mut records = Vec::new();
        let mut torn_tail = false;
        if vfs.exists(&index) {
            let bytes = vfs.read(&index)?;
            let text = String::from_utf8_lossy(&bytes);
            let lines: Vec<&str> = text.lines().collect();
            for (i, line) in lines.iter().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                let what = format!("{}:{}", index.display(), i + 1);
                let value = match serde::json::parse(line) {
                    Ok(v) => v,
                    Err(e) => {
                        if i + 1 == lines.len() {
                            torn_tail = true; // crash mid-append: drop the tail
                            continue;
                        }
                        return Err(ReportError::Parse {
                            what,
                            detail: format!("{e:?}"),
                        });
                    }
                };
                let found = value
                    .get("schema_version")
                    .and_then(|v| v.as_u64())
                    .ok_or_else(|| ReportError::Parse {
                        what: what.clone(),
                        detail: "record has no schema_version".to_string(),
                    })? as u32;
                check_schema(&what, found, REPORT_SCHEMA_VERSION)?;
                let record: RunRecord =
                    serde::json::from_value(&value).map_err(|e| ReportError::Parse {
                        what,
                        detail: format!("{e:?}"),
                    })?;
                records.push(record);
            }
        }
        Ok(RunStore {
            root,
            fs: vfs,
            records,
            torn_tail,
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

    /// Sequence number for the next record (`r{seq:05}-...` ids).
    pub fn next_seq(&self) -> u64 {
        self.records.len() as u64
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
        let mut line = serde::json::to_string(&record);
        line.push('\n');
        self.fs
            .append(&self.root.join(Self::INDEX_FILE), line.as_bytes())?;
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

/// Lowercase, filesystem-safe slug (non-alphanumerics collapse to `-`),
/// used for store run ids.
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
        assert!(!back.torn_tail);
        assert_eq!(back.records(), store.records());
        assert_eq!(back.next_batch(), 2);
        assert!(back.get(&store.records()[1].id).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_tolerated_but_torn_middle_is_not() {
        let dir = tmp("torn");
        let mut store = RunStore::open(&dir).unwrap();
        store.append(sample_record(0, "baseline", 0)).unwrap();
        let index = dir.join(RunStore::INDEX_FILE);
        // Crash mid-append: a half-written final line.
        let mut text = std::fs::read_to_string(&index).unwrap();
        text.push_str("{\"schema_version\":1,\"id\":\"r0");
        std::fs::write(&index, &text).unwrap();
        let back = RunStore::open(&dir).unwrap();
        assert!(back.torn_tail);
        assert_eq!(back.records().len(), 1);

        // The same garbage mid-file is corruption, not a torn tail.
        let mut lines: Vec<String> = std::fs::read_to_string(&index)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        lines.insert(0, "{\"schema_version\":1,\"id\":\"r0".to_string());
        std::fs::write(&index, lines.join("\n")).unwrap();
        match RunStore::open(&dir) {
            Err(ReportError::Parse { .. }) => {}
            other => panic!("expected Parse error, got {other:?}"),
        }
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
