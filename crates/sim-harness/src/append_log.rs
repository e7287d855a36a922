//! The one append-only JSON-lines log format, shared by the campaign
//! [`Journal`](crate::Journal) and the run-store index.
//!
//! One rule for damage: a line that is not valid JSON is damaged; it is
//! skipped and counted, and loading goes on, so one damaged line costs
//! only its own record. A log is *unsealed* when its last byte is not a
//! newline (a torn tail) or its last append returned an error; the next
//! append to an unsealed log starts with a newline, in the same write,
//! so a torn fragment never swallows the record written after it.
//!
//! What a parsed line means (schema versions, record shapes) is the
//! owner's business: it gets the intact lines as JSON values and can
//! [`LogDamage::mark`] the ones it cannot read.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::{Serialize, Value};
use sim_chaos::Vfs;

/// Damaged lines found while loading a log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogDamage {
    /// Lines skipped as damaged.
    pub count: usize,
    /// 1-based number of the first damaged line, if any.
    pub first_line: Option<usize>,
}

impl LogDamage {
    /// Count the 1-based `line` as damaged; the first line stays the
    /// smallest one marked.
    pub fn mark(&mut self, line: usize) {
        self.count += 1;
        self.first_line = Some(self.first_line.map_or(line, |first| first.min(line)));
    }
}

/// The intact lines of a log: (1-based line number, value) pairs.
pub type LogLines = Vec<(usize, Value)>;

/// An append-only JSON-lines file, read and written through a [`Vfs`].
pub struct AppendLog {
    path: PathBuf,
    fs: Arc<dyn Vfs>,
    sealed: bool,
}

impl AppendLog {
    /// Load the log at `path`: its intact lines and its damage. The
    /// file is decoded lossily, so bytes that are not UTF-8 damage their
    /// line, not the whole log; blank lines are neither records nor
    /// damage. A missing file reads as empty, and opening never creates
    /// it.
    pub fn open_in(
        fs: Arc<dyn Vfs>,
        path: PathBuf,
    ) -> io::Result<(AppendLog, LogLines, LogDamage)> {
        let bytes = if fs.exists(&path) {
            fs.read(&path)?
        } else {
            Vec::new()
        };
        let mut lines = Vec::new();
        let mut damage = LogDamage::default();
        for (i, line) in String::from_utf8_lossy(&bytes).lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match serde::json::parse(line) {
                Ok(value) => lines.push((i + 1, value)),
                Err(_) => damage.mark(i + 1),
            }
        }
        let sealed = bytes.last().is_none_or(|&b| b == b'\n');
        Ok((AppendLog { path, fs, sealed }, lines, damage))
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append `record` as one JSON line in one [`Vfs::append`] call,
    /// led by a newline when the log is unsealed.
    pub fn append<R: Serialize>(&mut self, record: &R) -> io::Result<()> {
        let mut line = if self.sealed {
            String::new()
        } else {
            "\n".to_string()
        };
        line.push_str(&serde::json::to_string(record));
        line.push('\n');
        let result = self.fs.append(&self.path, line.as_bytes());
        self.sealed = result.is_ok();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_chaos::{ChaosConfig, ChaosFs, FaultSpec, RealFs};
    use std::fs;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("sim-harness-append-log")
            .join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("log.jsonl")
    }

    fn open(path: &Path) -> (AppendLog, LogLines, LogDamage) {
        AppendLog::open_in(Arc::new(RealFs), path.to_path_buf()).unwrap()
    }

    fn ids(lines: &[(usize, Value)]) -> Vec<u64> {
        lines
            .iter()
            .map(|(_, v)| v.get("id").and_then(Value::as_u64).unwrap())
            .collect()
    }

    #[derive(Serialize)]
    struct Rec {
        id: u64,
    }

    #[test]
    fn missing_file_reads_empty_and_is_not_created() {
        let path = scratch("missing");
        let (_, lines, damage) = open(&path);
        assert!(lines.is_empty());
        assert_eq!(damage, LogDamage::default());
        assert!(!path.exists());
    }

    #[test]
    fn torn_tail_then_two_appends_loads_both_records() {
        let path = scratch("torn_tail");
        open(&path).0.append(&Rec { id: 1 }).unwrap();
        // A crash mid-append: half a record, no newline.
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"id\":");
        fs::write(&path, &bytes).unwrap();

        let (mut log, lines, damage) = open(&path);
        assert_eq!(ids(&lines), [1]);
        assert_eq!(damage.count, 1);
        log.append(&Rec { id: 2 }).unwrap();
        log.append(&Rec { id: 3 }).unwrap();

        let (_, lines, damage) = open(&path);
        assert_eq!(ids(&lines), [1, 2, 3]);
        assert_eq!(
            damage,
            LogDamage {
                count: 1,
                first_line: Some(2)
            }
        );
        assert_eq!(lines[1].0, 3, "the sealed record starts its own line");
    }

    #[test]
    fn failed_append_with_a_prefix_is_sealed_by_the_next_append() {
        let path = scratch("failed_append");
        let full = Arc::new(ChaosFs::new(ChaosConfig::new(
            7,
            FaultSpec {
                p_enospc: 1.0,
                ..FaultSpec::off()
            },
        )));
        let (mut log, _, _) = AppendLog::open_in(full, path.clone()).unwrap();
        // Device full: with this seed a torn prefix of the line reaches
        // the disk, and the call fails.
        assert!(log.append(&Rec { id: 1 }).is_err());
        let torn = fs::read(&path).unwrap();
        assert!(!torn.is_empty() && !torn.ends_with(b"\n"), "{torn:?}");
        // The same log object, now on a healthy device.
        log.fs = Arc::new(RealFs);
        log.append(&Rec { id: 2 }).unwrap();

        let (_, lines, damage) = open(&path);
        assert_eq!(ids(&lines), [2]);
        assert_eq!(damage.count, 1);
    }

    #[test]
    fn blank_lines_are_neither_records_nor_damage() {
        let path = scratch("blank");
        fs::write(&path, "\n{\"id\":1}\n   \n\n{\"id\":2}\n").unwrap();
        let (_, lines, damage) = open(&path);
        assert_eq!(ids(&lines), [1, 2]);
        assert_eq!(lines[0].0, 2);
        assert_eq!(lines[1].0, 5);
        assert_eq!(damage, LogDamage::default());
    }

    #[test]
    fn mark_keeps_the_first_line_the_smallest() {
        let mut damage = LogDamage::default();
        damage.mark(7);
        damage.mark(3);
        damage.mark(9);
        assert_eq!(
            damage,
            LogDamage {
                count: 3,
                first_line: Some(3)
            }
        );
    }
}
