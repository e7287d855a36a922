//! Log robustness beyond the torn tail: arbitrary mid-file corruption
//! and truncation. The rule lives in [`AppendLog`], which the journal
//! and the run-store index share, so each property checks it there:
//! every line that lies fully before the damage loads intact, the
//! damage is reported typed ([`LogDamage`]), nothing panics, and a
//! damaged file never loads as clean. The journal-level assertions
//! check that the journal recovers the same records and reports the
//! same damage (`JournalLoadStats::first_damaged_line`).

use proptest::prelude::*;
use serde::Value;
use sim_harness::journal::{fnv1a, JobKey, Journal};
use sim_harness::{AppendLog, LogDamage, LogLines, RealFs};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("sim-harness-journal-damage")
        .join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn key(seed: u64) -> JobKey {
    JobKey::new("chaos-prop", "toy", seed, fnv1a("damage-cfg"))
}

/// A journal of `n` records, as the byte ranges `[start, end)` of each
/// line (including its newline) and the JSON value of each line.
struct Seeded {
    ranges: Vec<(usize, usize)>,
    values: Vec<Value>,
}

fn seed_journal(dir: &Path, n: usize) -> Seeded {
    {
        let mut j = Journal::open(dir).unwrap();
        for i in 0..n {
            j.record(&key(i as u64), &format!("payload-{i}")).unwrap();
        }
    }
    let text = fs::read_to_string(dir.join(Journal::FILE_NAME)).unwrap();
    let mut ranges = Vec::new();
    let mut start = 0usize;
    for line in text.split_inclusive('\n') {
        ranges.push((start, start + line.len()));
        start += line.len();
    }
    assert_eq!(ranges.len(), n);
    let values = text
        .lines()
        .map(|l| serde::json::parse(l).unwrap())
        .collect();
    Seeded { ranges, values }
}

/// The journal file loaded as a bare [`AppendLog`].
fn load_log(dir: &Path) -> (LogLines, LogDamage) {
    let path = dir.join(Journal::FILE_NAME);
    let (_, lines, damage) = AppendLog::open_in(Arc::new(RealFs), path).unwrap();
    (lines, damage)
}

/// After damaging the file, reload it as a log and as a journal and
/// check the recovery contract against the damage start offset.
fn assert_recovery(dir: &Path, seeded: &Seeded, damage_start: usize) {
    let clean_lines = seeded
        .ranges
        .iter()
        .take_while(|(_, end)| *end <= damage_start)
        .count();

    let (lines, damage) = load_log(dir); // must not panic
    for (i, value) in seeded.values.iter().enumerate().take(clean_lines) {
        assert!(
            lines.iter().any(|(n, v)| *n == i + 1 && v == value),
            "line {} (before damage) was lost; damage {damage:?}",
            i + 1
        );
    }
    // Either the damage is reported typed, or it was confined to the
    // *content* of a string — a corruption the line-level loader
    // cannot see (payload integrity belongs to the checksum layers
    // downstream), in which case every line must still parse.
    match damage.first_line {
        Some(first) => assert!(
            first > clean_lines,
            "first damaged line {first} points before the damage \
             (clean lines: {clean_lines}); damage {damage:?}"
        ),
        None => assert_eq!(lines.len(), seeded.ranges.len(), "lines lost silently"),
    }

    let j = Journal::open(dir).unwrap(); // must not panic
    let stats = j.load_stats();
    for i in 0..clean_lines {
        let got = j
            .decode::<String>(&key(i as u64))
            .unwrap_or_else(|| panic!("record {i} (before damage) was lost; stats {stats:?}"))
            .unwrap();
        assert_eq!(got, format!("payload-{i}"));
    }
    match stats.first_damaged_line {
        Some(first) => assert!(
            first > clean_lines,
            "first_damaged_line {first} points before the damage \
             (clean lines: {clean_lines}); stats {stats:?}"
        ),
        None => assert_eq!(
            stats.loaded,
            seeded.ranges.len(),
            "damage unreported yet lines were lost: {stats:?}"
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Overwrite an arbitrary mid-file range with garbage: everything
    /// before it is recovered, the damage is typed, no panic.
    #[test]
    fn garbage_overwrite_recovers_prefix(
        n in 3usize..10,
        pos_frac in 0.0f64..1.0,
        len in 1usize..40,
    ) {
        let dir = scratch(&format!("garbage_{n}_{len}_{}", (pos_frac * 1e6) as u64));
        let seeded = seed_journal(&dir, n);
        let path = dir.join(Journal::FILE_NAME);
        let mut bytes = fs::read(&path).unwrap();
        // Damage somewhere strictly inside the file, clamped so at
        // least one byte changes.
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        let end = (pos + len).min(bytes.len());
        for b in &mut bytes[pos..end] {
            *b = 0xff; // invalid UTF-8 and invalid JSON — unambiguous damage
        }
        fs::write(&path, &bytes).unwrap();
        assert_recovery(&dir, &seeded, pos);
    }

    /// Truncate the file at an arbitrary byte: lines before the cut
    /// are recovered; a cut through a line reports it damaged.
    #[test]
    fn truncation_recovers_prefix(n in 3usize..10, cut_frac in 0.0f64..1.0) {
        let dir = scratch(&format!("trunc_{n}_{}", (cut_frac * 1e6) as u64));
        let seeded = seed_journal(&dir, n);
        let ranges = &seeded.ranges;
        let path = dir.join(Journal::FILE_NAME);
        let bytes = fs::read(&path).unwrap();
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        // Skip cuts that land exactly on a line boundary — those leave
        // a shorter but *undamaged* journal, which is fine but not what
        // this property tests.
        prop_assume!(!ranges.iter().any(|(s, e)| cut == *s || cut == *e));
        fs::write(&path, &bytes[..cut]).unwrap();

        let (lines, damage) = load_log(&dir); // must not panic
        let clean_lines = ranges.iter().filter(|(_, end)| *end <= cut).count();
        prop_assert_eq!(lines.len(), clean_lines);
        prop_assert_eq!(damage, LogDamage { count: 1, first_line: Some(clean_lines + 1) });

        let j = Journal::open(&dir).unwrap(); // must not panic
        for (i, (_, end)) in ranges.iter().enumerate() {
            if *end <= cut {
                let got = j.decode::<String>(&key(i as u64)).unwrap().unwrap();
                prop_assert_eq!(got, format!("payload-{i}"));
            } else {
                prop_assert!(j.lookup(&key(i as u64)).is_none());
            }
        }
        prop_assert!(j.load_stats().damaged());
        prop_assert_eq!(j.load_stats().torn, 1);
    }
}

#[test]
fn mid_file_garbage_line_is_counted_and_located() {
    let dir = scratch("mid_file_garbage_line");
    let seeded = seed_journal(&dir, 5);
    let path = dir.join(Journal::FILE_NAME);
    let mut bytes = fs::read(&path).unwrap();
    // Stomp the head of line 3 (index 2) — structurally unparseable.
    let (start, _end) = seeded.ranges[2];
    for b in &mut bytes[start..start + 5] {
        *b = b'#';
    }
    fs::write(&path, &bytes).unwrap();

    // Lines 1, 2 (before) and 4, 5 (after) all load; only line 3 is lost.
    let (lines, damage) = load_log(&dir);
    let numbers: Vec<usize> = lines.iter().map(|(n, _)| *n).collect();
    assert_eq!(numbers, [1, 2, 4, 5]);
    assert_eq!(
        damage,
        LogDamage {
            count: 1,
            first_line: Some(3)
        }
    );

    let j = Journal::open(&dir).unwrap();
    let stats = j.load_stats();
    assert_eq!(stats.loaded, 4, "four clean lines survive");
    assert_eq!(stats.torn, 1);
    assert_eq!(stats.first_damaged_line, Some(3));
    for i in [0u64, 1, 3, 4] {
        assert_eq!(
            j.decode::<String>(&key(i)).unwrap().unwrap(),
            format!("payload-{i}")
        );
    }
    assert!(j.lookup(&key(2)).is_none());
}

#[test]
fn invalid_utf8_degrades_to_line_damage_not_total_loss() {
    let dir = scratch("invalid_utf8_degrades");
    let seeded = seed_journal(&dir, 4);
    let path = dir.join(Journal::FILE_NAME);
    let mut bytes = fs::read(&path).unwrap();
    // Rot a structural byte of line 2 (the quote opening the "v" field
    // name) into an invalid UTF-8 sequence.
    let (start, _end) = seeded.ranges[1];
    assert_eq!(bytes[start + 1], b'"');
    bytes[start + 1] = 0xfe;
    fs::write(&path, &bytes).unwrap();

    let (lines, damage) = load_log(&dir);
    assert_eq!(lines.len(), 3);
    assert_eq!(
        damage,
        LogDamage {
            count: 1,
            first_line: Some(2)
        }
    );

    let j = Journal::open(&dir).unwrap();
    assert_eq!(j.load_stats().loaded, 3);
    assert_eq!(j.load_stats().torn, 1);
    assert_eq!(j.load_stats().first_damaged_line, Some(2));
}
