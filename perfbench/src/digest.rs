//! Output digests and the pinned table they are checked against.
//!
//! Every simulation the benchmark runs is hashed from its simulated
//! outputs only — never from host times — so a speed-up that changes
//! what the model computes shows up as a failed run, not as a gain.
//! `digests.txt` pins one digest per (workload, key) for every seed the
//! benchmark ships; regenerate it with `perfbench pin` only when a
//! change is meant to alter the simulated results.

use smt_sim::SimStats;

/// FNV-1a (64-bit) over a stream of words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Hash a float by its exact bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of one simulation's outputs: cycles, per-thread commits,
/// squashed, fetched, L2 misses and flushes, plus the exact bits of
/// throughput IPC, harmonic IPC and IQ AVF.
pub fn sim_digest(stats: &SimStats, iq_avf: f64) -> u64 {
    let mut d = Digest::default();
    d.u64(stats.cycles);
    for &c in &stats.committed_per_thread {
        d.u64(c);
    }
    d.u64(stats.squashed)
        .u64(stats.fetched)
        .u64(stats.l2_misses)
        .u64(stats.flushes)
        .f64(stats.throughput_ipc())
        .f64(stats.harmonic_ipc())
        .f64(iq_avf);
    d.finish()
}

/// Digest of rendered text (exhibit tables, serialized baselines).
pub fn text_digest(text: &str) -> u64 {
    Digest::default().bytes(text.as_bytes()).finish()
}

const PINNED: &str = include_str!("../digests.txt");

/// How a digest compares with the pinned table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pin {
    Match,
    Mismatch,
    /// No digest is pinned for this key.
    Unverified,
}

/// Look `digest` up under `(workload, key)` in `table` (lines of
/// `workload key hex`; `#` starts a comment).
pub fn check_in(table: &str, workload: &str, key: &str, digest: u64) -> Pin {
    for line in table.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        let mut it = line.split_whitespace();
        let (Some(w), Some(k), Some(hex)) = (it.next(), it.next(), it.next()) else {
            continue;
        };
        if w == workload && k == key {
            return match u64::from_str_radix(hex, 16) {
                Ok(pinned) if pinned == digest => Pin::Match,
                _ => Pin::Mismatch,
            };
        }
    }
    Pin::Unverified
}

/// [`check_in`] against the shipped `digests.txt`.
pub fn check(workload: &str, key: &str, digest: u64) -> Pin {
    check_in(PINNED, workload, key, digest)
}

/// One line of `digests.txt`.
pub fn pin_line(workload: &str, key: &str, digest: u64) -> String {
    format!("{workload} {key} {digest:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(text_digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(text_digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(text_digest("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn sim_digest_is_stable_and_sensitive_to_every_field() {
        let mut s = SimStats::new(2);
        s.cycles = 1000;
        s.committed_per_thread = vec![700, 300];
        s.squashed = 50;
        s.fetched = 1200;
        s.l2_misses = 7;
        s.flushes = 1;
        let base = sim_digest(&s, 0.25);
        assert_eq!(
            base,
            sim_digest(&s.clone(), 0.25),
            "same outputs, same digest"
        );
        let mut t = s.clone();
        t.squashed += 1;
        assert_ne!(sim_digest(&t, 0.25), base);
        let mut t = s.clone();
        t.committed_per_thread = vec![300, 700];
        assert_ne!(sim_digest(&t, 0.25), base, "per-thread order matters");
        assert_ne!(sim_digest(&s, 0.25 + f64::EPSILON), base, "AVF bits matter");
        // Host-side diagnostics are not outputs and must not move it.
        let mut t = s.clone();
        t.fetch_blocks = 99;
        assert_eq!(sim_digest(&t, 0.25), base);
    }

    #[test]
    fn pinned_table_lookup() {
        let table = "# comment\ncpu-tick baseline/salt3 00000000000000ff\n\n";
        assert_eq!(
            check_in(table, "cpu-tick", "baseline/salt3", 255),
            Pin::Match
        );
        assert_eq!(
            check_in(table, "cpu-tick", "baseline/salt3", 254),
            Pin::Mismatch
        );
        assert_eq!(
            check_in(table, "cpu-tick", "visa/salt3", 255),
            Pin::Unverified
        );
        assert_eq!(
            check_in(table, "mem-govern", "baseline/salt3", 255),
            Pin::Unverified
        );
        assert_eq!(
            check_in(&pin_line("w", "k", 0xabc), "w", "k", 0xabc),
            Pin::Match
        );
    }
}
