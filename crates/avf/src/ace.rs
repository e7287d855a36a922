//! Ground-truth ACE/un-ACE classification.
//!
//! Works on the *committed* instruction stream of each thread (wrong-path
//! instructions never commit and are un-ACE by construction). The
//! algorithm keeps a sliding window of the last `window` committed
//! instructions per thread:
//!
//! 1. At commit, an instruction records its register *producers* (the
//!    most recent in-window writers of its sources) and refreshes the
//!    last-writer table with its own destination.
//! 2. ACE **sinks** — stores, program outputs and control decisions — are
//!    ACE by definition; committing one walks its producer closure and
//!    marks every reached instruction ACE.
//! 3. When an instruction slides out of the window its classification is
//!    final: if no sink reached it by then, it is dynamically dead →
//!    un-ACE. This is exactly the approximation of Mukherjee et al.'s
//!    40 000-instruction post-graduate analysis window.
//!
//! A window entry holds only what that walk needs — producer links as
//! backward distances, the written register, the ACE mark and the
//! last-read cycle — plus a `payload` the caller attaches and gets back
//! at finalization: the AVF collector attaches residency timing, the
//! offline profiler the PC.

use micro_isa::{OpClass, Reg, ThreadId};
use sim_snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use std::collections::VecDeque;

/// The paper's analysis-window size (instructions per thread).
pub const DEFAULT_ACE_WINDOW: usize = 40_000;

/// Entries reserved per thread up front: the whole window up to this
/// size, so the paper's window never regrows, while a very wide window
/// grows only as far as a run fills it.
const MAX_RESERVED: usize = 65_536;

/// `Entry::last_read` of a value no in-window instruction read.
const NEVER_READ: u64 = u64::MAX;

/// The per-instruction facts the dataflow analysis needs.
#[derive(Debug, Clone, Copy)]
pub struct AceInstRecord {
    pub tid: ThreadId,
    pub op: OpClass,
    pub dest: Option<Reg>,
    pub srcs: [Option<Reg>; 2],
    /// Commit timestamp (used for register-file lifetime tracking;
    /// functional callers may use the instruction index).
    pub commit_cycle: u64,
}

/// A finalized classification handed to the caller's sink.
#[derive(Debug)]
pub struct Finalized<P> {
    pub payload: P,
    pub ace: bool,
    /// The register the instruction wrote, if any.
    pub dest: Option<Reg>,
    /// Commit cycle of the last in-window reader of this instruction's
    /// result (None if never read) — the register-file live interval end.
    pub last_read_cycle: Option<u64>,
}

struct Entry<P> {
    payload: P,
    /// Commit cycle of the last in-window reader, or `NEVER_READ`.
    last_read: u64,
    /// Distance back (in this thread's commit order) to the producer of
    /// each source; 0 = no in-window producer.
    producers: [u32; 2],
    dest: Option<Reg>,
    ace: bool,
}

impl<P> Entry<P> {
    fn finalized(self) -> Finalized<P> {
        Finalized {
            payload: self.payload,
            ace: self.ace,
            dest: self.dest,
            last_read_cycle: (self.last_read != NEVER_READ).then_some(self.last_read),
        }
    }
}

/// Size of one window entry carrying payload `P`, for the per-caller
/// size guards: the entries are the analysis's whole working set.
pub(crate) const fn entry_size<P>() -> usize {
    std::mem::size_of::<Entry<P>>()
}

struct ThreadWindow<P> {
    /// Monotonic index of `entries.front()`.
    base: u64,
    entries: VecDeque<Entry<P>>,
    /// Most recent in-flight writer (monotonic index) per register.
    last_writer: [Option<u64>; micro_isa::reg::NUM_REGS],
}

impl<P> ThreadWindow<P> {
    fn new(window: usize) -> Self {
        ThreadWindow {
            base: 0,
            // `push` appends before it slides, so the window briefly
            // holds one entry more than its size.
            entries: VecDeque::with_capacity(window.min(MAX_RESERVED) + 1),
            last_writer: [None; micro_isa::reg::NUM_REGS],
        }
    }
}

/// Is `op` an ACE sink? Control decisions, stores and explicit outputs
/// all directly determine architecturally visible behaviour.
#[inline]
pub fn is_sink(op: OpClass) -> bool {
    op.is_control() || matches!(op, OpClass::Store | OpClass::Output)
}

/// The windowed ACE analyzer.
pub struct AceAnalyzer<P> {
    window: usize,
    threads: Vec<ThreadWindow<P>>,
    /// Scratch stack (window positions) for the producer-closure walk.
    walk: Vec<usize>,
}

impl<P> AceAnalyzer<P> {
    pub fn new(num_threads: usize, window: usize) -> AceAnalyzer<P> {
        assert!(window >= 1);
        // Producer distances never exceed the window and are stored as u32.
        assert!(window < u32::MAX as usize, "ACE window {window} too large");
        AceAnalyzer {
            window,
            threads: (0..num_threads)
                .map(|_| ThreadWindow::new(window))
                .collect(),
            walk: Vec::new(),
        }
    }

    pub fn window(&self) -> usize {
        self.window
    }

    /// Feed one committed instruction (per-thread program order).
    /// Instructions that slide out of the window are passed to
    /// `finalize`.
    pub fn push(
        &mut self,
        rec: AceInstRecord,
        payload: P,
        finalize: &mut impl FnMut(Finalized<P>),
    ) {
        let tw = &mut self.threads[rec.tid as usize];
        let idx = tw.base + tw.entries.len() as u64;

        // Resolve producers and update their last-read stamps.
        let mut producers = [0u32; 2];
        for (slot, src) in producers.iter_mut().zip(rec.srcs) {
            if let Some(reg) = src {
                if let Some(widx) = tw.last_writer[reg.flat_index()] {
                    if let Some(w) = widx
                        .checked_sub(tw.base)
                        .and_then(|pos| tw.entries.get_mut(pos as usize))
                    {
                        w.last_read = rec.commit_cycle;
                        *slot = (idx - widx) as u32;
                    }
                }
            }
        }
        let sink = is_sink(rec.op);
        if let Some(d) = rec.dest {
            tw.last_writer[d.flat_index()] = Some(idx);
        }
        tw.entries.push_back(Entry {
            payload,
            last_read: NEVER_READ,
            producers,
            dest: rec.dest,
            ace: sink, // sinks are ACE by definition; others start un-ACE
        });

        // A sink makes its entire producer closure ACE.
        if sink {
            debug_assert!(self.walk.is_empty());
            let pos = tw.entries.len() - 1;
            push_producers(&mut self.walk, pos, producers);
            while let Some(p) = self.walk.pop() {
                let e = &mut tw.entries[p];
                if e.ace {
                    continue;
                }
                e.ace = true;
                push_producers(&mut self.walk, p, e.producers);
            }
        }

        // Slide the window.
        while tw.entries.len() > self.window {
            let e = tw.entries.pop_front().unwrap();
            let idx = tw.base;
            tw.base += 1;
            // Retire stale last-writer references.
            if let Some(d) = e.dest {
                if tw.last_writer[d.flat_index()] == Some(idx) {
                    tw.last_writer[d.flat_index()] = None;
                }
            }
            finalize(e.finalized());
        }
    }

    /// Finalize everything still in flight (end of run).
    pub fn drain(&mut self, finalize: &mut impl FnMut(Finalized<P>)) {
        for tw in &mut self.threads {
            while let Some(e) = tw.entries.pop_front() {
                tw.base += 1;
                finalize(e.finalized());
            }
            tw.last_writer = [None; micro_isa::reg::NUM_REGS];
        }
    }
}

/// Queue the producers of the entry at window position `pos` that are
/// still in the window.
#[inline]
fn push_producers(walk: &mut Vec<usize>, pos: usize, producers: [u32; 2]) {
    for d in producers {
        let d = d as usize;
        if d != 0 && d <= pos {
            walk.push(pos - d);
        }
    }
}

impl<P: Snap> AceAnalyzer<P> {
    /// Serialize the full analysis state: per-thread window base, every
    /// in-flight entry (payload, last-read stamp, producer distances,
    /// written register, ACE mark) and the last-writer table. The `walk`
    /// scratch is always empty between pushes, so it is not stored.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put(&(self.window as u64));
        w.put(&(self.threads.len() as u64));
        for tw in &self.threads {
            w.put(&tw.base);
            w.put(&(tw.entries.len() as u64));
            for e in &tw.entries {
                e.payload.save(w);
                w.put(&e.last_read);
                w.put(&e.producers);
                w.put(&e.dest);
                w.put(&e.ace);
            }
            for slot in &tw.last_writer {
                w.put(slot);
            }
        }
    }

    /// Restore onto an analyzer constructed with the same thread count
    /// and window; both are validated against the stored values, and so
    /// is every link: a producer before the thread's first instruction
    /// or a last writer that is not yet in the window describes an
    /// impossible analysis and is refused.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let window = r.get_u64()? as usize;
        if window != self.window {
            return Err(SnapError::Corrupt(format!(
                "ACE window {} in snapshot, analyzer uses {}",
                window, self.window
            )));
        }
        let nt = r.get_u64()? as usize;
        if nt != self.threads.len() {
            return Err(SnapError::Corrupt(format!(
                "ACE analyzer has {} threads, snapshot stores {nt}",
                self.threads.len()
            )));
        }
        for tw in &mut self.threads {
            tw.base = r.get()?;
            let n = r.get_len()?;
            if n > window {
                return Err(SnapError::Corrupt(format!(
                    "{n} in-flight entries exceed the {window}-instruction window"
                )));
            }
            let end = tw
                .base
                .checked_add(n as u64)
                .ok_or_else(|| SnapError::Corrupt(format!("window base {} overflows", tw.base)))?;
            tw.entries.clear();
            for idx in tw.base..end {
                let e = Entry {
                    payload: P::load(r)?,
                    last_read: r.get()?,
                    producers: r.get()?,
                    dest: r.get()?,
                    ace: r.get()?,
                };
                if let Some(&d) = e.producers.iter().find(|&&d| d as u64 > idx) {
                    return Err(SnapError::Corrupt(format!(
                        "instruction {idx} links a producer {d} instructions back"
                    )));
                }
                tw.entries.push_back(e);
            }
            for slot in tw.last_writer.iter_mut() {
                *slot = r.get()?;
                if let Some(widx) = *slot {
                    if widx >= end {
                        return Err(SnapError::Corrupt(format!(
                            "last writer {widx} is not yet in the window ending at {end}"
                        )));
                    }
                }
            }
        }
        self.walk.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(op: OpClass, dest: Option<Reg>, srcs: [Option<Reg>; 2], cycle: u64) -> AceInstRecord {
        AceInstRecord {
            tid: 0,
            op,
            dest,
            srcs,
            commit_cycle: cycle,
        }
    }

    fn run(stream: Vec<AceInstRecord>, window: usize) -> Vec<(u64, bool)> {
        let mut az: AceAnalyzer<u64> = AceAnalyzer::new(1, window);
        let mut out = Vec::new();
        for (i, r) in stream.into_iter().enumerate() {
            az.push(r, i as u64, &mut |f| out.push((f.payload, f.ace)));
        }
        az.drain(&mut |f| out.push((f.payload, f.ace)));
        out.sort_unstable();
        out
    }

    #[test]
    fn value_reaching_store_is_ace() {
        let r1 = Reg::int(1);
        let out = run(
            vec![
                rec(OpClass::IAlu, Some(r1), [None, None], 0),
                rec(OpClass::Store, None, [Some(r1), None], 1),
            ],
            100,
        );
        assert_eq!(out, vec![(0, true), (1, true)]);
    }

    #[test]
    fn unread_value_is_dead() {
        let r1 = Reg::int(1);
        let out = run(
            vec![
                rec(OpClass::IAlu, Some(r1), [None, None], 0),
                rec(OpClass::IAlu, Some(r1), [None, None], 1), // overwrites
                rec(OpClass::Store, None, [Some(r1), None], 2),
            ],
            100,
        );
        // First write dead (overwritten unread); second reaches the store.
        assert_eq!(out, vec![(0, false), (1, true), (2, true)]);
    }

    #[test]
    fn transitive_chain_to_sink_is_ace() {
        let (a, b, c) = (Reg::int(1), Reg::int(2), Reg::int(3));
        let out = run(
            vec![
                rec(OpClass::IAlu, Some(a), [None, None], 0),
                rec(OpClass::IMul, Some(b), [Some(a), None], 1),
                rec(OpClass::FAlu, Some(c), [Some(b), None], 2),
                rec(OpClass::Output, None, [Some(c), None], 3),
            ],
            100,
        );
        assert!(out.iter().all(|&(_, ace)| ace));
    }

    #[test]
    fn dead_chain_stays_dead() {
        let (a, b) = (Reg::int(1), Reg::int(2));
        let out = run(
            vec![
                rec(OpClass::IAlu, Some(a), [None, None], 0),
                rec(OpClass::IAlu, Some(b), [Some(a), None], 1),
                // b never consumed by any sink.
            ],
            100,
        );
        assert_eq!(out, vec![(0, false), (1, false)]);
    }

    #[test]
    fn nop_is_unace_branch_is_ace() {
        let out = run(
            vec![
                rec(OpClass::Nop, None, [None, None], 0),
                rec(OpClass::CondBranch, None, [None, None], 1),
            ],
            100,
        );
        assert_eq!(out, vec![(0, false), (1, true)]);
    }

    #[test]
    fn branch_condition_chain_is_ace() {
        let a = Reg::int(1);
        let out = run(
            vec![
                rec(OpClass::IAlu, Some(a), [None, None], 0),
                rec(OpClass::CondBranch, None, [Some(a), None], 1),
            ],
            100,
        );
        assert_eq!(out, vec![(0, true), (1, true)]);
    }

    #[test]
    fn window_expiry_freezes_classification() {
        // Producer leaves a window of 2 before its consumer's sink
        // commits: the producer must finalize as un-ACE (the window
        // approximation), while in a larger window it would be ACE.
        let (a, b) = (Reg::int(1), Reg::int(2));
        let stream = || {
            vec![
                rec(OpClass::IAlu, Some(a), [None, None], 0),
                rec(OpClass::IAlu, Some(b), [Some(a), None], 1),
                rec(OpClass::Nop, None, [None, None], 2),
                rec(OpClass::Nop, None, [None, None], 3),
                rec(OpClass::Store, None, [Some(b), None], 4),
            ]
        };
        let small = run(stream(), 2);
        assert_eq!(small[0], (0, false), "producer expired before the sink");
        let large = run(stream(), 100);
        assert_eq!(large[0], (0, true));
        assert_eq!(large[1], (1, true));
    }

    #[test]
    fn loop_accumulator_all_iterations_ace() {
        // acc = acc + x each iteration; stored after the loop.
        let acc = Reg::int(5);
        let mut stream = Vec::new();
        for k in 0..10 {
            stream.push(rec(OpClass::IAlu, Some(acc), [Some(acc), None], k));
        }
        stream.push(rec(OpClass::Store, None, [Some(acc), None], 10));
        let out = run(stream, 100);
        assert!(out.iter().all(|&(_, ace)| ace), "{out:?}");
    }

    #[test]
    fn loop_overwrite_only_last_iteration_ace() {
        // m = x * y each iteration (overwrite, no carry); stored after.
        let m = Reg::int(6);
        let mut stream = Vec::new();
        for k in 0..10 {
            stream.push(rec(OpClass::IMul, Some(m), [None, None], k));
        }
        stream.push(rec(OpClass::Store, None, [Some(m), None], 10));
        let out = run(stream, 100);
        for (i, &(_, ace)) in out.iter().enumerate() {
            if i < 9 {
                assert!(!ace, "iteration {i} must be dead");
            } else {
                assert!(ace, "entry {i} must be ACE");
            }
        }
    }

    #[test]
    fn threads_are_independent() {
        let a = Reg::int(1);
        let mut az: AceAnalyzer<(u8, bool)> = AceAnalyzer::new(2, 10);
        let mut out = Vec::new();
        // Thread 0 writes r1 and never uses it; thread 1 stores its own r1.
        az.push(
            AceInstRecord {
                tid: 0,
                op: OpClass::IAlu,
                dest: Some(a),
                srcs: [None, None],
                commit_cycle: 0,
            },
            (0, false),
            &mut |_| {},
        );
        az.push(
            AceInstRecord {
                tid: 1,
                op: OpClass::Store,
                dest: None,
                srcs: [Some(a), None],
                commit_cycle: 1,
            },
            (1, true),
            &mut |_| {},
        );
        az.drain(&mut |f| out.push((f.payload.0, f.ace)));
        out.sort_unstable();
        // Thread 1's store must NOT have made thread 0's write ACE.
        assert_eq!(out, vec![(0, false), (1, true)]);
    }

    #[test]
    fn last_read_cycle_tracked() {
        let a = Reg::int(1);
        let mut az: AceAnalyzer<u64> = AceAnalyzer::new(1, 100);
        let mut reads = Vec::new();
        az.push(rec(OpClass::IAlu, Some(a), [None, None], 5), 0, &mut |_| {});
        az.push(
            rec(OpClass::Store, None, [Some(a), None], 9),
            1,
            &mut |_| {},
        );
        az.push(
            rec(OpClass::Store, None, [Some(a), None], 14),
            2,
            &mut |_| {},
        );
        az.drain(&mut |f| reads.push((f.payload, f.last_read_cycle)));
        reads.sort_unstable();
        assert_eq!(reads[0], (0, Some(14)), "last read at cycle 14");
        assert_eq!(reads[1], (1, None));
    }

    #[test]
    fn drain_flushes_everything() {
        let mut az: AceAnalyzer<u64> = AceAnalyzer::new(1, 1000);
        let mut count = 0;
        for k in 0..57 {
            az.push(rec(OpClass::Nop, None, [None, None], k), k, &mut |_| {
                count += 1
            });
        }
        az.drain(&mut |_| count += 1);
        assert_eq!(count, 57);
    }

    /// A one-thread, window-8 analyzer snapshot: entries from monotonic
    /// index `base` on with the given producer distances, and `r1_writer`
    /// as the last writer of r1.
    fn snapshot(base: u64, producers: &[[u32; 2]], r1_writer: Option<u64>) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put(&8u64);
        w.put(&1u64);
        w.put(&base);
        w.put(&(producers.len() as u64));
        for (k, p) in producers.iter().enumerate() {
            w.put(&(k as u64));
            w.put(&NEVER_READ);
            w.put(p);
            w.put(&Some(Reg::int(1)));
            w.put(&false);
        }
        for reg in 0..micro_isa::reg::NUM_REGS {
            w.put(&if reg == Reg::int(1).flat_index() {
                r1_writer
            } else {
                None
            });
        }
        w.into_bytes()
    }

    fn restore(bytes: &[u8]) -> Result<(), SnapError> {
        let mut az: AceAnalyzer<u64> = AceAnalyzer::new(1, 8);
        let mut r = SnapReader::new(bytes);
        az.restore_state(&mut r)?;
        assert_eq!(r.remaining(), 0, "snapshot layout out of step");
        Ok(())
    }

    #[test]
    fn restore_rejects_a_last_writer_not_yet_in_the_window() {
        // Entries 4 and 5 are in flight, so the next instruction is 6.
        restore(&snapshot(4, &[[0, 0], [1, 0]], Some(5))).unwrap();
        // A writer left behind the window is harmless: it is never read.
        restore(&snapshot(4, &[[0, 0], [1, 0]], Some(3))).unwrap();
        for future in [6, 7, u64::MAX] {
            let err = restore(&snapshot(4, &[[0, 0], [1, 0]], Some(future))).unwrap_err();
            assert!(matches!(err, SnapError::Corrupt(_)), "{future}: {err:?}");
        }
    }

    #[test]
    fn restore_rejects_a_producer_before_the_first_instruction() {
        restore(&snapshot(0, &[[0, 0], [1, 0]], None)).unwrap();
        // Instruction 4's producer 3 back (instruction 1) has left the
        // window; that is a normal state.
        restore(&snapshot(4, &[[3, 0], [1, 4]], None)).unwrap();
        for bad in [[0, 2], [2, 0], [0, u32::MAX]] {
            let err = restore(&snapshot(0, &[[0, 0], bad], None)).unwrap_err();
            assert!(matches!(err, SnapError::Corrupt(_)), "{bad:?}: {err:?}");
        }
        let err = restore(&snapshot(4, &[[5, 0]], None)).unwrap_err();
        assert!(matches!(err, SnapError::Corrupt(_)), "{err:?}");
    }
}
