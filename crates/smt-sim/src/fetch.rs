//! SMT fetch policies: ICOUNT, STALL, FLUSH, DG and PDG.
//!
//! All five share ICOUNT's thread ordering (fewest in-flight instructions
//! first — Tullsen et al., ISCA 1996) and differ in when they *gate* a
//! thread or *flush* it:
//!
//! * **ICOUNT** — ordering only.
//! * **STALL** (Tullsen & Brown, MICRO 2001) — stop fetching for a thread
//!   with an outstanding L2-missing load.
//! * **FLUSH** (same paper) — additionally roll the thread back past the
//!   missing load, freeing every pipeline resource it held, and keep it
//!   fetch-blocked until the miss returns. The rollback itself is
//!   performed by the pipeline ([`flush_on_l2_miss`](FetchPolicy::flush_on_l2_miss)).
//! * **DG** (El-Moursy & Albonesi, HPCA 2003) — gate a thread once its
//!   outstanding L1D misses exceed a threshold.
//! * **PDG** — gate on *predicted* outstanding misses, using a per-thread
//!   2-bit miss predictor indexed by load PC, trained at execute.

use crate::dispatch::ThreadView;
use micro_isa::{DynSeq, Pc, ThreadId};
use sim_snapshot::{SnapError, SnapReader, SnapWriter};

/// Machine state visible to fetch policies (per-thread).
#[derive(Debug, Clone, Copy)]
pub struct FetchView<'a> {
    pub now: u64,
    pub threads: &'a [ThreadView],
}

/// Which built-in policy a box was made from (used by experiment naming).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FetchPolicyKind {
    Icount,
    Stall,
    Flush,
    Dg,
    Pdg,
}

impl FetchPolicyKind {
    pub const ALL: [FetchPolicyKind; 5] = [
        FetchPolicyKind::Icount,
        FetchPolicyKind::Stall,
        FetchPolicyKind::Flush,
        FetchPolicyKind::Dg,
        FetchPolicyKind::Pdg,
    ];

    pub fn label(self) -> &'static str {
        match self {
            FetchPolicyKind::Icount => "ICOUNT",
            FetchPolicyKind::Stall => "STALL",
            FetchPolicyKind::Flush => "FLUSH",
            FetchPolicyKind::Dg => "DG",
            FetchPolicyKind::Pdg => "PDG",
        }
    }

    /// Instantiate the policy.
    pub fn build(self) -> Box<dyn FetchPolicy> {
        match self {
            FetchPolicyKind::Icount => Box::new(Icount),
            FetchPolicyKind::Stall => Box::new(Stall),
            FetchPolicyKind::Flush => Box::new(Flush),
            FetchPolicyKind::Dg => Box::new(DataGating::default()),
            FetchPolicyKind::Pdg => Box::new(PredictiveDataGating::default()),
        }
    }
}

/// A fetch policy: thread ordering + gating (+ optional flush trigger).
pub trait FetchPolicy {
    fn name(&self) -> &'static str;
    fn kind(&self) -> FetchPolicyKind;

    /// Thread priority order for this cycle (ICOUNT by default).
    ///
    /// Not called on fast-forwarded cycles: the answer must depend only
    /// on `view` (its `now` excepted) and on state the `on_load_*`
    /// events update, so a cycle in which nothing moved repeats it.
    fn thread_order(&mut self, view: &FetchView) -> Vec<ThreadId> {
        icount_order(view)
    }

    /// Is thread `tid` fetch-gated this cycle? Same contract as
    /// [`Self::thread_order`]: not called on fast-forwarded cycles.
    fn gate(&self, _view: &FetchView, _tid: ThreadId) -> bool {
        false
    }

    /// Should the pipeline roll a thread back (FLUSH-style) when one of
    /// its loads misses the L2?
    fn flush_on_l2_miss(&self) -> bool {
        false
    }

    /// A load was fetched (PDG tracks predicted misses from here).
    fn on_load_fetched(&mut self, _tid: ThreadId, _seq: DynSeq, _pc: Pc) {}

    /// A load issued and its cache access resolved (training hook).
    fn on_load_issued(&mut self, _tid: ThreadId, _pc: Pc, _l1_miss: bool) {}

    /// A load finished or was squashed (PDG releases its tracking).
    fn on_load_gone(&mut self, _tid: ThreadId, _seq: DynSeq) {}

    /// Serialize mutable policy state (stateless policies write nothing).
    fn save_state(&self, _w: &mut SnapWriter) {}

    /// Restore mutable policy state saved by [`Self::save_state`].
    fn restore_state(&mut self, _r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        Ok(())
    }
}

/// ICOUNT ordering: fewest in-flight instructions first; ties by thread
/// id for determinism. Flush-blocked threads are excluded (they cannot
/// fetch at all). Runs on every simulated cycle, so it allocates only
/// the result: it sorts positions in `view.threads`, then maps them to
/// thread ids.
pub fn icount_order(view: &FetchView) -> Vec<ThreadId> {
    let threads = view.threads;
    let mut order: Vec<ThreadId> = (0..threads.len())
        .filter(|&i| !threads[i].flush_blocked)
        .map(|i| i as ThreadId)
        .collect();
    order.sort_unstable_by_key(|&i| {
        let t = &threads[i as usize];
        (t.in_flight, t.tid)
    });
    for slot in &mut order {
        *slot = threads[*slot as usize].tid;
    }
    order
}

/// The default ICOUNT policy.
#[derive(Debug, Default, Clone, Copy)]
pub struct Icount;

impl FetchPolicy for Icount {
    fn name(&self) -> &'static str {
        "ICOUNT"
    }
    fn kind(&self) -> FetchPolicyKind {
        FetchPolicyKind::Icount
    }
}

/// STALL: ICOUNT + gate threads with outstanding L2-missing loads.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stall;

impl FetchPolicy for Stall {
    fn name(&self) -> &'static str {
        "STALL"
    }
    fn kind(&self) -> FetchPolicyKind {
        FetchPolicyKind::Stall
    }
    fn gate(&self, view: &FetchView, tid: ThreadId) -> bool {
        view.threads[tid as usize].l2_pending > 0
    }
}

/// FLUSH: STALL + pipeline rollback of the offending thread.
#[derive(Debug, Default, Clone, Copy)]
pub struct Flush;

impl FetchPolicy for Flush {
    fn name(&self) -> &'static str {
        "FLUSH"
    }
    fn kind(&self) -> FetchPolicyKind {
        FetchPolicyKind::Flush
    }
    fn gate(&self, view: &FetchView, tid: ThreadId) -> bool {
        // The rollback sets `flush_blocked`, which already blocks fetch;
        // gate on the miss too in case the rollback was skipped (e.g. all
        // other threads blocked).
        view.threads[tid as usize].l2_pending > 0
    }
    fn flush_on_l2_miss(&self) -> bool {
        true
    }
}

/// DG: gate a thread whose outstanding L1D misses exceed a threshold.
#[derive(Debug, Clone, Copy)]
pub struct DataGating {
    pub l1_miss_threshold: u32,
}

impl Default for DataGating {
    fn default() -> Self {
        DataGating {
            l1_miss_threshold: 2,
        }
    }
}

impl FetchPolicy for DataGating {
    fn name(&self) -> &'static str {
        "DG"
    }
    fn kind(&self) -> FetchPolicyKind {
        FetchPolicyKind::Dg
    }
    fn gate(&self, view: &FetchView, tid: ThreadId) -> bool {
        view.threads[tid as usize].l1d_pending >= self.l1_miss_threshold
    }
}

/// PDG: gate on *predicted* outstanding L1D misses.
pub struct PredictiveDataGating {
    pub threshold: u32,
    table_bits: u32,
    /// Per-thread 2-bit miss-prediction counters indexed by load PC.
    tables: Vec<Vec<u8>>,
    /// Per-thread in-flight loads predicted to miss.
    predicted: Vec<Vec<DynSeq>>,
}

impl Default for PredictiveDataGating {
    fn default() -> Self {
        PredictiveDataGating {
            threshold: 2,
            table_bits: 10,
            tables: Vec::new(),
            predicted: Vec::new(),
        }
    }
}

impl PredictiveDataGating {
    fn ensure_thread(&mut self, tid: ThreadId) {
        let need = tid as usize + 1;
        while self.tables.len() < need {
            self.tables.push(vec![1u8; 1 << self.table_bits]); // weakly hit
            self.predicted.push(Vec::new());
        }
    }

    fn index(&self, pc: Pc) -> usize {
        (pc as usize) & ((1 << self.table_bits) - 1)
    }

    /// Predicted-outstanding-miss count for a thread (test hook).
    pub fn predicted_pending(&self, tid: ThreadId) -> usize {
        self.predicted
            .get(tid as usize)
            .map(|v| v.len())
            .unwrap_or(0)
    }
}

impl FetchPolicy for PredictiveDataGating {
    fn name(&self) -> &'static str {
        "PDG"
    }
    fn kind(&self) -> FetchPolicyKind {
        FetchPolicyKind::Pdg
    }

    fn gate(&self, _view: &FetchView, tid: ThreadId) -> bool {
        self.predicted_pending(tid) >= self.threshold as usize
    }

    fn on_load_fetched(&mut self, tid: ThreadId, seq: DynSeq, pc: Pc) {
        self.ensure_thread(tid);
        let idx = self.index(pc);
        if self.tables[tid as usize][idx] >= 2 {
            self.predicted[tid as usize].push(seq);
        }
    }

    fn on_load_issued(&mut self, tid: ThreadId, pc: Pc, l1_miss: bool) {
        self.ensure_thread(tid);
        let idx = self.index(pc);
        let c = &mut self.tables[tid as usize][idx];
        *c = if l1_miss {
            (*c + 1).min(3)
        } else {
            c.saturating_sub(1)
        };
    }

    fn on_load_gone(&mut self, tid: ThreadId, seq: DynSeq) {
        if let Some(list) = self.predicted.get_mut(tid as usize) {
            if let Some(pos) = list.iter().position(|&s| s == seq) {
                list.swap_remove(pos);
            }
        }
    }

    fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.tables);
        w.put(&self.predicted);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let tables: Vec<Vec<u8>> = r.get()?;
        let predicted: Vec<Vec<DynSeq>> = r.get()?;
        if tables.len() != predicted.len() {
            return Err(SnapError::Corrupt(
                "PDG tables/predicted thread counts disagree".into(),
            ));
        }
        let table_len = 1usize << self.table_bits;
        for t in &tables {
            if t.len() != table_len {
                return Err(SnapError::Corrupt(format!(
                    "PDG table size {} does not match configured {table_len}",
                    t.len()
                )));
            }
            if t.iter().any(|&c| c > 3) {
                return Err(SnapError::Corrupt("PDG 2-bit counter out of range".into()));
            }
        }
        self.tables = tables;
        self.predicted = predicted;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tv(tid: ThreadId, in_flight: usize, l2: u32, l1: u32, blocked: bool) -> ThreadView {
        ThreadView {
            tid,
            fetch_queue_len: 0,
            fetch_queue_ace: 0,
            l2_pending: l2,
            l1d_pending: l1,
            flush_blocked: blocked,
            in_flight,
            iq_occupancy: 0,
            rob_ace: 0,
        }
    }

    #[test]
    fn icount_orders_by_in_flight() {
        let threads = [
            tv(0, 30, 0, 0, false),
            tv(1, 5, 0, 0, false),
            tv(2, 10, 0, 0, false),
        ];
        let view = FetchView {
            now: 0,
            threads: &threads,
        };
        assert_eq!(icount_order(&view), vec![1, 2, 0]);
    }

    #[test]
    fn icount_excludes_flush_blocked() {
        let threads = [tv(0, 1, 0, 0, true), tv(1, 50, 0, 0, false)];
        let view = FetchView {
            now: 0,
            threads: &threads,
        };
        assert_eq!(icount_order(&view), vec![1]);
    }

    #[test]
    fn stall_gates_on_l2_pending() {
        let threads = [tv(0, 0, 1, 0, false), tv(1, 0, 0, 0, false)];
        let view = FetchView {
            now: 0,
            threads: &threads,
        };
        let p = Stall;
        assert!(p.gate(&view, 0));
        assert!(!p.gate(&view, 1));
        assert!(!p.flush_on_l2_miss());
    }

    #[test]
    fn flush_requests_rollback() {
        assert!(Flush.flush_on_l2_miss());
        assert!(!Icount.flush_on_l2_miss());
    }

    #[test]
    fn dg_gates_on_l1_threshold() {
        let threads = [tv(0, 0, 0, 2, false), tv(1, 0, 0, 1, false)];
        let view = FetchView {
            now: 0,
            threads: &threads,
        };
        let p = DataGating::default();
        assert!(p.gate(&view, 0));
        assert!(!p.gate(&view, 1));
    }

    #[test]
    fn pdg_learns_missing_loads() {
        let mut p = PredictiveDataGating::default();
        let threads = [tv(0, 0, 0, 0, false)];
        let view = FetchView {
            now: 0,
            threads: &threads,
        };
        // Cold: weakly-hit, nothing predicted.
        p.on_load_fetched(0, 1, 0x40);
        assert_eq!(p.predicted_pending(0), 0);
        // Train misses at this PC.
        p.on_load_issued(0, 0x40, true);
        p.on_load_issued(0, 0x40, true);
        // Now fetches of that PC are tracked as predicted misses.
        p.on_load_fetched(0, 2, 0x40);
        p.on_load_fetched(0, 3, 0x40);
        assert_eq!(p.predicted_pending(0), 2);
        assert!(p.gate(&view, 0));
        p.on_load_gone(0, 2);
        assert!(!p.gate(&view, 0));
        // Training hits drives the counter back down.
        p.on_load_issued(0, 0x40, false);
        p.on_load_issued(0, 0x40, false);
        p.on_load_issued(0, 0x40, false);
        p.on_load_fetched(0, 4, 0x40);
        assert_eq!(p.predicted_pending(0), 1, "only seq 3 left");
    }

    #[test]
    fn kinds_build_matching_policies() {
        for kind in FetchPolicyKind::ALL {
            let p = kind.build();
            assert_eq!(p.kind(), kind);
            assert_eq!(p.name(), kind.label());
        }
    }
}
