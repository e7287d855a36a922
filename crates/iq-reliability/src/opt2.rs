//! Opt2 — L2-cache-miss-sensitive IQ resource allocation (paper
//! Figure 4).
//!
//! Capping IQ allocation (opt1) backfires under frequent L2 misses: the
//! ready queue and IPC both collapse during a miss, the Figure 3 table
//! therefore picks a small `IQL`, and when the miss returns there are too
//! few waiting instructions to refill the ready queue. Opt2 keeps opt1's
//! behaviour while the interval's L2-miss count stays at or below
//! `Tcache_miss`, and above it *escalates to the FLUSH fetch policy*: the
//! offending thread is rolled back past the missing load and its
//! resources handed to the others — vulnerability mitigation through
//! de-clogging rather than capping.
//!
//! The paper performed a sensitivity analysis and chose `Tcache_miss =
//! 16`; the threshold is a constructor parameter so the ablation bench
//! can reproduce that sweep.

use crate::opt1::{DynamicIqAllocator, IplRegionTable};
use micro_isa::ThreadId;
use sim_metrics::Metrics;
use sim_snapshot::{SnapError, SnapReader, SnapWriter};
use sim_trace::{GovernorEvent, TraceEvent, Tracer};
use smt_sim::{DispatchGovernor, GovernorView, IntervalSnapshot};

/// The paper's chosen L2-miss threshold (misses per 10 K-cycle interval).
pub const DEFAULT_TCACHE_MISS: u64 = 16;

/// The opt2 dispatch governor.
pub struct L2MissSensitiveAllocator {
    opt1: DynamicIqAllocator,
    tcache_miss: u64,
    /// Current interval decision: true = FLUSH mode, false = opt1 caps.
    flush_mode: bool,
    /// IQ-entry budget for a thread with an outstanding L2 miss while in
    /// FLUSH mode.
    miss_budget: usize,
    tracer: Tracer,
    metrics: Metrics,
}

impl L2MissSensitiveAllocator {
    pub fn new(table: IplRegionTable, iq_size: usize, tcache_miss: u64) -> Self {
        L2MissSensitiveAllocator {
            opt1: DynamicIqAllocator::new(table, iq_size),
            tcache_miss,
            flush_mode: false,
            miss_budget: (iq_size / 12).max(1),
            tracer: Tracer::off(),
            metrics: Metrics::off(),
        }
    }

    /// Override the FLUSH-mode IQ budget for L2-missing threads.
    pub fn with_miss_budget(mut self, budget: usize) -> Self {
        self.miss_budget = budget.max(1);
        self
    }

    /// Paper configuration: Figure 3 table + `Tcache_miss = 16`.
    pub fn figure4(iq_size: usize) -> Self {
        L2MissSensitiveAllocator::new(IplRegionTable::figure3(), iq_size, DEFAULT_TCACHE_MISS)
    }

    pub fn in_flush_mode(&self) -> bool {
        self.flush_mode
    }

    pub fn tcache_miss(&self) -> u64 {
        self.tcache_miss
    }
}

impl DispatchGovernor for L2MissSensitiveAllocator {
    fn name(&self) -> &'static str {
        "opt2-l2-miss-sensitive"
    }

    fn on_interval(&mut self, snapshot: &IntervalSnapshot, view: &GovernorView) {
        let was = self.flush_mode;
        self.flush_mode = snapshot.l2_misses > self.tcache_miss;
        if self.flush_mode != was {
            let enabled = self.flush_mode;
            self.tracer.emit(|| {
                TraceEvent::Governor(GovernorEvent::Opt2FlushMode {
                    cycle: snapshot.start_cycle + snapshot.cycles,
                    enabled,
                    interval_l2_misses: snapshot.l2_misses,
                    threshold: self.tcache_miss,
                })
            });
            self.metrics.counter_add("opt2.mode_switches", 1);
        }
        let mode = self.flush_mode;
        self.metrics
            .gauge_set("opt2.flush_mode", || if mode { 1.0 } else { 0.0 });
        self.opt1.update_from_interval(snapshot, view.iq_size);
    }

    fn allow_dispatch(&mut self, view: &GovernorView, tid: ThreadId) -> bool {
        if self.flush_mode {
            // FLUSH de-clogs by rollback; additionally, a thread with an
            // outstanding L2 miss is held to a small IQ budget — enough
            // entries to keep its memory-level parallelism alive, but not
            // enough to fill the shared queue with waiting vulnerable
            // state for hundreds of cycles (same rationale as DVM's
            // immediate L2-miss trigger). Miss-free threads are uncapped.
            let budget = self.miss_budget;
            view.threads
                .get(tid as usize)
                .map(|t| t.l2_pending == 0 || t.iq_occupancy < budget)
                .unwrap_or(true)
        } else {
            self.opt1.allow_dispatch(view, tid)
        }
    }

    fn flush_override(&self) -> bool {
        self.flush_mode
    }

    /// Mode and cap move only at interval rollovers, which are simulated.
    fn idle_horizon(&self, _view: &GovernorView) -> u64 {
        u64::MAX
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.opt1.set_tracer_inner(tracer.clone());
        self.tracer = tracer;
    }

    fn set_metrics(&mut self, metrics: Metrics) {
        self.opt1.set_metrics_inner(metrics.clone());
        let mode = self.flush_mode;
        metrics.gauge_set("opt2.flush_mode", || if mode { 1.0 } else { 0.0 });
        self.metrics = metrics;
    }

    fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.flush_mode);
        self.opt1.save_state(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.flush_mode = r.get()?;
        self.opt1.restore_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(last: &IntervalSnapshot, iq_len: usize) -> GovernorView<'_> {
        GovernorView {
            now: 0,
            iq_size: 96,
            iq_len,
            ready_len: 0,
            waiting_len: 0,
            last_interval: last,
            interval_hint_bits: 0,
            interval_cycles: 0,
            threads: &[],
        }
    }

    fn interval(ipc: f64, rql: f64, l2: u64) -> IntervalSnapshot {
        IntervalSnapshot {
            cycles: 10_000,
            committed: (ipc * 10_000.0) as u64,
            avg_ready_len: rql,
            l2_misses: l2,
            ..Default::default()
        }
    }

    #[test]
    fn low_miss_interval_behaves_like_opt1() {
        let mut g = L2MissSensitiveAllocator::figure4(96);
        let snap = interval(1.0, 5.0, 10);
        g.on_interval(&snap, &view(&snap, 0));
        assert!(!g.in_flush_mode());
        assert!(!g.flush_override());
        // opt1 cap for IPC 1, RQL 5 is 21.
        assert!(g.allow_dispatch(&view(&snap, 20), 0));
        assert!(!g.allow_dispatch(&view(&snap, 25), 0));
    }

    #[test]
    fn heavy_miss_interval_escalates_to_flush() {
        let mut g = L2MissSensitiveAllocator::figure4(96);
        let snap = interval(0.5, 2.0, 40);
        g.on_interval(&snap, &view(&snap, 0));
        assert!(g.in_flush_mode());
        assert!(g.flush_override());
        // No allocation cap in FLUSH mode.
        assert!(g.allow_dispatch(&view(&snap, 95), 0));
    }

    #[test]
    fn threshold_is_strictly_greater() {
        let mut g = L2MissSensitiveAllocator::figure4(96);
        let at = interval(1.0, 5.0, DEFAULT_TCACHE_MISS);
        g.on_interval(&at, &view(&at, 0));
        assert!(!g.in_flush_mode(), "exactly T misses must not escalate");
        let above = interval(1.0, 5.0, DEFAULT_TCACHE_MISS + 1);
        g.on_interval(&above, &view(&above, 0));
        assert!(g.in_flush_mode());
    }

    #[test]
    fn mode_flips_back_when_misses_subside() {
        let mut g = L2MissSensitiveAllocator::figure4(96);
        let hot = interval(0.5, 2.0, 100);
        g.on_interval(&hot, &view(&hot, 0));
        assert!(g.in_flush_mode());
        let cool = interval(3.0, 20.0, 0);
        g.on_interval(&cool, &view(&cool, 0));
        assert!(!g.in_flush_mode());
    }

    #[test]
    fn custom_threshold_respected() {
        let mut g = L2MissSensitiveAllocator::new(IplRegionTable::figure3(), 96, 4);
        assert_eq!(g.tcache_miss(), 4);
        let snap = interval(1.0, 5.0, 5);
        g.on_interval(&snap, &view(&snap, 0));
        assert!(g.in_flush_mode());
    }
}
