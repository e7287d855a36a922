//! Dispatch governors — the resource-allocation seam.
//!
//! The paper's opt1 (dynamic IQ resource allocation, Figure 3), opt2
//! (L2-miss-sensitive allocation, Figure 4) and DVM (Section 5) all act
//! at dispatch: they decide, cycle by cycle, whether another instruction
//! may be granted an IQ entry. The pipeline exposes the machine state
//! they key on through [`GovernorView`] and calls the hooks below; the
//! implementations live in the `iq-reliability` crate. The baseline
//! governor grants everything the structural resources allow.

use crate::stats::IntervalSnapshot;
use micro_isa::ThreadId;

/// Per-thread state visible to policies.
#[derive(Debug, Clone, Copy)]
pub struct ThreadView {
    pub tid: ThreadId,
    /// Instructions waiting in this thread's fetch queue.
    pub fetch_queue_len: usize,
    /// Of those, how many carry the ACE-ness hint (DVM's restore rule
    /// picks the thread with the fewest).
    pub fetch_queue_ace: usize,
    /// Outstanding L2-missing loads.
    pub l2_pending: u32,
    /// Outstanding L1D-missing loads (DG/PDG gate on this).
    pub l1d_pending: u32,
    /// Thread is rolled back and fetch-blocked by the FLUSH mechanism.
    pub flush_blocked: bool,
    /// Instructions in flight (fetched but not yet committed/squashed) —
    /// the ICOUNT priority key.
    pub in_flight: usize,
    /// IQ entries currently held by this thread.
    pub iq_occupancy: usize,
    /// ROB entries of this thread holding ACE-hinted instructions —
    /// the occupancy signal for ROB-level vulnerability management
    /// (the paper's "extend to other structures" direction).
    pub rob_ace: usize,
}

/// Machine state handed to dispatch governors every cycle.
#[derive(Debug, Clone, Copy)]
pub struct GovernorView<'a> {
    pub now: u64,
    pub iq_size: usize,
    /// Occupied IQ entries.
    pub iq_len: usize,
    /// IQ entries whose operands are ready (the ready queue).
    pub ready_len: usize,
    /// IQ entries still waiting on operands (the waiting queue).
    pub waiting_len: usize,
    /// Statistics of the most recently completed sampling interval.
    pub last_interval: &'a IntervalSnapshot,
    /// Σ over cycles of the hint-tagged ACE bits resident in the IQ since
    /// the current interval started — DVM's online ACE-bit counter.
    pub interval_hint_bits: u64,
    /// Cycles elapsed in the current interval.
    pub interval_cycles: u64,
    pub threads: &'a [ThreadView],
}

impl GovernorView<'_> {
    /// DVM's online IQ AVF estimate for the running interval: ACE-bit
    /// counter / (cycles × total IQ bits). Uses the hint-bit layout of
    /// [`crate::layout`].
    pub fn online_avf_estimate(&self) -> f64 {
        if self.interval_cycles == 0 {
            return 0.0;
        }
        let total_bits = self.iq_size as u64 * crate::layout::IQ_ENTRY_BITS as u64;
        self.interval_hint_bits as f64 / (self.interval_cycles * total_bits) as f64
    }
}

/// A dispatch governor: grants or denies IQ allocation.
pub trait DispatchGovernor {
    fn name(&self) -> &'static str;

    /// Called once per cycle before any dispatch decisions.
    fn begin_cycle(&mut self, _view: &GovernorView) {}

    /// Called at each sampling-interval boundary with the snapshot of the
    /// interval that just closed (the paper samples every 10K cycles).
    fn on_interval(&mut self, _snapshot: &IntervalSnapshot, _view: &GovernorView) {}

    /// May thread `tid` be granted one more IQ entry this cycle?
    /// Structural limits (IQ/ROB/LSQ full) are enforced by the pipeline
    /// regardless of the answer.
    fn allow_dispatch(&mut self, _view: &GovernorView, _tid: ThreadId) -> bool {
        true
    }

    /// A load from `tid` just missed the L2 (DVM triggers its response
    /// immediately on this event).
    fn on_l2_miss(&mut self, _tid: ThreadId) {}

    /// The first cycle at or after `view.now` that must be simulated,
    /// assuming the view stays as it is. `run` and `warm_up` ask after
    /// every cycle in which nothing moved (nothing committed, completed,
    /// issued, dispatched or was fetched): up to the returned cycle they
    /// fast-forward, replaying that cycle's per-cycle counters and
    /// calling [`Self::skip_idle`] instead of the other hooks. Return a
    /// cycle no later than the first one at which this governor would
    /// act differently on an unchanged view — a time-driven decision, a
    /// sample, an audit event. The default, `view.now`, never
    /// fast-forwards; a governor whose decisions depend on the view
    /// alone returns `u64::MAX`.
    fn idle_horizon(&self, view: &GovernorView) -> u64 {
        view.now
    }

    /// Account for `cycles` repeats of the cycle just simulated, skipped
    /// by the fast-forward (see [`Self::idle_horizon`]): the state and
    /// counters that [`Self::begin_cycle`] and [`Self::allow_dispatch`]
    /// would have advanced over those cycles.
    fn skip_idle(&mut self, _cycles: u64) {}

    /// opt2's escape hatch: when `true`, the pipeline applies FLUSH
    /// fetch-policy behaviour this cycle regardless of the configured
    /// fetch policy.
    fn flush_override(&self) -> bool {
        false
    }

    /// Hand the governor a tracer so its control decisions (cap changes,
    /// mode switches, DVM trigger/restore) land in the audit log. The
    /// pipeline calls this from [`Pipeline::set_tracer`]; governors with
    /// no audit-worthy state ignore it.
    ///
    /// [`Pipeline::set_tracer`]: crate::pipeline::Pipeline::set_tracer
    fn set_tracer(&mut self, _tracer: sim_trace::Tracer) {}

    /// Hand the governor a metrics handle so its control state (IQL cap,
    /// flush mode, wq_ratio, trigger/restore counts) is recorded as
    /// gauges and counters alongside the trace audit log. The pipeline
    /// calls this from [`Pipeline::set_metrics`]; governors with no
    /// numeric state ignore it.
    ///
    /// [`Pipeline::set_metrics`]: crate::pipeline::Pipeline::set_metrics
    fn set_metrics(&mut self, _metrics: sim_metrics::Metrics) {}

    /// Enable/disable the governor's own wall-time self-profiling. The
    /// pipeline forwards [`set_stage_profiling`] here, and calls it again
    /// when warm-up ends: a governor that keeps a profile discards what
    /// it accumulated. Stateless governors ignore it.
    ///
    /// [`set_stage_profiling`]: crate::pipeline::Pipeline::set_stage_profiling
    fn set_profiling(&mut self, _on: bool) {}

    /// The governor's own wall-time profile, if it keeps one — the
    /// pipeline grafts it into its merged report under the governor's
    /// name.
    fn profile_report(&self) -> Option<sim_profile::ProfileReport> {
        None
    }

    /// Serialize mutable governor state (stateless governors write
    /// nothing). Tracer/metrics handles are *not* state: they are
    /// re-attached by the harness after restore.
    fn save_state(&self, _w: &mut sim_snapshot::SnapWriter) {}

    /// Restore mutable governor state saved by [`Self::save_state`].
    fn restore_state(
        &mut self,
        _r: &mut sim_snapshot::SnapReader<'_>,
    ) -> Result<(), sim_snapshot::SnapError> {
        Ok(())
    }
}

/// Baseline: dispatch everything the structural resources allow.
#[derive(Debug, Default, Clone, Copy)]
pub struct UnlimitedDispatch;

impl DispatchGovernor for UnlimitedDispatch {
    fn name(&self) -> &'static str {
        "unlimited"
    }

    fn idle_horizon(&self, _view: &GovernorView) -> u64 {
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> IntervalSnapshot {
        IntervalSnapshot::default()
    }

    #[test]
    fn unlimited_always_allows() {
        let snap = snapshot();
        let view = GovernorView {
            now: 0,
            iq_size: 96,
            iq_len: 95,
            ready_len: 50,
            waiting_len: 45,
            last_interval: &snap,
            interval_hint_bits: 0,
            interval_cycles: 0,
            threads: &[],
        };
        let mut g = UnlimitedDispatch;
        assert!(g.allow_dispatch(&view, 0));
        assert!(!g.flush_override());
    }

    #[test]
    fn online_avf_estimate_math() {
        let snap = snapshot();
        // 96-entry IQ, 72 bits each = 6912 bits. Half the bits ACE for
        // 100 cycles → estimate 0.5.
        let view = GovernorView {
            now: 100,
            iq_size: 96,
            iq_len: 0,
            ready_len: 0,
            waiting_len: 0,
            last_interval: &snap,
            interval_hint_bits: 100 * 6912 / 2,
            interval_cycles: 100,
            threads: &[],
        };
        assert!((view.online_avf_estimate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_interval_estimate_is_zero() {
        let snap = snapshot();
        let view = GovernorView {
            now: 0,
            iq_size: 96,
            iq_len: 0,
            ready_len: 0,
            waiting_len: 0,
            last_interval: &snap,
            interval_hint_bits: 0,
            interval_cycles: 0,
            threads: &[],
        };
        assert_eq!(view.online_avf_estimate(), 0.0);
    }
}
