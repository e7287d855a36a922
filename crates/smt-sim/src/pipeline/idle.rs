//! Fast-forwarding idle cycles.
//!
//! On memory-bound mixes the machine spends long stretches waiting for
//! L2 misses: cycles in which nothing commits, completes, issues,
//! dispatches or is fetched. Such an *idle* cycle changes only per-cycle
//! counters, the commit/dispatch round-robin pointers and the clock, and
//! the cycles after it repeat it exactly until time alone can change an
//! outcome. `run` and `warm_up` therefore jump the clock from an idle
//! cycle straight to that *horizon* and add the skipped cycles' counters
//! in closed form; the result is bit-identical to stepping them. `step`
//! always advances exactly one cycle.
//!
//! * **Idle detection.** The stages bump `activity` wherever a cycle
//!   does more than count: every completion event popped (stale ones
//!   included), commit, issue, dispatch, I-cache access (a hit fetches,
//!   a miss stalls the thread) and closed interval.
//! * **Horizon.** The earliest of the next completion event, the end of
//!   an I-cache stall or function-unit reservation still running in the
//!   idle cycle, the interval rollover, the dispatch governor's
//!   [`idle_horizon`] and the caller's bound (cycle limit, hook/cancel
//!   poll, watchdog).
//! * **Closed form.** The stages write what they add per cycle into one
//!   [`CycleTally`]; `end_of_cycle` applies it once, the fast-forward
//!   `k` times, so the per-cycle counters are listed in one place.
//!
//! [`idle_horizon`]: crate::dispatch::DispatchGovernor::idle_horizon

use super::{spans, Pipeline};
use crate::dispatch::GovernorView;
use std::cmp::Reverse;

/// What one cycle adds to the per-cycle counters. The stages write it
/// and every simulated cycle rewrites all of it, so it is never
/// serialized.
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct CycleTally {
    // Issue: the ready-queue composition.
    pub selectable: u64,
    pub selectable_ace: u64,
    pub executing: u64,
    pub executing_ace: u64,
    pub ready_wrong_path: u64,
    pub ready_len: usize,
    pub ready_ace: usize,
    // Dispatch: 1 if the governor blocked dispatch with IQ entries free.
    pub governor_stall: u64,
    // Fetch: per-thread blocked attempts (an I-cache miss is activity,
    // so it is not here).
    pub fetch_blocked_stall: u64,
    pub fetch_blocked_gate: u64,
    pub fetch_blocked_fq_full: u64,
    // End of cycle: IQ occupancy and its resident hint bits.
    pub iq_len: u64,
    pub hint_bits: u64,
}

/// The smallest multiple of `period` at or after `cycle` (saturating).
pub(super) fn next_multiple(cycle: u64, period: u64) -> u64 {
    cycle.div_ceil(period).saturating_mul(period)
}

impl Pipeline {
    /// Add `k` cycles of the tally to the statistics and to the open
    /// interval's accumulators.
    #[inline]
    pub(super) fn apply_tally(&mut self, k: u64) {
        let t = self.tally;
        let s = &mut self.stats;
        s.diag_ready_selectable += t.selectable * k;
        s.diag_ready_selectable_ace += t.selectable_ace * k;
        s.diag_executing += t.executing * k;
        s.diag_executing_ace += t.executing_ace * k;
        s.diag_ready_wrong_path += t.ready_wrong_path * k;
        s.ready_queue_hist
            .record_n(t.ready_len, t.ready_ace as f64, t.ready_len as f64, k);
        s.ready_len_sum += t.ready_len as u64 * k;
        s.governor_stall_cycles += t.governor_stall * k;
        s.fetch_blocked_stall += t.fetch_blocked_stall * k;
        s.fetch_blocked_gate += t.fetch_blocked_gate * k;
        s.fetch_blocked_fq_full += t.fetch_blocked_fq_full * k;
        s.iq_occupancy_sum += t.iq_len * k;
        self.iv_ready_sum += t.ready_len as u64 * k;
        self.iv_ready_ace_sum += t.ready_ace as u64 * k;
        self.iv_iq_sum += t.iq_len * k;
        self.iv_hint_bits += t.hint_bits * k;
    }

    /// After the idle cycle `self.now - 1`, jump the clock to the first
    /// cycle that must be simulated, but not past `bound` (the caller's
    /// next check), accounting for the skipped cycles in closed form.
    pub(super) fn fast_forward(&mut self, bound: u64) {
        let tok = self.prof.enter_batch(spans::FAST_FORWARD);
        let skip = self.horizon(bound) - self.now;
        if skip > 0 {
            self.apply_tally(skip);
            let n = self.threads.len();
            let turns = (skip % n as u64) as usize;
            self.commit_rr = (self.commit_rr + turns) % n;
            self.dispatch_rr = (self.dispatch_rr + turns) % n;
            self.policies.governor.skip_idle(skip);
            self.now += skip;
            self.fast_forwarded += skip;
        }
        self.prof.exit_batch(tok, skip);
    }

    /// The first cycle from `self.now` on, capped at `bound`, at which
    /// time alone can change an outcome of the idle cycle `self.now - 1`.
    fn horizon(&mut self, bound: u64) -> u64 {
        let now = self.now;
        let idle = now - 1;
        // Every event due at `idle` was popped in it.
        let mut h = match self.events.peek() {
            Some(&Reverse((t, _, _))) => bound.min(t),
            None => bound,
        };
        if h <= now {
            return now;
        }
        // A stall or reservation that held in the idle cycle lifts at
        // its end cycle: compare with the idle cycle, not with `now`, or
        // a stall ending at `now` would be skipped.
        for t in &self.threads {
            if t.ifetch_stall_until > idle {
                h = h.min(t.ifetch_stall_until);
            }
        }
        // (An unpipelined unit is released when its op completes, so the
        // event queue already holds this cycle; the check keeps the
        // horizon right without relying on that.)
        h = h.min(self.fu.next_release_after(idle));
        // The idle cycle did not close the interval, so this is >= now.
        h = h.min(self.iv_start + self.interval_cycles - 1);
        if h <= now {
            return now;
        }
        let views = self.take_thread_views();
        let view = GovernorView {
            now,
            iq_size: self.config.iq_size,
            iq_len: self.iq.len(),
            ready_len: self.cur_ready_len,
            waiting_len: self.cur_waiting_len,
            last_interval: &self.last_interval,
            interval_hint_bits: self.iv_hint_bits,
            interval_cycles: now - self.iv_start,
            threads: &views,
        };
        h = h.min(self.policies.governor.idle_horizon(&view));
        self.views_buf = views;
        h.max(now)
    }
}
