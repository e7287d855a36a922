//! DVM — dynamic vulnerability management (paper Section 5, Figure 7).
//!
//! Goal: keep the runtime IQ AVF below a pre-set reliability target with
//! minimal performance cost. The controller is a trigger/response loop:
//!
//! * **Online estimation** — the hardware ACE-bit counter (the IQ's
//!   hint-bit total, accumulated per cycle by the pipeline) divided by
//!   elapsed cycles × total IQ bits estimates the running interval's AVF.
//! * **Trigger** — the estimate is sampled five times per 10 K-cycle
//!   interval and compared against 90 % of the reliability target; any
//!   L2 cache miss triggers immediately (its dependents would otherwise
//!   sit in the IQ for hundreds of cycles).
//! * **Response** — dispatch is throttled through `wq_ratio`: new IQ
//!   entries are granted only while waiting/ready stays at or below the
//!   ratio (the division is evaluated once every 50 cycles, as the paper
//!   notes an integer divide is too expensive per cycle). The ratio
//!   adapts by *slow increases and rapid decreases*; the static variant
//!   pins it.
//! * **Restore** — when the estimate falls back under the trigger, the
//!   thread with the fewest ACE-hinted instructions in its fetch queue is
//!   released first: its instructions add little vulnerability but keep
//!   the pipeline exploiting ILP.

use micro_isa::ThreadId;
use parking_lot::Mutex;
use sim_metrics::Metrics;
use sim_profile::{ProfileReport, SpanDef, SpanId, SpanSet};
use sim_snapshot::{SnapError, SnapReader, SnapWriter};
use sim_trace::{GovernorEvent, TraceEvent, Tracer};
use smt_sim::{DispatchGovernor, GovernorView, IntervalSnapshot};
use std::sync::Arc;

/// Controller span table: all roots — the pipeline grafts them under
/// its own `tick;dispatch;governor` span, which times the calls they
/// run in.
const SPANS: &[SpanDef] = &[
    SpanDef {
        name: "sample",
        parent: None,
    },
    SpanDef {
        name: "decide",
        parent: None,
    },
];
const SPAN_SAMPLE: SpanId = 0;
const SPAN_DECIDE: SpanId = 1;

/// Ratio adaptation mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DvmMode {
    /// Paper default: slow-increase / rapid-decrease adaptation.
    DynamicRatio,
    /// "DVM (static)": the ratio is fixed at construction.
    StaticRatio(f64),
}

/// Observable controller state, shared out so experiments can read the
/// average ratio (the paper derives the static variant's ratio from the
/// dynamic run's average) and decision counts after the pipeline consumed
/// the boxed governor.
#[derive(Debug, Default)]
pub struct DvmTelemetry {
    pub ratio_sum: f64,
    pub ratio_samples: u64,
    pub triggers: u64,
    pub l2_triggers: u64,
    pub denied_dispatches: u64,
    pub restores: u64,
}

impl DvmTelemetry {
    pub fn average_ratio(&self) -> f64 {
        if self.ratio_samples == 0 {
            0.0
        } else {
            self.ratio_sum / self.ratio_samples as f64
        }
    }
}

/// Shared handle to a controller's telemetry.
pub type DvmHandle = Arc<Mutex<DvmTelemetry>>;

/// The DVM dispatch governor.
pub struct DvmController {
    /// Reliability target (absolute IQ AVF, e.g. `0.5 × MaxIQ_AVF`).
    target: f64,
    /// Trigger threshold as a fraction of the target (paper: 0.9).
    trigger_frac: f64,
    mode: DvmMode,
    /// Estimate samples per interval (paper: 5).
    samples_per_interval: u64,
    interval_cycles: u64,
    /// Ratio-check period in cycles (paper: 50).
    ratio_period: u64,

    wq_ratio: f64,
    response_active: bool,
    /// Dispatch permission from the last ratio evaluation.
    ratio_ok: bool,
    /// Thread released by the restore rule while throttling.
    restore_tid: Option<ThreadId>,
    /// ACE-bit counter and cycle count at the previous sample, so each
    /// sample evaluates the AVF of its own window (the hardware simply
    /// subtracts the previous counter reading).
    prev_bits: u64,
    prev_cycles: u64,
    telemetry: DvmHandle,
    tracer: Tracer,
    metrics: Metrics,
    /// Host-side only: never serialized, never consulted by decisions.
    prof: SpanSet,
    /// Most recent windowed AVF estimate (audit context for the
    /// cycle-less `on_l2_miss` trigger path).
    last_est: f64,
    /// Cycle of the most recent `begin_cycle` (same purpose).
    last_now: u64,
    /// Dispatches denied in the cycle of the most recent `begin_cycle`,
    /// which `skip_idle` repeats. Every cycle rewrites it, so it is not
    /// serialized.
    cycle_denials: u64,
}

/// Adaptation bounds for the dynamic ratio.
const RATIO_MIN: f64 = 0.25;
const RATIO_MAX: f64 = 8.0;
const RATIO_INCREASE: f64 = 0.25; // slow, additive
const RATIO_DECREASE: f64 = 0.5; // rapid, multiplicative

impl DvmController {
    /// A controller holding IQ AVF under `target` (absolute AVF). The
    /// paper's configuration: `trigger_frac = 0.9`, 5 samples per
    /// 10 K-cycle interval, ratio re-evaluated every 50 cycles.
    pub fn new(target: f64, mode: DvmMode) -> DvmController {
        DvmController::with_params(target, mode, 0.9, 5, 10_000, 50)
    }

    pub fn with_params(
        target: f64,
        mode: DvmMode,
        trigger_frac: f64,
        samples_per_interval: u64,
        interval_cycles: u64,
        ratio_period: u64,
    ) -> DvmController {
        assert!(target >= 0.0 && (0.0..=1.0).contains(&trigger_frac));
        assert!(samples_per_interval >= 1 && interval_cycles >= samples_per_interval);
        assert!(ratio_period >= 1, "the ratio check needs a period");
        let wq_ratio = match mode {
            DvmMode::DynamicRatio => RATIO_MAX / 2.0,
            DvmMode::StaticRatio(r) => r,
        };
        DvmController {
            target,
            trigger_frac,
            mode,
            samples_per_interval,
            interval_cycles,
            ratio_period,
            wq_ratio,
            response_active: false,
            ratio_ok: true,
            restore_tid: None,
            prev_bits: 0,
            prev_cycles: 0,
            telemetry: Arc::new(Mutex::new(DvmTelemetry::default())),
            tracer: Tracer::off(),
            metrics: Metrics::off(),
            prof: SpanSet::new(SPANS),
            last_est: 0.0,
            last_now: 0,
            cycle_denials: 0,
        }
    }

    /// Telemetry handle (clone before handing the controller to the
    /// pipeline).
    pub fn handle(&self) -> DvmHandle {
        Arc::clone(&self.telemetry)
    }

    pub fn target(&self) -> f64 {
        self.target
    }

    pub fn current_ratio(&self) -> f64 {
        self.wq_ratio
    }

    pub fn response_active(&self) -> bool {
        self.response_active
    }

    fn trigger_level(&self) -> f64 {
        self.target * self.trigger_frac
    }

    fn sample_period(&self) -> u64 {
        self.interval_cycles / self.samples_per_interval
    }

    /// The periodic waiting/ready verdict on `view`.
    fn ratio_verdict(&self, view: &GovernorView) -> bool {
        let ready = view.ready_len.max(1) as f64;
        (view.waiting_len as f64 / ready) <= self.wq_ratio
    }

    /// Count one denied dispatch.
    fn deny(&mut self) -> bool {
        self.cycle_denials += 1;
        self.telemetry.lock().denied_dispatches += 1;
        self.metrics.counter_add("dvm.denied_dispatches", 1);
        false
    }

    fn on_sample(&mut self, view: &GovernorView) {
        // Windowed estimate: ACE-bit-cycles accumulated since the last
        // sample, over the cycles elapsed since then. The pipeline's
        // counter resets at interval boundaries, so a smaller reading
        // means a fresh interval.
        let (bits, cycles) = (view.interval_hint_bits, view.interval_cycles);
        let (db, dc) = if bits >= self.prev_bits && cycles > self.prev_cycles {
            (bits - self.prev_bits, cycles - self.prev_cycles)
        } else {
            (bits, cycles.max(1))
        };
        self.prev_bits = bits;
        self.prev_cycles = cycles;
        let total_bits = view.iq_size as u64 * smt_sim::layout::IQ_ENTRY_BITS as u64;
        let est = db as f64 / (dc.max(1) * total_bits) as f64;
        self.last_est = est;
        let old_ratio = self.wq_ratio;
        let was_active = self.response_active;
        if est >= self.trigger_level() {
            if !was_active {
                self.telemetry.lock().triggers += 1;
                self.metrics.counter_add("dvm.triggers", 1);
            }
            self.response_active = true;
            self.restore_tid = None;
            if self.mode == DvmMode::DynamicRatio {
                self.wq_ratio = (self.wq_ratio * RATIO_DECREASE).max(RATIO_MIN);
            }
            if !was_active {
                self.tracer.emit(|| {
                    TraceEvent::Governor(GovernorEvent::DvmTrigger {
                        cycle: view.now,
                        hint_avf: est,
                        target: self.target,
                        // The offender, if one stands out, is the thread
                        // with the deepest outstanding-L2-miss backlog.
                        offender: view
                            .threads
                            .iter()
                            .filter(|th| th.l2_pending > 0)
                            .max_by_key(|th| (th.l2_pending, th.tid))
                            .map(|th| th.tid as usize),
                        thread_ace: view
                            .threads
                            .iter()
                            .map(|th| th.fetch_queue_ace as u64)
                            .collect(),
                    })
                });
            }
        } else {
            if was_active {
                // Restore rule: release the thread with the fewest
                // ACE-hinted instructions in its fetch queue first.
                self.restore_tid = view
                    .threads
                    .iter()
                    .filter(|th| !th.flush_blocked)
                    .min_by_key(|th| (th.fetch_queue_ace, th.tid))
                    .map(|th| th.tid);
                self.telemetry.lock().restores += 1;
                self.metrics.counter_add("dvm.restores", 1);
                let restored = self.restore_tid;
                self.tracer.emit(|| {
                    TraceEvent::Governor(GovernorEvent::DvmRestore {
                        cycle: view.now,
                        hint_avf: est,
                        target: self.target,
                        restored_tid: restored.map(|t| t as usize),
                    })
                });
            }
            self.response_active = false;
            if self.mode == DvmMode::DynamicRatio {
                self.wq_ratio = (self.wq_ratio + RATIO_INCREASE).min(RATIO_MAX);
            }
        }
        if self.wq_ratio != old_ratio {
            let new_ratio = self.wq_ratio;
            self.tracer.emit(|| {
                TraceEvent::Governor(GovernorEvent::WqRatioAdjust {
                    cycle: view.now,
                    old_ratio,
                    new_ratio,
                    hint_avf: est,
                    ready_len: view.ready_len,
                })
            });
            self.metrics.counter_add("dvm.ratio_adjusts", 1);
        }
        // Controller state as gauges: the pipeline's interval rollover
        // snapshots these into the same-named time series, so the
        // wq_ratio and trigger-state trajectories line up with the
        // iq.interval_avf series they react to.
        let (ratio, active) = (self.wq_ratio, self.response_active);
        self.metrics.gauge_set("dvm.wq_ratio", || ratio);
        self.metrics
            .gauge_set("dvm.response_active", || if active { 1.0 } else { 0.0 });
        self.metrics.gauge_set("dvm.avf_estimate", || est);
        let mut t = self.telemetry.lock();
        t.ratio_sum += self.wq_ratio;
        t.ratio_samples += 1;
    }
}

impl DispatchGovernor for DvmController {
    fn name(&self) -> &'static str {
        match self.mode {
            DvmMode::DynamicRatio => "dvm-dynamic",
            DvmMode::StaticRatio(_) => "dvm-static",
        }
    }

    fn begin_cycle(&mut self, view: &GovernorView) {
        self.last_now = view.now;
        self.cycle_denials = 0;
        if view.now.is_multiple_of(self.sample_period()) && view.now > 0 {
            let tok = self.prof.enter(SPAN_SAMPLE);
            self.on_sample(view);
            self.prof.exit(tok);
        }
        // The waiting/ready division runs once per ratio period; the
        // verdict is held between evaluations.
        if view.now.is_multiple_of(self.ratio_period) {
            self.ratio_ok = self.ratio_verdict(view);
        }
    }

    /// The next estimate sample, or the next ratio check if re-running
    /// it on this view would flip the held verdict. Nothing else the
    /// controller does depends on time: triggers on L2 misses and
    /// interval rollovers are events the pipeline simulates anyway.
    fn idle_horizon(&self, view: &GovernorView) -> u64 {
        let period = self.sample_period();
        let sample = view.now.max(1).div_ceil(period) * period;
        if self.ratio_verdict(view) == self.ratio_ok {
            return sample;
        }
        sample.min(view.now.div_ceil(self.ratio_period) * self.ratio_period)
    }

    /// Repeat the last cycle's denials `cycles` times and advance the
    /// audit clock; samples and ratio checks lie past the horizon.
    fn skip_idle(&mut self, cycles: u64) {
        let denied = self.cycle_denials * cycles;
        if denied > 0 {
            self.telemetry.lock().denied_dispatches += denied;
            self.metrics.counter_add("dvm.denied_dispatches", denied);
        }
        self.last_now += cycles;
    }

    fn on_interval(&mut self, _snapshot: &IntervalSnapshot, _view: &GovernorView) {}

    fn allow_dispatch(&mut self, view: &GovernorView, tid: ThreadId) -> bool {
        let tok = self.prof.enter(SPAN_DECIDE);
        let verdict = self.decide(view, tid);
        self.prof.exit(tok);
        verdict
    }

    fn on_l2_miss(&mut self, tid: ThreadId) {
        // "a L2 cache miss will immediately enable the response
        // mechanism": dependents of the miss would sit in the IQ for
        // hundreds of cycles.
        let was_active = self.response_active;
        {
            let mut t = self.telemetry.lock();
            if !was_active {
                t.triggers += 1;
                self.metrics.counter_add("dvm.triggers", 1);
            }
            t.l2_triggers += 1;
        }
        self.metrics.counter_add("dvm.l2_triggers", 1);
        self.response_active = true;
        self.restore_tid = None;
        self.metrics.gauge_set("dvm.response_active", || 1.0);
        if !was_active {
            self.tracer.emit(|| {
                TraceEvent::Governor(GovernorEvent::DvmTrigger {
                    cycle: self.last_now,
                    hint_avf: self.last_est,
                    target: self.target,
                    offender: Some(tid as usize),
                    // This path fires mid-issue without a governor view;
                    // per-thread ACE context is unavailable.
                    thread_ace: Vec::new(),
                })
            });
        }
    }

    /// Starts a fresh profile: the pipeline re-sends this when warm-up
    /// ends, so the spans cover the measured window only.
    fn set_profiling(&mut self, on: bool) {
        self.prof.reset();
        self.prof.set_enabled(on);
    }

    fn profile_report(&self) -> Option<ProfileReport> {
        Some(self.prof.report())
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn set_metrics(&mut self, metrics: Metrics) {
        // Seed the state gauges so the series start at the controller's
        // initial configuration rather than first-change.
        let (ratio, active) = (self.wq_ratio, self.response_active);
        metrics.gauge_set("dvm.wq_ratio", || ratio);
        metrics.gauge_set("dvm.response_active", || if active { 1.0 } else { 0.0 });
        self.metrics = metrics;
    }

    /// The controller loop state plus the shared telemetry contents —
    /// the telemetry must round-trip so the static-ratio derivation
    /// (average of the dynamic run's ratio) matches an uninterrupted
    /// run's. Configuration (target, mode, periods) is reconstructed by
    /// the caller and covered by the snapshot config hash.
    fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.wq_ratio);
        w.put(&self.response_active);
        w.put(&self.ratio_ok);
        w.put(&self.restore_tid);
        w.put(&self.prev_bits);
        w.put(&self.prev_cycles);
        w.put(&self.last_est);
        w.put(&self.last_now);
        let t = self.telemetry.lock();
        w.put(&t.ratio_sum);
        w.put(&t.ratio_samples);
        w.put(&t.triggers);
        w.put(&t.l2_triggers);
        w.put(&t.denied_dispatches);
        w.put(&t.restores);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let wq_ratio: f64 = r.get()?;
        if !wq_ratio.is_finite() || wq_ratio < 0.0 {
            return Err(SnapError::Corrupt(format!(
                "DVM wq_ratio {wq_ratio} is not a valid ratio"
            )));
        }
        self.wq_ratio = wq_ratio;
        self.response_active = r.get()?;
        self.ratio_ok = r.get()?;
        self.restore_tid = r.get()?;
        self.prev_bits = r.get()?;
        self.prev_cycles = r.get()?;
        self.last_est = r.get()?;
        self.last_now = r.get()?;
        let mut t = self.telemetry.lock();
        t.ratio_sum = r.get()?;
        t.ratio_samples = r.get()?;
        t.triggers = r.get()?;
        t.l2_triggers = r.get()?;
        t.denied_dispatches = r.get()?;
        t.restores = r.get()?;
        Ok(())
    }
}

impl DvmController {
    /// The dispatch verdict (split from [`DispatchGovernor::allow_dispatch`]
    /// so the span wrapper survives the early returns).
    fn decide(&mut self, view: &GovernorView, tid: ThreadId) -> bool {
        if !self.response_active {
            return true;
        }
        if self.restore_tid == Some(tid) {
            return true;
        }
        // The response throttles the *offending* threads — those holding
        // an outstanding L2 miss — whose dependents would sit in the IQ
        // as vulnerable waiting state for hundreds of cycles ("preventing
        // fetching instructions from offending threads is beneficial for
        // allocating IQ entries for other threads", Section 5.2). The
        // throttle is proportional, not bang-bang: it engages only while
        // the waiting/ready ratio exceeds the adaptive `wq_ratio`, whose
        // slow-increase/rapid-decrease adjustment sets the duty cycle.
        //
        // Exception (the paper's all-stalled rule): "If all threads stall
        // due to L2 cache misses, the SMT processor can not make any
        // progress" — so when every thread is an offender, the one with
        // the fewest ACE-hinted instructions in its fetch queue keeps
        // dispatching: its instructions add little vulnerability but keep
        // the pipeline busy.
        let offender = view
            .threads
            .get(tid as usize)
            .map(|t| t.l2_pending > 0)
            .unwrap_or(false);
        if offender {
            let all_stalled = view.threads.iter().all(|t| t.l2_pending > 0);
            if all_stalled {
                let least_ace = view
                    .threads
                    .iter()
                    .min_by_key(|t| (t.fetch_queue_ace, t.tid))
                    .map(|t| t.tid);
                if least_ace == Some(tid) {
                    return true;
                }
            }
            return self.deny();
        }
        // Non-offending threads are throttled through the adaptive
        // waiting/ready ratio: vulnerability beyond what L2 misses cause
        // comes from over-eager dispatch-ahead, which the ratio bounds.
        if self.ratio_ok {
            true
        } else {
            self.deny()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_sim::dispatch::ThreadView;

    fn thread_view(tid: ThreadId, fq_ace: usize, blocked: bool) -> ThreadView {
        ThreadView {
            tid,
            fetch_queue_len: fq_ace + 2,
            fetch_queue_ace: fq_ace,
            l2_pending: 0,
            l1d_pending: 0,
            flush_blocked: blocked,
            in_flight: 0,
            iq_occupancy: 0,
            rob_ace: 0,
        }
    }

    /// Build a view whose online estimate is `est` (via hint bits).
    fn view_with<'a>(
        now: u64,
        est: f64,
        waiting: usize,
        ready: usize,
        last: &'a IntervalSnapshot,
        threads: &'a [ThreadView],
    ) -> GovernorView<'a> {
        let total_bits = 96u64 * smt_sim::layout::IQ_ENTRY_BITS as u64;
        let cycles = 1_000u64;
        GovernorView {
            now,
            iq_size: 96,
            iq_len: waiting + ready,
            ready_len: ready,
            waiting_len: waiting,
            last_interval: last,
            interval_hint_bits: (est * (cycles * total_bits) as f64) as u64,
            interval_cycles: cycles,
            threads,
        }
    }

    #[test]
    fn quiet_system_dispatches_freely() {
        let mut dvm = DvmController::new(0.4, DvmMode::DynamicRatio);
        let last = IntervalSnapshot::default();
        let threads = [thread_view(0, 1, false)];
        let v = view_with(2_000, 0.1, 50, 10, &last, &threads);
        dvm.begin_cycle(&v);
        assert!(!dvm.response_active());
        assert!(dvm.allow_dispatch(&v, 0));
    }

    #[test]
    fn exceeding_trigger_throttles_and_shrinks_ratio() {
        let mut dvm = DvmController::new(0.4, DvmMode::DynamicRatio);
        let r0 = dvm.current_ratio();
        let last = IntervalSnapshot::default();
        let threads = [thread_view(0, 1, false)];
        // Estimate 0.39 ≥ 0.36 trigger; waiting/ready = 80/5 = 16 > ratio.
        let v = view_with(2_000, 0.39, 80, 5, &last, &threads);
        dvm.begin_cycle(&v);
        assert!(dvm.response_active());
        assert!(dvm.current_ratio() < r0, "rapid decrease");
        assert!(!dvm.allow_dispatch(&v, 0));
    }

    #[test]
    fn ratio_recovers_slowly() {
        let mut dvm = DvmController::new(0.4, DvmMode::DynamicRatio);
        let last = IntervalSnapshot::default();
        let threads = [thread_view(0, 1, false)];
        let hot = view_with(2_000, 0.5, 10, 10, &last, &threads);
        dvm.begin_cycle(&hot);
        let after_drop = dvm.current_ratio();
        let cool = view_with(4_000, 0.0, 10, 10, &last, &threads);
        dvm.begin_cycle(&cool);
        let after_rise = dvm.current_ratio();
        assert!(after_rise > after_drop);
        // One rapid decrease outweighs one slow increase.
        assert!(after_rise < DvmController::new(0.4, DvmMode::DynamicRatio).current_ratio());
    }

    #[test]
    fn l2_miss_triggers_immediately() {
        let mut dvm = DvmController::new(0.4, DvmMode::DynamicRatio);
        assert!(!dvm.response_active());
        dvm.on_l2_miss(2);
        assert!(dvm.response_active());
        assert_eq!(dvm.handle().lock().l2_triggers, 1);
    }

    #[test]
    fn restore_picks_fewest_ace_thread() {
        let mut dvm = DvmController::new(0.4, DvmMode::DynamicRatio);
        let last = IntervalSnapshot::default();
        let threads = [
            thread_view(0, 9, false),
            thread_view(1, 2, false),
            thread_view(2, 5, true), // flush-blocked: ineligible
        ];
        // Trigger, then cool below trigger.
        dvm.begin_cycle(&view_with(2_000, 0.9, 90, 2, &last, &threads));
        assert!(dvm.response_active());
        dvm.begin_cycle(&view_with(4_000, 0.0, 90, 2, &last, &threads));
        assert!(!dvm.response_active());
        // During the *next* throttle episode the remembered restore thread
        // is cleared; but immediately after the cool sample the episode is
        // over, so dispatch is free anyway.
        let v = view_with(4_001, 0.0, 90, 2, &last, &threads);
        assert!(dvm.allow_dispatch(&v, 0));
        assert_eq!(dvm.handle().lock().restores, 1);
    }

    #[test]
    fn restore_thread_dispatches_while_others_throttle() {
        let mut dvm = DvmController::new(0.4, DvmMode::DynamicRatio);
        let last = IntervalSnapshot::default();
        let threads = [thread_view(0, 9, false), thread_view(1, 2, false)];
        // Manually drive: trigger first, then set restore by a cool
        // sample, then re-trigger via L2 miss keeps restore cleared.
        dvm.begin_cycle(&view_with(2_000, 0.9, 90, 2, &last, &threads));
        dvm.begin_cycle(&view_with(4_000, 0.0, 90, 2, &last, &threads));
        // Now force response back on *without* a sample (L2 path keeps
        // restore_tid = None), then check the sample-path restore:
        dvm.begin_cycle(&view_with(6_000, 0.9, 90, 2, &last, &threads));
        dvm.begin_cycle(&view_with(8_000, 0.0, 90, 2, &last, &threads));
        assert!(!dvm.response_active());
    }

    #[test]
    fn static_mode_never_adapts() {
        let mut dvm = DvmController::new(0.4, DvmMode::StaticRatio(1.5));
        let last = IntervalSnapshot::default();
        let threads = [thread_view(0, 1, false)];
        dvm.begin_cycle(&view_with(2_000, 0.9, 90, 2, &last, &threads));
        assert_eq!(dvm.current_ratio(), 1.5);
        dvm.begin_cycle(&view_with(4_000, 0.0, 90, 2, &last, &threads));
        assert_eq!(dvm.current_ratio(), 1.5);
    }

    #[test]
    fn ratio_check_runs_on_period_only() {
        let mut dvm = DvmController::new(0.0, DvmMode::StaticRatio(0.5));
        let last = IntervalSnapshot::default();
        let threads = [thread_view(0, 1, false)];
        // Target 0 → always triggered. waiting/ready high → deny at the
        // periodic evaluation.
        let v = view_with(2_000, 0.9, 90, 2, &last, &threads);
        dvm.begin_cycle(&v); // now=2000 is a ratio-period multiple
        assert!(!dvm.allow_dispatch(&v, 0));
        // Off-period cycle with a *good* ratio: verdict held from last
        // evaluation (still denied).
        let good = view_with(2_001, 0.9, 1, 50, &last, &threads);
        dvm.begin_cycle(&good);
        assert!(!dvm.allow_dispatch(&good, 0));
        // On-period: re-evaluated, now allowed.
        let good = view_with(2_050, 0.9, 1, 50, &last, &threads);
        dvm.begin_cycle(&good);
        assert!(dvm.allow_dispatch(&good, 0));
    }

    #[test]
    fn idle_horizon_is_the_next_sample_unless_a_ratio_check_flips() {
        // 10 K-cycle interval, 5 samples: estimates at multiples of 2 000;
        // ratio checks every 50 cycles.
        let mut dvm = DvmController::new(0.0, DvmMode::StaticRatio(1.0));
        let last = IntervalSnapshot::default();
        let threads = [thread_view(0, 1, false)];
        // A sample point is its own horizon; cycle 0 never samples.
        assert_eq!(
            dvm.idle_horizon(&view_with(0, 0.0, 1, 9, &last, &threads)),
            2_000
        );
        assert_eq!(
            dvm.idle_horizon(&view_with(1, 0.0, 1, 9, &last, &threads)),
            2_000
        );
        assert_eq!(
            dvm.idle_horizon(&view_with(2_000, 0.0, 1, 9, &last, &threads)),
            2_000
        );
        // Held verdict "ok" (the initial state); waiting/ready = 1/9 keeps
        // it, so the 50-cycle checks change nothing.
        assert_eq!(
            dvm.idle_horizon(&view_with(2_001, 0.0, 1, 9, &last, &threads)),
            4_000
        );
        // waiting/ready = 90/2 > 1.0 would flip it at the next check.
        let clogged = view_with(2_001, 0.0, 90, 2, &last, &threads);
        assert_eq!(dvm.idle_horizon(&clogged), 2_050);
        dvm.begin_cycle(&view_with(2_050, 0.0, 90, 2, &last, &threads));
        // Now held "deny": the clogged view no longer flips it...
        assert_eq!(
            dvm.idle_horizon(&view_with(2_051, 0.0, 90, 2, &last, &threads)),
            4_000
        );
        // ...and a drained one would, at the next 50-cycle check.
        assert_eq!(
            dvm.idle_horizon(&view_with(3_990, 0.0, 1, 9, &last, &threads)),
            4_000
        );
        assert_eq!(
            dvm.idle_horizon(&view_with(3_901, 0.0, 1, 9, &last, &threads)),
            3_950
        );
    }

    #[test]
    fn skip_idle_repeats_the_last_cycles_denials() {
        let mut dvm = DvmController::new(0.0, DvmMode::StaticRatio(0.5));
        let metrics = Metrics::new();
        dvm.set_metrics(metrics.clone());
        let last = IntervalSnapshot::default();
        let threads = [thread_view(0, 1, false), thread_view(1, 1, false)];
        // Target 0 triggers at the sample; the clogged ratio denies both
        // threads from then on.
        let v = view_with(2_000, 0.9, 90, 2, &last, &threads);
        dvm.begin_cycle(&v);
        assert!(!dvm.allow_dispatch(&v, 0));
        assert!(!dvm.allow_dispatch(&v, 1));
        dvm.skip_idle(10);
        let h = dvm.handle();
        assert_eq!(h.lock().denied_dispatches, 2 + 2 * 10);
        assert_eq!(
            metrics.snapshot().counter("dvm.denied_dispatches"),
            Some(22)
        );
        assert_eq!(dvm.last_now, 2_010, "audit clock at the last skipped cycle");
        // The next simulated cycle starts a fresh count: one allowed
        // cycle then skipped adds nothing.
        let v = view_with(2_011, 0.9, 90, 2, &last, &threads);
        dvm.begin_cycle(&v);
        dvm.skip_idle(5);
        assert_eq!(h.lock().denied_dispatches, 22);
        assert_eq!(dvm.last_now, 2_016);
    }

    #[test]
    fn profiling_counts_samples_and_decisions() {
        let mut dvm = DvmController::new(0.4, DvmMode::DynamicRatio);
        dvm.set_profiling(true);
        let last = IntervalSnapshot::default();
        let threads = [thread_view(0, 1, false)];
        // now = 2000 is a sample-period multiple (10_000 / 5).
        let v = view_with(2_000, 0.39, 80, 5, &last, &threads);
        dvm.begin_cycle(&v);
        dvm.allow_dispatch(&v, 0);
        dvm.allow_dispatch(&v, 0);
        let report = dvm.profile_report().expect("DVM keeps a profile");
        let node = |n: &str| report.nodes.iter().find(|x| x.name == n).unwrap();
        assert_eq!(node("sample").calls, 1);
        assert_eq!(node("decide").calls, 2);
        // Both spans are roots: the pipeline grafts them under its
        // governor span.
        assert!(report.nodes.iter().all(|n| n.parent.is_none()));
    }

    #[test]
    fn telemetry_average_ratio() {
        let dvm = DvmController::new(0.4, DvmMode::DynamicRatio);
        let h = dvm.handle();
        {
            let mut t = h.lock();
            t.ratio_sum = 6.0;
            t.ratio_samples = 3;
        }
        assert!((h.lock().average_ratio() - 2.0).abs() < 1e-12);
        assert_eq!(DvmTelemetry::default().average_ratio(), 0.0);
    }
}
