//! Traced-run decorators around the simulator's four public seams.
//!
//! Each wrapper forwards every trait method to the policy or observer it
//! wraps — state, snapshots, tracer/metrics/profiling hand-offs included
//! — so a traced run simulates exactly what the untraced run does. The
//! hot hooks are timed with one `Instant` pair per call into a shared
//! [`SeamClock`]; that per-call cost is the tracing overhead the traced
//! run reports, which is why end-to-end numbers never come from it.

use micro_isa::{DynSeq, Pc, ThreadId};
use sim_profile::ProfileReport;
use sim_snapshot::{SnapError, SnapReader, SnapWriter};
use smt_sim::fetch::FetchView;
use smt_sim::{
    DispatchGovernor, FetchPolicy, FetchPolicyKind, GovernorView, IntervalSnapshot, IssuePolicy,
    ReadyInst, RetireEvent, SimObserver,
};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Time and call counts accumulated at the seams of one pipeline.
#[derive(Debug, Default)]
pub struct SeamClock {
    pub observe_ns: Cell<u64>,
    pub observe_calls: Cell<u64>,
    pub governor_ns: Cell<u64>,
    pub governor_calls: Cell<u64>,
    /// `allow_dispatch` answers that were "no".
    pub dispatch_denied: Cell<u64>,
    /// `allow_dispatch` questions asked.
    pub dispatch_asked: Cell<u64>,
    pub issue_ns: Cell<u64>,
    pub issue_calls: Cell<u64>,
    /// Σ of the ready-list lengths handed to `prioritize`.
    pub ready_items: Cell<u64>,
    pub fetch_ns: Cell<u64>,
    pub fetch_calls: Cell<u64>,
}

/// A copy of a [`SeamClock`]'s counters, for before/after differences.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SeamTotals {
    pub observe_ns: u64,
    pub observe_calls: u64,
    pub governor_ns: u64,
    pub governor_calls: u64,
    pub dispatch_denied: u64,
    pub dispatch_asked: u64,
    pub issue_ns: u64,
    pub issue_calls: u64,
    pub ready_items: u64,
    pub fetch_ns: u64,
    pub fetch_calls: u64,
}

impl SeamTotals {
    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &SeamTotals) -> SeamTotals {
        SeamTotals {
            observe_ns: self.observe_ns - earlier.observe_ns,
            observe_calls: self.observe_calls - earlier.observe_calls,
            governor_ns: self.governor_ns - earlier.governor_ns,
            governor_calls: self.governor_calls - earlier.governor_calls,
            dispatch_denied: self.dispatch_denied - earlier.dispatch_denied,
            dispatch_asked: self.dispatch_asked - earlier.dispatch_asked,
            issue_ns: self.issue_ns - earlier.issue_ns,
            issue_calls: self.issue_calls - earlier.issue_calls,
            ready_items: self.ready_items - earlier.ready_items,
            fetch_ns: self.fetch_ns - earlier.fetch_ns,
            fetch_calls: self.fetch_calls - earlier.fetch_calls,
        }
    }

    /// Host time spent inside all four seams.
    pub fn seam_ns(&self) -> u64 {
        self.observe_ns + self.governor_ns + self.issue_ns + self.fetch_ns
    }
}

impl SeamClock {
    pub fn totals(&self) -> SeamTotals {
        SeamTotals {
            observe_ns: self.observe_ns.get(),
            observe_calls: self.observe_calls.get(),
            governor_ns: self.governor_ns.get(),
            governor_calls: self.governor_calls.get(),
            dispatch_denied: self.dispatch_denied.get(),
            dispatch_asked: self.dispatch_asked.get(),
            issue_ns: self.issue_ns.get(),
            issue_calls: self.issue_calls.get(),
            ready_items: self.ready_items.get(),
            fetch_ns: self.fetch_ns.get(),
            fetch_calls: self.fetch_calls.get(),
        }
    }
}

fn add(cell: &Cell<u64>, n: u64) {
    cell.set(cell.get() + n);
}

/// Run `f`, charging its wall time and one call to the given counters.
fn timed<R>(ns: &Cell<u64>, calls: &Cell<u64>, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    add(ns, t.elapsed().as_nanos() as u64);
    add(calls, 1);
    r
}

/// [`SimObserver`] decorator (wraps the AVF collector).
pub struct TimedObserver<'a, O: SimObserver + ?Sized> {
    inner: &'a mut O,
    clock: Rc<SeamClock>,
}

impl<'a, O: SimObserver + ?Sized> TimedObserver<'a, O> {
    pub fn new(inner: &'a mut O, clock: Rc<SeamClock>) -> Self {
        TimedObserver { inner, clock }
    }
}

impl<O: SimObserver + ?Sized> SimObserver for TimedObserver<'_, O> {
    fn on_commit(&mut self, ev: &RetireEvent) {
        let c = &self.clock;
        timed(&c.observe_ns, &c.observe_calls, || self.inner.on_commit(ev))
    }
    fn on_squash(&mut self, ev: &RetireEvent) {
        let c = &self.clock;
        timed(&c.observe_ns, &c.observe_calls, || self.inner.on_squash(ev))
    }
    fn on_finish(&mut self, final_cycle: u64) {
        self.inner.on_finish(final_cycle)
    }
}

/// [`DispatchGovernor`] decorator (opt1, opt2, DVM, unlimited).
pub struct TimedGovernor {
    inner: Box<dyn DispatchGovernor>,
    clock: Rc<SeamClock>,
}

impl TimedGovernor {
    pub fn new(inner: Box<dyn DispatchGovernor>, clock: Rc<SeamClock>) -> Self {
        TimedGovernor { inner, clock }
    }
}

impl DispatchGovernor for TimedGovernor {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn begin_cycle(&mut self, view: &GovernorView) {
        let c = &self.clock;
        timed(&c.governor_ns, &c.governor_calls, || {
            self.inner.begin_cycle(view)
        })
    }
    fn on_interval(&mut self, snapshot: &IntervalSnapshot, view: &GovernorView) {
        let c = &self.clock;
        timed(&c.governor_ns, &c.governor_calls, || {
            self.inner.on_interval(snapshot, view)
        })
    }
    fn allow_dispatch(&mut self, view: &GovernorView, tid: ThreadId) -> bool {
        let c = &self.clock;
        let ok = timed(&c.governor_ns, &c.governor_calls, || {
            self.inner.allow_dispatch(view, tid)
        });
        add(&c.dispatch_asked, 1);
        if !ok {
            add(&c.dispatch_denied, 1);
        }
        ok
    }
    fn on_l2_miss(&mut self, tid: ThreadId) {
        let c = &self.clock;
        timed(&c.governor_ns, &c.governor_calls, || {
            self.inner.on_l2_miss(tid)
        })
    }
    fn flush_override(&self) -> bool {
        self.inner.flush_override()
    }
    fn set_tracer(&mut self, tracer: sim_trace::Tracer) {
        self.inner.set_tracer(tracer)
    }
    fn set_metrics(&mut self, metrics: sim_metrics::Metrics) {
        self.inner.set_metrics(metrics)
    }
    fn set_profiling(&mut self, on: bool) {
        self.inner.set_profiling(on)
    }
    fn profile_report(&self) -> Option<ProfileReport> {
        self.inner.profile_report()
    }
    fn save_state(&self, w: &mut SnapWriter) {
        self.inner.save_state(w)
    }
    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.restore_state(r)
    }
}

/// [`IssuePolicy`] decorator (VISA, oldest-first).
pub struct TimedIssue {
    inner: Box<dyn IssuePolicy>,
    clock: Rc<SeamClock>,
}

impl TimedIssue {
    pub fn new(inner: Box<dyn IssuePolicy>, clock: Rc<SeamClock>) -> Self {
        TimedIssue { inner, clock }
    }
}

impl IssuePolicy for TimedIssue {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn prioritize(&mut self, ready: &mut Vec<ReadyInst>) {
        let c = &self.clock;
        add(&c.ready_items, ready.len() as u64);
        timed(&c.issue_ns, &c.issue_calls, || self.inner.prioritize(ready))
    }
}

/// [`FetchPolicy`] decorator (ICOUNT, STALL, FLUSH, DG, PDG).
pub struct TimedFetch {
    inner: Box<dyn FetchPolicy>,
    clock: Rc<SeamClock>,
}

impl TimedFetch {
    pub fn new(inner: Box<dyn FetchPolicy>, clock: Rc<SeamClock>) -> Self {
        TimedFetch { inner, clock }
    }
}

impl FetchPolicy for TimedFetch {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn kind(&self) -> FetchPolicyKind {
        self.inner.kind()
    }
    fn thread_order(&mut self, view: &FetchView) -> Vec<ThreadId> {
        let c = &self.clock;
        timed(&c.fetch_ns, &c.fetch_calls, || {
            self.inner.thread_order(view)
        })
    }
    fn gate(&self, view: &FetchView, tid: ThreadId) -> bool {
        let c = &self.clock;
        timed(&c.fetch_ns, &c.fetch_calls, || self.inner.gate(view, tid))
    }
    fn flush_on_l2_miss(&self) -> bool {
        self.inner.flush_on_l2_miss()
    }
    fn on_load_fetched(&mut self, tid: ThreadId, seq: DynSeq, pc: Pc) {
        let c = &self.clock;
        timed(&c.fetch_ns, &c.fetch_calls, || {
            self.inner.on_load_fetched(tid, seq, pc)
        })
    }
    fn on_load_issued(&mut self, tid: ThreadId, pc: Pc, l1_miss: bool) {
        let c = &self.clock;
        timed(&c.fetch_ns, &c.fetch_calls, || {
            self.inner.on_load_issued(tid, pc, l1_miss)
        })
    }
    fn on_load_gone(&mut self, tid: ThreadId, seq: DynSeq) {
        let c = &self.clock;
        timed(&c.fetch_ns, &c.fetch_calls, || {
            self.inner.on_load_gone(tid, seq)
        })
    }
    fn save_state(&self, w: &mut SnapWriter) {
        self.inner.save_state(w)
    }
    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.restore_state(r)
    }
}

/// Wrap all three policy seams of a pipeline's policy bundle.
pub fn wrap_policies(
    policies: smt_sim::pipeline::PipelinePolicies,
    clock: &Rc<SeamClock>,
) -> smt_sim::pipeline::PipelinePolicies {
    smt_sim::pipeline::PipelinePolicies {
        fetch: Box::new(TimedFetch::new(policies.fetch, clock.clone())),
        issue: Box::new(TimedIssue::new(policies.issue, clock.clone())),
        governor: Box::new(TimedGovernor::new(policies.governor, clock.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// Records every call it receives, by method name.
    #[derive(Clone, Default)]
    struct Log(Rc<RefCell<Vec<&'static str>>>);

    impl Log {
        fn push(&self, m: &'static str) {
            self.0.borrow_mut().push(m);
        }
        fn take(&self) -> Vec<&'static str> {
            std::mem::take(&mut *self.0.borrow_mut())
        }
    }

    struct FakeGovernor(Log);
    impl DispatchGovernor for FakeGovernor {
        fn name(&self) -> &'static str {
            self.0.push("name");
            "fake-gov"
        }
        fn begin_cycle(&mut self, _v: &GovernorView) {
            self.0.push("begin_cycle")
        }
        fn on_interval(&mut self, _s: &IntervalSnapshot, _v: &GovernorView) {
            self.0.push("on_interval")
        }
        fn allow_dispatch(&mut self, _v: &GovernorView, tid: ThreadId) -> bool {
            self.0.push("allow_dispatch");
            tid == 0
        }
        fn on_l2_miss(&mut self, _tid: ThreadId) {
            self.0.push("on_l2_miss")
        }
        fn flush_override(&self) -> bool {
            self.0.push("flush_override");
            true
        }
        fn set_tracer(&mut self, _t: sim_trace::Tracer) {
            self.0.push("set_tracer")
        }
        fn set_metrics(&mut self, _m: sim_metrics::Metrics) {
            self.0.push("set_metrics")
        }
        fn set_profiling(&mut self, _on: bool) {
            self.0.push("set_profiling")
        }
        fn profile_report(&self) -> Option<ProfileReport> {
            self.0.push("profile_report");
            None
        }
        fn save_state(&self, w: &mut SnapWriter) {
            self.0.push("save_state");
            w.put(&7u64);
        }
        fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
            self.0.push("restore_state");
            let v: u64 = r.get()?;
            assert_eq!(v, 7);
            Ok(())
        }
    }

    struct FakeFetch(Log);
    impl FetchPolicy for FakeFetch {
        fn name(&self) -> &'static str {
            self.0.push("name");
            "fake-fetch"
        }
        fn kind(&self) -> FetchPolicyKind {
            self.0.push("kind");
            FetchPolicyKind::Pdg
        }
        fn thread_order(&mut self, _v: &FetchView) -> Vec<ThreadId> {
            self.0.push("thread_order");
            vec![3, 1]
        }
        fn gate(&self, _v: &FetchView, tid: ThreadId) -> bool {
            self.0.push("gate");
            tid == 1
        }
        fn flush_on_l2_miss(&self) -> bool {
            self.0.push("flush_on_l2_miss");
            true
        }
        fn on_load_fetched(&mut self, _t: ThreadId, _s: DynSeq, _p: Pc) {
            self.0.push("on_load_fetched")
        }
        fn on_load_issued(&mut self, _t: ThreadId, _p: Pc, _m: bool) {
            self.0.push("on_load_issued")
        }
        fn on_load_gone(&mut self, _t: ThreadId, _s: DynSeq) {
            self.0.push("on_load_gone")
        }
        fn save_state(&self, w: &mut SnapWriter) {
            self.0.push("save_state");
            w.put(&9u64);
        }
        fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
            self.0.push("restore_state");
            let v: u64 = r.get()?;
            assert_eq!(v, 9);
            Ok(())
        }
    }

    struct FakeIssue(Log);
    impl IssuePolicy for FakeIssue {
        fn name(&self) -> &'static str {
            self.0.push("name");
            "fake-issue"
        }
        fn prioritize(&mut self, ready: &mut Vec<ReadyInst>) {
            self.0.push("prioritize");
            ready.reverse();
        }
    }

    #[derive(Default)]
    struct FakeObserver(Vec<&'static str>);
    impl SimObserver for FakeObserver {
        fn on_commit(&mut self, _ev: &RetireEvent) {
            self.0.push("on_commit")
        }
        fn on_squash(&mut self, _ev: &RetireEvent) {
            self.0.push("on_squash")
        }
        fn on_finish(&mut self, _c: u64) {
            self.0.push("on_finish")
        }
    }

    fn retire_event() -> RetireEvent {
        RetireEvent {
            inst: micro_isa::DynInst {
                seq: 0,
                tid: 0,
                dyn_idx: 0,
                pc: 0,
                op: micro_isa::OpClass::IAlu,
                dest: None,
                srcs: [None, None],
                mem_addr: None,
                ctrl: None,
                ace_hint: false,
                wrong_path: false,
            },
            kind: smt_sim::RetireKind::Commit,
            fetch_cycle: 1,
            dispatch_cycle: Some(2),
            issue_cycle: Some(3),
            complete_cycle: Some(4),
            retire_cycle: 5,
            l2_miss: false,
        }
    }

    fn snapshot_round_trip(save: impl Fn(&mut SnapWriter), restore: impl FnOnce(&[u8])) {
        let mut w = SnapWriter::new();
        save(&mut w);
        restore(&w.into_bytes());
    }

    #[test]
    fn governor_decorator_forwards_every_method() {
        let log = Log::default();
        let clock = Rc::new(SeamClock::default());
        let mut g = TimedGovernor::new(Box::new(FakeGovernor(log.clone())), clock.clone());
        let threads = [];
        let iv = IntervalSnapshot::default();
        let view = GovernorView {
            now: 0,
            iq_size: 96,
            iq_len: 0,
            ready_len: 0,
            waiting_len: 0,
            last_interval: &iv,
            interval_hint_bits: 0,
            interval_cycles: 0,
            threads: &threads,
        };
        assert_eq!(g.name(), "fake-gov");
        g.begin_cycle(&view);
        g.on_interval(&iv, &view);
        assert!(g.allow_dispatch(&view, 0));
        assert!(!g.allow_dispatch(&view, 1));
        g.on_l2_miss(2);
        assert!(g.flush_override());
        g.set_tracer(sim_trace::Tracer::off());
        g.set_metrics(sim_metrics::Metrics::off());
        g.set_profiling(true);
        assert!(g.profile_report().is_none());
        snapshot_round_trip(
            |w| g.save_state(w),
            |bytes| {
                let mut g2 = TimedGovernor::new(Box::new(FakeGovernor(log.clone())), clock.clone());
                let mut r = SnapReader::new(bytes);
                g2.restore_state(&mut r).unwrap();
            },
        );
        assert_eq!(
            log.take(),
            [
                "name",
                "begin_cycle",
                "on_interval",
                "allow_dispatch",
                "allow_dispatch",
                "on_l2_miss",
                "flush_override",
                "set_tracer",
                "set_metrics",
                "set_profiling",
                "profile_report",
                "save_state",
                "restore_state",
            ]
        );
        let t = clock.totals();
        assert_eq!(
            t.governor_calls, 5,
            "timed: begin, interval, 2x allow, l2 miss"
        );
        assert_eq!((t.dispatch_asked, t.dispatch_denied), (2, 1));
    }

    #[test]
    fn fetch_decorator_forwards_every_method() {
        let log = Log::default();
        let clock = Rc::new(SeamClock::default());
        let mut f = TimedFetch::new(Box::new(FakeFetch(log.clone())), clock.clone());
        let view = FetchView {
            now: 0,
            threads: &[],
        };
        assert_eq!(f.name(), "fake-fetch");
        assert_eq!(f.kind(), FetchPolicyKind::Pdg);
        assert_eq!(f.thread_order(&view), vec![3, 1]);
        assert!(f.gate(&view, 1));
        assert!(f.flush_on_l2_miss());
        f.on_load_fetched(0, 1, 2);
        f.on_load_issued(0, 2, true);
        f.on_load_gone(0, 1);
        snapshot_round_trip(
            |w| f.save_state(w),
            |bytes| {
                let mut f2 = TimedFetch::new(Box::new(FakeFetch(log.clone())), clock.clone());
                let mut r = SnapReader::new(bytes);
                f2.restore_state(&mut r).unwrap();
            },
        );
        assert_eq!(
            log.take(),
            [
                "name",
                "kind",
                "thread_order",
                "gate",
                "flush_on_l2_miss",
                "on_load_fetched",
                "on_load_issued",
                "on_load_gone",
                "save_state",
                "restore_state",
            ]
        );
        assert_eq!(clock.totals().fetch_calls, 5);
    }

    #[test]
    fn issue_decorator_forwards_and_counts_ready_items() {
        let log = Log::default();
        let clock = Rc::new(SeamClock::default());
        let mut i = TimedIssue::new(Box::new(FakeIssue(log.clone())), clock.clone());
        assert_eq!(i.name(), "fake-issue");
        let mut ready: Vec<ReadyInst> = Vec::new();
        i.prioritize(&mut ready);
        assert_eq!(log.take(), ["name", "prioritize"]);
        let t = clock.totals();
        assert_eq!((t.issue_calls, t.ready_items), (1, 0));
    }

    #[test]
    fn observer_decorator_forwards_every_method() {
        let clock = Rc::new(SeamClock::default());
        let mut inner = FakeObserver::default();
        let ev = retire_event();
        {
            let mut o = TimedObserver::new(&mut inner, clock.clone());
            o.on_commit(&ev);
            o.on_squash(&ev);
            o.on_finish(10);
        }
        assert_eq!(inner.0, ["on_commit", "on_squash", "on_finish"]);
        assert_eq!(clock.totals().observe_calls, 2);
    }

    #[test]
    fn since_subtracts_counters() {
        let a = SeamTotals {
            observe_ns: 5,
            issue_calls: 2,
            ..SeamTotals::default()
        };
        let b = SeamTotals {
            observe_ns: 9,
            issue_calls: 3,
            fetch_ns: 4,
            ..SeamTotals::default()
        };
        let d = b.since(&a);
        assert_eq!((d.observe_ns, d.issue_calls, d.fetch_ns), (4, 1, 4));
        assert_eq!(d.seam_ns(), 8);
    }
}
