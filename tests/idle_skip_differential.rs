//! Differential test of the idle-cycle fast-forward.
//!
//! `warm_up` and `run` jump the clock over cycles in which nothing
//! commits, completes, issues, dispatches or is fetched, adding the
//! skipped cycles' counters in closed form; `step` always advances one
//! cycle. Each case runs twice from the same programs — once through
//! `warm_up` and `run`, once stepping every cycle and using `warm_up(0)`
//! and `run` only to reset and to close — and the two machines must
//! agree bit for bit: snapshot bytes after warm-up and at the end, the
//! retire stream, the statistics (histogram and interval series
//! included), the DVM telemetry and, on one case, the trace and the
//! metrics counters. Runs stopped by the watchdog and cancelled at a
//! boundary must end in the same state too.

use smtsim::avf::profiler;
use smtsim::metrics::Metrics;
use smtsim::reliability::{DvmHandle, Scheme};
use smtsim::sim::{
    CancelToken, FetchPolicyKind, HookAction, MachineConfig, Pipeline, RetireEvent, RetireKind,
    SimLimits, SimObserver, SimResult, DEFAULT_INTERVAL_CYCLES, DEFAULT_WATCHDOG_CYCLES,
};
use smtsim::trace::{sinks::RingSink, Tracer};
use smtsim::workloads::{mix_by_name, Program};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

const WARMUP_INSTS: u64 = 4_000;
/// Past one interval rollover and several DVM estimate samples.
const RUN_CYCLES: u64 = 12_000;
/// A DVM target (absolute IQ AVF) the MEM mixes cross, so the
/// controller triggers, throttles and restores within the run.
const DVM_TARGET: f64 = 0.05;

fn tagged(mix: &str) -> Vec<Arc<Program>> {
    mix_by_name(mix)
        .unwrap()
        .programs()
        .iter()
        .map(|p| profiler::profile_and_tag(p, 10_000, 5_000).0)
        .collect()
}

fn build(
    programs: &[Arc<Program>],
    scheme: Scheme,
    fetch: FetchPolicyKind,
) -> (Pipeline, Option<DvmHandle>) {
    let machine = MachineConfig::table2();
    let (policies, dvm) = scheme.policies(fetch, machine.iq_size);
    (Pipeline::new(machine, programs.to_vec(), policies), dvm)
}

/// Hashes every commit and squash event, and keeps the per-thread
/// commit watermarks the stepped run needs to mirror the watchdog.
struct Recorder {
    hash: DefaultHasher,
    events: u64,
    last_commit: Vec<u64>,
}

impl Recorder {
    fn new(threads: usize, now: u64) -> Recorder {
        Recorder {
            hash: DefaultHasher::new(),
            events: 0,
            last_commit: vec![now; threads],
        }
    }

    fn fold(&mut self, ev: &RetireEvent) {
        let i = &ev.inst;
        (ev.kind == RetireKind::Commit, i.tid, i.seq, i.dyn_idx, i.pc).hash(&mut self.hash);
        (i.wrong_path, i.ace_hint, ev.l2_miss, ev.fetch_cycle).hash(&mut self.hash);
        (
            ev.dispatch_cycle,
            ev.issue_cycle,
            ev.complete_cycle,
            ev.retire_cycle,
        )
            .hash(&mut self.hash);
        self.events += 1;
    }

    fn digest(&self) -> (u64, u64) {
        (self.hash.finish(), self.events)
    }
}

impl SimObserver for Recorder {
    fn on_commit(&mut self, ev: &RetireEvent) {
        self.last_commit[ev.inst.tid as usize] = ev.retire_cycle;
        self.fold(ev);
    }
    fn on_squash(&mut self, ev: &RetireEvent) {
        self.fold(ev);
    }
}

/// Everything the two paths must agree on.
#[derive(Debug, PartialEq)]
struct Outcome {
    after_warmup: Vec<u8>,
    end: Vec<u8>,
    retire: (u64, u64),
    stats: String,
    deadlocked: bool,
    cancelled: bool,
    dvm: Option<String>,
    dvm_denied: Option<u64>,
}

fn outcome(
    p: &Pipeline,
    after_warmup: Vec<u8>,
    rec: &Recorder,
    r: &SimResult,
    dvm: &Option<DvmHandle>,
) -> Outcome {
    Outcome {
        after_warmup,
        end: p.save_snapshot(),
        retire: rec.digest(),
        // Debug prints every f64 in round-trip form, so equal strings
        // mean equal bits.
        stats: format!("{:?}", r.stats),
        deadlocked: r.deadlocked,
        cancelled: r.cancelled,
        dvm: dvm.as_ref().map(|h| format!("{:?}", *h.lock())),
        dvm_denied: dvm.as_ref().map(|h| h.lock().denied_dispatches),
    }
}

/// How the measured run ends.
#[derive(Clone, Copy)]
enum Stop {
    /// After `RUN_CYCLES`.
    Cycles,
    /// On a watchdog of this many commit-less cycles.
    Watchdog(u64),
    /// Cancelled at this interval boundary of the measured window.
    CancelAt(u64),
}

impl Stop {
    fn limits(self) -> SimLimits {
        match self {
            Stop::Watchdog(w) => SimLimits::cycles(RUN_CYCLES).with_watchdog(w),
            _ => SimLimits::cycles(RUN_CYCLES),
        }
    }
}

/// `warm_up` + `run`: the fast-forwarding path.
fn fast(
    programs: &[Arc<Program>],
    scheme: Scheme,
    fetch: FetchPolicyKind,
    stop: Stop,
) -> (Outcome, u64) {
    let (mut p, dvm) = build(programs, scheme, fetch);
    let token = CancelToken::new();
    p.set_cancel_token(token.clone());
    let start = p.warm_up(WARMUP_INSTS);
    let after_warmup = p.save_snapshot();
    let mut rec = Recorder::new(programs.len(), start);
    let r = p.run_hooked(stop.limits(), &mut rec, &mut |p| {
        if let Stop::CancelAt(b) = stop {
            if p.cycle() - start == b * DEFAULT_INTERVAL_CYCLES {
                token.cancel();
            }
        }
        HookAction::Continue
    });
    (
        outcome(&p, after_warmup, &rec, &r, &dvm),
        p.fast_forwarded_cycles(),
    )
}

/// The same run stepping every cycle; `warm_up(0)` only resets the
/// measurement state and `run` only closes, stopping at once.
fn stepped(
    programs: &[Arc<Program>],
    scheme: Scheme,
    fetch: FetchPolicyKind,
    stop: Stop,
) -> Outcome {
    let (mut p, dvm) = build(programs, scheme, fetch);
    let token = CancelToken::new();
    p.set_cancel_token(token.clone());
    let mut warm = Recorder::new(programs.len(), 0);
    let mut last_commit = 0;
    while p.stats().total_committed() < WARMUP_INSTS
        && p.cycle() - last_commit <= DEFAULT_WATCHDOG_CYCLES
    {
        p.step(&mut warm);
        last_commit = warm.last_commit.iter().copied().max().unwrap();
    }
    let start = p.warm_up(0);
    let after_warmup = p.save_snapshot();
    let limits = stop.limits();
    let mut rec = Recorder::new(programs.len(), start);
    // The checks of `run_hooked`, in its order.
    loop {
        let off = p.cycle() - start;
        if off >= limits.max_cycles {
            break;
        }
        if matches!(stop, Stop::CancelAt(b) if off == b * DEFAULT_INTERVAL_CYCLES) {
            token.cancel();
            break;
        }
        let now = p.cycle();
        if rec
            .last_commit
            .iter()
            .any(|&c| now - c > limits.watchdog_cycles)
        {
            break;
        }
        p.step(&mut rec);
    }
    let r = p.run(limits, &mut rec);
    assert_eq!(p.fast_forwarded_cycles(), 0, "the reference path stepped");
    outcome(&p, after_warmup, &rec, &r, &dvm)
}

/// Run one case both ways and require identical outcomes; returns the
/// fast path's fast-forwarded cycle count.
fn check(
    programs: &[Arc<Program>],
    scheme: Scheme,
    fetch: FetchPolicyKind,
    stop: Stop,
) -> (Outcome, u64) {
    let (a, skipped) = fast(programs, scheme, fetch, stop);
    let b = stepped(programs, scheme, fetch, stop);
    assert!(
        a.after_warmup == b.after_warmup,
        "snapshots differ after warm-up"
    );
    assert!(a.end == b.end, "snapshots differ at the end");
    assert_eq!(a.retire, b.retire, "retire streams differ");
    assert_eq!(a.stats, b.stats, "statistics differ");
    assert_eq!((a.deadlocked, a.cancelled), (b.deadlocked, b.cancelled));
    assert_eq!(a.dvm, b.dvm, "DVM telemetry differs");
    (a, skipped)
}

#[test]
fn cpu_a_baseline_and_visa() {
    let programs = tagged("CPU-A");
    for scheme in [Scheme::Baseline, Scheme::Visa] {
        let (out, _) = check(&programs, scheme, FetchPolicyKind::Icount, Stop::Cycles);
        assert!(!out.deadlocked && !out.cancelled);
    }
}

#[test]
fn mem_a_dvm_dynamic_and_static() {
    let programs = tagged("MEM-A");
    let dynamic = Scheme::DvmDynamic { target: DVM_TARGET };
    let (out, skipped) = check(&programs, dynamic, FetchPolicyKind::Icount, Stop::Cycles);
    assert!(skipped > 0, "MEM-A DVM fast-forwarded nothing");
    assert!(out.dvm_denied.unwrap() > 0, "DVM never throttled");
    let fixed = Scheme::DvmStatic {
        target: DVM_TARGET,
        ratio: 1.0,
    };
    let (_, skipped) = check(&programs, fixed, FetchPolicyKind::Stall, Stop::Cycles);
    assert!(skipped > 0, "MEM-A DVM-static fast-forwarded nothing");
}

#[test]
fn mem_b_visa_opt2_flush_and_dg() {
    let programs = tagged("MEM-B");
    let (_, skipped) = check(
        &programs,
        Scheme::VisaOpt2,
        FetchPolicyKind::Flush,
        Stop::Cycles,
    );
    assert!(skipped > 0, "MEM-B VISA+opt2 fast-forwarded nothing");
    let (_, skipped) = check(
        &programs,
        Scheme::Baseline,
        FetchPolicyKind::Dg,
        Stop::Cycles,
    );
    assert!(skipped > 0, "MEM-B DG fast-forwarded nothing");
}

#[test]
fn mix_a_visa_opt1_and_pdg() {
    let programs = tagged("MIX-A");
    check(
        &programs,
        Scheme::VisaOpt1,
        FetchPolicyKind::Icount,
        Stop::Cycles,
    );
    check(&programs, Scheme::Visa, FetchPolicyKind::Pdg, Stop::Cycles);
}

#[test]
fn watchdog_and_cancel_stop_at_the_same_cycle() {
    let programs = tagged("MEM-A");
    let scheme = Scheme::DvmDynamic { target: DVM_TARGET };
    // On this run a 300-cycle watchdog trips on a busy cycle and a
    // 500-cycle one inside an idle stretch, which the fast-forward
    // must not jump past.
    for watchdog in [300, 500] {
        let stop = Stop::Watchdog(watchdog);
        let (out, _) = check(&programs, scheme, FetchPolicyKind::Icount, stop);
        assert!(out.deadlocked, "the {watchdog}-cycle watchdog never fired");
    }
    let (out, _) = check(
        &programs,
        scheme,
        FetchPolicyKind::Icount,
        Stop::CancelAt(1),
    );
    assert!(out.cancelled && !out.deadlocked);
}

#[test]
fn dvm_trace_and_metrics_match() {
    let programs = tagged("MEM-A");
    let scheme = Scheme::DvmDynamic { target: DVM_TARGET };
    let observed = |step_every_cycle: bool| {
        let (mut p, _) = build(&programs, scheme, FetchPolicyKind::Icount);
        let ring = RingSink::new(1 << 20);
        let events = ring.handle();
        let metrics = Metrics::new();
        p.set_tracer(Tracer::new(ring));
        p.set_metrics(metrics.clone());
        let start = if step_every_cycle {
            let mut sink = Recorder::new(programs.len(), 0);
            while p.stats().total_committed() < WARMUP_INSTS {
                p.step(&mut sink);
            }
            p.warm_up(0)
        } else {
            p.warm_up(WARMUP_INSTS)
        };
        let mut rec = Recorder::new(programs.len(), start);
        if step_every_cycle {
            for _ in 0..RUN_CYCLES {
                p.step(&mut rec);
            }
        }
        p.run(SimLimits::cycles(RUN_CYCLES), &mut rec);
        let mut snap = metrics.snapshot();
        // The wall-clock throughput gauge is host state, not simulation.
        snap.gauges
            .retain(|(k, _)| k != "throughput.cycles_per_sec");
        snap.series
            .retain(|(k, _)| k != "throughput.cycles_per_sec");
        (
            events.snapshot(),
            snap,
            rec.digest(),
            p.fast_forwarded_cycles(),
        )
    };
    let (trace_a, metrics_a, retire_a, skipped) = observed(false);
    let (trace_b, metrics_b, retire_b, _) = observed(true);
    assert!(skipped > 0, "nothing fast-forwarded");
    assert!(!trace_a.is_empty());
    assert_eq!(trace_a.len(), trace_b.len(), "trace lengths differ");
    assert!(trace_a == trace_b, "trace events differ");
    assert!(metrics_a.counter("dvm.denied_dispatches").unwrap_or(0) > 0);
    assert_eq!(
        metrics_a.counters, metrics_b.counters,
        "metrics counters differ"
    );
    assert_eq!(metrics_a, metrics_b, "metrics differ");
    assert_eq!(retire_a, retire_b);
}
