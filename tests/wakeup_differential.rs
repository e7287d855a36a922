//! Per-cycle differential test of the event-driven wakeup/select state.
//!
//! The pipeline keeps its dependent lists, selectable set and executing
//! counters up to date at each transition instead of scanning the issue
//! queue. `check_invariants` recomputes all of them from the queue, so
//! running it after every cycle compares the incremental state with the
//! from-scratch one at every dispatch, wakeup, issue, writeback,
//! misprediction squash, FLUSH rollback and fault-injection inhibit —
//! not only at the interval boundaries `--selfcheck` samples.

use smtsim::avf::profiler;
use smtsim::reliability::Scheme;
use smtsim::sim::{
    AppliedFault, FetchPolicyKind, InjectableState, IqBitClass, MachineConfig, NullObserver,
    Pipeline, RobBitKind, DEFAULT_INTERVAL_CYCLES,
};
use smtsim::workloads::{mix_by_name, Program};
use std::sync::Arc;

const CYCLES: u64 = 10_000;

fn tagged(mix: &str) -> Vec<Arc<Program>> {
    mix_by_name(mix)
        .unwrap()
        .programs()
        .iter()
        .map(|p| profiler::profile_and_tag(p, 10_000, 5_000).0)
        .collect()
}

fn pipeline(programs: &[Arc<Program>], scheme: Scheme, fetch: FetchPolicyKind) -> Pipeline {
    let machine = MachineConfig::table2();
    let (policies, _) = scheme.policies(fetch, machine.iq_size);
    Pipeline::new(machine, programs.to_vec(), policies)
}

/// Step `cycles` cycles, sweeping the invariants after each one.
fn step_checked(p: &mut Pipeline, cycles: u64) {
    for _ in 0..cycles {
        p.step(&mut NullObserver);
        if let Err(e) = p.check_invariants() {
            panic!("invariant broken after a step: {e}");
        }
    }
}

#[test]
fn cpu_a_under_oldest_first() {
    let mut p = pipeline(&tagged("CPU-A"), Scheme::Baseline, FetchPolicyKind::Icount);
    step_checked(&mut p, CYCLES);
    assert!(p.stats().total_committed() > CYCLES, "CPU-A barely ran");
    assert!(p.stats().squashed > 0, "no misprediction squash exercised");
}

#[test]
fn cpu_a_under_visa_and_across_a_restore() {
    let programs = tagged("CPU-A");
    let mut p = pipeline(&programs, Scheme::Visa, FetchPolicyKind::Icount);
    step_checked(&mut p, CYCLES);
    assert_eq!(p.cycle() % DEFAULT_INTERVAL_CYCLES, 0, "not at a boundary");

    // The derived state is not in the snapshot: the restore rebuilds it,
    // and the rebuilt copy must match the live one from then on.
    let snap = p.save_snapshot();
    let mut q = pipeline(&programs, Scheme::Visa, FetchPolicyKind::Icount);
    q.restore_snapshot(&snap).unwrap();
    q.check_invariants().unwrap();
    step_checked(&mut p, 1_000);
    step_checked(&mut q, 1_000);
    assert!(
        p.save_snapshot() == q.save_snapshot(),
        "restored pipeline diverged from the live one"
    );
}

#[test]
fn mem_b_under_visa_opt2_with_flush() {
    let mut p = pipeline(&tagged("MEM-B"), Scheme::VisaOpt2, FetchPolicyKind::Flush);
    step_checked(&mut p, CYCLES);
    assert!(p.stats().flushes > 0, "no FLUSH rollback exercised");
    assert!(p.stats().squashed > 0);
}

#[test]
fn select_critical_flips_inhibit_victims_mid_run() {
    let mut p = pipeline(&tagged("CPU-A"), Scheme::Baseline, FetchPolicyKind::Icount);
    let select_bit = (0..smtsim::sim::layout::IQ_ENTRY_BITS)
        .find(|&b| smtsim::sim::iq_bit_class(b) == IqBitClass::SelectCritical)
        .unwrap();
    let mut inhibited = 0;
    for round in 0..8 {
        step_checked(&mut p, CYCLES / 10);
        // Prefer wrong-path victims, which a squash later sweeps away,
        // so the run keeps committing around the blinded entries. Search
        // from the youngest slots, where entries dispatched this cycle
        // with their operands ready are still selectable.
        let pick = |waiting: &dyn Fn(usize) -> Option<bool>, n: usize| {
            let candidates: Vec<(usize, bool)> = (0..n)
                .rev()
                .filter_map(|e| waiting(e).map(|wp| (e, wp)))
                .collect();
            candidates
                .iter()
                .find(|(_, wp)| *wp)
                .or(candidates.first())
                .map(|&(e, _)| e)
        };
        let fault = if round % 2 == 0 {
            let iq = p.iq_state();
            let entry = pick(
                &|e| iq.occupant(e).filter(|o| !o.issued).map(|o| o.wrong_path),
                iq.entries(),
            );
            entry.map(|e| p.inject_iq_bit(e, select_bit))
        } else {
            let rob = p.rob_state(1);
            let entry = pick(
                &|e| {
                    rob.occupant(e)
                        .filter(|o| !o.issued && !o.completed)
                        .map(|o| o.wrong_path)
                },
                rob.entries(),
            );
            entry.map(|e| p.inject_rob_bit(e, 0, RobBitKind::Control))
        };
        if let Some(AppliedFault::RetireCritical {
            inhibited: true, ..
        }) = fault
        {
            inhibited += 1;
        }
        p.check_invariants().unwrap();
    }
    step_checked(&mut p, CYCLES / 5);
    assert!(inhibited >= 4, "only {inhibited} flips inhibited a victim");
}
