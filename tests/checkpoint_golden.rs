//! Byte-level pin of the checkpoint files.
//!
//! A campaign job's checkpoint is `experiments::encode_checkpoint`: the
//! machine's own snapshot container nested with the AVF collector's state
//! inside an outer container. Restore accepts only what this binary
//! writes, so the encoder may get faster but must not change a byte. This
//! test pins the length and the FNV-1a-64 digest of the checkpoint at the
//! first two sampling-interval boundaries of a measured MEM-B run, and of
//! the bare machine snapshot at the second one.

use smtsim::avf::{profiler, AvfCollector};
use smtsim::experiments::encode_checkpoint;
use smtsim::reliability::Scheme;
use smtsim::sim::{
    FetchPolicyKind, HookAction, MachineConfig, Pipeline, RetireEvent, SimLimits, SimObserver,
};
use smtsim::workloads::{generate_program_salted, mix_by_name, model_by_name, Program};
use std::cell::RefCell;
use std::sync::Arc;

const SALT: u64 = 1;
const WARMUP_INSTS: u64 = 5_000;
/// The paper's ACE analysis window, in instructions.
const ACE_WINDOW: usize = 40_000;
/// Sampling interval of both the pipeline and the collector; checkpoints
/// land on its boundaries.
const INTERVAL_CYCLES: u64 = 10_000;

/// Length and FNV-1a-64 digest of one encoded file.
#[derive(Debug, PartialEq)]
struct Pin {
    len: usize,
    fnv: u64,
}

impl Pin {
    fn of(bytes: &[u8]) -> Pin {
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        Pin {
            len: bytes.len(),
            fnv,
        }
    }
}

/// The collector observes the run while the boundary hook reads it.
struct Shared<'a>(&'a RefCell<AvfCollector>);

impl SimObserver for Shared<'_> {
    fn on_commit(&mut self, ev: &RetireEvent) {
        self.0.borrow_mut().on_commit(ev);
    }
    fn on_squash(&mut self, ev: &RetireEvent) {
        self.0.borrow_mut().on_squash(ev);
    }
    fn on_finish(&mut self, final_cycle: u64) {
        self.0.borrow_mut().on_finish(final_cycle);
    }
}

fn tagged(mix: &str) -> Vec<Arc<Program>> {
    mix_by_name(mix)
        .unwrap()
        .benchmarks
        .iter()
        .map(|&n| {
            let raw = Arc::new(generate_program_salted(&model_by_name(n).unwrap(), SALT));
            profiler::profile_and_tag(&raw, 10_000, 5_000).0
        })
        .collect()
}

#[test]
fn checkpoint_bytes_match_the_pinned_digests() {
    let machine = MachineConfig::table2();
    let (policies, _) = Scheme::VisaOpt2.policies(FetchPolicyKind::Flush, machine.iq_size);
    let mut pipeline = Pipeline::new(machine.clone(), tagged("MEM-B"), policies);
    let start = pipeline.warm_up(WARMUP_INSTS);
    let collector = RefCell::new(
        AvfCollector::new(&machine, ACE_WINDOW, INTERVAL_CYCLES).with_start_cycle(start),
    );
    let mut checkpoints = Vec::new();
    let mut machine_at_20k = None;
    let result = pipeline.run_hooked(
        SimLimits::cycles(3 * INTERVAL_CYCLES),
        &mut Shared(&collector),
        &mut |p| {
            let at = p.cycle() - start;
            if at == 0 {
                return HookAction::Continue;
            }
            checkpoints.push((at, Pin::of(&encode_checkpoint(p, &collector.borrow()))));
            if at < 2 * INTERVAL_CYCLES {
                return HookAction::Continue;
            }
            machine_at_20k = Some(Pin::of(&p.save_snapshot()));
            HookAction::Stop
        },
    );
    assert!(!result.deadlocked, "MEM-B deadlocked");
    assert_eq!(
        checkpoints,
        [
            (
                10_000,
                Pin {
                    len: 1_460_013,
                    fnv: 0xf3ff544b098aedcd,
                },
            ),
            (
                20_000,
                Pin {
                    len: 2_429_755,
                    fnv: 0x8bf80830ad9b0bb4,
                },
            ),
        ],
        "checkpoint bytes changed"
    );
    assert_eq!(
        machine_at_20k,
        Some(Pin {
            len: 254_613,
            fnv: 0xbd8d2b32ff6dafe0,
        }),
        "machine snapshot bytes changed"
    );
}
