//! Bit-level pin of the whole `AvfReport`.
//!
//! perfbench's digests fix only `iq_avf`. This test fixes every field the
//! exhibits read: the five structure AVFs (Figure 1), the ACE fraction,
//! the committed count and every sample of the per-interval IQ AVF series
//! (the PVE input). Three cases run once each, with two collectors
//! observing the same retire stream: one with the paper's 40 000-
//! instruction window, where every instruction finalizes in the end-of-run
//! drain, and one with a 1 000-instruction window, where most finalize as
//! they slide out of it. A change to the ACE analysis or to the AVF
//! accounting must leave every pinned bit as it is, or say why not.

use smtsim::avf::{profiler, AvfCollector, AvfReport};
use smtsim::reliability::Scheme;
use smtsim::sim::{FetchPolicyKind, MachineConfig, Pipeline, RetireEvent, SimLimits, SimObserver};
use smtsim::workloads::{generate_program_salted, mix_by_name, model_by_name, Program};
use std::sync::Arc;

const SALT: u64 = 1;
const WARMUP_INSTS: u64 = 5_000;
const RUN_CYCLES: u64 = 20_000;
const INTERVAL_CYCLES: u64 = 5_000;
/// Drain path, then slide path.
const WINDOWS: [usize; 2] = [40_000, 1_000];
/// Absolute IQ AVF target of the DVM case.
const DVM_TARGET: f64 = 0.05;

/// One pinned report: `f64` fields as `to_bits`.
#[derive(Debug, PartialEq)]
struct Pin {
    iq: u64,
    rob: u64,
    rf: u64,
    fu: u64,
    lsq: u64,
    ace_fraction: u64,
    committed: u64,
    intervals: Vec<u64>,
}

impl Pin {
    fn of(r: &AvfReport) -> Pin {
        Pin {
            iq: r.iq_avf.to_bits(),
            rob: r.rob_avf.to_bits(),
            rf: r.rf_avf.to_bits(),
            fu: r.fu_avf.to_bits(),
            lsq: r.lsq_avf.to_bits(),
            ace_fraction: r.ace_fraction.to_bits(),
            committed: r.committed,
            intervals: r
                .iq_interval_avf
                .samples()
                .iter()
                .map(|s| s.to_bits())
                .collect(),
        }
    }
}

/// Feeds one retire stream to a collector per window.
struct Fanout(Vec<AvfCollector>);

impl SimObserver for Fanout {
    fn on_commit(&mut self, ev: &RetireEvent) {
        for c in &mut self.0 {
            c.on_commit(ev);
        }
    }
    fn on_squash(&mut self, ev: &RetireEvent) {
        for c in &mut self.0 {
            c.on_squash(ev);
        }
    }
    fn on_finish(&mut self, final_cycle: u64) {
        for c in &mut self.0 {
            c.on_finish(final_cycle);
        }
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

/// One report per entry of `WINDOWS`.
fn reports(mix: &str, scheme: Scheme, fetch: FetchPolicyKind) -> Vec<Pin> {
    let machine = MachineConfig::table2();
    let (policies, _) = scheme.policies(fetch, machine.iq_size);
    let mut pipeline = Pipeline::new(machine.clone(), tagged(mix), policies);
    let start = pipeline.warm_up(WARMUP_INSTS);
    let mut fan = Fanout(
        WINDOWS
            .iter()
            .map(|&w| AvfCollector::new(&machine, w, INTERVAL_CYCLES).with_start_cycle(start))
            .collect(),
    );
    let result = pipeline.run(SimLimits::cycles(RUN_CYCLES), &mut fan);
    assert!(!result.deadlocked, "{mix} deadlocked");
    fan.0.iter().map(|c| Pin::of(&c.report())).collect()
}

/// The pinned reports, per case: the 40 000-instruction window, then the
/// 1 000-instruction one.
fn pinned() -> [(&'static str, [Pin; 2]); 3] {
    [
        (
            "CPU-A baseline ICOUNT",
            [
                Pin {
                    iq: 0x3fcb97fb8273342c,
                    rob: 0x3fb923e4cd749279,
                    rf: 0x3fb2f315b573eab3,
                    fu: 0x3fb02892e4ee691d,
                    lsq: 0x3fc93bfbf567aef4,
                    ace_fraction: 0x3fd6de66ec7b7979,
                    committed: 60_217,
                    intervals: vec![
                        0x3fcf2065759daa69,
                        0x3fd056fa767b081e,
                        0x3fc7ab01900327cb,
                        0x3fc6e6921735ee40,
                    ],
                },
                Pin {
                    iq: 0x3fcb95cbe7aaae8d,
                    rob: 0x3fb92359ddc1e796,
                    rf: 0x3fb2154fdf3b645a,
                    fu: 0x3fb02333c3013495,
                    lsq: 0x3fc9398191f44215,
                    ace_fraction: 0x3fd6d15792854fde,
                    committed: 60_217,
                    intervals: vec![
                        0x3fcf2065759daa69,
                        0x3fd0559a829dec6e,
                        0x3fc7a7ed3051502d,
                        0x3fc6e3a7f37fe6c2,
                    ],
                },
            ],
        ),
        (
            "MEM-B VISA+opt2 FLUSH",
            [
                Pin {
                    iq: 0x3fbfaa13b0ee997e,
                    rob: 0x3fa02524d63188c7,
                    rf: 0x3fb3793a92a30553,
                    fu: 0x3fa627e8204cc54f,
                    lsq: 0x3fa90138d33e8f40,
                    ace_fraction: 0x3fd82484e4fa116e,
                    committed: 41_948,
                    intervals: vec![
                        0x3fc500d32beb109d,
                        0x3fc1258a7d85076b,
                        0x3fbd12ff41b3ef8e,
                        0x3fb548942f26465c,
                    ],
                },
                Pin {
                    iq: 0x3fbcd651c4af10ea,
                    rob: 0x3f9ee2e79d7a4080,
                    rf: 0x3fb01cd9e83e425b,
                    fu: 0x3fa25448b2b9dd62,
                    lsq: 0x3fa81d37d7960cd6,
                    ace_fraction: 0x3fd4b61b7caaf9d3,
                    committed: 41_948,
                    intervals: vec![
                        0x3fc38194dde9847c,
                        0x3fbeaa25a721c8cf,
                        0x3fb9dae0cb6781e7,
                        0x3fb3d116e45feffb,
                    ],
                },
            ],
        ),
        (
            "MIX-A DVM-dynamic ICOUNT",
            [
                Pin {
                    iq: 0x3fadde2a1525c251,
                    rob: 0x3f989e08aefb2aae,
                    rf: 0x3fafff0d844d013b,
                    fu: 0x3f91efb5a9d7f3ec,
                    lsq: 0x3fad868e986d021a,
                    ace_fraction: 0x3fd92b4a1e154e3e,
                    committed: 19_249,
                    intervals: vec![
                        0x3fafba48d91e4b94,
                        0x3fb13bb3f7529284,
                        0x3fad91970d271813,
                        0x3fa7b5607fac8096,
                    ],
                },
                Pin {
                    iq: 0x3fadde2a1525c251,
                    rob: 0x3f989e08aefb2aae,
                    rf: 0x3fafff0d844d013b,
                    fu: 0x3f91efb5a9d7f3ec,
                    lsq: 0x3fad868e986d021a,
                    ace_fraction: 0x3fd92b4a1e154e3e,
                    committed: 19_249,
                    intervals: vec![
                        0x3fafba48d91e4b94,
                        0x3fb13bb3f7529284,
                        0x3fad91970d271813,
                        0x3fa7b5607fac8096,
                    ],
                },
            ],
        ),
    ]
}

#[test]
fn avf_reports_match_the_pinned_bits() {
    let got = [
        reports("CPU-A", Scheme::Baseline, FetchPolicyKind::Icount),
        reports("MEM-B", Scheme::VisaOpt2, FetchPolicyKind::Flush),
        reports(
            "MIX-A",
            Scheme::DvmDynamic { target: DVM_TARGET },
            FetchPolicyKind::Icount,
        ),
    ];
    let mut slid = false;
    for ((case, want), got) in pinned().iter().zip(&got) {
        assert!(
            got.as_slice() == want,
            "{case}: AvfReport bits changed\n got: {got:#x?}\nwant: {want:#x?}"
        );
        slid |= got[0] != got[1];
    }
    assert!(slid, "no case differs between the two windows");
}
