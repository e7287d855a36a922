//! Property tests tying fault injection to the ACE-analysis model.
//!
//! The central contract: a bit the ACE analyzer calls un-ACE must be
//! masked under injection — otherwise the analytical AVF model is
//! missing real vulnerability. The inverse is deliberately not asserted
//! (ACE analysis is conservative; an ACE-classified value can still be
//! masked by logic downstream of the model's visibility).

use std::sync::{Arc, OnceLock};

use avf::{AceAnalyzer, AceInstRecord, Finalized};
use proptest::prelude::*;
use sim_faultinject::{
    golden_digest, replay, CampaignConfig, CommitRec, FaultDirective, GoldenRecorder, SinkDigest,
};
use sim_metrics::Metrics;
use sim_trace::Tracer;
use smt_sim::pipeline::PipelinePolicies;
use smt_sim::{MachineConfig, Pipeline, SimObserver};
use workload_gen::{generate_program_salted, model_by_name, Program};

const NUM_THREADS: usize = 4;

fn cpu_programs(salt: u64) -> Vec<Arc<Program>> {
    ["bzip2", "gcc", "eon", "perlbmk"]
        .iter()
        .map(|m| Arc::new(generate_program_salted(&model_by_name(m).unwrap(), salt)))
        .collect()
}

/// Capture a golden commit stream from a warmed table-2 machine.
fn capture(salt: u64, warmup_insts: u64, run_cycles: u64) -> Vec<CommitRec> {
    let mut pipeline = Pipeline::new(
        MachineConfig::table2(),
        cpu_programs(salt),
        PipelinePolicies::default(),
    );
    let start = pipeline.warm_up(warmup_insts);
    let mut recorder = GoldenRecorder::default();
    while pipeline.cycle() - start < run_cycles {
        pipeline.step(&mut recorder);
    }
    let end = pipeline.cycle();
    recorder.on_finish(end);
    recorder.commits
}

struct Fixture {
    commits: Vec<CommitRec>,
    golden: SinkDigest,
    /// Committed seqs the ACE analyzer finalizes as un-ACE, using a
    /// window wider than the whole run (so the classification is exact,
    /// not truncation-limited).
    unace: Vec<u64>,
}

fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| {
        let commits = capture(42, 2_000, 6_000);
        let golden = golden_digest(NUM_THREADS, &commits);
        let mut unace = Vec::new();
        {
            let mut analyzer: AceAnalyzer<u64> = AceAnalyzer::new(NUM_THREADS, 1 << 20);
            let mut finalize = |f: Finalized<u64>| {
                if !f.ace {
                    unace.push(f.payload);
                }
            };
            for rec in &commits {
                analyzer.push(
                    AceInstRecord {
                        tid: rec.tid,
                        op: rec.op,
                        dest: rec.dest,
                        srcs: rec.srcs,
                        commit_cycle: rec.retire_cycle,
                    },
                    rec.seq,
                    &mut finalize,
                );
            }
            analyzer.drain(&mut finalize);
        }
        assert!(
            !unace.is_empty(),
            "fixture run produced no un-ACE instructions"
        );
        Fixture {
            commits,
            golden,
            unace,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A payload flip on an instruction the exact (full-window) ACE
    /// analysis classifies un-ACE never reaches the architectural sink
    /// stream: the injection subsystem and the analytical model agree
    /// on what "dead" means.
    #[test]
    fn unace_committed_victim_payload_flip_is_masked(pick in 0usize..4096, bit in 0u32..64) {
        let fx = fixture();
        let victim_seq = fx.unace[pick % fx.unace.len()];
        let faulty = replay(
            NUM_THREADS,
            &fx.commits,
            FaultDirective::PerturbResult {
                victim_seq,
                perturbation: 0x8000_0000_0000_0001u64.rotate_left(bit),
            },
        );
        prop_assert!(
            faulty.chains_match(&fx.golden),
            "un-ACE victim seq {victim_seq} (bit {bit}) corrupted the sink stream"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A campaign with zero trials is a pure observer: its golden
    /// digest reproduces an independent instrumented run of the same
    /// seed bit-for-bit, across workload salts.
    #[test]
    fn zero_injection_campaign_reproduces_golden_digest(salt in 0u64..32) {
        let cfg = CampaignConfig {
            machine: MachineConfig::table2(),
            warmup_insts: 2_000,
            run_cycles: 4_000,
            watchdog_cycles: 2_000,
            iq_trials: 0,
            rob_trials: 0,
            rf_trials: 0,
            ace_window: 1 << 16,
            seed: salt,
        };
        let programs = cpu_programs(salt);
        let result = sim_faultinject::run_campaign(
            &cfg,
            &programs,
            &PipelinePolicies::default,
            &Metrics::off(),
            &Tracer::off(),
        );
        let commits = capture(salt, cfg.warmup_insts, cfg.run_cycles);
        prop_assert_eq!(result.committed, commits.len() as u64);
        prop_assert_eq!(&result.golden, &golden_digest(NUM_THREADS, &commits));
    }
}
