//! Offline instruction vulnerability profiling (paper Section 2.1).
//!
//! A functional correct-path run (no pipeline, no speculation — "we make
//! our classification independent of branch predictor implementation")
//! classifies each *dynamic* instruction with the ground-truth ACE
//! analysis, then folds to *static* granularity: a PC is tagged ACE if
//! **any** of its dynamic instances was ACE. The tag becomes the 1-bit
//! ISA hint that VISA issue reads at decode.
//!
//! The folding is deliberately conservative: it can never miss a
//! reliability-critical instance (no false negatives) but mislabels
//! instances of mixed-behaviour PCs (false positives). The per-benchmark
//! identification accuracy this produces is the paper's Table 1.

use crate::ace::{AceAnalyzer, AceInstRecord, Finalized};
use micro_isa::Pc;
use std::sync::Arc;
use workload_gen::{Program, ThreadEngine};

// The window entries are the profiler's working set.
const _: () = assert!(
    crate::ace::entry_size::<Pc>() <= 32,
    "profiler ACE-window entry outgrew 32 bytes"
);

/// Result of profiling one benchmark.
#[derive(Debug, Clone)]
pub struct ProfileResult {
    /// Per-PC tag: true = at least one dynamic instance was ACE.
    pub ace_pcs: Vec<bool>,
    /// Dynamic instances profiled.
    pub instances: u64,
    /// Dynamic instances whose ground truth was ACE.
    pub ace_instances: u64,
    /// Table 1: fraction of committed instances whose PC-based prediction
    /// matches their ground-truth ACE-ness.
    pub accuracy: f64,
    /// Fraction of static PCs tagged ACE.
    pub static_ace_fraction: f64,
}

impl ProfileResult {
    /// Ground-truth dynamic ACE fraction (the complement of Mukherjee's
    /// un-ACE share).
    pub fn dynamic_ace_fraction(&self) -> f64 {
        if self.instances == 0 {
            0.0
        } else {
            self.ace_instances as f64 / self.instances as f64
        }
    }
}

/// Profile `instructions` dynamic instructions of `program` with the
/// given analysis window, producing per-PC tags and accuracy statistics.
///
/// One pass over the deterministic correct-path stream computes ground
/// truth per dynamic instance and folds it into per-PC instance and ACE
/// counts. The PC-based prediction is then scored in closed form from
/// those counts, with no second pass and no per-instance record.
pub fn profile_program(program: &Arc<Program>, instructions: u64, window: usize) -> ProfileResult {
    let n_pcs = program.len();

    let mut pc_instances = vec![0u64; n_pcs];
    let mut pc_ace_instances = vec![0u64; n_pcs];
    {
        let mut engine = ThreadEngine::new(Arc::clone(program), 0);
        let mut analyzer: AceAnalyzer<Pc> = AceAnalyzer::new(1, window);
        let mut fin = |f: Finalized<Pc>| {
            pc_instances[f.payload as usize] += 1;
            if f.ace {
                pc_ace_instances[f.payload as usize] += 1;
            }
        };
        for k in 0..instructions {
            let inst = engine.next_correct();
            analyzer.push(
                AceInstRecord {
                    tid: 0,
                    op: inst.op,
                    dest: inst.dest,
                    srcs: inst.srcs,
                    commit_cycle: k,
                },
                inst.pc,
                &mut fin,
            );
        }
        analyzer.drain(&mut fin);
    }

    let ace_pcs: Vec<bool> = pc_ace_instances.iter().map(|&c| c > 0).collect();

    // Score: an instance is predicted ACE iff its PC is tagged. Ground
    // truth matches per-PC counts exactly, so accuracy is a closed form:
    // correct = ACE instances of tagged PCs + all instances of untagged
    // PCs (their instances are all un-ACE by construction of the tag).
    let mut instances = 0u64;
    let mut ace_instances = 0u64;
    let mut correct = 0u64;
    for pc in 0..n_pcs {
        instances += pc_instances[pc];
        ace_instances += pc_ace_instances[pc];
        if ace_pcs[pc] {
            correct += pc_ace_instances[pc];
        } else {
            correct += pc_instances[pc];
        }
    }

    ProfileResult {
        static_ace_fraction: if n_pcs == 0 {
            0.0
        } else {
            ace_pcs.iter().filter(|&&b| b).count() as f64 / n_pcs as f64
        },
        ace_pcs,
        instances,
        ace_instances,
        accuracy: if instances == 0 {
            1.0
        } else {
            correct as f64 / instances as f64
        },
    }
}

/// Profile and install the hints into a program copy — the full
/// "profile → extend ISA → redecode" loop as one call.
pub fn profile_and_tag(
    program: &Arc<Program>,
    instructions: u64,
    window: usize,
) -> (Arc<Program>, ProfileResult) {
    let result = profile_program(program, instructions, window);
    let mut tagged = (**program).clone();
    tagged.apply_ace_hints(&result.ace_pcs);
    (Arc::new(tagged), result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ace::DEFAULT_ACE_WINDOW;
    use micro_isa::OpClass;
    use workload_gen::{generate_program, model_by_name, spec};

    fn profiled(name: &str, n: u64) -> ProfileResult {
        let p = Arc::new(generate_program(&model_by_name(name).unwrap()));
        profile_program(&p, n, DEFAULT_ACE_WINDOW)
    }

    #[test]
    fn accuracy_is_high_but_imperfect() {
        let r = profiled("gcc", 300_000);
        assert!(r.accuracy > 0.80, "accuracy {}", r.accuracy);
        assert!(r.accuracy < 1.0, "mixed-ACE patterns must cause misses");
    }

    #[test]
    fn no_false_negatives_by_construction() {
        // Every ACE instance must belong to a tagged PC: equivalently,
        // correct = total - (ACE instances of untagged PCs) and the
        // latter is structurally zero. Verify on the counts.
        let p = Arc::new(generate_program(&model_by_name("bzip2").unwrap()));
        let r = profile_program(&p, 100_000, DEFAULT_ACE_WINDOW);
        // Untagged PCs have zero ACE instances by definition of the fold;
        // this asserts the published invariant "no ACE instruction is
        // mispredicted".
        assert!(r.accuracy >= r.dynamic_ace_fraction());
    }

    #[test]
    fn mesa_is_less_accurate_than_mgrid() {
        // Table 1: mesa 74.9 % vs mgrid 99.9 %. The synthetic models must
        // preserve the ordering.
        let mesa = profiled("mesa", 200_000);
        let mgrid = profiled("mgrid", 200_000);
        assert!(
            mesa.accuracy < mgrid.accuracy,
            "mesa {} !< mgrid {}",
            mesa.accuracy,
            mgrid.accuracy
        );
    }

    #[test]
    fn dynamic_ace_fraction_in_plausible_band() {
        // Mukherjee et al. report ~55 % un-ACE instructions; the models
        // target a broadly similar regime (30-75 % ACE).
        for name in ["gcc", "mcf", "swim"] {
            let r = profiled(name, 150_000);
            let ace = r.dynamic_ace_fraction();
            assert!((0.25..=0.80).contains(&ace), "{name}: ACE fraction {ace}");
        }
    }

    #[test]
    fn tagging_round_trip() {
        let p = Arc::new(generate_program(&model_by_name("eon").unwrap()));
        let (tagged, r) = profile_and_tag(&p, 100_000, DEFAULT_ACE_WINDOW);
        let tagged_count = tagged.insts.iter().filter(|i| i.ace_hint).count();
        let expected = r.ace_pcs.iter().filter(|&&b| b).count();
        assert_eq!(tagged_count, expected);
        assert!(tagged_count > 0);
        // Original untouched.
        assert!(p.insts.iter().all(|i| !i.ace_hint));
    }

    #[test]
    fn stores_and_branches_always_tagged() {
        // Sinks are ACE whenever executed, so the PC of every executed
        // store, output and control instance must carry the tag.
        let p = Arc::new(generate_program(&model_by_name("gap").unwrap()));
        let n = 100_000;
        let (tagged, _) = profile_and_tag(&p, n, DEFAULT_ACE_WINDOW);
        let mut engine = ThreadEngine::new(Arc::clone(&p), 0);
        let mut sinks = 0;
        for _ in 0..n {
            let inst = engine.next_correct();
            if matches!(inst.op, OpClass::Store | OpClass::Output) || inst.op.is_control() {
                sinks += 1;
                assert!(
                    tagged.insts[inst.pc as usize].ace_hint,
                    "{:?} at PC {} untagged",
                    inst.op, inst.pc
                );
            }
        }
        assert!(sinks > 1_000, "only {sinks} sink instances");
        // And a healthy majority of static PCs are tagged after a long
        // profile.
        let frac = tagged.insts.iter().filter(|i| i.ace_hint).count() as f64 / tagged.len() as f64;
        assert!(frac > 0.3, "static ACE fraction {frac}");
    }

    #[test]
    fn all_eighteen_models_profile_without_panic() {
        for m in spec::all_models() {
            let p = Arc::new(generate_program(&m));
            let r = profile_program(&p, 30_000, 10_000);
            assert!(r.instances == 30_000);
            assert!((0.0..=1.0).contains(&r.accuracy), "{}", m.name);
        }
    }

    #[test]
    fn determinism() {
        let a = profiled("vpr", 50_000);
        let b = profiled("vpr", 50_000);
        assert_eq!(a.ace_pcs, b.ace_pcs);
        assert_eq!(a.accuracy, b.accuracy);
    }
}
