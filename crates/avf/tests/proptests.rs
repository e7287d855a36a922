//! Property tests for the ACE analyzer: conservation, window
//! monotonicity, and classification invariants over random instruction
//! streams.

use avf::{AceAnalyzer, AceInstRecord};
use micro_isa::{OpClass, Reg};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct MiniInst {
    op: OpClass,
    dest: Option<u8>,
    srcs: [Option<u8>; 2],
}

fn arb_inst() -> impl Strategy<Value = MiniInst> {
    let op = prop::sample::select(vec![
        OpClass::IAlu,
        OpClass::IMul,
        OpClass::FAlu,
        OpClass::Load,
        OpClass::Store,
        OpClass::Nop,
        OpClass::Output,
        OpClass::CondBranch,
    ]);
    (
        op,
        prop::option::of(0u8..16),
        prop::option::of(0u8..16),
        prop::option::of(0u8..16),
    )
        .prop_map(|(op, dest, s0, s1)| {
            let dest = match op {
                OpClass::Store | OpClass::Output | OpClass::CondBranch | OpClass::Nop => None,
                _ => dest,
            };
            let (s0, s1) = if op == OpClass::Nop {
                (None, None)
            } else {
                (s0, s1)
            };
            MiniInst {
                op,
                dest,
                srcs: [s0, s1],
            }
        })
}

fn run_analysis(stream: &[MiniInst], window: usize) -> Vec<bool> {
    let mut az: AceAnalyzer<usize> = AceAnalyzer::new(1, window);
    let mut out = vec![false; stream.len()];
    let mut seen = 0usize;
    {
        let mut fin = |f: avf::Finalized<usize>| {
            out[f.payload] = f.ace;
            seen += 1;
        };
        for (i, mi) in stream.iter().enumerate() {
            az.push(
                AceInstRecord {
                    tid: 0,
                    op: mi.op,
                    dest: mi.dest.map(Reg::int),
                    srcs: [mi.srcs[0].map(Reg::int), mi.srcs[1].map(Reg::int)],
                    commit_cycle: i as u64,
                },
                i,
                &mut fin,
            );
        }
        az.drain(&mut fin);
    }
    assert_eq!(seen, stream.len(), "every instruction finalizes once");
    out
}

proptest! {
    /// Every pushed instruction is finalized exactly once, regardless of
    /// window size; NOPs are never ACE; sinks always are.
    #[test]
    fn conservation_and_fixed_classes(
        stream in prop::collection::vec(arb_inst(), 1..400),
        window in 1usize..64,
    ) {
        let out = run_analysis(&stream, window);
        for (i, mi) in stream.iter().enumerate() {
            match mi.op {
                OpClass::Nop => prop_assert!(!out[i], "NOP classified ACE"),
                OpClass::Store | OpClass::Output | OpClass::CondBranch => {
                    prop_assert!(out[i], "sink classified un-ACE")
                }
                _ => {}
            }
        }
    }

    /// Widening the analysis window can only add ACE classifications,
    /// never remove them (the window truncates consumer knowledge).
    #[test]
    fn window_monotonicity(
        stream in prop::collection::vec(arb_inst(), 1..250),
        small in 2usize..20,
    ) {
        let large = small * 8;
        let small_out = run_analysis(&stream, small);
        let large_out = run_analysis(&stream, large);
        for i in 0..stream.len() {
            if small_out[i] {
                prop_assert!(large_out[i],
                    "inst {i} ACE in window {small} but not {large}");
            }
        }
    }

    /// An instruction with no consumers at all (destination never read
    /// before overwrite or stream end) is dynamically dead.
    #[test]
    fn unread_writes_are_dead(dest in 0u8..16, len in 1usize..50) {
        // A run of writes to the same register, never read.
        let stream: Vec<MiniInst> = (0..len)
            .map(|_| MiniInst { op: OpClass::IAlu, dest: Some(dest), srcs: [None, None] })
            .collect();
        let out = run_analysis(&stream, 1000);
        prop_assert!(out.iter().all(|&a| !a));
    }

    /// Dataflow to a sink is transitively ACE no matter the chain length
    /// (within the window).
    #[test]
    fn chains_to_sinks_are_ace(chain_len in 1usize..40) {
        let mut stream = Vec::new();
        for i in 0..chain_len {
            stream.push(MiniInst {
                op: OpClass::IAlu,
                dest: Some((i % 16) as u8),
                srcs: [if i == 0 { None } else { Some(((i - 1) % 16) as u8) }, None],
            });
        }
        stream.push(MiniInst {
            op: OpClass::Store,
            dest: None,
            srcs: [Some(((chain_len - 1) % 16) as u8), None],
        });
        let out = run_analysis(&stream, chain_len + 10);
        prop_assert!(out.iter().all(|&a| a), "{out:?}");
    }
}
