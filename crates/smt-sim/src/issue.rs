//! Issue-selection policies.
//!
//! Every cycle the pipeline gathers the *ready queue* — the IQ entries
//! whose source operands are complete — and hands it to the active
//! [`IssuePolicy`] for prioritisation. The pipeline then walks the
//! returned order, issuing instructions while issue bandwidth and
//! function units last. The baseline is oldest-first (by global fetch
//! age); the paper's VISA policy (ready ACE instructions first, each
//! class in program order) lives in the `iq-reliability` crate.

use crate::types::InstId;
use micro_isa::{DynSeq, OpClass, ThreadId};

/// A ready-to-execute IQ entry, as shown to issue policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadyInst {
    pub id: InstId,
    /// Global fetch age (smaller = older; doubles as program order:
    /// within a thread, fetch order *is* program order).
    pub seq: DynSeq,
    pub tid: ThreadId,
    pub op: OpClass,
    /// The decoded ACE-ness hint (the paper's profiled ISA bit).
    pub ace_hint: bool,
    pub wrong_path: bool,
}

/// An issue-selection policy: order the ready queue, highest priority
/// first. The pipeline issues in the returned order subject to width and
/// function-unit constraints.
pub trait IssuePolicy {
    fn name(&self) -> &'static str;
    /// Order `ready` for this cycle. Not called on fast-forwarded cycles
    /// (see `DispatchGovernor::idle_horizon`): the order must depend
    /// only on `ready`, so a cycle in which nothing moved repeats it.
    fn prioritize(&mut self, ready: &mut Vec<ReadyInst>);
}

/// Baseline selection: oldest instruction first, regardless of ACE-ness.
#[derive(Debug, Default, Clone, Copy)]
pub struct OldestFirst;

impl IssuePolicy for OldestFirst {
    fn name(&self) -> &'static str {
        "oldest-first"
    }

    fn prioritize(&mut self, ready: &mut Vec<ReadyInst>) {
        // `seq` is globally unique, so this key is a total order: the
        // outcome cannot depend on the incoming list order (which is IQ
        // storage order, scrambled by swap_remove compaction), and
        // `sort_unstable` has no ties whose relative order it could
        // scramble. Every issue policy must preserve this property —
        // replay determinism (and the fault-injection golden-run
        // comparison built on it) depends on total-order tie-breaks.
        ready.sort_unstable_by_key(|r| r.seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn ready(seq: DynSeq, ace: bool) -> ReadyInst {
        ReadyInst {
            id: seq as InstId,
            seq,
            tid: 0,
            op: OpClass::IAlu,
            ace_hint: ace,
            wrong_path: false,
        }
    }

    #[test]
    fn oldest_first_sorts_by_age() {
        let mut v = vec![ready(5, true), ready(1, false), ready(9, true)];
        OldestFirst.prioritize(&mut v);
        let seqs: Vec<u64> = v.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1, 5, 9]);
    }

    #[test]
    fn oldest_first_ignores_aceness() {
        let mut v = vec![ready(2, false), ready(1, true)];
        OldestFirst.prioritize(&mut v);
        assert_eq!(v[0].seq, 1);
        let mut v = vec![ready(2, true), ready(1, false)];
        OldestFirst.prioritize(&mut v);
        assert_eq!(v[0].seq, 1);
    }

    #[test]
    fn oldest_first_invariant_to_input_permutation() {
        // The ready list inherits the IQ's swap_remove storage order;
        // selection must erase it (see the comment in `prioritize`).
        let base = vec![
            ready(7, true),
            ready(3, false),
            ready(12, true),
            ready(1, true),
            ready(9, false),
        ];
        for rot in 0..base.len() {
            let mut v = base.clone();
            v.rotate_left(rot);
            OldestFirst.prioritize(&mut v);
            let seqs: Vec<u64> = v.iter().map(|r| r.seq).collect();
            assert_eq!(seqs, vec![1, 3, 7, 9, 12]);
        }
    }
}
