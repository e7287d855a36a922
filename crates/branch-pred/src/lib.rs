//! # `branch-pred` — branch prediction substrate
//!
//! The paper's Table 2 machine predicts with a **gshare** predictor using a
//! 10-bit global history *per thread*, a 2K-entry 4-way **BTB**, and a
//! 32-entry **return-address stack** (RAS) per thread. Mispredictions
//! matter to the reproduction because wrong-path instructions occupy the
//! issue queue as un-ACE state and their squash/refetch dynamics shape
//! ready-queue length — one of the two levers the paper's mechanisms pull.
//!
//! The top-level [`BranchPredictor`] owns one [`Gshare`] + [`Ras`] per
//! context and one shared [`Btb`], mirroring the paper's sharing choices.

pub mod btb;
pub mod gshare;
pub mod ras;

pub use btb::Btb;
pub use gshare::Gshare;
pub use ras::Ras;

use micro_isa::{BranchKind, Pc, ThreadId};

/// A complete front-end prediction for one control instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction (always `true` for unconditional transfers).
    pub taken: bool,
    /// Predicted next fetch PC.
    pub next_pc: Pc,
}

/// Per-SMT-processor branch prediction state.
pub struct BranchPredictor {
    gshare: Vec<Gshare>,
    ras: Vec<Ras>,
    btb: Btb,
}

impl BranchPredictor {
    /// Build the Table 2 configuration for `num_threads` contexts:
    /// 10-bit gshare history per thread, shared 2K-entry 4-way BTB,
    /// 32-entry RAS per thread.
    pub fn table2(num_threads: usize) -> BranchPredictor {
        BranchPredictor {
            gshare: (0..num_threads).map(|_| Gshare::new(10)).collect(),
            ras: (0..num_threads).map(|_| Ras::new(32)).collect(),
            btb: Btb::new(2048, 4),
        }
    }

    pub fn num_threads(&self) -> usize {
        self.gshare.len()
    }

    /// Predict a control instruction at fetch. `fallthrough` is `pc + 1`.
    ///
    /// * Conditional branches consult gshare for direction and the BTB for
    ///   the target.
    /// * Jumps/calls are always taken; the target still comes from the BTB
    ///   (a cold BTB mispredicts the target and sends fetch down a wrong
    ///   path, as real hardware does).
    /// * Returns pop the RAS.
    ///
    /// Speculative state (history, RAS) is updated immediately, as a real
    /// front end must; recovery APIs restore it on squash.
    pub fn predict(
        &mut self,
        tid: ThreadId,
        pc: Pc,
        kind: BranchKind,
        fallthrough: Pc,
    ) -> Prediction {
        let t = tid as usize;
        match kind {
            BranchKind::Cond => {
                let taken = self.gshare[t].predict(pc);
                self.gshare[t].push_speculative(taken);
                let target = self.btb.lookup(pc).unwrap_or(fallthrough);
                Prediction {
                    taken,
                    next_pc: if taken { target } else { fallthrough },
                }
            }
            BranchKind::Jump => Prediction {
                taken: true,
                next_pc: self.btb.lookup(pc).unwrap_or(fallthrough),
            },
            BranchKind::Call => {
                self.ras[t].push(fallthrough);
                Prediction {
                    taken: true,
                    next_pc: self.btb.lookup(pc).unwrap_or(fallthrough),
                }
            }
            BranchKind::Ret => Prediction {
                taken: true,
                next_pc: self.ras[t].pop().unwrap_or(fallthrough),
            },
        }
    }

    /// Resolve a control instruction at execute: train the tables with the
    /// actual outcome. `fetch_history` is the gshare history checkpoint
    /// taken when the branch was predicted (see
    /// [`Self::history_checkpoint`]); pass `None` to train against the
    /// current speculative history.
    pub fn resolve(
        &mut self,
        tid: ThreadId,
        pc: Pc,
        kind: BranchKind,
        taken: bool,
        target: Pc,
        fetch_history: Option<u32>,
    ) {
        let t = tid as usize;
        if kind == BranchKind::Cond {
            match fetch_history {
                Some(h) => self.gshare[t].train_with_history(pc, h, taken),
                None => self.gshare[t].train(pc, taken),
            }
        }
        if taken && kind != BranchKind::Ret {
            self.btb.install(pc, target);
        }
    }

    /// Squash recovery for one thread: restore the gshare history to the
    /// checkpoint taken at the mispredicted branch and clear RAS damage by
    /// re-seeding it from the checkpoint.
    pub fn recover(&mut self, tid: ThreadId, history_ckpt: u32, ras_ckpt: &[Pc]) {
        let t = tid as usize;
        self.gshare[t].restore_history(history_ckpt);
        self.ras[t].restore(ras_ckpt);
    }

    /// After a recovery, re-apply the *resolved* effect of the branch that
    /// caused it (its speculative effect was rolled back with the
    /// checkpoint): shift the actual direction into the history and redo
    /// the RAS push/pop.
    pub fn apply_resolved(
        &mut self,
        tid: ThreadId,
        kind: BranchKind,
        taken: bool,
        fallthrough: Pc,
    ) {
        let t = tid as usize;
        match kind {
            BranchKind::Cond => self.gshare[t].push_speculative(taken),
            BranchKind::Call => self.ras[t].push(fallthrough),
            BranchKind::Ret => {
                let _ = self.ras[t].pop();
            }
            BranchKind::Jump => {}
        }
    }

    /// Current speculative gshare history of a thread (for checkpoints).
    pub fn history_checkpoint(&self, tid: ThreadId) -> u32 {
        self.gshare[tid as usize].history()
    }

    /// Snapshot of a thread's RAS contents (for checkpoints).
    pub fn ras_checkpoint(&self, tid: ThreadId) -> Vec<Pc> {
        self.ras[tid as usize].snapshot()
    }

    /// Serialize the complete predictor state (all per-thread gshare
    /// histories/tables, all RAS contents, the shared BTB).
    pub fn save_state(&self, w: &mut sim_snapshot::SnapWriter) {
        w.put_u64(self.gshare.len() as u64);
        for g in &self.gshare {
            g.save_state(w);
        }
        for r in &self.ras {
            r.save_state(w);
        }
        self.btb.save_state(w);
    }

    /// Restore state saved by [`Self::save_state`] onto a predictor of
    /// the same configuration.
    pub fn restore_state(
        &mut self,
        r: &mut sim_snapshot::SnapReader<'_>,
    ) -> Result<(), sim_snapshot::SnapError> {
        let n = r.get_u64()? as usize;
        if n != self.gshare.len() {
            return Err(sim_snapshot::SnapError::Corrupt(
                "predictor thread-count mismatch".into(),
            ));
        }
        for g in &mut self.gshare {
            g.restore_state(r)?;
        }
        for ras in &mut self.ras {
            ras.restore_state(r)?;
        }
        self.btb.restore_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_branch_becomes_predictable() {
        let mut bp = BranchPredictor::table2(1);
        let pc = 100;
        let target = 50;
        // Train: taken 15 times, not-taken once, repeatedly (trip = 16).
        let mut correct = 0;
        let total = 320;
        for k in 0..total {
            let actual = k % 16 != 15;
            let fetch_history = bp.history_checkpoint(0);
            let p = bp.predict(0, pc, BranchKind::Cond, pc + 1);
            let predicted_right = p.taken == actual && (!actual || p.next_pc == target);
            if k >= 64 && predicted_right {
                correct += 1;
            }
            bp.resolve(0, pc, BranchKind::Cond, actual, target, Some(fetch_history));
        }
        // After warmup, gshare + BTB should nail the all-but-last pattern.
        assert!(correct > 200, "only {correct} correct");
    }

    #[test]
    fn btb_provides_targets_after_training() {
        let mut bp = BranchPredictor::table2(1);
        bp.resolve(0, 7, BranchKind::Jump, true, 1234, None);
        let p = bp.predict(0, 7, BranchKind::Jump, 8);
        assert_eq!(p.next_pc, 1234);
        assert!(p.taken);
    }

    #[test]
    fn cold_btb_falls_through() {
        let mut bp = BranchPredictor::table2(1);
        let p = bp.predict(0, 9, BranchKind::Jump, 10);
        assert_eq!(p.next_pc, 10, "cold BTB must fall through (wrong path)");
    }

    #[test]
    fn ras_pairs_calls_with_returns() {
        let mut bp = BranchPredictor::table2(1);
        bp.predict(0, 10, BranchKind::Call, 11);
        bp.predict(0, 20, BranchKind::Call, 21);
        assert_eq!(bp.predict(0, 30, BranchKind::Ret, 31).next_pc, 21);
        assert_eq!(bp.predict(0, 40, BranchKind::Ret, 41).next_pc, 11);
    }

    #[test]
    fn threads_have_independent_history() {
        let mut bp = BranchPredictor::table2(2);
        // Saturate thread 0 toward taken at pc 5.
        for _ in 0..32 {
            bp.resolve(0, 5, BranchKind::Cond, true, 99, None);
            bp.resolve(1, 5, BranchKind::Cond, false, 99, None);
        }
        // Histories diverge: push different speculative bits.
        let h0 = bp.history_checkpoint(0);
        bp.predict(0, 5, BranchKind::Cond, 6);
        assert_ne!(bp.history_checkpoint(0), h0);
        // Thread 1 history untouched by thread 0 prediction.
        let h1 = bp.history_checkpoint(1);
        bp.predict(0, 5, BranchKind::Cond, 6);
        assert_eq!(bp.history_checkpoint(1), h1);
    }

    #[test]
    fn recovery_restores_history_and_ras() {
        let mut bp = BranchPredictor::table2(1);
        bp.predict(0, 10, BranchKind::Call, 11);
        let h = bp.history_checkpoint(0);
        let r = bp.ras_checkpoint(0);
        // Wrong-path damage.
        bp.predict(0, 12, BranchKind::Cond, 13);
        bp.predict(0, 14, BranchKind::Ret, 15);
        bp.predict(0, 16, BranchKind::Call, 17);
        bp.recover(0, h, &r);
        assert_eq!(bp.history_checkpoint(0), h);
        assert_eq!(bp.ras_checkpoint(0), r);
        assert_eq!(bp.predict(0, 30, BranchKind::Ret, 31).next_pc, 11);
    }
}
