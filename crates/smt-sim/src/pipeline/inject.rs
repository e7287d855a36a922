//! Fault-injection mutation surface: bit-accurate views over the live
//! issue queue, reorder buffers and register scoreboards, plus the
//! `inject_*_bit` entry points a Monte-Carlo campaign uses to flip one
//! sampled bit mid-simulation.
//!
//! The pipeline does not decide a trial's *outcome* — it only reports
//! what the flipped bit structurally is ([`AppliedFault`]) and, where
//! the fault model requires it, perturbs its own state:
//!
//! * A **select-critical** IQ/ROB bit on a not-yet-issued victim sets
//!   [`crate::types::InstInfo::inhibit_issue`], making the entry
//!   invisible to issue select. Whether that ends in a commit-watchdog
//!   hang or is swept away by a squash plays out in real pipeline
//!   dynamics, not in classifier guesswork.
//! * A **payload** bit is *not* applied microarchitecturally: the
//!   corrupted field rides the victim's result through the dataflow, so
//!   the campaign's architectural emulator perturbs the victim's result
//!   value at commit and checks whether it reaches a sink. Keeping the
//!   timing-simulation state untouched guarantees the faulty run's
//!   retirement stream aligns cycle-for-cycle with the golden run.
//! * A **dead** bit (or an empty slot) cannot matter; the caller can
//!   classify it as masked without re-simulating.
//!
//! ROB and register-file bit widths belong to the AVF model (the `avf`
//! crate, which depends on this one), so [`Pipeline::rob_state`] /
//! [`Pipeline::rf_state`] take the per-entry width as a parameter and
//! [`Pipeline::inject_rob_bit`] takes the already-classified
//! [`RobBitKind`] rather than a raw bit index.

use micro_isa::{OpClass, Reg, ThreadId, NUM_FP_REGS, NUM_INT_REGS};

use super::Pipeline;
use crate::layout::{self, IqBitClass};
use crate::types::{InstId, InstInfo, InstStage};

/// Architectural registers per hardware context (int ++ fp flat space).
pub const REGS_PER_THREAD: usize = NUM_INT_REGS + NUM_FP_REGS;

/// A structure a fault can be injected into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Structure {
    IssueQueue,
    Rob,
    RegFile,
}

impl Structure {
    pub fn as_str(self) -> &'static str {
        match self {
            Structure::IssueQueue => "iq",
            Structure::Rob => "rob",
            Structure::RegFile => "rf",
        }
    }
}

/// Snapshot of the instruction occupying a sampled slot at injection
/// time — everything the campaign needs to find the victim again in the
/// retirement stream and reason about its fate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occupant {
    /// Global dynamic sequence number (unique across threads).
    pub seq: u64,
    pub tid: ThreadId,
    pub op: OpClass,
    pub ace_hint: bool,
    /// Fetched down a mispredicted path; a squash will sweep it away.
    pub wrong_path: bool,
    /// Already issued to a function unit (still IQ-resident until
    /// writeback, still ROB-resident until commit).
    pub issued: bool,
    /// Finished execution, waiting to commit in order (ROB only; the IQ
    /// entry is freed at writeback).
    pub completed: bool,
}

impl Occupant {
    fn of(info: &InstInfo) -> Occupant {
        Occupant {
            seq: info.inst.seq,
            tid: info.inst.tid,
            op: info.inst.op,
            ace_hint: info.inst.ace_hint,
            wrong_path: info.inst.wrong_path,
            issued: info.stage == InstStage::Issued,
            completed: info.stage == InstStage::Completed,
        }
    }
}

/// Bit class of a ROB entry bit, pre-classified by the caller against
/// the AVF model's ROB layout (`avf::layout`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RobBitKind {
    /// Retirement-control state (completion flag, exception bits, PC
    /// low bits): corruption derails retirement itself.
    Control,
    /// The buffered result value: live until writeback publishes it.
    Payload,
    /// Bits the AVF model never counts as ACE.
    Dead,
}

/// What a single injected bit flip structurally amounted to. The
/// campaign maps this to an outcome (masked / SDC / detected / hang)
/// by comparing the perturbed run against the golden run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppliedFault {
    /// The sampled slot held no instruction: masked by definition.
    EmptySlot,
    /// The sampled bit is dead in the occupant's current state: masked
    /// by definition, no re-simulation needed.
    DeadBit { victim: Occupant },
    /// A dataflow-payload bit flipped: the victim's *result* is
    /// corrupted. No pipeline state was mutated; the caller perturbs
    /// the victim's emulated result at commit.
    Payload { victim: Occupant, word_bit: u32 },
    /// A select/retirement-critical bit flipped. `inhibited` reports
    /// whether the pipeline actually blinded issue select to the entry
    /// (only possible while the victim is waiting in the IQ); an
    /// already-issued victim instead models a machine-check at retire.
    RetireCritical { victim: Occupant, inhibited: bool },
    /// An architectural register bit flipped. No pipeline state is
    /// mutated; the caller XORs the register in its architectural
    /// emulator and watches whether the corruption reaches a sink.
    RegBit {
        tid: ThreadId,
        reg_index: usize,
        bit: u32,
        /// Sequence number of the in-flight producer about to overwrite
        /// the register, if any (its completion masks the flip).
        pending_producer: Option<u64>,
    },
}

impl AppliedFault {
    /// The victim's sequence number, when a specific instruction was hit.
    pub fn victim_seq(&self) -> Option<u64> {
        match self {
            AppliedFault::EmptySlot | AppliedFault::RegBit { .. } => None,
            AppliedFault::DeadBit { victim }
            | AppliedFault::Payload { victim, .. }
            | AppliedFault::RetireCritical { victim, .. } => Some(victim.seq),
        }
    }
}

/// Uniform sampling surface over one injectable structure: a grid of
/// `entries() × entry_bits()` bits, some of which are occupied.
pub trait InjectableState {
    fn structure(&self) -> Structure;
    /// Number of physical slots (all of them samplable, occupied or not).
    fn entries(&self) -> usize;
    /// Stored bits per slot.
    fn entry_bits(&self) -> u32;
    /// The instruction occupying `entry`, if any.
    fn occupant(&self, entry: usize) -> Option<Occupant>;
    /// Occupied-slot count (for campaign occupancy accounting).
    fn occupancy(&self) -> usize;
}

/// Live view of the shared issue queue.
pub struct IqState<'a> {
    pipe: &'a Pipeline,
}

impl InjectableState for IqState<'_> {
    fn structure(&self) -> Structure {
        Structure::IssueQueue
    }

    fn entries(&self) -> usize {
        self.pipe.iq.capacity()
    }

    fn entry_bits(&self) -> u32 {
        layout::IQ_ENTRY_BITS
    }

    fn occupant(&self, entry: usize) -> Option<Occupant> {
        let id = self.pipe.iq.entry_at(entry)?;
        Some(Occupant::of(self.pipe.slab.get(id)))
    }

    fn occupancy(&self) -> usize {
        self.pipe.iq.len()
    }
}

/// Live view of the per-thread reorder buffers, flattened to one entry
/// space: entry `e` is slot `e % rob_size` of thread `e / rob_size`,
/// slot 0 being the oldest in-flight instruction of that thread.
pub struct RobState<'a> {
    pipe: &'a Pipeline,
    entry_bits: u32,
}

impl InjectableState for RobState<'_> {
    fn structure(&self) -> Structure {
        Structure::Rob
    }

    fn entries(&self) -> usize {
        self.pipe.threads.len() * self.pipe.config.rob_size
    }

    fn entry_bits(&self) -> u32 {
        self.entry_bits
    }

    fn occupant(&self, entry: usize) -> Option<Occupant> {
        let (tid, slot) = self.pipe.rob_flat(entry);
        let id = *self.pipe.threads[tid].rob.get(slot)?;
        Some(Occupant::of(self.pipe.slab.get(id)))
    }

    fn occupancy(&self) -> usize {
        self.pipe.threads.iter().map(|t| t.rob.len()).sum()
    }
}

/// Live view of the architectural register files: entry `e` is flat
/// register `e % 64` of thread `e / 64`. Architectural state is always
/// "occupied"; `occupant` reports the in-flight *producer* about to
/// overwrite the register, and `occupancy` counts registers with one.
pub struct RfState<'a> {
    pipe: &'a Pipeline,
    reg_bits: u32,
}

impl InjectableState for RfState<'_> {
    fn structure(&self) -> Structure {
        Structure::RegFile
    }

    fn entries(&self) -> usize {
        self.pipe.threads.len() * REGS_PER_THREAD
    }

    fn entry_bits(&self) -> u32 {
        self.reg_bits
    }

    fn occupant(&self, entry: usize) -> Option<Occupant> {
        let (tid, reg) = self.pipe.rf_flat(entry);
        let id = self.pipe.threads[tid].scoreboard.producer_of(reg)?;
        Some(Occupant::of(self.pipe.slab.get(id)))
    }

    fn occupancy(&self) -> usize {
        self.pipe
            .threads
            .iter()
            .map(|t| t.scoreboard.pending_count())
            .sum()
    }
}

impl Pipeline {
    /// Injectable view of the shared issue queue.
    pub fn iq_state(&self) -> IqState<'_> {
        IqState { pipe: self }
    }

    /// Injectable view of the per-thread ROBs. `entry_bits` comes from
    /// the AVF model's ROB layout.
    pub fn rob_state(&self, entry_bits: u32) -> RobState<'_> {
        RobState {
            pipe: self,
            entry_bits,
        }
    }

    /// Injectable view of the architectural register files. `reg_bits`
    /// comes from the AVF model's register layout.
    pub fn rf_state(&self, reg_bits: u32) -> RfState<'_> {
        RfState {
            pipe: self,
            reg_bits,
        }
    }

    fn rob_flat(&self, entry: usize) -> (usize, usize) {
        let tid = entry / self.config.rob_size;
        assert!(tid < self.threads.len(), "ROB entry {entry} out of range");
        (tid, entry % self.config.rob_size)
    }

    fn rf_flat(&self, entry: usize) -> (usize, Reg) {
        let tid = entry / REGS_PER_THREAD;
        assert!(tid < self.threads.len(), "RF entry {entry} out of range");
        (tid, Reg::from_flat_index(entry % REGS_PER_THREAD))
    }

    /// Flip stored bit `bit` of IQ slot `entry`.
    pub fn inject_iq_bit(&mut self, entry: usize, bit: u32) -> AppliedFault {
        let Some(id) = self.iq.entry_at(entry) else {
            return AppliedFault::EmptySlot;
        };
        let victim = Occupant::of(self.slab.get(id));
        match layout::iq_bit_class(bit) {
            IqBitClass::Dead => AppliedFault::DeadBit { victim },
            IqBitClass::Payload => AppliedFault::Payload {
                victim,
                word_bit: bit,
            },
            IqBitClass::SelectCritical => {
                let inhibited = !victim.issued;
                if inhibited {
                    self.inhibit_issue(id);
                }
                AppliedFault::RetireCritical { victim, inhibited }
            }
        }
    }

    /// Flip a ROB bit of flattened slot `entry`, pre-classified by the
    /// caller as `kind`. `word_bit` is the raw bit index within the
    /// entry (carried through so payload perturbations stay
    /// bit-dependent).
    pub fn inject_rob_bit(
        &mut self,
        entry: usize,
        word_bit: u32,
        kind: RobBitKind,
    ) -> AppliedFault {
        let (tid, slot) = self.rob_flat(entry);
        let Some(&id) = self.threads[tid].rob.get(slot) else {
            return AppliedFault::EmptySlot;
        };
        let victim = Occupant::of(self.slab.get(id));
        match kind {
            RobBitKind::Dead => AppliedFault::DeadBit { victim },
            // The buffered result is live only until writeback: once the
            // occupant has completed, consumers have already read the
            // published value and the ROB copy is dead.
            RobBitKind::Payload if victim.completed => AppliedFault::DeadBit { victim },
            RobBitKind::Payload => AppliedFault::Payload { victim, word_bit },
            RobBitKind::Control => {
                let inhibited = !victim.issued && !victim.completed;
                if inhibited {
                    self.inhibit_issue(id);
                }
                AppliedFault::RetireCritical { victim, inhibited }
            }
        }
    }

    /// Blind issue select to the waiting instruction `id` for good.
    fn inhibit_issue(&mut self, id: InstId) {
        let info = self.slab.get_mut(id);
        info.inhibit_issue = true;
        self.wakeup.on_leave(id, info.stage, info.inst.ace_hint);
    }

    /// Flip architectural-register bit `bit` of flattened RF slot
    /// `entry`. Never mutates pipeline state: register values live in
    /// the campaign's architectural emulator.
    pub fn inject_rf_bit(&mut self, entry: usize, bit: u32) -> AppliedFault {
        let (tid, reg) = self.rf_flat(entry);
        let pending_producer = self.threads[tid]
            .scoreboard
            .producer_of(reg)
            .map(|pid| self.slab.get(pid).inst.seq);
        AppliedFault::RegBit {
            tid: tid as ThreadId,
            reg_index: reg.flat_index(),
            bit,
            pending_producer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MachineConfig, SimLimits};
    use crate::events::NullObserver;
    use crate::pipeline::PipelinePolicies;
    use std::sync::Arc;
    use workload_gen::{generate_program, model_by_name};

    fn pipeline_after(cycles: u64) -> Pipeline {
        let programs = ["bzip2", "gcc", "mcf", "eon"]
            .iter()
            .map(|n| Arc::new(generate_program(&model_by_name(n).unwrap())))
            .collect();
        let mut p = Pipeline::new(
            MachineConfig::table2(),
            programs,
            PipelinePolicies::default(),
        );
        let mut obs = NullObserver;
        for _ in 0..cycles {
            p.step(&mut obs);
        }
        p
    }

    #[test]
    fn views_report_consistent_geometry() {
        let p = pipeline_after(500);
        let iq = p.iq_state();
        assert_eq!(iq.entries(), 96);
        assert_eq!(iq.entry_bits(), layout::IQ_ENTRY_BITS);
        assert!(iq.occupancy() > 0, "IQ empty after 500 cycles");
        assert!(iq.occupancy() <= iq.entries());

        let rob = p.rob_state(40);
        assert_eq!(rob.entries(), 4 * 96);
        assert_eq!(rob.entry_bits(), 40);
        assert!(rob.occupancy() > 0);

        let rf = p.rf_state(64);
        assert_eq!(rf.entries(), 4 * REGS_PER_THREAD);
        assert_eq!(rf.entry_bits(), 64);
    }

    #[test]
    fn occupant_enumeration_matches_occupancy() {
        let p = pipeline_after(500);
        let iq = p.iq_state();
        let seen = (0..iq.entries())
            .filter(|&e| iq.occupant(e).is_some())
            .count();
        assert_eq!(seen, iq.occupancy());
        let rob = p.rob_state(40);
        let seen = (0..rob.entries())
            .filter(|&e| rob.occupant(e).is_some())
            .count();
        assert_eq!(seen, rob.occupancy());
    }

    #[test]
    fn iq_injection_classifies_by_bit() {
        let mut p = pipeline_after(500);
        let occupied = (0..96)
            .find(|&e| p.iq_state().occupant(e).is_some())
            .expect("no occupied IQ slot");
        let victim = p.iq_state().occupant(occupied).unwrap();

        // Dead status bit: masked without mutation.
        match p.inject_iq_bit(occupied, layout::IQ_ENTRY_BITS - 1) {
            AppliedFault::DeadBit { victim: v } => assert_eq!(v.seq, victim.seq),
            other => panic!("expected DeadBit, got {other:?}"),
        }

        // Payload bit: reported, no pipeline mutation.
        match p.inject_iq_bit(occupied, micro_isa::encoding::fields::IMM_LO) {
            AppliedFault::Payload {
                victim: v,
                word_bit,
            } => {
                assert_eq!(v.seq, victim.seq);
                assert_eq!(word_bit, micro_isa::encoding::fields::IMM_LO);
            }
            other => panic!("expected Payload, got {other:?}"),
        }

        // Empty slot (sample beyond occupancy; the queue is collapsing,
        // so slot len..capacity is empty — find one).
        if let Some(empty) = (0..96).find(|&e| p.iq_state().occupant(e).is_none()) {
            assert_eq!(p.inject_iq_bit(empty, 0), AppliedFault::EmptySlot);
        }
    }

    #[test]
    fn select_critical_flip_inhibits_unissued_victim() {
        let mut p = pipeline_after(500);
        let iq = p.iq_state();
        let waiting = (0..96).find(|&e| matches!(iq.occupant(e), Some(o) if !o.issued));
        let Some(entry) = waiting else {
            return; // nothing waiting this cycle; geometry tests cover the rest
        };
        let victim = p.iq_state().occupant(entry).unwrap();
        match p.inject_iq_bit(entry, 0) {
            AppliedFault::RetireCritical {
                victim: v,
                inhibited,
            } => {
                assert_eq!(v.seq, victim.seq);
                assert!(inhibited, "unissued victim must be inhibited");
            }
            other => panic!("expected RetireCritical, got {other:?}"),
        }
    }

    #[test]
    fn inhibiting_a_selectable_victim_takes_it_out_of_select() {
        // A victim whose operands are ready sits in the selectable set:
        // the flip must take it out at once, through either structure.
        let mut p = pipeline_after(500);
        for structure in [Structure::IssueQueue, Structure::Rob] {
            while p.wakeup.selectable().is_empty() {
                p.step(&mut NullObserver);
            }
            let id = p.wakeup.selectable()[0].id;
            let fault = if structure == Structure::IssueQueue {
                let entry = (0..96).find(|&e| p.iq.entry_at(e) == Some(id)).unwrap();
                p.inject_iq_bit(entry, 0)
            } else {
                let tid = p.slab.get(id).inst.tid as usize;
                let slot = p.threads[tid].rob.iter().position(|&r| r == id).unwrap();
                p.inject_rob_bit(tid * p.config.rob_size + slot, 0, RobBitKind::Control)
            };
            assert!(matches!(
                fault,
                AppliedFault::RetireCritical {
                    inhibited: true,
                    ..
                }
            ));
            assert!(!p.wakeup.selectable.contains(id), "{structure:?} victim");
            p.check_invariants().unwrap();
        }
    }

    #[test]
    fn inhibited_instruction_hangs_the_machine() {
        // A select-critical flip on a waiting instruction must starve
        // commit (the thread can never retire past it) and trip the
        // watchdog within its budget rather than the cycle ceiling.
        let mut p = pipeline_after(500);
        let entry = (0..96)
            .find(|&e| matches!(p.iq_state().occupant(e), Some(o) if !o.issued && !o.wrong_path));
        let Some(entry) = entry else { return };
        p.inject_iq_bit(entry, 0);
        let r = p.run(
            SimLimits::cycles(60_000).with_watchdog(5_000),
            &mut NullObserver,
        );
        assert!(r.deadlocked, "inhibited correct-path inst did not hang");
    }

    #[test]
    fn rob_injection_maps_flattened_entries() {
        let mut p = pipeline_after(500);
        let rob = p.rob_state(40);
        let occupied = (0..rob.entries())
            .find(|&e| rob.occupant(e).is_some())
            .expect("no occupied ROB slot");
        let victim = rob.occupant(occupied).unwrap();
        assert_eq!(victim.tid as usize, occupied / 96);
        match p.inject_rob_bit(occupied, 7, RobBitKind::Payload) {
            AppliedFault::Payload {
                victim: v,
                word_bit,
            } => {
                assert_eq!(v.seq, victim.seq);
                assert_eq!(word_bit, 7);
            }
            AppliedFault::DeadBit { victim: v } => {
                // Completed occupant: buffered result already published.
                assert_eq!(v.seq, victim.seq);
                assert!(v.completed);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            p.inject_rob_bit(occupied, 39, RobBitKind::Dead),
            AppliedFault::DeadBit { victim },
        );
    }

    #[test]
    fn rf_injection_reports_producer() {
        let mut p = pipeline_after(500);
        let (entries, produced) = {
            let rf = p.rf_state(64);
            let n = rf.entries();
            let produced = (0..n)
                .find(|&e| rf.occupant(e).is_some())
                .map(|e| (e, rf.occupant(e).map(|o| o.seq)));
            (n, produced)
        };
        for e in [0, entries - 1] {
            match p.inject_rf_bit(e, 63) {
                AppliedFault::RegBit {
                    tid,
                    reg_index,
                    bit,
                    ..
                } => {
                    assert_eq!(tid as usize, e / REGS_PER_THREAD);
                    assert_eq!(reg_index, e % REGS_PER_THREAD);
                    assert_eq!(bit, 63);
                }
                other => panic!("expected RegBit, got {other:?}"),
            }
        }
        if let Some((e, producer_seq)) = produced {
            match p.inject_rf_bit(e, 0) {
                AppliedFault::RegBit {
                    pending_producer, ..
                } => assert_eq!(pending_producer, producer_seq),
                other => panic!("expected RegBit, got {other:?}"),
            }
        }
    }
}
