//! The shared issue queue container.
//!
//! Stores the IDs of resident instructions (the slab holds the payload)
//! plus the running hint-bit total the DVM hardware would keep in its
//! ACE-bit counter. Entry order is not maintained here: age-based
//! selection uses the global `seq` carried by each instruction.
//! Membership and removal are O(1) through an id → slot index that
//! leaves the physical slot order exactly as `swap_remove` makes it.

use crate::dense::DenseSet;
use crate::layout;
use crate::types::{InstId, InstSlab};
use sim_snapshot::{SnapError, SnapReader, SnapWriter};

/// The shared issue queue of the SMT processor.
pub struct IssueQueue {
    capacity: usize,
    /// Resident ids in physical slot order, indexed by id.
    entries: DenseSet<InstId>,
    /// Σ over resident instructions of their hint-derived ACE bits —
    /// the online ACE-bit counter of the paper's Section 5.1.
    hint_bits: u64,
    /// Per-thread occupancy (who is hogging the shared queue).
    per_thread: [usize; micro_isa::MAX_THREADS],
}

impl IssueQueue {
    pub fn new(capacity: usize) -> IssueQueue {
        assert!(capacity > 0);
        IssueQueue {
            capacity,
            entries: DenseSet::with_capacity(capacity),
            hint_bits: 0,
            per_thread: [0; micro_isa::MAX_THREADS],
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.len() == 0
    }

    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Current hint-bit ACE total (the hardware counter value).
    pub fn hint_bits_resident(&self) -> u64 {
        self.hint_bits
    }

    /// Occupancy attributable to one thread.
    pub fn thread_occupancy(&self, tid: micro_isa::ThreadId) -> usize {
        self.per_thread[tid as usize]
    }

    /// Allocate an entry. Panics if full (the dispatch stage checks).
    pub fn insert(&mut self, id: InstId, ace_hint: bool, tid: micro_isa::ThreadId) {
        assert!(!self.is_full(), "IQ overflow");
        debug_assert!(!self.entries.contains(id), "duplicate IQ entry");
        self.entries.push(id);
        self.hint_bits += layout::iq_ace_bits(ace_hint) as u64;
        self.per_thread[tid as usize] += 1;
    }

    /// Free the entry of `id` (at writeback or squash). Panics if absent.
    pub fn remove(&mut self, id: InstId, ace_hint: bool, tid: micro_isa::ThreadId) {
        self.entries
            .remove(id)
            .expect("removing instruction not in IQ");
        self.hint_bits -= layout::iq_ace_bits(ace_hint) as u64;
        self.per_thread[tid as usize] -= 1;
    }

    pub fn contains(&self, id: InstId) -> bool {
        self.entries.contains(id)
    }

    /// Testing hook: skew the hardware ACE-bit counter without touching
    /// the entries it mirrors — models a soft error in the counter
    /// itself, which the `--selfcheck` invariant sweep must catch.
    #[doc(hidden)]
    pub fn skew_hint_bits(&mut self, delta: u64) {
        self.hint_bits = self.hint_bits.wrapping_add(delta);
    }

    /// The occupant of physical slot `idx`, if the slot is allocated.
    /// Slot numbering reflects the collapsing-queue storage order
    /// (`swap_remove` compaction): slots `0..len()` are occupied,
    /// `len()..capacity()` are empty. Fault injection samples this
    /// space uniformly.
    pub fn entry_at(&self, idx: usize) -> Option<InstId> {
        assert!(idx < self.capacity, "IQ slot {idx} out of range");
        self.entries.as_slice().get(idx).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = InstId> + '_ {
        self.entries.as_slice().iter().copied()
    }

    /// Check the id → slot index against the slot contents (self-checks).
    pub(crate) fn check_slot_index(&self) -> Result<(), String> {
        self.entries.check_index()
    }

    /// Serialize the queue contents. The `entries` vector is written
    /// verbatim: `swap_remove` compaction makes physical slot order
    /// history-dependent, and fault injection samples slots by index,
    /// so order must survive a round-trip for bit-identical resume. The
    /// id → slot index is derived and rebuilt on restore.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.entries.as_slice().to_vec());
        w.put(&self.hint_bits);
        let pt: Vec<u64> = self.per_thread.iter().map(|&n| n as u64).collect();
        w.put(&pt);
    }

    /// Restore what [`IssueQueue::save_state`] wrote. Every entry must
    /// name a live record of `slab` (restored first), which also bounds
    /// the id → slot index by the slab's size.
    pub fn restore_state(
        &mut self,
        r: &mut SnapReader<'_>,
        slab: &InstSlab,
    ) -> Result<(), SnapError> {
        let entries: Vec<InstId> = r.get()?;
        let hint_bits = r.get_u64()?;
        let pt: Vec<u64> = r.get()?;
        if entries.len() > self.capacity {
            return Err(SnapError::Corrupt(format!(
                "IQ occupancy {} exceeds capacity {}",
                entries.len(),
                self.capacity
            )));
        }
        if pt.len() != micro_isa::MAX_THREADS {
            return Err(SnapError::Corrupt(format!(
                "IQ per-thread table has {} slots, expected {}",
                pt.len(),
                micro_isa::MAX_THREADS
            )));
        }
        if pt.iter().sum::<u64>() != entries.len() as u64 {
            return Err(SnapError::Corrupt(
                "IQ per-thread occupancy does not sum to entry count".into(),
            ));
        }
        if let Some(id) = entries.iter().find(|&&id| !slab.contains(id)) {
            return Err(SnapError::Corrupt(format!(
                "IQ entry {id} references a dead slab slot"
            )));
        }
        self.entries = DenseSet::from_items(entries)
            .map_err(|id| SnapError::Corrupt(format!("IQ holds instruction {id} twice")))?;
        self.hint_bits = hint_bits;
        for (dst, &src) in self.per_thread.iter_mut().zip(pt.iter()) {
            *dst = src as usize;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{ACE_INST_BITS, UNACE_INST_BITS};

    #[test]
    fn insert_remove_tracks_occupancy_and_bits() {
        let mut iq = IssueQueue::new(4);
        iq.insert(1, true, 0);
        iq.insert(2, false, 1);
        assert_eq!(iq.len(), 2);
        assert_eq!(
            iq.hint_bits_resident(),
            (ACE_INST_BITS + UNACE_INST_BITS) as u64
        );
        iq.remove(1, true, 0);
        assert_eq!(iq.hint_bits_resident(), UNACE_INST_BITS as u64);
        assert!(!iq.contains(1));
        assert!(iq.contains(2));
    }

    #[test]
    fn removal_compacts_slots_like_swap_remove() {
        let mut iq = IssueQueue::new(8);
        for id in [10, 11, 12, 13] {
            iq.insert(id, false, 0);
        }
        // The last entry moves into the freed slot.
        iq.remove(11, false, 0);
        let slots: Vec<_> = (0..4).map(|i| iq.entry_at(i)).collect();
        assert_eq!(slots, vec![Some(10), Some(13), Some(12), None]);
        iq.remove(12, false, 0);
        assert_eq!(iq.entry_at(1), Some(13));
        assert_eq!(iq.entry_at(2), None);
        iq.check_slot_index().unwrap();
    }

    #[test]
    fn capacity_enforced() {
        let mut iq = IssueQueue::new(2);
        iq.insert(1, false, 0);
        iq.insert(2, false, 1);
        assert!(iq.is_full());
    }

    #[test]
    #[should_panic(expected = "IQ overflow")]
    fn overflow_panics() {
        let mut iq = IssueQueue::new(1);
        iq.insert(1, false, 0);
        iq.insert(2, false, 1);
    }

    #[test]
    #[should_panic(expected = "not in IQ")]
    fn removing_absent_panics() {
        let mut iq = IssueQueue::new(2);
        iq.remove(9, false, 0);
    }

    #[test]
    fn restore_keeps_slot_order_and_rejects_dead_ids() {
        use crate::types::InstInfo;
        let inst = micro_isa::DynInst {
            seq: 1,
            tid: 0,
            dyn_idx: 0,
            pc: 0,
            op: micro_isa::OpClass::IAlu,
            dest: None,
            srcs: [None, None],
            mem_addr: None,
            ctrl: None,
            ace_hint: false,
            wrong_path: false,
        };
        let mut slab = InstSlab::new();
        let ids: Vec<InstId> = (0..3)
            .map(|_| slab.insert(InstInfo::new(inst.clone(), 0)))
            .collect();
        let mut iq = IssueQueue::new(4);
        for &id in &ids {
            iq.insert(id, false, 0);
        }
        iq.remove(ids[0], false, 0);
        let mut w = SnapWriter::new();
        iq.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut back = IssueQueue::new(4);
        back.restore_state(&mut SnapReader::new(&bytes), &slab)
            .unwrap();
        assert_eq!(
            back.iter().collect::<Vec<_>>(),
            iq.iter().collect::<Vec<_>>()
        );
        back.check_slot_index().unwrap();

        // An id the slab does not hold is rejected before the slot index
        // is sized by it.
        let mut w = SnapWriter::new();
        w.put(&vec![ids[1], 1usize << 40]);
        w.put(&0u64);
        w.put(&vec![2u64, 0, 0, 0, 0, 0, 0, 0]);
        let bytes = w.into_bytes();
        let err = IssueQueue::new(4)
            .restore_state(&mut SnapReader::new(&bytes), &slab)
            .unwrap_err();
        assert!(err.to_string().contains("dead slab slot"), "{err}");
    }
}
