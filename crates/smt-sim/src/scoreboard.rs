//! Per-thread register scoreboard.
//!
//! Tracks, for every architectural register of a context, the most recent
//! *in-flight* producer. Dispatching instructions read it to find their
//! outstanding producers (wakeup dependencies); completing instructions
//! clear their own entry if still current. A register with no in-flight
//! producer is architecturally ready.
//!
//! The simulator does not model a physical register file: none of the
//! paper's mechanisms depend on rename capacity (the IQ, not the free
//! list, is the bottleneck being studied), so a scoreboard over
//! architectural registers gives identical wakeup timing at a fraction of
//! the complexity.

use crate::types::InstId;
use micro_isa::{Reg, NUM_FP_REGS, NUM_INT_REGS};
use sim_snapshot::{SnapError, SnapReader, SnapWriter};

const NUM_REGS: usize = NUM_INT_REGS + NUM_FP_REGS;

/// Scoreboard for one hardware context.
#[derive(Debug, Clone)]
pub struct Scoreboard {
    producer: [Option<InstId>; NUM_REGS],
}

impl Default for Scoreboard {
    fn default() -> Self {
        Scoreboard {
            producer: [None; NUM_REGS],
        }
    }
}

impl Scoreboard {
    pub fn new() -> Scoreboard {
        Scoreboard::default()
    }

    /// The in-flight producer of `reg`, if any.
    #[inline]
    pub fn producer_of(&self, reg: Reg) -> Option<InstId> {
        self.producer[reg.flat_index()]
    }

    /// Record `id` as the latest producer of `reg` (at dispatch).
    #[inline]
    pub fn set_producer(&mut self, reg: Reg, id: InstId) {
        self.producer[reg.flat_index()] = Some(id);
    }

    /// Clear `reg`'s producer if it is still `id` (at completion or
    /// squash). A newer producer must not be clobbered.
    #[inline]
    pub fn clear_if_producer(&mut self, reg: Reg, id: InstId) {
        let slot = &mut self.producer[reg.flat_index()];
        if *slot == Some(id) {
            *slot = None;
        }
    }

    /// Number of registers with in-flight producers (diagnostics).
    pub fn pending_count(&self) -> usize {
        self.producer.iter().flatten().count()
    }

    pub fn save_state(&self, w: &mut SnapWriter) {
        for slot in &self.producer {
            w.put(slot);
        }
    }

    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        for slot in &mut self.producer {
            *slot = r.get()?;
        }
        Ok(())
    }

    /// Iterate over registers with in-flight producers (self-checks).
    pub fn producers(&self) -> impl Iterator<Item = (usize, InstId)> + '_ {
        self.producer
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.map(|id| (i, id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_clear() {
        let mut sb = Scoreboard::new();
        let r = Reg::int(3);
        assert_eq!(sb.producer_of(r), None);
        sb.set_producer(r, 11);
        assert_eq!(sb.producer_of(r), Some(11));
        sb.clear_if_producer(r, 11);
        assert_eq!(sb.producer_of(r), None);
    }

    #[test]
    fn stale_clear_is_ignored() {
        let mut sb = Scoreboard::new();
        let r = Reg::fp(5);
        sb.set_producer(r, 1);
        sb.set_producer(r, 2); // newer producer
        sb.clear_if_producer(r, 1); // stale completion
        assert_eq!(sb.producer_of(r), Some(2));
    }

    #[test]
    fn int_and_fp_do_not_alias() {
        let mut sb = Scoreboard::new();
        sb.set_producer(Reg::int(4), 9);
        assert_eq!(sb.producer_of(Reg::fp(4)), None);
    }
}
