//! Function-unit pools.
//!
//! Five pools (Table 2). Pipelined units accept one new operation per
//! cycle; unpipelined units (dividers, sqrt) stay busy for the full
//! latency. Each unit tracks the cycle at which it next accepts work:
//! issuing marks the unit busy through at least the next cycle, so the
//! one-issue-per-unit-per-cycle port constraint falls out of the same
//! bookkeeping.

use micro_isa::{FuKind, OpClass};
use sim_snapshot::{SnapError, SnapReader, SnapWriter};

/// All function units of one processor.
pub struct FuPools {
    /// `busy_until[kind][unit]`: first cycle the unit can accept work.
    busy_until: [Vec<u64>; 5],
}

impl FuPools {
    pub fn new(pool_sizes: [usize; 5]) -> FuPools {
        FuPools {
            busy_until: pool_sizes.map(|n| {
                assert!(n > 0, "empty function-unit pool");
                vec![0u64; n]
            }),
        }
    }

    /// Table 2 pools: 8 I-ALU, 4 I-MUL/DIV, 4 load/store, 8 FP-ALU,
    /// 4 FP-MUL/DIV/SQRT.
    pub fn table2() -> FuPools {
        FuPools::new([8, 4, 4, 8, 4])
    }

    /// Can an op of this class be issued at `now`?
    pub fn can_issue(&self, op: OpClass, now: u64) -> bool {
        self.busy_until[op.fu_kind().index()]
            .iter()
            .any(|&b| b <= now)
    }

    /// Reserve a unit for `op` starting at `now`; returns the op's
    /// execution latency (excluding memory latency for loads/stores).
    /// Callers must have checked [`Self::can_issue`].
    pub fn issue(&mut self, op: OpClass, now: u64) -> u32 {
        let k = op.fu_kind().index();
        let unit = self.busy_until[k]
            .iter()
            .position(|&b| b <= now)
            .expect("issue() without can_issue()");
        let latency = op.base_latency();
        // Pipelined units are busy only for the issue cycle; unpipelined
        // ones block for the whole operation.
        self.busy_until[k][unit] = if op.pipelined() {
            now + 1
        } else {
            now + latency as u64
        };
        latency
    }

    /// The first cycle after `now` at which a unit busy at `now`
    /// becomes free (`u64::MAX` if every unit is free): the next cycle
    /// whose [`Self::can_issue`] answers can differ from `now`'s.
    pub fn next_release_after(&self, now: u64) -> u64 {
        self.busy_until
            .iter()
            .flatten()
            .copied()
            .filter(|&b| b > now)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Units of `kind` free at `now` (diagnostics).
    pub fn free_units(&self, kind: FuKind, now: u64) -> usize {
        self.busy_until[kind.index()]
            .iter()
            .filter(|&&b| b <= now)
            .count()
    }

    pub fn save_state(&self, w: &mut SnapWriter) {
        for pool in &self.busy_until {
            w.put(pool);
        }
    }

    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        for pool in &mut self.busy_until {
            let loaded: Vec<u64> = r.get()?;
            if loaded.len() != pool.len() {
                return Err(SnapError::Corrupt(format!(
                    "function-unit pool size {} does not match configured {}",
                    loaded.len(),
                    pool.len()
                )));
            }
            *pool = loaded;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_width_limits_issue_per_cycle() {
        let mut fu = FuPools::table2();
        // 4 load/store ports.
        for _ in 0..4 {
            assert!(fu.can_issue(OpClass::Load, 0));
            fu.issue(OpClass::Load, 0);
        }
        assert!(!fu.can_issue(OpClass::Load, 0));
        // Other pools unaffected.
        assert!(fu.can_issue(OpClass::IAlu, 0));
    }

    #[test]
    fn pipelined_unit_frees_next_cycle() {
        let mut fu = FuPools::new([1, 1, 1, 1, 1]);
        assert_eq!(fu.issue(OpClass::IMul, 0), 3);
        assert!(!fu.can_issue(OpClass::IMul, 0), "port taken this cycle");
        assert!(fu.can_issue(OpClass::IMul, 1), "pipelined: next cycle ok");
    }

    #[test]
    fn unpipelined_unit_blocks_for_latency() {
        let mut fu = FuPools::new([1, 1, 1, 1, 1]);
        let lat = fu.issue(OpClass::IDiv, 0);
        assert_eq!(lat, 12);
        for cycle in 1..12 {
            assert!(!fu.can_issue(OpClass::IDiv, cycle), "cycle {cycle}");
        }
        assert!(fu.can_issue(OpClass::IDiv, 12));
    }

    #[test]
    fn next_release_is_the_earliest_busy_unit() {
        let mut fu = FuPools::new([1, 1, 1, 1, 1]);
        assert_eq!(fu.next_release_after(0), u64::MAX, "all free");
        fu.issue(OpClass::IDiv, 0); // busy through cycle 11
        fu.issue(OpClass::IAlu, 0); // pipelined: busy for cycle 0 only
        assert_eq!(fu.next_release_after(0), 1);
        assert_eq!(fu.next_release_after(1), 12);
        assert_eq!(fu.next_release_after(11), 12);
        assert_eq!(fu.next_release_after(12), u64::MAX);
    }

    #[test]
    fn branches_share_int_alu_pool() {
        let mut fu = FuPools::new([2, 1, 1, 1, 1]);
        fu.issue(OpClass::IAlu, 0);
        fu.issue(OpClass::CondBranch, 0);
        assert!(!fu.can_issue(OpClass::IAlu, 0));
        assert_eq!(fu.free_units(FuKind::IntAlu, 0), 0);
    }

    #[test]
    fn free_units_accounting() {
        let mut fu = FuPools::table2();
        assert_eq!(fu.free_units(FuKind::FpAlu, 0), 8);
        fu.issue(OpClass::FAlu, 0);
        assert_eq!(fu.free_units(FuKind::FpAlu, 0), 7);
    }

    #[test]
    #[should_panic(expected = "empty function-unit pool")]
    fn empty_pool_rejected() {
        let _ = FuPools::new([1, 0, 1, 1, 1]);
    }
}
