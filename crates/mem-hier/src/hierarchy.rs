//! The composed memory hierarchy.
//!
//! One [`MemoryHierarchy`] per simulated SMT processor, shared by all
//! hardware contexts (the paper's machine shares all cache levels).
//! Thread data streams are kept from aliasing by giving each context its
//! own high address bits — see [`MemoryHierarchy::thread_addr`].

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::tlb::Tlb;
use micro_isa::ThreadId;

/// Configuration of the whole hierarchy (defaults = paper Table 2).
#[derive(Debug, Clone, Copy)]
pub struct HierarchyConfig {
    pub l1i: CacheConfig,
    pub l1d: CacheConfig,
    pub l2: CacheConfig,
    pub mem_latency: u32,
    pub itlb_entries: usize,
    pub dtlb_entries: usize,
    pub tlb_assoc: usize,
    pub tlb_miss_latency: u32,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            l1i: CacheConfig {
                size_bytes: 32 * 1024,
                assoc: 2,
                line_bytes: 32,
                hit_latency: 1,
            },
            l1d: CacheConfig {
                size_bytes: 64 * 1024,
                assoc: 4,
                line_bytes: 64,
                hit_latency: 1,
            },
            l2: CacheConfig {
                size_bytes: 2 * 1024 * 1024,
                assoc: 4,
                line_bytes: 128,
                hit_latency: 12,
            },
            mem_latency: 200,
            itlb_entries: 128,
            dtlb_entries: 256,
            tlb_assoc: 4,
            tlb_miss_latency: 200,
        }
    }
}

/// Outcome of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Total access latency in cycles (including TLB penalty).
    pub latency: u32,
    pub l1_miss: bool,
    /// The flag the paper's opt2 / STALL / FLUSH / DVM mechanisms key on.
    pub l2_miss: bool,
}

/// Aggregate statistics across the hierarchy.
#[derive(Debug, Clone, Copy, Default)]
pub struct HierarchyStats {
    pub l1i: CacheStats,
    pub l1d: CacheStats,
    pub l2: CacheStats,
    pub itlb: CacheStats,
    pub dtlb: CacheStats,
}

impl HierarchyStats {
    /// Counters accumulated since an `earlier` reading — used by the
    /// pipeline to turn the monotonic hierarchy counters into
    /// per-sampling-interval miss-rate series.
    pub fn since(&self, earlier: &HierarchyStats) -> HierarchyStats {
        HierarchyStats {
            l1i: self.l1i.since(&earlier.l1i),
            l1d: self.l1d.since(&earlier.l1d),
            l2: self.l2.since(&earlier.l2),
            itlb: self.itlb.since(&earlier.itlb),
            dtlb: self.dtlb.since(&earlier.dtlb),
        }
    }
}

/// The shared cache hierarchy of one SMT processor.
pub struct MemoryHierarchy {
    config: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    itlb: Tlb,
    dtlb: Tlb,
}

impl MemoryHierarchy {
    pub fn new(config: HierarchyConfig) -> MemoryHierarchy {
        MemoryHierarchy {
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            itlb: Tlb::new(
                config.itlb_entries,
                config.tlb_assoc,
                config.tlb_miss_latency,
            ),
            dtlb: Tlb::new(
                config.dtlb_entries,
                config.tlb_assoc,
                config.tlb_miss_latency,
            ),
            config,
        }
    }

    /// The paper's Table 2 hierarchy.
    pub fn table2() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::default())
    }

    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Disambiguate per-thread address spaces: contexts run distinct
    /// programs with overlapping synthetic addresses, so the upper bits
    /// carry the context id (as distinct ASIDs/physical mappings would).
    #[inline]
    pub fn thread_addr(tid: ThreadId, addr: u64) -> u64 {
        ((tid as u64) << 44) | (addr & ((1u64 << 44) - 1))
    }

    /// A data access (load or store) from thread `tid` at synthetic
    /// address `addr`.
    ///
    /// Like instruction fetch, each thread's data segment is staggered by
    /// a non-power-of-two offset: distinct programs do not lay their
    /// heaps out at identical virtual addresses, and without the stagger
    /// four same-sized footprints would pile onto the same cache sets
    /// and conflict-miss far beyond what the combined working set
    /// justifies.
    pub fn access_data(&mut self, tid: ThreadId, addr: u64) -> AccessResult {
        let stagger = tid as u64 * 0x6_4d90;
        let a = Self::thread_addr(tid, addr.wrapping_add(stagger));
        let mut latency = self.dtlb.translate(a);
        let l1_hit = self.l1d.access(a);
        latency += self.config.l1d.hit_latency;
        if l1_hit {
            return AccessResult {
                latency,
                l1_miss: false,
                l2_miss: false,
            };
        }
        let l2_hit = self.l2.access(a);
        latency += self.config.l2.hit_latency;
        if l2_hit {
            return AccessResult {
                latency,
                l1_miss: true,
                l2_miss: false,
            };
        }
        latency += self.config.mem_latency;
        AccessResult {
            latency,
            l1_miss: true,
            l2_miss: true,
        }
    }

    /// An instruction fetch from thread `tid` at word PC `pc` (converted
    /// to a byte address internally).
    pub fn access_inst(&mut self, tid: ThreadId, pc: u64) -> AccessResult {
        // 4 bytes per instruction word; keep instruction and data spaces
        // disjoint with a dedicated high bit. Each thread's code segment
        // is staggered by a non-power-of-two offset so that the entry
        // points of concurrently running programs do not all collide in
        // the same I-cache set (real loaders place images at distinct
        // addresses).
        let stagger = tid as u64 * 0x2860;
        let a = Self::thread_addr(tid, pc * 4 + stagger) | (1u64 << 43);
        let mut latency = self.itlb.translate(a);
        let l1_hit = self.l1i.access(a);
        latency += self.config.l1i.hit_latency;
        if l1_hit {
            return AccessResult {
                latency,
                l1_miss: false,
                l2_miss: false,
            };
        }
        let l2_hit = self.l2.access(a);
        latency += self.config.l2.hit_latency;
        if l2_hit {
            return AccessResult {
                latency,
                l1_miss: true,
                l2_miss: false,
            };
        }
        latency += self.config.mem_latency;
        AccessResult {
            latency,
            l1_miss: true,
            l2_miss: true,
        }
    }

    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1i: self.l1i.stats(),
            l1d: self.l1d.stats(),
            l2: self.l2.stats(),
            itlb: self.itlb.stats(),
            dtlb: self.dtlb.stats(),
        }
    }

    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.itlb.reset_stats();
        self.dtlb.reset_stats();
    }

    /// Serialize every cache level and TLB (tags, LRU, counters) so a
    /// restored run sees the identical hit/miss sequence.
    pub fn save_state(&self, w: &mut sim_snapshot::SnapWriter) {
        self.l1i.save_state(w);
        self.l1d.save_state(w);
        self.l2.save_state(w);
        self.itlb.save_state(w);
        self.dtlb.save_state(w);
    }

    /// Restore state saved by [`Self::save_state`] onto a hierarchy of
    /// the same configuration.
    pub fn restore_state(
        &mut self,
        r: &mut sim_snapshot::SnapReader<'_>,
    ) -> Result<(), sim_snapshot::SnapError> {
        self.l1i.restore_state(r)?;
        self.l1d.restore_state(r)?;
        self.l2.restore_state(r)?;
        self.itlb.restore_state(r)?;
        self.dtlb.restore_state(r)
    }
}

impl sim_snapshot::Snap for HierarchyStats {
    fn save(&self, w: &mut sim_snapshot::SnapWriter) {
        self.l1i.save(w);
        self.l1d.save(w);
        self.l2.save(w);
        self.itlb.save(w);
        self.dtlb.save(w);
    }
    fn load(r: &mut sim_snapshot::SnapReader<'_>) -> Result<Self, sim_snapshot::SnapError> {
        Ok(HierarchyStats {
            l1i: r.get()?,
            l1d: r.get()?,
            l2: r.get()?,
            itlb: r.get()?,
            dtlb: r.get()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_data_costs_one_cycle() {
        let mut h = MemoryHierarchy::table2();
        h.access_data(0, 0x100); // warm everything
        let r = h.access_data(0, 0x100);
        assert_eq!(
            r,
            AccessResult {
                latency: 1,
                l1_miss: false,
                l2_miss: false
            }
        );
    }

    #[test]
    fn l2_hit_costs_l1_plus_l2() {
        let mut h = MemoryHierarchy::table2();
        // Touch a line, then evict it from L1D (4-way, 256 sets, 64B) by
        // touching 4 conflicting lines; L2 (4-way, 4096 sets, 128B) keeps it.
        h.access_data(0, 0);
        for i in 1..=4u64 {
            h.access_data(0, i * 64 * 256); // same L1 set, different tags
        }
        let r = h.access_data(0, 0);
        assert!(r.l1_miss && !r.l2_miss, "{r:?}");
        assert_eq!(r.latency, 1 + 12);
    }

    #[test]
    fn cold_miss_goes_to_memory() {
        let mut h = MemoryHierarchy::table2();
        let r = h.access_data(0, 0xabc0);
        assert!(r.l1_miss && r.l2_miss);
        // TLB miss (200) + L1 (1) + L2 (12) + memory (200).
        assert_eq!(r.latency, 200 + 1 + 12 + 200);
    }

    #[test]
    fn threads_do_not_alias() {
        let mut h = MemoryHierarchy::table2();
        h.access_data(0, 0x100);
        let r = h.access_data(1, 0x100);
        assert!(r.l1_miss, "thread 1 must not hit thread 0's line");
    }

    #[test]
    fn inst_and_data_spaces_disjoint() {
        let mut h = MemoryHierarchy::table2();
        h.access_data(0, 0x40);
        let r = h.access_inst(0, 0x10); // byte addr 0x40
        assert!(r.l1_miss, "ifetch must not hit the data line");
    }

    #[test]
    fn streaming_beyond_l2_misses_repeatedly() {
        let mut h = MemoryHierarchy::table2();
        // An 8 MB scatter working set cannot live in a 2 MB L2.
        let span = 8u64 << 20;
        let mut l2_misses = 0;
        for k in 0..4000u64 {
            // Pseudo-random walk.
            let mut z = k.wrapping_mul(0x9e3779b97f4a7c15);
            z ^= z >> 31;
            if h.access_data(0, z % span).l2_miss {
                l2_misses += 1;
            }
        }
        assert!(l2_misses > 1500, "only {l2_misses} L2 misses");
    }

    #[test]
    fn small_working_set_stays_l1_resident() {
        let mut h = MemoryHierarchy::table2();
        let mut misses_late = 0;
        for round in 0..4 {
            for addr in (0..32768u64).step_by(64) {
                // 32 KB stream fits the 64 KB L1D.
                if h.access_data(0, addr).l1_miss && round > 0 {
                    misses_late += 1;
                }
            }
        }
        assert_eq!(misses_late, 0);
    }

    #[test]
    fn stats_aggregate() {
        let mut h = MemoryHierarchy::table2();
        h.access_data(0, 0);
        h.access_inst(0, 0);
        let s = h.stats();
        assert_eq!(s.l1d.accesses, 1);
        assert_eq!(s.l1i.accesses, 1);
        assert_eq!(s.l2.accesses, 2);
        h.reset_stats();
        assert_eq!(h.stats().l1d.accesses, 0);
    }
}
