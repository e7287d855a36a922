//! Translation lookaside buffers.
//!
//! A TLB is a set-associative cache over virtual page numbers; this module
//! wraps [`Cache`] with page-granular indexing. Table 2:
//! ITLB 128 entries 4-way, DTLB 256 entries 4-way, 200-cycle miss penalty
//! (a page walk to memory).

use crate::cache::{Cache, CacheConfig, CacheStats};

/// Default page size: 8 KB, the Alpha architectural page size.
pub const PAGE_BYTES: u64 = 8192;

/// A translation lookaside buffer.
pub struct Tlb {
    inner: Cache,
    miss_latency: u32,
}

impl Tlb {
    /// `entries`-entry, `assoc`-way TLB with the given miss penalty.
    pub fn new(entries: usize, assoc: usize, miss_latency: u32) -> Tlb {
        // Reuse the cache engine: one "line" per page entry. The inner
        // cache indexes by addr >> line_shift, so feeding it full
        // addresses with line_bytes = PAGE_BYTES indexes by page number.
        Tlb {
            inner: Cache::new(CacheConfig {
                size_bytes: entries as u64 * PAGE_BYTES,
                assoc,
                line_bytes: PAGE_BYTES,
                hit_latency: 0,
            }),
            miss_latency,
        }
    }

    /// Translate the page containing `addr`; returns the added latency
    /// (0 on hit, the page-walk penalty on miss).
    pub fn translate(&mut self, addr: u64) -> u32 {
        if self.inner.access(addr) {
            0
        } else {
            self.miss_latency
        }
    }

    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    pub fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    /// Serialize the underlying translation cache state.
    pub fn save_state(&self, w: &mut sim_snapshot::SnapWriter) {
        self.inner.save_state(w);
    }

    /// Restore state saved by [`Self::save_state`].
    pub fn restore_state(
        &mut self,
        r: &mut sim_snapshot::SnapReader<'_>,
    ) -> Result<(), sim_snapshot::SnapError> {
        self.inner.restore_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits_after_first_touch() {
        let mut t = Tlb::new(16, 4, 200);
        assert_eq!(t.translate(0x0000), 200);
        assert_eq!(t.translate(0x1fff), 0, "same 8K page");
        assert_eq!(t.translate(0x2000), 200, "next page");
    }

    #[test]
    fn capacity_eviction() {
        let mut t = Tlb::new(4, 4, 200);
        for p in 0..5u64 {
            t.translate(p * PAGE_BYTES);
        }
        // Page 0 was LRU and must have been evicted.
        assert_eq!(t.translate(0), 200);
    }

    #[test]
    fn stats_track_misses() {
        let mut t = Tlb::new(16, 4, 200);
        t.translate(0);
        t.translate(0);
        t.translate(PAGE_BYTES);
        let s = t.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.misses, 2);
    }
}
