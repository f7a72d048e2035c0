//! Paging-structure caches (MMU caches).
//!
//! Modern x86 MMUs cache upper-level page-table entries (PML4E/PDPTE/PDE
//! caches) so that a TLB miss rarely needs all four memory accesses: if the
//! PDE covering the faulting address is cached, only the leaf PTE has to be
//! fetched.  The paper leans on this ("at least leaf-level PTEs have to be
//! accessed", §3.1), so the walker model includes it.

use crate::lru::LruMap;
use mitosis_mem::FrameId;
use mitosis_pt::{Level, VirtAddr};

/// One exact-LRU cache of upper-level entries, keyed by the virtual-address
/// bits that select the entry.  Lookup, insert and eviction are all O(1)
/// ([`LruMap`]); these caches sit on every page walk, and the old
/// `min_by_key` eviction scanned the whole cache on each conflict miss.
#[derive(Debug, Clone)]
struct LevelCache {
    entries: LruMap<FrameId>,
}

impl LevelCache {
    fn new(capacity: usize) -> Self {
        LevelCache {
            entries: LruMap::new(capacity),
        }
    }

    fn lookup(&mut self, key: u64) -> Option<FrameId> {
        self.entries.get(key).copied()
    }

    fn insert(&mut self, key: u64, frame: FrameId) {
        self.entries.insert(key, frame);
    }

    fn flush(&mut self) {
        self.entries.clear();
    }

    /// Drops every entry whose key falls in `[key_start, key_end]`.
    /// Returns the number of entries removed.
    ///
    /// A key span smaller than the resident count removes the covered keys
    /// one by one; a wider one filters the whole cache.  Either way the
    /// survivors keep their recency order, so later victims are the same.
    fn invalidate_keys(&mut self, key_start: u64, key_end: u64) -> usize {
        if (key_end - key_start).saturating_add(1) < self.entries.len() as u64 {
            return (key_start..=key_end)
                .filter(|&key| self.entries.remove(key))
                .count();
        }
        let mut removed = 0;
        self.entries.retain(|key, _| {
            let dead = key >= key_start && key <= key_end;
            removed += usize::from(dead);
            !dead
        });
        removed
    }
}

/// The MMU's caches of upper-level page-table entries.
///
/// * the PDE cache maps bits 47..21 of an address to the L1 page-table page,
/// * the PDPTE cache maps bits 47..30 to the L2 page,
/// * the PML4E cache maps bits 47..39 to the L3 page.
///
/// A hit in a lower cache lets the walker skip more levels.
#[derive(Debug, Clone)]
pub struct PagingStructureCache {
    pde: LevelCache,
    pdpte: LevelCache,
    pml4e: LevelCache,
}

impl PagingStructureCache {
    /// Creates the caches with sizes representative of an Intel MMU
    /// (32 PDE, 16 PDPTE, 16 PML4E entries).
    pub fn paper_testbed() -> Self {
        PagingStructureCache::new(32, 16, 16)
    }

    /// Creates the caches with explicit entry counts.
    pub fn new(pde_entries: usize, pdpte_entries: usize, pml4e_entries: usize) -> Self {
        PagingStructureCache {
            pde: LevelCache::new(pde_entries),
            pdpte: LevelCache::new(pdpte_entries),
            pml4e: LevelCache::new(pml4e_entries),
        }
    }

    fn key(addr: VirtAddr, level: Level) -> u64 {
        addr.as_u64() >> level.index_shift()
    }

    /// Returns the deepest cached starting point for a walk of `addr`:
    /// the level whose *table* the walker must read next, and that table's
    /// frame.  `None` means the walk must start at the root (L4 table).
    ///
    /// The returned level is the level of the table to read: a PDE-cache hit
    /// returns `(Level::L1, l1_table)`, a PDPTE hit `(Level::L2, l2_table)`,
    /// a PML4E hit `(Level::L3, l3_table)`.
    pub fn walk_start(&mut self, addr: VirtAddr) -> Option<(Level, FrameId)> {
        if let Some(frame) = self.pde.lookup(Self::key(addr, Level::L2)) {
            return Some((Level::L1, frame));
        }
        if let Some(frame) = self.pdpte.lookup(Self::key(addr, Level::L3)) {
            return Some((Level::L2, frame));
        }
        if let Some(frame) = self.pml4e.lookup(Self::key(addr, Level::L4)) {
            return Some((Level::L3, frame));
        }
        None
    }

    /// Records that the table read at `level` for `addr` yielded a pointer to
    /// `next_table` (the table of the next lower level), so future walks can
    /// skip to it.
    ///
    /// `level` is the level of the *entry* that was read (L4, L3 or L2);
    /// leaf entries are cached by the TLB, not here.
    pub fn record(&mut self, addr: VirtAddr, level: Level, next_table: FrameId) {
        match level {
            Level::L4 => self.pml4e.insert(Self::key(addr, Level::L4), next_table),
            Level::L3 => self.pdpte.insert(Self::key(addr, Level::L3), next_table),
            Level::L2 => self.pde.insert(Self::key(addr, Level::L2), next_table),
            Level::L1 => {}
        }
    }

    /// Flushes all cached entries (CR3 write / full shootdown).
    pub fn flush(&mut self) {
        self.pde.flush();
        self.pdpte.flush();
        self.pml4e.flush();
    }

    /// Evicts every entry serving addresses in `[va_start, va_end)` — the
    /// targeted paging-structure-cache eviction of a ranged shootdown.  Any
    /// entry whose coverage intersects the range dies; coarser levels drop
    /// at most one entry per 1 GiB / 512 GiB of range.  Returns the number
    /// of entries removed across all three caches.
    pub fn invalidate_range(&mut self, va_start: VirtAddr, va_end: VirtAddr) -> usize {
        if va_end.as_u64() <= va_start.as_u64() {
            return 0;
        }
        let last = VirtAddr::new(va_end.as_u64() - 1);
        let mut removed = 0;
        for level in [Level::L2, Level::L3, Level::L4] {
            let cache = match level {
                Level::L2 => &mut self.pde,
                Level::L3 => &mut self.pdpte,
                _ => &mut self.pml4e,
            };
            removed += cache.invalidate_keys(Self::key(va_start, level), Self::key(last, level));
        }
        removed
    }
}

impl Default for PagingStructureCache {
    fn default() -> Self {
        PagingStructureCache::paper_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cache_starts_walks_at_the_root() {
        let mut pwc = PagingStructureCache::paper_testbed();
        assert_eq!(pwc.walk_start(VirtAddr::new(0x1234_5000)), None);
    }

    #[test]
    fn pde_hit_skips_to_the_leaf_table() {
        let mut pwc = PagingStructureCache::paper_testbed();
        let addr = VirtAddr::new(0x4000_3000);
        pwc.record(addr, Level::L2, FrameId::new(77));
        // A different address under the same 2 MiB region hits too.
        let sibling = VirtAddr::new(0x4000_7000);
        assert_eq!(pwc.walk_start(sibling), Some((Level::L1, FrameId::new(77))));
        // An address in a different 2 MiB region falls back to coarser caches.
        let other = VirtAddr::new(0x4020_0000);
        assert_eq!(pwc.walk_start(other), None);
    }

    #[test]
    fn deeper_caches_take_precedence() {
        let mut pwc = PagingStructureCache::paper_testbed();
        let addr = VirtAddr::new(0x4000_3000);
        pwc.record(addr, Level::L4, FrameId::new(3));
        pwc.record(addr, Level::L3, FrameId::new(2));
        pwc.record(addr, Level::L2, FrameId::new(1));
        assert_eq!(pwc.walk_start(addr), Some((Level::L1, FrameId::new(1))));
        // Same 1 GiB region, different 2 MiB region: PDPTE cache serves it.
        let cousin = VirtAddr::new(0x4060_0000);
        assert_eq!(pwc.walk_start(cousin), Some((Level::L2, FrameId::new(2))));
    }

    #[test]
    fn flush_clears_everything() {
        let mut pwc = PagingStructureCache::paper_testbed();
        let addr = VirtAddr::new(0x8000_0000);
        pwc.record(addr, Level::L2, FrameId::new(9));
        pwc.flush();
        assert_eq!(pwc.walk_start(addr), None);
    }

    #[test]
    fn lru_eviction_bounds_capacity() {
        let mut pwc = PagingStructureCache::new(2, 2, 2);
        for i in 0..4u64 {
            let addr = VirtAddr::new(i << 21);
            pwc.record(addr, Level::L2, FrameId::new(i));
        }
        // The two oldest entries were evicted.
        assert_eq!(pwc.walk_start(VirtAddr::new(0)), None);
        assert!(pwc.walk_start(VirtAddr::new(3 << 21)).is_some());
    }

    #[test]
    fn ranged_eviction_is_targeted() {
        let mut pwc = PagingStructureCache::paper_testbed();
        let inside = VirtAddr::new(0x4000_0000);
        let outside = VirtAddr::new(0x8000_0000);
        pwc.record(inside, Level::L2, FrameId::new(1));
        pwc.record(outside, Level::L2, FrameId::new(2));
        pwc.record(inside, Level::L3, FrameId::new(3));
        // Evict one 2 MiB region: the PDE entry covering it dies, as does
        // the PDPTE entry for its 1 GiB region; the other region survives.
        let removed = pwc.invalidate_range(inside, inside.add(2 * 1024 * 1024));
        assert_eq!(removed, 2);
        assert_eq!(pwc.walk_start(inside), None);
        assert!(pwc.walk_start(outside).is_some());
        // An empty range removes nothing.
        assert_eq!(pwc.invalidate_range(outside, outside), 0);
    }

    #[test]
    fn direct_key_invalidation_matches_retain() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for round in 0..500 {
            let mut fast = LevelCache::new(32);
            for _ in 0..next(80) {
                let key = next(64);
                if next(2) == 0 {
                    fast.insert(key, FrameId::new(key));
                } else {
                    fast.lookup(key);
                }
            }
            let mut reference = fast.clone();
            // Spans on both sides of the resident count.
            let key_start = next(64);
            let key_end = key_start + next(40);
            let dead = |key: u64| (key_start..=key_end).contains(&key);
            let before = reference.entries.len();
            reference.entries.retain(|key, _| !dead(key));
            assert_eq!(
                fast.invalidate_keys(key_start, key_end),
                before - reference.entries.len(),
                "round {round}"
            );
            assert_eq!(
                fast.entries.keys_by_recency(),
                reference.entries.keys_by_recency(),
                "round {round}: survivors and their order"
            );
            // Refills evict the same victims.
            for _ in 0..40 {
                let key = next(128);
                fast.insert(key, FrameId::new(key));
                reference.insert(key, FrameId::new(key));
            }
            assert_eq!(
                fast.entries.keys_by_recency(),
                reference.entries.keys_by_recency(),
                "round {round}: after refill"
            );
        }
    }

    #[test]
    fn leaf_level_record_is_ignored() {
        let mut pwc = PagingStructureCache::paper_testbed();
        pwc.record(VirtAddr::new(0x1000), Level::L1, FrameId::new(5));
        assert_eq!(pwc.walk_start(VirtAddr::new(0x1000)), None);
    }
}
