//! The per-core MMU front end: TLB hierarchy plus page walker.

use crate::pte_cache::PteCache;
use crate::pwc::PagingStructureCache;
use crate::stats::MmuStats;
use crate::tlb::{TlbHierarchy, TlbLevel};
use crate::walker::{HardwareWalker, WalkerConfig};
use mitosis_mem::{FrameId, FrameTable};
use mitosis_numa::{CoreId, CostModel, Cycles, SocketId};
use mitosis_pt::{PageSize, PtStore, ShootdownPlan, VirtAddr};

/// Result of one memory access' address translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The 4 KiB frame backing the accessed address, if mapped.
    pub frame: Option<FrameId>,
    /// Cycles spent translating (TLB penalties plus any walk).
    pub translation_cycles: Cycles,
    /// The TLB level that served the access, or `None` if a walk was needed.
    pub tlb_hit: Option<TlbLevel>,
    /// Page size of the mapping used (known only if translated).
    pub page_size: Option<PageSize>,
    /// `true` if the access faulted (no valid mapping).
    pub fault: bool,
}

/// A core's memory management unit.
///
/// The MMU owns the core-private structures (TLBs, paging-structure caches,
/// statistics); machine-level state (the page tables themselves, per-socket
/// page-table-line caches, the NUMA cost model) is passed in per access.
#[derive(Debug, Clone)]
pub struct Mmu {
    core: CoreId,
    socket: SocketId,
    /// Address-space identifier of the process currently loaded on this
    /// core; tags every TLB entry (PCID).  ASID 0 — the default — keeps
    /// single-process runs identical to the untagged model.
    asid: u16,
    tlb: TlbHierarchy,
    pwc: PagingStructureCache,
    walker: HardwareWalker,
    stats: MmuStats,
}

impl Mmu {
    /// Creates the MMU of `core` (which belongs to `socket`), using the
    /// paper-testbed TLB and MMU-cache sizes.
    pub fn new(core: CoreId, socket: SocketId) -> Self {
        Mmu {
            core,
            socket,
            asid: 0,
            tlb: TlbHierarchy::paper_testbed(),
            pwc: PagingStructureCache::paper_testbed(),
            walker: HardwareWalker::new(),
            stats: MmuStats::default(),
        }
    }

    /// Overrides the walker configuration.
    pub fn with_walker_config(mut self, config: WalkerConfig) -> Self {
        self.walker = HardwareWalker::with_config(config);
        self
    }

    /// The core this MMU belongs to.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// The socket this MMU's core belongs to.
    pub fn socket(&self) -> SocketId {
        self.socket
    }

    /// The address-space identifier currently loaded on this core.
    pub fn asid(&self) -> u16 {
        self.asid
    }

    /// Loads `asid` without flushing (a PCID-tagged CR3 write): TLB entries
    /// of other address spaces stay resident but cannot hit.
    pub fn set_asid(&mut self, asid: u16) {
        self.asid = asid;
    }

    /// Translates one access to `addr` using the page table rooted at `root`
    /// (the CR3 value currently loaded on this core).
    ///
    /// `pte_cache` must be the cache of **this core's socket**.
    #[allow(clippy::too_many_arguments)]
    pub fn access(
        &mut self,
        addr: VirtAddr,
        is_write: bool,
        root: FrameId,
        store: &mut PtStore,
        frames: &FrameTable,
        cost: &CostModel,
        pte_cache: &mut PteCache,
    ) -> AccessOutcome {
        self.stats.accesses += 1;

        // Probe the TLBs for each translation granularity.
        for size in [PageSize::Base4K, PageSize::Huge2M, PageSize::Giant1G] {
            if let Some((level, frame, penalty)) = self.tlb.lookup(self.asid, addr, size, is_write)
            {
                match level {
                    TlbLevel::L1 => self.stats.tlb_l1_hits += 1,
                    TlbLevel::L2 => self.stats.tlb_l2_hits += 1,
                }
                self.stats.translation_cycles += penalty;
                let offset_frames = addr.page_offset(size) / PageSize::Base4K.bytes();
                return AccessOutcome {
                    frame: Some(frame.offset(offset_frames)),
                    translation_cycles: penalty,
                    tlb_hit: Some(level),
                    page_size: Some(size),
                    fault: false,
                };
            }
        }

        // TLB miss: walk the page table.
        self.stats.tlb_misses += 1;
        let outcome = self.walker.walk(
            self.socket,
            root,
            addr,
            is_write,
            store,
            frames,
            cost,
            &mut self.pwc,
            pte_cache,
            &mut self.stats.walk,
        );
        self.stats.translation_cycles += outcome.cycles;
        match outcome.translation {
            Some(t) => {
                self.tlb.insert(
                    self.asid,
                    addr.align_down(t.size),
                    t.size,
                    t.frame,
                    t.pte.flags().writable,
                );
                AccessOutcome {
                    frame: Some(t.frame_for(addr)),
                    translation_cycles: outcome.cycles,
                    tlb_hit: None,
                    page_size: Some(t.size),
                    fault: false,
                }
            }
            None => AccessOutcome {
                frame: None,
                translation_cycles: outcome.cycles,
                tlb_hit: None,
                page_size: None,
                fault: true,
            },
        }
    }

    /// Models a context switch (CR3 write): flushes the TLBs and
    /// paging-structure caches.
    pub fn context_switch(&mut self) {
        self.tlb.flush();
        self.pwc.flush();
    }

    /// Prepares a pooled MMU for a fresh run: flushes every cached
    /// translation and zeroes the statistics.
    ///
    /// A reset MMU is behaviourally indistinguishable from a newly
    /// constructed one (flushed TLBs probe and evict identically to empty
    /// ones), so the execution engine can reuse MMUs across runs instead of
    /// reallocating the TLB arrays each time — the win is per-run setup
    /// cost for short traces.
    pub fn reset_for_run(&mut self) {
        self.tlb.flush();
        self.pwc.flush();
        self.stats = MmuStats::default();
    }

    /// Models a broadcast full-flush shootdown.
    pub fn shootdown_all(&mut self) {
        self.context_switch();
    }

    /// Applies a ranged shootdown plan to this core: invalidates the named
    /// page ranges from the TLBs and evicts the covered paging-structure
    /// cache entries.  A plan escalated to `full_flush` flushes everything.
    ///
    /// Returns the number of TLB entries actually invalidated (for a full
    /// flush, the resident count before flushing) — the per-core modelled
    /// shootdown work.
    pub fn apply_shootdown(&mut self, plan: &ShootdownPlan) -> u64 {
        if plan.full_flush {
            let resident = self.tlb.occupancy() as u64;
            self.shootdown_all();
            return resident;
        }
        let mut removed = 0u64;
        for range in &plan.ranges {
            removed +=
                self.tlb
                    .invalidate_range(range.asid, range.vpn_start, range.pages, range.size)
                    as u64;
            self.pwc.invalidate_range(range.start(), range.end());
        }
        removed
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MmuStats {
        &self.stats
    }

    /// Resets the statistics.
    pub fn reset_stats(&mut self) {
        self.stats = MmuStats::default();
    }

    /// The TLB hierarchy (for tests and reach calculations).
    pub fn tlb(&self) -> &TlbHierarchy {
        &self.tlb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitosis_mem::{FrameKind, FrameSpace};
    use mitosis_pt::{Level, Pte, PteFlags};

    fn build() -> (PtStore, FrameTable, FrameId, VirtAddr) {
        let space = FrameSpace::with_frames_per_socket(2, 10_000);
        let mut frames = FrameTable::new(space);
        let mut store = PtStore::new();
        let (root, l3, l2, l1) = (
            FrameId::new(0),
            FrameId::new(1),
            FrameId::new(2),
            FrameId::new(3),
        );
        for (frame, level) in [(root, 4u8), (l3, 3), (l2, 2), (l1, 1)] {
            frames.insert(frame, FrameKind::PageTable { level });
            store.insert_table(frame);
        }
        let data = FrameId::new(600);
        frames.insert(data, FrameKind::Data);
        let addr = VirtAddr::new(0x7f00_0000_0000 & ((1 << 48) - 1));
        let addr = VirtAddr::new(addr.as_u64() % (1 << 47));
        store.write(
            root,
            addr.index_at(Level::L4),
            Pte::new(l3, PteFlags::table_pointer()),
        );
        store.write(
            l3,
            addr.index_at(Level::L3),
            Pte::new(l2, PteFlags::table_pointer()),
        );
        store.write(
            l2,
            addr.index_at(Level::L2),
            Pte::new(l1, PteFlags::table_pointer()),
        );
        store.write(
            l1,
            addr.index_at(Level::L1),
            Pte::new(data, PteFlags::user_data()),
        );
        (store, frames, root, addr)
    }

    fn cost() -> CostModel {
        CostModel::new(2, 280, 580, 42, 28.0, 11.0)
    }

    #[test]
    fn first_access_walks_second_hits_tlb() {
        let (mut store, frames, root, addr) = build();
        let mut mmu = Mmu::new(CoreId::new(0), SocketId::new(0));
        let mut pte_cache = PteCache::new(1024);
        let first = mmu.access(
            addr,
            false,
            root,
            &mut store,
            &frames,
            &cost(),
            &mut pte_cache,
        );
        assert!(first.tlb_hit.is_none());
        assert!(!first.fault);
        assert_eq!(first.frame, Some(FrameId::new(600)));
        assert!(first.translation_cycles > 0);

        let second = mmu.access(
            addr,
            false,
            root,
            &mut store,
            &frames,
            &cost(),
            &mut pte_cache,
        );
        assert_eq!(second.tlb_hit, Some(TlbLevel::L1));
        assert_eq!(second.translation_cycles, 0);
        assert_eq!(mmu.stats().tlb_misses, 1);
        assert_eq!(mmu.stats().tlb_l1_hits, 1);
        assert_eq!(mmu.stats().accesses, 2);
    }

    #[test]
    fn context_switch_flushes_translations() {
        let (mut store, frames, root, addr) = build();
        let mut mmu = Mmu::new(CoreId::new(0), SocketId::new(0));
        let mut pte_cache = PteCache::new(1024);
        mmu.access(
            addr,
            false,
            root,
            &mut store,
            &frames,
            &cost(),
            &mut pte_cache,
        );
        mmu.context_switch();
        let after = mmu.access(
            addr,
            false,
            root,
            &mut store,
            &frames,
            &cost(),
            &mut pte_cache,
        );
        assert!(after.tlb_hit.is_none());
        assert_eq!(mmu.stats().tlb_misses, 2);
    }

    #[test]
    fn shootdown_single_page_only_affects_that_page() {
        let (mut store, frames, root, addr) = build();
        let mut mmu = Mmu::new(CoreId::new(0), SocketId::new(0));
        let mut pte_cache = PteCache::new(1024);
        mmu.access(
            addr,
            false,
            root,
            &mut store,
            &frames,
            &cost(),
            &mut pte_cache,
        );
        // A one-page plan naming the neighbouring page leaves it resident.
        let mut tx = mitosis_pt::MappingTx::new();
        tx.invalidate_page(0, addr.add(4096), PageSize::Base4K);
        assert_eq!(mmu.apply_shootdown(&tx.take_plan()), 0);
        assert_eq!(mmu.tlb().occupancy(), 2);
        tx.invalidate_page(0, addr, PageSize::Base4K);
        assert_eq!(mmu.apply_shootdown(&tx.take_plan()), 2);
        let after = mmu.access(
            addr,
            false,
            root,
            &mut store,
            &frames,
            &cost(),
            &mut pte_cache,
        );
        assert!(after.tlb_hit.is_none());
    }

    #[test]
    fn ranged_shootdown_plan_invalidates_cached_translations() {
        let (mut store, frames, root, addr) = build();
        let mut mmu = Mmu::new(CoreId::new(0), SocketId::new(0));
        let mut pte_cache = PteCache::new(1024);
        mmu.access(
            addr,
            false,
            root,
            &mut store,
            &frames,
            &cost(),
            &mut pte_cache,
        );
        let mut tx = mitosis_pt::MappingTx::new();
        tx.invalidate_page(0, addr, PageSize::Base4K);
        // Resident in L1 and L2 → two entries of modelled work.
        assert_eq!(mmu.apply_shootdown(&tx.take_plan()), 2);
        let after = mmu.access(
            addr,
            false,
            root,
            &mut store,
            &frames,
            &cost(),
            &mut pte_cache,
        );
        assert!(after.tlb_hit.is_none());
        // A full-flush plan reports the resident count it wiped.
        tx.escalate_full();
        assert_eq!(mmu.apply_shootdown(&tx.take_plan()), 2);
        assert_eq!(mmu.tlb().occupancy(), 0);
    }

    #[test]
    fn asids_partition_the_tlb_between_address_spaces() {
        let (mut store, frames, root, addr) = build();
        let mut mmu = Mmu::new(CoreId::new(0), SocketId::new(0));
        let mut pte_cache = PteCache::new(1024);
        mmu.access(
            addr,
            false,
            root,
            &mut store,
            &frames,
            &cost(),
            &mut pte_cache,
        );
        // Switching ASID without flushing: the other space cannot hit.
        mmu.set_asid(7);
        assert_eq!(mmu.asid(), 7);
        let other = mmu.access(
            addr,
            false,
            root,
            &mut store,
            &frames,
            &cost(),
            &mut pte_cache,
        );
        assert!(other.tlb_hit.is_none());
        // Switching back: the original entry is still resident.
        mmu.set_asid(0);
        let back = mmu.access(
            addr,
            false,
            root,
            &mut store,
            &frames,
            &cost(),
            &mut pte_cache,
        );
        assert!(back.tlb_hit.is_some());
    }

    #[test]
    fn unmapped_access_faults() {
        let (mut store, frames, root, _) = build();
        let mut mmu = Mmu::new(CoreId::new(0), SocketId::new(0));
        let mut pte_cache = PteCache::new(1024);
        let outcome = mmu.access(
            VirtAddr::new(0x1000),
            false,
            root,
            &mut store,
            &frames,
            &cost(),
            &mut pte_cache,
        );
        assert!(outcome.fault);
        assert_eq!(outcome.frame, None);
        assert_eq!(mmu.stats().walk.faults, 1);
    }

    #[test]
    fn stats_reset_clears_counters() {
        let (mut store, frames, root, addr) = build();
        let mut mmu = Mmu::new(CoreId::new(0), SocketId::new(0));
        let mut pte_cache = PteCache::new(1024);
        mmu.access(
            addr,
            true,
            root,
            &mut store,
            &frames,
            &cost(),
            &mut pte_cache,
        );
        assert!(mmu.stats().accesses > 0);
        mmu.reset_stats();
        assert_eq!(mmu.stats().accesses, 0);
        assert_eq!(mmu.stats().walk.walks, 0);
    }
}
