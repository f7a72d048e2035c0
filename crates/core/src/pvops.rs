//! The Mitosis PV-Ops backend (paper §5.2).
//!
//! Every page-table mutation the virtual memory subsystem performs is
//! intercepted here and propagated to all replicas of the written page-table
//! page.  Replicas are located through the circular linked list threaded
//! through per-frame metadata (Figure 8), so an update touches `2N` memory
//! locations for `N` replicas instead of walking `N` page tables.
//!
//! Two details need care:
//!
//! * **Non-leaf entries differ across replicas.**  An upper-level entry in
//!   the socket-`s` replica must point at the *socket-`s` replica* of the
//!   child page-table page; only leaf entries (which point at data frames)
//!   are byte-identical.  This is why page tables cannot be replicated by
//!   blind memcpy (paper §2.3).
//! * **Accessed/dirty bits are set by hardware** in whichever replica the
//!   walker used, so reads consolidate them with a logical OR across the
//!   ring and clears reset every replica (paper §5.4).

use mitosis_mem::{FrameId, FrameKind, FrameTable};
use mitosis_numa::SocketId;
use mitosis_pt::{Level, PtContext, PtError, PtOpStats, Pte, PvOps, ReplicationSpec};

/// The replicating PV-Ops backend.
///
/// Stateless apart from statistics: which sockets to replicate on is a
/// per-address-space property carried by the [`ReplicationSpec`] argument of
/// each call, exactly as the kernel implementation reads it from the
/// process' `mm_struct`.
#[derive(Debug, Clone, Default)]
pub struct MitosisPvOps {
    stats: PtOpStats,
}

impl MitosisPvOps {
    /// Creates the backend.
    pub fn new() -> Self {
        MitosisPvOps::default()
    }

    /// Allocates one page-table page on `socket` and registers it.
    fn alloc_one(
        &mut self,
        ctx: &mut PtContext<'_>,
        level: Level,
        socket: SocketId,
    ) -> Result<FrameId, PtError> {
        let frame = ctx.page_cache.alloc_pagetable_frame(ctx.alloc, socket)?;
        ctx.frames.insert(
            frame,
            FrameKind::PageTable {
                level: level.number(),
            },
        );
        ctx.store.insert_table(frame);
        self.stats.tables_allocated += 1;
        Ok(frame)
    }

    /// Translates `pte` for the replica living on `replica_socket`: entries
    /// pointing at page-table pages are redirected to the same-socket child
    /// replica (when one exists); leaf/data entries are copied verbatim.
    fn pte_for_replica(&mut self, frames: &FrameTable, pte: Pte, replica_socket: SocketId) -> Pte {
        if !pte.is_present() || pte.is_huge() {
            return pte;
        }
        let target = match pte.frame() {
            Some(frame) => frame,
            None => return pte,
        };
        match frames.kind(target) {
            Some(FrameKind::PageTable { .. }) => {
                self.stats.replica_ring_reads += 1;
                match frames.replica_on_socket(target, replica_socket) {
                    Some(replica_child) => pte.with_frame(replica_child),
                    None => pte,
                }
            }
            _ => pte,
        }
    }
}

impl PvOps for MitosisPvOps {
    fn alloc_table(
        &mut self,
        ctx: &mut PtContext<'_>,
        level: Level,
        socket: SocketId,
        repl: &ReplicationSpec,
    ) -> Result<FrameId, PtError> {
        if !repl.is_enabled() {
            return self.alloc_one(ctx, level, socket);
        }
        // One replica per socket in the mask; the primary is the requested
        // socket's replica when the mask covers it.
        let mut sockets = repl.sockets();
        if !sockets.contains(&socket) {
            sockets.insert(0, socket);
        }
        let mut frames = Vec::with_capacity(sockets.len());
        for s in &sockets {
            frames.push(self.alloc_one(ctx, level, *s)?);
        }
        ctx.frames.link_replicas(&frames);
        let primary = sockets
            .iter()
            .position(|s| *s == socket)
            .map(|i| frames[i])
            .unwrap_or(frames[0]);
        Ok(primary)
    }

    fn release_table(&mut self, ctx: &mut PtContext<'_>, frame: FrameId) -> Result<(), PtError> {
        let ring: Vec<FrameId> = ctx.frames.replica_ring(frame).collect();
        for member in ring {
            ctx.store.remove_table(member);
            ctx.frames.remove(member);
            ctx.page_cache.release_pagetable_frame(ctx.alloc, member)?;
            self.stats.tables_freed += 1;
        }
        Ok(())
    }

    fn set_pte(&mut self, ctx: &mut PtContext<'_>, table: FrameId, index: usize, pte: Pte) {
        // The written table itself is the replica of its own socket: child
        // pointers are localised to keep every socket's tree self-contained.
        let own_socket = ctx.frames.socket_of(table);
        let own = self.pte_for_replica(ctx.frames, pte, own_socket);
        ctx.store.write(table, index, own);
        self.stats.pte_writes += 1;
        // Propagate to every other replica in the ring.
        for replica in ctx.frames.replica_ring(table).skip(1) {
            self.stats.replica_ring_reads += 1;
            let replica_socket = ctx.frames.socket_of(replica);
            let translated = self.pte_for_replica(ctx.frames, pte, replica_socket);
            ctx.store.write(replica, index, translated);
            self.stats.replica_pte_writes += 1;
        }
    }

    fn read_pte(&self, ctx: &PtContext<'_>, table: FrameId, index: usize) -> Pte {
        let pte = ctx.store.read(table, index);
        if !pte.is_present() {
            return pte;
        }
        // Consolidate accessed/dirty bits across the ring (logical OR).
        let mut accessed = pte.flags().accessed;
        let mut dirty = pte.flags().dirty;
        for replica in ctx.frames.replica_ring(table).skip(1) {
            let other = ctx.store.read(replica, index);
            accessed |= other.flags().accessed;
            dirty |= other.flags().dirty;
        }
        let mut out = pte;
        if accessed {
            out = out.with_accessed();
        }
        if dirty {
            out = out.with_dirty();
        }
        out
    }

    fn clear_accessed_dirty(&mut self, ctx: &mut PtContext<'_>, table: FrameId, index: usize) {
        for replica in ctx.frames.replica_ring(table) {
            let pte = ctx.store.read(replica, index);
            if pte.is_present() {
                ctx.store.write(replica, index, pte.with_ad_cleared());
                self.stats.pte_writes += 1;
            }
        }
    }

    fn stats(&self) -> PtOpStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = PtOpStats::default();
    }

    fn clone_box(&self) -> Box<dyn PvOps> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitosis_numa::{MachineConfig, NodeMask};
    use mitosis_pt::{Mapper, PageSize, PtEnv, PteFlags, VirtAddr};

    fn env() -> PtEnv {
        PtEnv::new(&MachineConfig::two_socket_small().build())
    }

    fn all_sockets() -> ReplicationSpec {
        ReplicationSpec::on(NodeMask::all(2))
    }

    #[test]
    fn alloc_with_replication_creates_one_table_per_socket() {
        let mut env = env();
        let mut ops = MitosisPvOps::new();
        let mut ctx = env.context();
        let primary = ops
            .alloc_table(&mut ctx, Level::L4, SocketId::new(1), &all_sockets())
            .unwrap();
        assert_eq!(ctx.frames.socket_of(primary), SocketId::new(1));
        let ring = ctx.frames.replica_ring(primary).collect::<Vec<_>>();
        assert_eq!(ring.len(), 2);
        let sockets: Vec<usize> = ring
            .iter()
            .map(|f| ctx.frames.socket_of(*f).index())
            .collect();
        assert!(sockets.contains(&0) && sockets.contains(&1));
        assert_eq!(ops.stats().tables_allocated, 2);
    }

    #[test]
    fn alloc_without_replication_behaves_natively() {
        let mut env = env();
        let mut ops = MitosisPvOps::new();
        let mut ctx = env.context();
        let frame = ops
            .alloc_table(
                &mut ctx,
                Level::L1,
                SocketId::new(0),
                &ReplicationSpec::none(),
            )
            .unwrap();
        assert_eq!(ctx.frames.replica_ring(frame).count(), 1);
        assert!(!ctx.frames.is_replicated(frame));
    }

    #[test]
    fn leaf_writes_propagate_verbatim_to_all_replicas() {
        let mut env = env();
        let mut ops = MitosisPvOps::new();
        let mut ctx = env.context();
        let table = ops
            .alloc_table(&mut ctx, Level::L1, SocketId::new(0), &all_sockets())
            .unwrap();
        let data = ctx.alloc.alloc_on(SocketId::new(0)).unwrap();
        ctx.frames.insert(data, FrameKind::Data);
        ops.set_pte(&mut ctx, table, 42, Pte::new(data, PteFlags::user_data()));
        for replica in ctx.frames.replica_ring(table) {
            assert_eq!(ctx.store.read(replica, 42).frame(), Some(data));
        }
        assert_eq!(ops.stats().pte_writes, 1);
        assert_eq!(ops.stats().replica_pte_writes, 1);
    }

    #[test]
    fn non_leaf_writes_point_each_replica_at_its_local_child() {
        let mut env = env();
        let mut ops = MitosisPvOps::new();
        let mut ctx = env.context();
        let parent = ops
            .alloc_table(&mut ctx, Level::L2, SocketId::new(0), &all_sockets())
            .unwrap();
        let child = ops
            .alloc_table(&mut ctx, Level::L1, SocketId::new(0), &all_sockets())
            .unwrap();
        ops.set_pte(
            &mut ctx,
            parent,
            3,
            Pte::new(child, PteFlags::table_pointer()),
        );
        for replica in ctx.frames.replica_ring(parent) {
            let socket = ctx.frames.socket_of(replica);
            let entry = ctx.store.read(replica, 3);
            let pointed = entry.frame().unwrap();
            assert_eq!(
                ctx.frames.socket_of(pointed),
                socket,
                "replica on {socket} must point at its local child replica"
            );
        }
    }

    #[test]
    fn unmap_propagates_empty_entries() {
        let mut env = env();
        let mut ops = MitosisPvOps::new();
        let mut ctx = env.context();
        let table = ops
            .alloc_table(&mut ctx, Level::L1, SocketId::new(0), &all_sockets())
            .unwrap();
        let data = ctx.alloc.alloc_on(SocketId::new(0)).unwrap();
        ops.set_pte(&mut ctx, table, 7, Pte::new(data, PteFlags::user_data()));
        ops.set_pte(&mut ctx, table, 7, Pte::EMPTY);
        for replica in ctx.frames.replica_ring(table) {
            assert!(!ctx.store.read(replica, 7).is_present());
        }
    }

    #[test]
    fn accessed_dirty_bits_are_ored_across_replicas_and_cleared_everywhere() {
        let mut env = env();
        let mut ops = MitosisPvOps::new();
        let mut ctx = env.context();
        let table = ops
            .alloc_table(&mut ctx, Level::L1, SocketId::new(0), &all_sockets())
            .unwrap();
        let data = ctx.alloc.alloc_on(SocketId::new(0)).unwrap();
        ctx.frames.insert(data, FrameKind::Data);
        ops.set_pte(&mut ctx, table, 5, Pte::new(data, PteFlags::user_data()));
        // Hardware sets the dirty bit in the *other* replica only.
        let other = ctx
            .frames
            .replica_ring(table)
            .find(|f| *f != table)
            .unwrap();
        let hw_pte = ctx.store.read(other, 5).with_accessed().with_dirty();
        ctx.store.write(other, 5, hw_pte);
        // The OS read sees the OR.
        let read = ops.read_pte(&ctx, table, 5);
        assert!(read.flags().accessed);
        assert!(read.flags().dirty);
        // Clearing resets every replica.
        ops.clear_accessed_dirty(&mut ctx, table, 5);
        for replica in ctx.frames.replica_ring(table) {
            let pte = ctx.store.read(replica, 5);
            assert!(!pte.flags().accessed && !pte.flags().dirty);
        }
    }

    #[test]
    fn release_frees_the_whole_ring() {
        let mut env = env();
        let mut ops = MitosisPvOps::new();
        let mut ctx = env.context();
        let table = ops
            .alloc_table(&mut ctx, Level::L3, SocketId::new(0), &all_sockets())
            .unwrap();
        let ring: Vec<FrameId> = ctx.frames.replica_ring(table).collect();
        ops.release_table(&mut ctx, table).unwrap();
        for member in ring {
            assert!(!ctx.store.contains(member));
            assert_eq!(ctx.frames.kind(member), None);
        }
        assert_eq!(ops.stats().tables_freed, 2);
    }

    #[test]
    fn full_mapper_walk_with_replication_builds_consistent_trees() {
        let mut env = env();
        let mut ops = MitosisPvOps::new();
        let mut ctx = env.context();
        let repl = all_sockets();
        let roots = Mapper::create_roots(&mut ops, &mut ctx, SocketId::new(0), repl).unwrap();
        assert_ne!(
            roots.root_for_socket(SocketId::new(0)),
            roots.root_for_socket(SocketId::new(1))
        );
        let mapper = Mapper::new(&roots);
        let addr = VirtAddr::new(0x5555_0000_0000);
        let data = ctx.alloc.alloc_on(SocketId::new(1)).unwrap();
        ctx.frames.insert(data, FrameKind::Data);
        mapper
            .map(
                &mut ops,
                &mut ctx,
                addr,
                data,
                PageSize::Base4K,
                PteFlags::user_data(),
                SocketId::new(0),
                repl,
            )
            .unwrap();
        // Both sockets' trees translate the address to the same data frame,
        // and each tree's page-table pages live on its own socket.
        for socket in [SocketId::new(0), SocketId::new(1)] {
            let root = roots.root_for_socket(socket);
            let t = mitosis_pt::translate(ctx.store, root, addr).unwrap();
            assert_eq!(t.frame, data);
            // Walk the tree and check every table is on `socket`.
            let dump = mitosis_pt::PageTableDump::capture(ctx.store, ctx.frames, root);
            for cell in dump.cells() {
                if cell.table_pages > 0 {
                    assert_eq!(cell.socket, socket);
                }
            }
        }
    }
}
