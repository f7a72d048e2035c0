//! Software page-table construction and modification.
//!
//! The [`Mapper`] is the piece of the virtual memory subsystem that builds
//! and edits radix page-tables.  Every mutation goes through the [`PvOps`]
//! backend, which is what lets Mitosis transparently keep replicas in sync.

use crate::addr::{Level, PageSize, VirtAddr};
use crate::entry::{Pte, PteFlags};
use crate::error::PtError;
use crate::ops::{PtContext, PvOps, ReplicationSpec};
use crate::walk::{self, leaf_size, LeafMapping, Translation};
use mitosis_mem::FrameId;
use mitosis_numa::SocketId;

/// The per-socket page-table roots of one address space.
///
/// Without replication every socket shares the base root (stock Linux: one
/// CR3 value per process).  With Mitosis, socket `s` points at the root
/// replica that lives on socket `s` (paper §5.3), and the scheduler loads
/// that value on context switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PtRoots {
    base: FrameId,
    per_socket: Vec<FrameId>,
}

impl PtRoots {
    /// Creates roots for an `sockets`-socket machine, all referring to the
    /// single base root.
    pub fn single(base: FrameId, sockets: usize) -> Self {
        PtRoots {
            base,
            per_socket: vec![base; sockets],
        }
    }

    /// The base (original) root.
    pub fn base(&self) -> FrameId {
        self.base
    }

    /// Number of sockets this root array covers.
    pub fn sockets(&self) -> usize {
        self.per_socket.len()
    }

    /// The root a core on `socket` should use.
    pub fn root_for_socket(&self, socket: SocketId) -> FrameId {
        self.per_socket[socket.index()]
    }

    /// Installs a per-socket root (used when replicas are created).
    pub fn set_root_for_socket(&mut self, socket: SocketId, root: FrameId) {
        self.per_socket[socket.index()] = root;
    }

    /// Resets every socket to the base root (replicas torn down).
    pub fn reset_to_base(&mut self) {
        let base = self.base;
        for entry in &mut self.per_socket {
            *entry = base;
        }
    }

    /// Changes the base root (used by page-table migration when the original
    /// replica is freed and a replica on another socket becomes primary).
    pub fn set_base(&mut self, base: FrameId) {
        self.base = base;
    }

    /// Returns the distinct roots currently installed.
    pub fn distinct_roots(&self) -> Vec<FrameId> {
        let mut roots = self.per_socket.clone();
        roots.push(self.base);
        roots.sort();
        roots.dedup();
        roots
    }
}

/// Software operations on one address space's page tables.
///
/// `Mapper` is a thin, borrowing view over a [`PtRoots`]; all state lives in
/// the [`PtContext`] and the backend.
#[derive(Debug, Clone, Copy)]
pub struct Mapper<'a> {
    roots: &'a PtRoots,
}

impl<'a> Mapper<'a> {
    /// Creates a mapper over the given roots.
    pub fn new(roots: &'a PtRoots) -> Self {
        Mapper { roots }
    }

    /// Allocates a root (L4) table homed on `socket` and returns the root
    /// array for the machine.  With replication enabled, per-socket roots
    /// point at the root replicas.
    ///
    /// # Errors
    ///
    /// Returns an error if physical memory is exhausted.
    pub fn create_roots(
        ops: &mut dyn PvOps,
        ctx: &mut PtContext<'_>,
        socket: SocketId,
        repl: ReplicationSpec,
    ) -> Result<PtRoots, PtError> {
        let base = ops.alloc_table(ctx, Level::L4, socket, &repl)?;
        let sockets = ctx.frames.frame_space().sockets();
        let mut roots = PtRoots::single(base, sockets);
        for s in 0..sockets {
            let socket_id = SocketId::new(s as u16);
            if let Some(replica) = ctx.frames.replica_on_socket(base, socket_id) {
                roots.set_root_for_socket(socket_id, replica);
            }
        }
        Ok(roots)
    }

    /// Maps `size` bytes of virtual memory at `addr` to the physical page
    /// starting at `frame`.
    ///
    /// Intermediate page-table pages are allocated on `pt_socket` (subject to
    /// the backend's replication behaviour).
    ///
    /// # Errors
    ///
    /// * [`PtError::Misaligned`] if `addr` is not `size`-aligned,
    /// * [`PtError::AlreadyMapped`] if any part of the range is mapped,
    /// * allocation errors from the backend.
    #[allow(clippy::too_many_arguments)]
    pub fn map(
        &self,
        ops: &mut dyn PvOps,
        ctx: &mut PtContext<'_>,
        addr: VirtAddr,
        frame: FrameId,
        size: PageSize,
        flags: PteFlags,
        pt_socket: SocketId,
        repl: ReplicationSpec,
    ) -> Result<(), PtError> {
        if !addr.is_aligned(size) {
            return Err(PtError::Misaligned { addr, size });
        }
        let leaf_level = size.mapped_at();
        let table = self.walk_alloc(ops, ctx, addr, leaf_level, pt_socket, &repl)?;
        let index = addr.index_at(leaf_level);
        if ctx.store.read(table, index).is_present() {
            return Err(PtError::AlreadyMapped { addr });
        }
        ops.set_pte(ctx, table, index, Pte::leaf(frame, size, flags));
        Ok(())
    }

    /// Removes the mapping of the page containing `addr` and returns the old
    /// leaf entry.
    ///
    /// # Errors
    ///
    /// Returns [`PtError::NotMapped`] if the address is not mapped.
    pub fn unmap(
        &self,
        ops: &mut dyn PvOps,
        ctx: &mut PtContext<'_>,
        addr: VirtAddr,
    ) -> Result<Pte, PtError> {
        let (table, index, old) = self.find_leaf(ops, ctx, addr)?;
        ops.set_pte(ctx, table, index, Pte::EMPTY);
        Ok(old)
    }

    /// Rewrites the protection flags of the page containing `addr`, keeping
    /// the frame and large-page bit.
    ///
    /// # Errors
    ///
    /// Returns [`PtError::NotMapped`] if the address is not mapped.
    pub fn protect(
        &self,
        ops: &mut dyn PvOps,
        ctx: &mut PtContext<'_>,
        addr: VirtAddr,
        flags: PteFlags,
    ) -> Result<(), PtError> {
        let (table, index, old) = self.find_leaf(ops, ctx, addr)?;
        ops.set_pte(ctx, table, index, old.with_protection(flags));
        Ok(())
    }

    /// Forks this address space into the freshly created, empty `child`:
    /// every leaf mapping is shared copy-on-write.  A writable parent leaf
    /// is downgraded to read-only in place (keeping its accessed/dirty bits,
    /// consolidated across replicas) and reported to `on_downgrade`, so the
    /// caller can invalidate its cached translation; the child maps the
    /// same frame read-only; and the frame's share count goes up by one.
    ///
    /// This is one descent over the parent's base tree.  Each child table
    /// is allocated at the first leaf beneath it, so the child gets exactly
    /// the tables — allocated in the same order, with the same entries —
    /// that mapping each leaf in address order would give it, without
    /// walking either tree per leaf.
    ///
    /// # Errors
    ///
    /// Propagates page-table allocation errors; the leaves forked before
    /// the failure stay forked.
    ///
    /// # Panics
    ///
    /// Panics if a leaf maps a frame the frame table does not track.
    pub fn fork_into(
        &self,
        ops: &mut dyn PvOps,
        ctx: &mut PtContext<'_>,
        child: &PtRoots,
        pt_socket: SocketId,
        repl: ReplicationSpec,
        on_downgrade: impl FnMut(VirtAddr, PageSize),
    ) -> Result<(), PtError> {
        let mut fork = ForkDescent {
            ops,
            ctx,
            child: [None, None, None, Some(child.base())],
            pt_socket,
            repl,
            on_downgrade,
        };
        fork.descend(self.roots.base(), Level::L4, 0)
    }

    /// Reads the leaf entry mapping `addr` through the backend, so that
    /// accessed/dirty bits are consolidated across replicas.
    ///
    /// # Errors
    ///
    /// Returns [`PtError::NotMapped`] if the address is not mapped.
    pub fn read_leaf(
        &self,
        ops: &dyn PvOps,
        ctx: &PtContext<'_>,
        addr: VirtAddr,
    ) -> Result<Pte, PtError> {
        let (_, _, pte) = self.find_leaf(ops, ctx, addr)?;
        Ok(pte)
    }

    /// Translates `addr` in software using the base root.
    pub fn translate(&self, ctx: &PtContext<'_>, addr: VirtAddr) -> Option<Translation> {
        walk::translate(ctx.store, self.roots.base(), addr)
    }

    /// Enumerates every leaf mapping of the address space (base root).
    pub fn leaf_mappings(&self, ctx: &PtContext<'_>) -> Vec<LeafMapping> {
        walk::iter_leaf_mappings(ctx.store, self.roots.base())
    }

    /// The roots this mapper operates on.
    pub fn roots(&self) -> &PtRoots {
        self.roots
    }

    // ------------------------------------------------------------------

    /// Walks from the base root to the table at `target_level` covering
    /// `addr`, allocating missing intermediate tables.  Navigation reads
    /// the walked tables directly: presence, frame and large-page bit are
    /// the walked table's own, whatever the backend consolidates.
    fn walk_alloc(
        &self,
        ops: &mut dyn PvOps,
        ctx: &mut PtContext<'_>,
        addr: VirtAddr,
        target_level: Level,
        pt_socket: SocketId,
        repl: &ReplicationSpec,
    ) -> Result<FrameId, PtError> {
        let mut table = self.roots.base();
        let mut level = Level::L4;
        while level != target_level {
            let index = addr.index_at(level);
            let entry = ctx.store.read(table, index);
            let next_level = level
                .next_lower()
                .expect("walk never descends below the leaf level");
            let child = if entry.is_present() {
                if entry.is_huge() {
                    return Err(PtError::AlreadyMapped { addr });
                }
                entry.frame().expect("present table entry has a frame")
            } else {
                let child = ops.alloc_table(ctx, next_level, pt_socket, repl)?;
                ops.set_pte(
                    ctx,
                    table,
                    index,
                    Pte::new(child, PteFlags::table_pointer()),
                );
                child
            };
            table = child;
            level = next_level;
        }
        Ok(table)
    }

    /// Finds the leaf entry covering `addr` starting from the base root,
    /// returned as read through the backend (accessed/dirty bits
    /// consolidated across replicas).
    fn find_leaf(
        &self,
        ops: &dyn PvOps,
        ctx: &PtContext<'_>,
        addr: VirtAddr,
    ) -> Result<(FrameId, usize, Pte), PtError> {
        let leaf = walk::find_leaf(ctx.store, self.roots.base(), addr)
            .ok_or(PtError::NotMapped { addr })?;
        Ok((
            leaf.table,
            leaf.index,
            ops.read_pte(ctx, leaf.table, leaf.index),
        ))
    }
}

/// State of one [`Mapper::fork_into`] descent.
struct ForkDescent<'a, 'c, F> {
    ops: &'a mut dyn PvOps,
    ctx: &'a mut PtContext<'c>,
    /// The child table covering the parent path being descended, per level
    /// (index = level number − 1); `None` until a leaf beneath needs it.
    child: [Option<FrameId>; 4],
    pt_socket: SocketId,
    repl: ReplicationSpec,
    on_downgrade: F,
}

impl<F: FnMut(VirtAddr, PageSize)> ForkDescent<'_, '_, F> {
    /// Forks every leaf beneath the parent `table` at `level`, whose first
    /// entry maps virtual address `base`.
    fn descend(&mut self, table: FrameId, level: Level, base: u64) -> Result<(), PtError> {
        let slot = self.ctx.store.slot(table);
        // Forking rewrites parent leaves but never adds or removes a parent
        // entry, so the occupancy snapshot stays exact.
        for index in self.ctx.store.present_indices(slot) {
            let pte = self.ctx.store.read_at(slot, index);
            let addr = VirtAddr::new(base + index as u64 * level.entry_coverage());
            let frame = pte.frame().expect("present entry has a frame");
            if level != Level::L1 && !pte.is_huge() {
                let next = level.next_lower().expect("only L1 has no lower level");
                self.child[usize::from(next.number() - 1)] = None;
                self.descend(frame, next, addr.as_u64())?;
                continue;
            }
            let Some(size) = leaf_size(level) else {
                continue;
            };
            let readonly = PteFlags::user_readonly();
            if pte.flags().writable {
                let old = self.ops.read_pte(self.ctx, table, index);
                self.ops
                    .set_pte(self.ctx, table, index, old.with_protection(readonly));
                (self.on_downgrade)(addr, size);
            }
            let child_table = self.child_table(level, addr)?;
            self.ops.set_pte(
                self.ctx,
                child_table,
                index,
                Pte::leaf(frame, size, readonly),
            );
            self.ctx.frames.share(frame);
        }
        Ok(())
    }

    /// The child table at `level` covering `addr`, allocating it — and any
    /// missing ancestor — top-down and linking it into its parent table.
    fn child_table(&mut self, level: Level, addr: VirtAddr) -> Result<FrameId, PtError> {
        let at = usize::from(level.number() - 1);
        if let Some(table) = self.child[at] {
            return Ok(table);
        }
        // The root is always present, so `level` is below L4 here.
        let above = Level::from_number(level.number() + 1);
        let parent = self.child_table(above, addr)?;
        let table = self
            .ops
            .alloc_table(self.ctx, level, self.pt_socket, &self.repl)?;
        self.ops.set_pte(
            self.ctx,
            parent,
            addr.index_at(above),
            Pte::new(table, PteFlags::table_pointer()),
        );
        self.child[at] = Some(table);
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{NativePvOps, PtEnv};
    use mitosis_numa::MachineConfig;

    fn setup() -> (PtEnv, NativePvOps) {
        (
            PtEnv::new(&MachineConfig::two_socket_small().build()),
            NativePvOps::new(),
        )
    }

    #[test]
    fn map_translate_unmap_roundtrip() {
        let (mut env, mut ops) = setup();
        let mut ctx = env.context();
        let socket = SocketId::new(0);
        let roots =
            Mapper::create_roots(&mut ops, &mut ctx, socket, ReplicationSpec::none()).unwrap();
        let data = ctx.alloc.alloc_on(socket).unwrap();
        let mapper = Mapper::new(&roots);
        let addr = VirtAddr::new(0x7000_0000);
        mapper
            .map(
                &mut ops,
                &mut ctx,
                addr,
                data,
                PageSize::Base4K,
                PteFlags::user_data(),
                socket,
                ReplicationSpec::none(),
            )
            .unwrap();
        let t = mapper.translate(&ctx, addr).unwrap();
        assert_eq!(t.frame, data);
        assert_eq!(t.size, PageSize::Base4K);
        // Four tables: L4, L3, L2, L1.
        assert_eq!(ctx.store.table_count(), 4);

        let old = mapper.unmap(&mut ops, &mut ctx, addr).unwrap();
        assert_eq!(old.frame(), Some(data));
        assert!(mapper.translate(&ctx, addr).is_none());
    }

    #[test]
    fn double_map_is_rejected() {
        let (mut env, mut ops) = setup();
        let mut ctx = env.context();
        let socket = SocketId::new(0);
        let roots =
            Mapper::create_roots(&mut ops, &mut ctx, socket, ReplicationSpec::none()).unwrap();
        let mapper = Mapper::new(&roots);
        let data = ctx.alloc.alloc_on(socket).unwrap();
        let addr = VirtAddr::new(0x1000_0000);
        mapper
            .map(
                &mut ops,
                &mut ctx,
                addr,
                data,
                PageSize::Base4K,
                PteFlags::user_data(),
                socket,
                ReplicationSpec::none(),
            )
            .unwrap();
        let err = mapper
            .map(
                &mut ops,
                &mut ctx,
                addr,
                data,
                PageSize::Base4K,
                PteFlags::user_data(),
                socket,
                ReplicationSpec::none(),
            )
            .unwrap_err();
        assert_eq!(err, PtError::AlreadyMapped { addr });
    }

    #[test]
    fn huge_page_mapping_uses_three_levels() {
        let (mut env, mut ops) = setup();
        let mut ctx = env.context();
        let socket = SocketId::new(0);
        let roots =
            Mapper::create_roots(&mut ops, &mut ctx, socket, ReplicationSpec::none()).unwrap();
        let mapper = Mapper::new(&roots);
        let huge = ctx.alloc.alloc_huge_on(socket).unwrap();
        let addr = VirtAddr::new(0x4000_0000);
        mapper
            .map(
                &mut ops,
                &mut ctx,
                addr,
                huge,
                PageSize::Huge2M,
                PteFlags::user_data(),
                socket,
                ReplicationSpec::none(),
            )
            .unwrap();
        // Only L4, L3 and L2 tables are needed.
        assert_eq!(ctx.store.table_count(), 3);
        let t = mapper.translate(&ctx, VirtAddr::new(0x4008_2000)).unwrap();
        assert_eq!(t.size, PageSize::Huge2M);
        assert!(t.pte.is_huge());
    }

    #[test]
    fn misaligned_map_is_rejected() {
        let (mut env, mut ops) = setup();
        let mut ctx = env.context();
        let socket = SocketId::new(0);
        let roots =
            Mapper::create_roots(&mut ops, &mut ctx, socket, ReplicationSpec::none()).unwrap();
        let mapper = Mapper::new(&roots);
        let data = ctx.alloc.alloc_on(socket).unwrap();
        let err = mapper
            .map(
                &mut ops,
                &mut ctx,
                VirtAddr::new(0x1000),
                data,
                PageSize::Huge2M,
                PteFlags::user_data(),
                socket,
                ReplicationSpec::none(),
            )
            .unwrap_err();
        assert!(matches!(err, PtError::Misaligned { .. }));
    }

    #[test]
    fn protect_changes_flags_but_keeps_frame() {
        let (mut env, mut ops) = setup();
        let mut ctx = env.context();
        let socket = SocketId::new(0);
        let roots =
            Mapper::create_roots(&mut ops, &mut ctx, socket, ReplicationSpec::none()).unwrap();
        let mapper = Mapper::new(&roots);
        let data = ctx.alloc.alloc_on(socket).unwrap();
        let addr = VirtAddr::new(0x2000_0000);
        mapper
            .map(
                &mut ops,
                &mut ctx,
                addr,
                data,
                PageSize::Base4K,
                PteFlags::user_data(),
                socket,
                ReplicationSpec::none(),
            )
            .unwrap();
        mapper
            .protect(&mut ops, &mut ctx, addr, PteFlags::user_readonly())
            .unwrap();
        let t = mapper.translate(&ctx, addr).unwrap();
        assert_eq!(t.frame, data);
        assert!(!t.pte.flags().writable);
        // Protect on an unmapped address errors.
        assert!(mapper
            .protect(
                &mut ops,
                &mut ctx,
                VirtAddr::new(0x9000_0000),
                PteFlags::user_readonly()
            )
            .is_err());
    }

    #[test]
    fn unmap_unmapped_address_errors() {
        let (mut env, mut ops) = setup();
        let mut ctx = env.context();
        let socket = SocketId::new(0);
        let roots =
            Mapper::create_roots(&mut ops, &mut ctx, socket, ReplicationSpec::none()).unwrap();
        let mapper = Mapper::new(&roots);
        assert_eq!(
            mapper.unmap(&mut ops, &mut ctx, VirtAddr::new(0x5000_0000)),
            Err(PtError::NotMapped {
                addr: VirtAddr::new(0x5000_0000)
            })
        );
    }

    #[test]
    fn roots_without_replication_all_point_to_base() {
        let (mut env, mut ops) = setup();
        let mut ctx = env.context();
        let roots = Mapper::create_roots(
            &mut ops,
            &mut ctx,
            SocketId::new(1),
            ReplicationSpec::none(),
        )
        .unwrap();
        assert_eq!(roots.root_for_socket(SocketId::new(0)), roots.base());
        assert_eq!(roots.root_for_socket(SocketId::new(1)), roots.base());
        assert_eq!(roots.distinct_roots().len(), 1);
        assert_eq!(ctx.frames.socket_of(roots.base()), SocketId::new(1));
    }

    #[test]
    fn leaf_mappings_enumeration_matches_maps() {
        let (mut env, mut ops) = setup();
        let mut ctx = env.context();
        let socket = SocketId::new(0);
        let roots =
            Mapper::create_roots(&mut ops, &mut ctx, socket, ReplicationSpec::none()).unwrap();
        let mapper = Mapper::new(&roots);
        for i in 0..8u64 {
            let data = ctx.alloc.alloc_on(socket).unwrap();
            mapper
                .map(
                    &mut ops,
                    &mut ctx,
                    VirtAddr::new(0x1_0000_0000 + i * 4096),
                    data,
                    PageSize::Base4K,
                    PteFlags::user_data(),
                    socket,
                    ReplicationSpec::none(),
                )
                .unwrap();
        }
        assert_eq!(mapper.leaf_mappings(&ctx).len(), 8);
    }
}
