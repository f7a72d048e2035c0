//! Replication of existing page-table trees.
//!
//! When `numa_set_pgtable_replication_mask` is applied to a process that has
//! already built up a page table (the common case — the knob is typically set
//! right after startup or from `numactl` before exec), Mitosis walks the
//! existing tree and creates a replica on every requested socket
//! (paper §6.2: "Whenever a new mask is set, Mitosis will walk the existing
//! page-table and create replicas according to the new bitmask").

use crate::error::MitosisError;
use mitosis_mem::{FrameId, FrameKind};
use mitosis_numa::{NodeMask, SocketId};
use mitosis_pt::{Level, PtContext, PtRoots, Pte};

/// Result of a tree replication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplicaSummary {
    /// Page-table pages that existed before replication (the base tree).
    pub original_tables: u64,
    /// New replica page-table pages allocated.
    pub replica_tables_created: u64,
    /// Number of sockets that now hold a full replica.
    pub replicated_sockets: usize,
}

/// Collects every page-table page reachable from `root` with its level,
/// in top-down order (parents before children).
fn collect_tree(ctx: &PtContext<'_>, root: FrameId) -> Vec<(FrameId, Level)> {
    let mut out = Vec::new();
    let mut queue = vec![(root, Level::L4)];
    while let Some((table, level)) = queue.pop() {
        out.push((table, level));
        if let Some(next) = level.next_lower() {
            for (_, pte) in ctx.store.present_at(ctx.store.slot(table)) {
                if !pte.is_huge() {
                    queue.push((pte.frame().expect("present entry has a frame"), next));
                }
            }
        }
    }
    out
}

/// Translates `pte` for a replica on `socket`: pointers to page-table pages
/// are redirected to the same-socket replica of the child.
fn pte_for_socket(ctx: &PtContext<'_>, pte: Pte, socket: SocketId) -> Pte {
    if !pte.is_present() || pte.is_huge() {
        return pte;
    }
    let target = match pte.frame() {
        Some(frame) => frame,
        None => return pte,
    };
    if let Some(FrameKind::PageTable { .. }) = ctx.frames.kind(target) {
        if let Some(replica) = ctx.frames.replica_on_socket(target, socket) {
            return pte.with_frame(replica);
        }
    }
    pte
}

/// Replicates the page-table tree rooted at `roots.base()` onto every socket
/// in `mask`, returning the updated per-socket roots and a summary.
///
/// Tables that already have a replica on a given socket are reused, so the
/// operation is idempotent and can also *extend* an existing replication to
/// more sockets.
///
/// # Errors
///
/// Returns an error if the mask is empty or physical memory for a replica
/// cannot be allocated.
pub fn replicate_tree(
    ctx: &mut PtContext<'_>,
    roots: &PtRoots,
    mask: NodeMask,
) -> Result<(PtRoots, ReplicaSummary), MitosisError> {
    if mask.is_empty() {
        return Err(MitosisError::EmptyMask);
    }
    let sockets: Vec<SocketId> = mask.iter().collect();
    for socket in &sockets {
        if socket.index() >= ctx.frames.frame_space().sockets() {
            return Err(MitosisError::InvalidSocket { socket: *socket });
        }
    }

    let tree = collect_tree(ctx, roots.base());
    let mut summary = ReplicaSummary {
        original_tables: tree.len() as u64,
        replica_tables_created: 0,
        replicated_sockets: sockets.len(),
    };

    // Pass 1: make sure every table has a replica frame on every requested
    // socket (children must exist before parents can point at them).
    for (table, level) in &tree {
        let mut ring: Vec<FrameId> = ctx.frames.replica_ring(*table).collect();
        let mut extended = false;
        for socket in &sockets {
            if ring
                .iter()
                .any(|member| ctx.frames.socket_of(*member) == *socket)
            {
                continue;
            }
            let frame = ctx
                .page_cache
                .alloc_pagetable_frame(ctx.alloc, *socket)
                .map_err(MitosisError::from)?;
            ctx.frames.insert(
                frame,
                FrameKind::PageTable {
                    level: level.number(),
                },
            );
            ctx.store.insert_table(frame);
            ring.push(frame);
            summary.replica_tables_created += 1;
            extended = true;
        }
        if extended {
            ctx.frames.link_replicas(&ring);
        }
    }

    // Pass 2: fill replica contents, redirecting child pointers per socket.
    // The original table is localised too (its child pointers are redirected
    // to the replicas on its own socket), so that after replication *every*
    // socket's tree — including the one holding the original pages — walks
    // only local page-table pages.
    for (table, _) in &tree {
        // Snapshot the present entries (bitmap-driven) before writing: the
        // ring may include the table itself, whose child pointers get
        // localised in place.
        for (index, pte) in ctx.store.present_entries(*table) {
            for replica in ctx.frames.replica_ring(*table) {
                let socket = ctx.frames.socket_of(replica);
                let translated = pte_for_socket(ctx, pte, socket);
                ctx.store.write(replica, index, translated);
            }
        }
    }

    // Per-socket roots point at the socket-local root replica.
    let mut new_roots = roots.clone();
    for s in 0..new_roots.sockets() {
        let socket = SocketId::new(s as u16);
        if let Some(replica) = ctx.frames.replica_on_socket(roots.base(), socket) {
            new_roots.set_root_for_socket(socket, replica);
        } else {
            new_roots.set_root_for_socket(socket, roots.base());
        }
    }
    Ok((new_roots, summary))
}

/// Tears down every replica of the tree rooted at `roots.base()`, freeing
/// their frames, and resets the per-socket roots to the base root.
///
/// Returns the number of replica page-table pages freed.
///
/// # Errors
///
/// Returns an error if a replica frame cannot be freed.
pub fn tear_down_replicas(
    ctx: &mut PtContext<'_>,
    roots: &PtRoots,
) -> Result<(PtRoots, u64), MitosisError> {
    let tree = collect_tree(ctx, roots.base());
    let mut freed = 0;
    for (table, _) in &tree {
        let ring: Vec<FrameId> = ctx.frames.replica_ring(*table).collect();
        for replica in ring {
            if replica == *table {
                continue;
            }
            ctx.frames.unlink_replica(replica);
            ctx.store.remove_table(replica);
            ctx.frames.remove(replica);
            ctx.page_cache
                .release_pagetable_frame(ctx.alloc, replica)
                .map_err(MitosisError::from)?;
            freed += 1;
        }
        // The base table may still carry a stale self-link after unlinking.
        ctx.frames.link_replicas(&[*table]);
    }
    let mut new_roots = roots.clone();
    new_roots.reset_to_base();
    Ok((new_roots, freed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitosis_numa::MachineConfig;
    use mitosis_pt::{Mapper, NativePvOps, PageSize, PtEnv, PteFlags, ReplicationSpec, VirtAddr};

    /// Builds a native (non-replicated) tree with `pages` 4 KiB mappings.
    fn build(pages: u64) -> (PtEnv, PtRoots, Vec<VirtAddr>) {
        let machine = MachineConfig::two_socket_small().build();
        let mut env = PtEnv::new(&machine);
        let mut ops = NativePvOps::new();
        let mut ctx = env.context();
        let roots = Mapper::create_roots(
            &mut ops,
            &mut ctx,
            SocketId::new(0),
            ReplicationSpec::none(),
        )
        .unwrap();
        let mapper = Mapper::new(&roots);
        let mut addrs = Vec::new();
        for i in 0..pages {
            let addr = VirtAddr::new(0x1_0000_0000 + i * 4096);
            let data = ctx.alloc.alloc_on(SocketId::new(0)).unwrap();
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
                    ReplicationSpec::none(),
                )
                .unwrap();
            addrs.push(addr);
        }
        (env, roots, addrs)
    }

    #[test]
    fn replication_creates_a_full_tree_per_socket() {
        let (mut env, roots, addrs) = build(16);
        let mut ctx = env.context();
        let (new_roots, summary) = replicate_tree(&mut ctx, &roots, NodeMask::all(2)).unwrap();
        assert_eq!(summary.original_tables, 4);
        // Socket 0 already holds the originals, socket 1 gets 4 new tables.
        assert_eq!(summary.replica_tables_created, 4);
        assert_ne!(
            new_roots.root_for_socket(SocketId::new(0)),
            new_roots.root_for_socket(SocketId::new(1))
        );
        // Every address translates identically through both roots.
        for addr in &addrs {
            let t0 = mitosis_pt::translate(
                ctx.store,
                new_roots.root_for_socket(SocketId::new(0)),
                *addr,
            )
            .unwrap();
            let t1 = mitosis_pt::translate(
                ctx.store,
                new_roots.root_for_socket(SocketId::new(1)),
                *addr,
            )
            .unwrap();
            assert_eq!(t0.frame, t1.frame);
        }
        // The socket-1 tree is entirely on socket 1.
        let dump = mitosis_pt::PageTableDump::capture(
            ctx.store,
            ctx.frames,
            new_roots.root_for_socket(SocketId::new(1)),
        );
        for cell in dump.cells() {
            if cell.table_pages > 0 {
                assert_eq!(cell.socket, SocketId::new(1));
            }
        }
    }

    #[test]
    fn replication_is_idempotent() {
        let (mut env, roots, _) = build(4);
        let mut ctx = env.context();
        let (roots2, first) = replicate_tree(&mut ctx, &roots, NodeMask::all(2)).unwrap();
        let (roots3, second) = replicate_tree(&mut ctx, &roots2, NodeMask::all(2)).unwrap();
        assert_eq!(first.replica_tables_created, 4);
        assert_eq!(second.replica_tables_created, 0);
        assert_eq!(roots2, roots3);
    }

    #[test]
    fn empty_mask_is_rejected() {
        let (mut env, roots, _) = build(1);
        let mut ctx = env.context();
        assert_eq!(
            replicate_tree(&mut ctx, &roots, NodeMask::EMPTY).unwrap_err(),
            MitosisError::EmptyMask
        );
    }

    #[test]
    fn invalid_socket_is_rejected() {
        let (mut env, roots, _) = build(1);
        let mut ctx = env.context();
        let mask = NodeMask::single(SocketId::new(5));
        assert!(matches!(
            replicate_tree(&mut ctx, &roots, mask).unwrap_err(),
            MitosisError::InvalidSocket { .. }
        ));
    }

    #[test]
    fn tear_down_frees_replicas_and_restores_single_tree() {
        let (mut env, roots, addrs) = build(8);
        let mut ctx = env.context();
        let tables_before = ctx.store.table_count();
        let (replicated, _) = replicate_tree(&mut ctx, &roots, NodeMask::all(2)).unwrap();
        assert!(ctx.store.table_count() > tables_before);
        let (restored, freed) = tear_down_replicas(&mut ctx, &replicated).unwrap();
        assert_eq!(freed, 4);
        assert_eq!(ctx.store.table_count(), tables_before);
        assert_eq!(restored.root_for_socket(SocketId::new(1)), restored.base());
        // Original mappings still valid.
        for addr in addrs {
            assert!(mitosis_pt::translate(ctx.store, restored.base(), addr).is_some());
        }
    }

    #[test]
    fn replication_after_partial_replication_extends_to_new_sockets() {
        let machine = MachineConfig::paper_testbed().build();
        let mut env = PtEnv::new(&machine);
        let mut ops = NativePvOps::new();
        let mut ctx = env.context();
        let roots = Mapper::create_roots(
            &mut ops,
            &mut ctx,
            SocketId::new(0),
            ReplicationSpec::none(),
        )
        .unwrap();
        let (roots, first) =
            replicate_tree(&mut ctx, &roots, NodeMask::single(SocketId::new(1))).unwrap();
        assert_eq!(first.replica_tables_created, 1);
        let (roots, second) = replicate_tree(&mut ctx, &roots, NodeMask::all(4)).unwrap();
        assert_eq!(second.replica_tables_created, 2);
        for s in 0..4u16 {
            let root = roots.root_for_socket(SocketId::new(s));
            assert_eq!(ctx.frames.socket_of(root), SocketId::new(s));
        }
    }
}
