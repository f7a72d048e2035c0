//! Fork and copy-on-write equivalence.
//!
//! `System::fork` forks in one descent over the parent's tree
//! (`Mapper::fork_into`) and `System::handle_fault_access` breaks sharing
//! with one walk that rewrites the resolved leaf in place.  This suite keeps
//! the sequences they replaced as an oracle — fork as "enumerate the leaves,
//! then per leaf `protect` the parent and `map` the child", the break as
//! `unmap` + `map`, share counts in a `BTreeMap` — and drives both against
//! copies of the same random system.  After every step the two must agree
//! exactly on the outcome, every table of every replica (parent and
//! children), the order tables were allocated in, the drained shootdown
//! plan, every frame's share count and metadata, the allocator's counters
//! and the PV-Ops statistics.
//!
//! Layouts mix 4 KiB and 2 MiB leaves, read-only areas and sparse tables
//! (emptied L1 tables, lazily touched areas, far-apart regions), under no
//! replication and under 2- and 4-socket replication; the second fork runs
//! over frames the first already shared.

use mitosis::Mitosis;
use mitosis_mem::{FrameId, FrameKind, PlacementPolicy, PolicyEngine};
use mitosis_numa::{MachineConfig, NodeMask, SocketId};
use mitosis_pt::{
    find_leaf, iter_leaf_mappings, translate, Mapper, MappingTx, PageSize, PtRoots, PteFlags,
    PvOps, ReplicationSpec, ShootdownPlan, VirtAddr,
};
use mitosis_vmm::{
    FaultOutcome, MmapFlags, Pid, Protection, ShootdownMode, System, ThpMode, VmError, VmaSet,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

const SOCKETS: u16 = 4;
const PAGE: u64 = PageSize::Base4K.bytes();
const HUGE: u64 = PageSize::Huge2M.bytes();

/// Region anchors: two in the same L2 table, one in another L2 table of the
/// same L3 table, one under another L4 entry.
const ANCHORS: [u64; 4] = [
    0x10_0000_0000,
    0x10_0060_0000,
    0x10_4000_0000,
    0x90_0000_0000,
];

/// One generated region: `(shape, pages, socket)` placed at an anchor.
type RegionSpec = (u8, u64, u16);

/// Builds the parent process: one region per spec, then replication.
fn build(regions: &[RegionSpec], replicas: u8, interleave: bool, ranged: bool) -> (System, Pid) {
    let mut mitosis = Mitosis::new();
    let machine = MachineConfig::new(SOCKETS, 1)
        .with_memory_per_socket(64 << 20)
        .build();
    let mut system = mitosis.install(machine);
    system.set_thp(ThpMode::Always);
    if ranged {
        system.set_shootdown_mode(ShootdownMode::Ranged);
    }
    let pid = system.create_process(SocketId::new(0)).expect("process");
    if interleave {
        system
            .process_mut(pid)
            .expect("process")
            .set_data_policy(PlacementPolicy::interleave_all(SOCKETS.into()));
    }
    for (&anchor, &(shape, pages, socket)) in ANCHORS.iter().zip(regions) {
        let addr = VirtAddr::new(anchor);
        let socket = SocketId::new(socket % SOCKETS);
        let pages = 1 + pages % 48;
        let base = MmapFlags::lazy().without_thp();
        match shape % 6 {
            // Writable or read-only 4 KiB pages.
            0 | 1 => {
                let protection = if shape % 6 == 0 {
                    Protection::ReadWrite
                } else {
                    Protection::ReadOnly
                };
                let flags = base.with_protection(protection);
                system
                    .mmap_at(pid, addr, pages * PAGE, flags)
                    .expect("mmap");
                system
                    .populate_region(pid, addr, pages * PAGE, socket)
                    .expect("populate");
            }
            // One writable or read-only 2 MiB page.
            2 | 3 => {
                let protection = if shape % 6 == 2 {
                    Protection::ReadWrite
                } else {
                    Protection::ReadOnly
                };
                let flags = MmapFlags::lazy().with_protection(protection);
                system.mmap_at(pid, addr, HUGE, flags).expect("mmap");
                system
                    .populate_region(pid, addr, HUGE, socket)
                    .expect("populate");
                assert_eq!(
                    system.translate(pid, addr).unwrap().unwrap().size,
                    PageSize::Huge2M
                );
            }
            // Populated then unmapped: the tables stay behind, empty.
            4 => {
                system.mmap_at(pid, addr, pages * PAGE, base).expect("mmap");
                system
                    .populate_region(pid, addr, pages * PAGE, socket)
                    .expect("populate");
                system.munmap(pid, addr, pages * PAGE).expect("munmap");
            }
            // Lazily mapped, every third page touched.
            _ => {
                system.mmap_at(pid, addr, pages * PAGE, base).expect("mmap");
                for page in (0..pages).step_by(3) {
                    system
                        .handle_fault(pid, addr.add(page * PAGE), socket)
                        .expect("touch");
                }
            }
        }
    }
    let mask = match replicas % 3 {
        0 => None,
        1 => Some(NodeMask::all(2)),
        _ => Some(NodeMask::all(SOCKETS.into())),
    };
    if let Some(mask) = mask {
        mitosis
            .enable_for_process(&mut system, pid, Some(mask))
            .expect("replicate");
    }
    // Setup work is not part of what the steps compare.
    system.take_shootdown_plan();
    (system, pid)
}

/// Sets accessed (and optionally dirty) bits on leaves the way the hardware
/// walker does: in the replica tree of the walking socket only, so reading
/// them back takes the backend's consolidation across replicas.
fn walker_touches(system: &mut System, pid: Pid, touches: &[(usize, u16, bool)]) {
    let roots = system
        .process(pid)
        .expect("pid")
        .address_space()
        .roots()
        .clone();
    let leaves = iter_leaf_mappings(&system.pt_env().store, roots.base());
    if leaves.is_empty() {
        return;
    }
    let store = &mut system.pt_env_mut().store;
    for &(pick, socket, dirty) in touches {
        let addr = leaves[pick % leaves.len()].addr;
        let root = roots.root_for_socket(SocketId::new(socket % SOCKETS));
        let leaf = find_leaf(store, root, addr).expect("every replica maps the leaf");
        let mut pte = leaf.translation.pte.with_accessed();
        if dirty {
            pte = pte.with_dirty();
        }
        store.write(leaf.table, leaf.index, pte);
    }
}

/// What the oracle knows of one address space.
struct OracleProcess {
    roots: PtRoots,
    home: SocketId,
    replication: ReplicationSpec,
    vmas: VmaSet,
    policy: PolicyEngine,
}

/// The replaced fork and copy-on-write sequences, run against a copy of
/// the system's page-table environment with a copy of its PV-Ops backend.
struct Oracle {
    system: System,
    ops: Box<dyn PvOps>,
    processes: BTreeMap<Pid, OracleProcess>,
    /// Mappings per shared frame (absent: one owner).
    shares: BTreeMap<FrameId, u32>,
    tx: MappingTx,
}

impl Oracle {
    fn new(system: System, parent: Pid) -> Self {
        let p = system.process(parent).expect("parent");
        let process = OracleProcess {
            roots: p.address_space().roots().clone(),
            home: p.home_socket(),
            replication: p.replication(),
            vmas: p.address_space().vmas().clone(),
            policy: p.data_policy().clone(),
        };
        Oracle {
            ops: system.pvops().clone_box(),
            processes: BTreeMap::from([(parent, process)]),
            shares: BTreeMap::new(),
            tx: MappingTx::new(),
            system,
        }
    }

    fn ranged(&self) -> bool {
        self.system.config().shootdown.is_ranged()
    }

    /// Fork as it was: enumerate the parent's leaves, then per leaf
    /// downgrade the parent through `protect` and map the child.
    fn fork(&mut self, parent: Pid, child: Pid) -> Result<(), VmError> {
        let ranged = self.ranged();
        let p = &self.processes[&parent];
        let (home, replication) = (p.home, p.replication);
        let pt_socket = self.system.config().pt_placement.resolve(home);
        let parent_roots = p.roots.clone();
        let leaves = iter_leaf_mappings(&self.system.pt_env().store, parent_roots.base());
        let mut ctx = self.system.pt_env_mut().context();
        let child_roots =
            Mapper::create_roots(self.ops.as_mut(), &mut ctx, pt_socket, replication)?;
        let readonly = PteFlags::user_readonly();
        for leaf in leaves {
            if leaf.pte.flags().writable {
                Mapper::new(&parent_roots).protect(
                    self.ops.as_mut(),
                    &mut ctx,
                    leaf.addr,
                    readonly,
                )?;
                if ranged {
                    self.tx
                        .invalidate_page(System::asid_of(parent), leaf.addr, leaf.size);
                }
            }
            Mapper::new(&child_roots).map(
                self.ops.as_mut(),
                &mut ctx,
                leaf.addr,
                leaf.frame,
                leaf.size,
                readonly,
                pt_socket,
                replication,
            )?;
            *self.shares.entry(leaf.frame).or_insert(1) += 1;
        }
        let p = &self.processes[&parent];
        let process = OracleProcess {
            roots: child_roots,
            home,
            replication,
            vmas: p.vmas.clone(),
            policy: PolicyEngine::new(p.policy.policy()),
        };
        self.processes.insert(child, process);
        Ok(())
    }

    /// A store to a mapped page, as it was: translate, then either copy
    /// and remap through `unmap` + `map`, or upgrade through `protect`.
    fn write_fault(
        &mut self,
        pid: Pid,
        addr: VirtAddr,
        socket: SocketId,
    ) -> Result<FaultOutcome, VmError> {
        let ranged = self.ranged();
        let pt_socket = self.system.config().pt_placement.resolve(socket);
        let process = self.processes.get_mut(&pid).expect("oracle process");
        let t = translate(&self.system.pt_env().store, process.roots.base(), addr)
            .expect("the suite only writes mapped pages");
        let aligned = addr.align_down(t.size);
        if t.pte.flags().writable {
            return Ok(FaultOutcome {
                addr: aligned,
                size: t.size,
                frame: t.frame,
                already_mapped: true,
            });
        }
        let vma = process
            .vmas
            .find(addr)
            .ok_or(VmError::SegmentationFault { addr })?;
        if !vma.protection().is_writable() {
            return Err(VmError::SegmentationFault { addr });
        }
        let flags = PteFlags::user_data();
        let mut ctx = self.system.pt_env_mut().context();
        let mapper = Mapper::new(&process.roots);
        let frame = if self.shares.contains_key(&t.frame) {
            let new_frame = match t.size {
                PageSize::Base4K => process.policy.alloc_data(ctx.alloc, socket)?,
                PageSize::Huge2M => process.policy.alloc_huge_data(ctx.alloc, socket)?,
                PageSize::Giant1G => return Err(VmError::InvalidArgument),
            };
            ctx.frames.insert(new_frame, FrameKind::Data);
            mapper.unmap(self.ops.as_mut(), &mut ctx, aligned)?;
            mapper.map(
                self.ops.as_mut(),
                &mut ctx,
                aligned,
                new_frame,
                t.size,
                flags,
                pt_socket,
                process.replication,
            )?;
            let count = self.shares.get_mut(&t.frame).expect("shared");
            *count -= 1;
            if *count == 1 {
                self.shares.remove(&t.frame);
            }
            new_frame
        } else {
            mapper.protect(self.ops.as_mut(), &mut ctx, aligned, flags)?;
            t.frame
        };
        if ranged {
            self.tx
                .invalidate_page(System::asid_of(pid), aligned, t.size);
        }
        Ok(FaultOutcome {
            addr: aligned,
            size: t.size,
            frame,
            already_mapped: false,
        })
    }
}

/// Compares the new system with the oracle's copy after one step.
fn assert_same(system: &mut System, oracle: &mut Oracle, step: &str) -> Result<(), TestCaseError> {
    let mut plan = ShootdownPlan::default();
    system.drain_shootdown_plan(&mut plan);
    prop_assert_eq!(&plan, &oracle.tx.take_plan(), "{}: shootdown plan", step);
    prop_assert_eq!(
        system.pvops().stats(),
        oracle.ops.stats(),
        "{}: PV-Ops statistics",
        step
    );

    let (new, old) = (system.pt_env(), oracle.system.pt_env());
    // Tables enter the store in allocation order, so equal slot orders mean
    // equal allocation sequences.
    let tables: Vec<FrameId> = new.store.table_frames().collect();
    let old_tables: Vec<FrameId> = old.store.table_frames().collect();
    prop_assert_eq!(&tables, &old_tables, "{}: table frames", step);
    for &table in &tables {
        for index in 0..mitosis_pt::ENTRIES_PER_TABLE {
            prop_assert_eq!(
                new.store.read(table, index),
                old.store.read(table, index),
                "{}: table {} entry {}",
                step,
                table,
                index
            );
        }
    }

    for socket in 0..SOCKETS {
        let socket = SocketId::new(socket);
        prop_assert_eq!(new.alloc.stats(socket), old.alloc.stats(socket), "{}", step);
        let range = new.frames.frame_space().range_of(socket);
        let metas: Vec<_> = new.frames.iter_range(range).collect();
        let old_metas: Vec<_> = old.frames.iter_range(range).collect();
        prop_assert_eq!(metas.len(), old_metas.len(), "{}: tracked frames", step);
        for ((frame, meta), (old_frame, old_meta)) in metas.into_iter().zip(old_metas) {
            prop_assert_eq!(frame, old_frame, "{}", step);
            prop_assert_eq!(meta.kind(), old_meta.kind(), "{}: kind of {}", step, frame);
            prop_assert_eq!(meta.replica_next(), old_meta.replica_next(), "{}", step);
            let shares = oracle.shares.get(&frame).copied().unwrap_or(1);
            prop_assert_eq!(meta.references(), shares, "{}: shares of {}", step, frame);
        }
    }
    prop_assert_eq!(
        new.frames.shared_frames(),
        oracle.shares.len(),
        "{}: shared frames",
        step
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fork_and_cow_match_the_per_leaf_sequences(
        regions in prop::collection::vec((0u8..6, 0u64..64, 0u16..4), 1..5),
        config in (0u8..3, any::<bool>(), any::<bool>()),
        touches in prop::collection::vec((0usize..1024, 0u16..4, any::<bool>()), 0..12),
        writes in prop::collection::vec((0u8..3, 0usize..1024, 0u64..HUGE, 0u16..4), 2..24),
    ) {
        let (replicas, interleave, ranged) = config;
        let (mut system, parent) = build(&regions, replicas, interleave, ranged);
        walker_touches(&mut system, parent, &touches);
        let mut oracle = Oracle::new(system.clone(), parent);
        // Writes target pages the parent maps before the first fork; every
        // forked child maps them too.
        let root = system.process(parent).expect("parent").address_space().roots().base();
        let targets: Vec<(VirtAddr, PageSize)> = iter_leaf_mappings(&system.pt_env().store, root)
            .iter()
            .map(|leaf| (leaf.addr, leaf.size))
            .collect();
        let mut pids = vec![parent];
        let half = writes.len() / 2;
        for (round, batch) in [&writes[..half], &writes[half..]].into_iter().enumerate() {
            let child = system.fork(parent).expect("fork");
            oracle.fork(parent, child).expect("oracle fork");
            pids.push(child);
            assert_same(&mut system, &mut oracle, &format!("fork {round}"))?;
            if targets.is_empty() {
                continue;
            }
            for (step, &(who, pick, offset, socket)) in batch.iter().enumerate() {
                let pid = pids[usize::from(who) % pids.len()];
                let (page, size) = targets[pick % targets.len()];
                let addr = page.add(offset % size.bytes());
                let socket = SocketId::new(socket % SOCKETS);
                let got = system.handle_fault_access(pid, addr, socket, true);
                let want = oracle.write_fault(pid, addr, socket);
                prop_assert_eq!(&got, &want, "round {} write {}", round, step);
                assert_same(&mut system, &mut oracle, &format!("round {round} write {step}"))?;
            }
        }
    }
}
