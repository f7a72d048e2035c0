//! Micro-benchmarks (ablation) of the core mechanisms: TLB hits, local vs.
//! remote page walks, ranged shootdowns, native vs. replicated PTE updates,
//! whole-tree replication, fork/copy-on-write under replication, and the
//! host density of page tables and frame metadata.
//!
//! These are not paper figures; they quantify the design choices the paper
//! argues for (2N-reference eager updates, replica-ring lookups, walk cost
//! asymmetry, shootdowns that cost the pages they name) and guard against
//! performance regressions in the simulator itself.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mitosis::{replicate_tree, Mitosis, MitosisPvOps};
use mitosis_mem::FrameKind;
use mitosis_mmu::{Mmu, PteCacheSet};
use mitosis_numa::{CoreId, MachineConfig, NodeMask, SocketId};
use mitosis_pt::{
    Mapper, MappingTx, NativePvOps, PageSize, PtEnv, Pte, PteFlags, PvOps, ReplicationSpec,
    VirtAddr,
};
use mitosis_vmm::{MmapFlags, Pid, ShootdownMode, System};
use std::cell::RefCell;
use std::time::Duration;

/// Builds a native page table with `pages` 4 KiB mappings on socket 0.
fn build_tree(pages: u64) -> (PtEnv, mitosis_pt::PtRoots, Vec<VirtAddr>) {
    let machine = MachineConfig::paper_testbed_scaled().build();
    let mut env = PtEnv::new(&machine);
    let mut ops = NativePvOps::new();
    let mut ctx = env.context();
    let roots = Mapper::create_roots(
        &mut ops,
        &mut ctx,
        SocketId::new(0),
        ReplicationSpec::none(),
    )
    .expect("roots");
    let mapper = Mapper::new(&roots);
    let mut addrs = Vec::new();
    for i in 0..pages {
        let addr = VirtAddr::new(0x10_0000_0000 + i * 4096);
        let data = ctx.alloc.alloc_on(SocketId::new(0)).expect("data frame");
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
            .expect("map");
        addrs.push(addr);
    }
    (env, roots, addrs)
}

fn bench_walks(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/translation");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    let machine = MachineConfig::paper_testbed_scaled().build();
    let cost = machine.cost_model().clone();
    let (env, roots, addrs) = build_tree(4096);

    group.bench_function("tlb_hit", |b| {
        let mut mmu = Mmu::new(CoreId::new(0), SocketId::new(0));
        let mut caches = PteCacheSet::for_machine(&machine);
        // Warm the TLB with one address.
        let addr = addrs[0];
        mmu.access(
            addr,
            false,
            roots.base(),
            &env.store,
            &env.frames,
            &cost,
            caches.socket(SocketId::new(0)),
        );
        b.iter(|| {
            mmu.access(
                addr,
                false,
                roots.base(),
                &env.store,
                &env.frames,
                &cost,
                caches.socket(SocketId::new(0)),
            )
        });
    });

    for (label, socket) in [("walk_local_socket", 0u16), ("walk_remote_socket", 1u16)] {
        group.bench_function(label, |b| {
            let mut mmu = Mmu::new(CoreId::new(0), SocketId::new(socket));
            let mut caches = PteCacheSet::with_capacity(machine.sockets(), 4);
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % addrs.len();
                mmu.access(
                    addrs[i],
                    false,
                    roots.base(),
                    &env.store,
                    &env.frames,
                    &cost,
                    caches.socket(SocketId::new(socket)),
                )
            });
        });
    }
    group.finish();
}

/// One-page ranged shootdown against a full L1 + L2 TLB: the common CoW
/// plan.  It probes only the named page's sets, so its cost must not grow
/// with the TLB's size.
fn bench_shootdown(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/shootdown");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    let machine = MachineConfig::paper_testbed_scaled().build();
    let cost = machine.cost_model().clone();
    let (env, roots, addrs) = build_tree(4096);

    group.bench_function("ranged_page_full_tlb", |b| {
        let mut mmu = Mmu::new(CoreId::new(0), SocketId::new(0));
        let mut caches = PteCacheSet::for_machine(&machine);
        for &addr in &addrs[..2048] {
            mmu.access(
                addr,
                false,
                roots.base(),
                &env.store,
                &env.frames,
                &cost,
                caches.socket(SocketId::new(0)),
            );
        }
        let capacity = 64 + 1024;
        assert_eq!(mmu.tlb().occupancy(), capacity, "L1 and L2 are full");
        let mut tx = MappingTx::new();
        tx.invalidate_page(0, addrs[2047], PageSize::Base4K);
        let plan = tx.take_plan();
        assert_eq!(mmu.apply_shootdown(&plan), 2, "the page sat in L1 and L2");
        b.iter(|| mmu.apply_shootdown(&plan));
        assert_eq!(mmu.tlb().occupancy(), capacity - 2);
    });
    group.finish();
}

fn bench_pte_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/set_pte");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    let machine = MachineConfig::paper_testbed().build();

    group.bench_function("native", |b| {
        let mut env = PtEnv::new(&machine);
        let mut ops = NativePvOps::new();
        let mut ctx = env.context();
        let table = ops
            .alloc_table(
                &mut ctx,
                mitosis_pt::Level::L1,
                SocketId::new(0),
                &ReplicationSpec::none(),
            )
            .expect("table");
        let data = ctx.alloc.alloc_on(SocketId::new(0)).expect("frame");
        let pte = Pte::new(data, PteFlags::user_data());
        let mut index = 0usize;
        b.iter(|| {
            index = (index + 1) % 512;
            ops.set_pte(&mut ctx, table, index, pte);
        });
    });

    group.bench_function("mitosis_4way", |b| {
        let mut env = PtEnv::new(&machine);
        let mut ops = MitosisPvOps::new();
        let repl = ReplicationSpec::all_sockets(4);
        let mut ctx = env.context();
        let table = ops
            .alloc_table(&mut ctx, mitosis_pt::Level::L1, SocketId::new(0), &repl)
            .expect("table");
        let data = ctx.alloc.alloc_on(SocketId::new(0)).expect("frame");
        let pte = Pte::new(data, PteFlags::user_data());
        let mut index = 0usize;
        b.iter(|| {
            index = (index + 1) % 512;
            ops.set_pte(&mut ctx, table, index, pte);
        });
    });
    group.finish();
}

/// Translation throughput under a GUPS-like uniform-random pattern with an
/// L3-sized PTE-line cache — the miss-heavy case the O(1) eviction rewrite
/// targets (the old implementation scanned the whole cache per miss).
/// Reports both ns/access (Criterion) and accesses/second (println).
fn bench_translation_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/translation_throughput");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    let machine = MachineConfig::paper_testbed_scaled().build();
    let cost = machine.cost_model().clone();
    // Enough mappings that the page-table-line working set (~25 000 lines)
    // exceeds the L3-sized cache (~18 000 lines): uniform-random access
    // then evicts on most walks, exactly the GUPS regime where the old
    // full-scan eviction collapsed.  The CI smoke step (quick mode) only
    // needs the path exercised, not the full-size working set.
    let quick = std::env::var("MITOSIS_BENCH_QUICK").is_ok_and(|v| !v.is_empty());
    let (env, roots, addrs) = build_tree(if quick { 20_000 } else { 200_000 });

    group.bench_function("random_4k_walks", |b| {
        let mut mmu = Mmu::new(CoreId::new(0), SocketId::new(0));
        // L3-sized cache, as the execution engine uses it.
        let mut caches = PteCacheSet::for_machine(&machine);
        let mut state = 0x9E3779B97F4A7C15u64;
        b.iter(|| {
            // xorshift64: deterministic uniform-random page selection.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let addr = addrs[(state % addrs.len() as u64) as usize];
            mmu.access(
                addr,
                false,
                roots.base(),
                &env.store,
                &env.frames,
                &cost,
                caches.socket(SocketId::new(0)),
            )
        });
    });
    group.finish();

    // Plain accesses/second figure for the README "Performance" table.
    // In quick (CI smoke) mode the sample is shrunk to match the clamped
    // criterion budgets — the step exists to catch breakage, not to time.
    let accesses: u64 = if quick { 100_000 } else { 2_000_000 };
    let mut mmu = Mmu::new(CoreId::new(0), SocketId::new(0));
    let mut caches = PteCacheSet::for_machine(&machine);
    let mut state = 0x9E3779B97F4A7C15u64;
    let start = std::time::Instant::now();
    for _ in 0..accesses {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let addr = addrs[(state % addrs.len() as u64) as usize];
        criterion::black_box(mmu.access(
            addr,
            false,
            roots.base(),
            &env.store,
            &env.frames,
            &cost,
            caches.socket(SocketId::new(0)),
        ));
    }
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "micro/translation_throughput/random_4k_walks     {:.2} M accesses/s",
        accesses as f64 / elapsed / 1e6
    );
}

fn bench_tree_replication(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/replicate_tree");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    group.bench_function("4096_pages_to_4_sockets", |b| {
        b.iter_batched(
            || build_tree(4096),
            |(mut env, roots, _)| {
                let mut ctx = env.context();
                replicate_tree(&mut ctx, &roots, NodeMask::all(4)).expect("replicate");
                env
            },
            BatchSize::PerIteration,
        );
    });
    group.finish();
}

/// A process with `bytes` of populated 4 KiB pages whose page tables are
/// replicated on both sockets of a two-socket machine, under ranged
/// shootdowns: the `fork-churn` configuration.
fn replicated_process(bytes: u64) -> (System, Pid, VirtAddr) {
    let mitosis = Mitosis::new();
    let mut system = mitosis.install(MachineConfig::two_socket_small().build());
    system.set_shootdown_mode(ShootdownMode::Ranged);
    let pid = system.create_process(SocketId::new(0)).expect("process");
    let region = system
        .mmap(pid, bytes, MmapFlags::populate().without_thp())
        .expect("populated mmap");
    let mut mitosis = mitosis;
    mitosis
        .enable_for_process(&mut system, pid, None)
        .expect("replicate");
    (system, pid, region)
}

/// The mutation path under 2-way replication:
///
/// * `fork_64mib_2way` — one fork of a 64 MiB process (16 384 leaves
///   shared copy-on-write);
/// * `break_fault` — the parent's first store to each of
///   [`BREAKS`] shared pages scattered over a 16 MiB region: each store
///   takes a copy-on-write break that copies the page, rewrites its leaf
///   in both replicas and records a one-page shootdown, which is drained.
///   One sample is all [`BREAKS`] breaks, so the figure divided by
///   [`BREAKS`] is the steady-state cost of one break.
///
/// Each sample runs on a fresh clone of a prepared system; a sample's
/// system is torn down in the next sample's (untimed) setup.
fn bench_cow(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/cow");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    let retired = RefCell::new(None);
    let fresh = |system: &System| {
        retired.take();
        system.clone()
    };
    let (system, pid, _) = replicated_process(64 << 20);
    group.bench_function("fork_64mib_2way", |b| {
        b.iter_batched(
            || fresh(&system),
            |mut system| {
                system.fork(pid).expect("fork");
                retired.replace(Some(system));
            },
            BatchSize::PerIteration,
        );
    });

    const PAGES: u64 = 4096;
    let (mut forked, pid, region) = replicated_process(PAGES * 4096);
    forked.fork(pid).expect("fork");
    // The fork's own downgrades are not part of the measured breaks.
    forked.take_shootdown_plan();
    let mut plan = mitosis_pt::ShootdownPlan::default();
    group.bench_function("break_fault", |b| {
        b.iter_batched(
            || fresh(&forked),
            |mut system| {
                for i in 0..BREAKS {
                    // An odd stride visits distinct pages across every L1
                    // table of the region.
                    let page = (i * 2039) % PAGES;
                    let fault = system
                        .handle_fault_access(pid, region.add(page * 4096), SocketId::new(0), true)
                        .expect("copy-on-write break");
                    system.drain_shootdown_plan(&mut plan);
                    assert!(!fault.already_mapped && plan.pages() == 1);
                }
                retired.replace(Some(system));
            },
            BatchSize::PerIteration,
        );
    });
    group.finish();
}

/// Host bytes the simulator spends per simulated page-table page and per
/// tracked frame, on the populated 2-way replicated 64 MiB process of
/// `micro/cow`.  These are exact work counters reported in the timing
/// slot, not timings: `PtStore::host_bytes` and `FrameTable::host_bytes`
/// count lengths, so the figures are deterministic for fixed code.
fn report_density(_c: &mut Criterion) {
    let (system, _, _) = replicated_process(64 << 20);
    let env = system.pt_env();
    criterion::report_metric(
        "micro/density/pt_host_bytes_per_table",
        env.store.host_bytes() as f64 / env.store.table_count() as f64,
    );
    criterion::report_metric(
        "micro/density/frame_meta_bytes_per_frame",
        env.frames.host_bytes() as f64 / env.frames.len() as f64,
    );
}

/// Copy-on-write breaks per `micro/cow/break_fault` sample.
const BREAKS: u64 = 512;

criterion_group!(
    micro,
    bench_walks,
    bench_shootdown,
    bench_translation_throughput,
    bench_pte_updates,
    bench_tree_replication,
    bench_cow,
    report_density
);
criterion_main!(micro);
