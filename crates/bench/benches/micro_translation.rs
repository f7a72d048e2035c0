//! Micro-benchmarks (ablation) of the core mechanisms: TLB hits, local vs.
//! remote page walks, ranged shootdowns, native vs. replicated PTE updates
//! and whole-tree replication.
//!
//! These are not paper figures; they quantify the design choices the paper
//! argues for (2N-reference eager updates, replica-ring lookups, walk cost
//! asymmetry, shootdowns that cost the pages they name) and guard against
//! performance regressions in the simulator itself.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mitosis::{replicate_tree, MitosisPvOps};
use mitosis_mem::FrameKind;
use mitosis_mmu::{Mmu, PteCacheSet};
use mitosis_numa::{CoreId, MachineConfig, NodeMask, SocketId};
use mitosis_pt::{
    Mapper, MappingTx, NativePvOps, PageSize, PtEnv, Pte, PteFlags, PvOps, ReplicationSpec,
    VirtAddr,
};
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
    let (mut env, roots, addrs) = build_tree(4096);

    group.bench_function("tlb_hit", |b| {
        let mut mmu = Mmu::new(CoreId::new(0), SocketId::new(0));
        let mut caches = PteCacheSet::for_machine(&machine);
        // Warm the TLB with one address.
        let addr = addrs[0];
        mmu.access(
            addr,
            false,
            roots.base(),
            &mut env.store,
            &env.frames,
            &cost,
            caches.socket(SocketId::new(0)),
        );
        b.iter(|| {
            mmu.access(
                addr,
                false,
                roots.base(),
                &mut env.store,
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
                    &mut env.store,
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
    let (mut env, roots, addrs) = build_tree(4096);

    group.bench_function("ranged_page_full_tlb", |b| {
        let mut mmu = Mmu::new(CoreId::new(0), SocketId::new(0));
        let mut caches = PteCacheSet::for_machine(&machine);
        for &addr in &addrs[..2048] {
            mmu.access(
                addr,
                false,
                roots.base(),
                &mut env.store,
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
    let (mut env, roots, addrs) = build_tree(if quick { 20_000 } else { 200_000 });

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
                &mut env.store,
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
            &mut env.store,
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

criterion_group!(
    micro,
    bench_walks,
    bench_shootdown,
    bench_translation_throughput,
    bench_pte_updates,
    bench_tree_replication
);
criterion_main!(micro);
