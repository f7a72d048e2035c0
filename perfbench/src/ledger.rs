//! The traced re-execution of a measured phase, layer by layer.
//!
//! [`mirror`] re-runs the engine's measured phase on a snapshot clone from
//! the benchmark's own code: per thread and segment, in engine order, it
//! first draws the segment's accesses from the source (the `workloads` or
//! `trace` span), then feeds them through `Mmu::access` with a fresh
//! `PteCacheSet` (the `mmu.access` span), handling demand and copy-on-write
//! faults (`vmm.fault`), the plans they leave (`mmu.apply_shootdown`) and
//! the schedule's phase changes exactly as the engine does.  What it leaves
//! out is the engine's cycle bookkeeping, which therefore shows up in the
//! ledger's residual.  Its `MmuStats`, demand faults and shootdown work
//! must equal the engine's, which proves the layers were timed on the same
//! access stream.  [`tlb_pass`] then times the TLB hierarchy alone on the
//! recorded translations.

use crate::spans::Spans;
use mitosis_mem::FrameId;
use mitosis_mmu::{Mmu, MmuStats, PteCacheSet, TlbHierarchy, TlbLevel};
use mitosis_pt::{PageSize, ShootdownPlan, VirtAddr};
use mitosis_sim::{
    apply_phase_change, PhaseChange, PhaseSchedule, PreparedSystem, ShootdownStats, ThreadPlacement,
};
use mitosis_vmm::System;
use mitosis_workloads::{Access, AccessSource};

/// One translation the TLB pass replays: address, write flag and the
/// page size of the mapping `Mmu::access` returned.
#[derive(Debug, Clone, Copy)]
struct Translation {
    addr: VirtAddr,
    is_write: bool,
    size: PageSize,
}

/// What the traced re-execution observed.
#[derive(Debug, Default)]
pub struct MirrorOutput {
    /// `MmuStats` summed over threads.
    pub mmu: MmuStats,
    pub demand_faults: u64,
    pub shootdowns: ShootdownStats,
}

/// The span a phase change is timed under, named after the crate that
/// does the work.
fn change_span(change: PhaseChange) -> &'static str {
    match change {
        PhaseChange::Fork => "vmm.fork",
        PhaseChange::MmapAt { .. } | PhaseChange::MunmapAt { .. } => "vmm.mmap",
        PhaseChange::MigratePageTable { .. } => "core.migrate_pt",
        PhaseChange::SetReplicas { .. } => "core.set_replicas",
        _ => "sim.phase_change",
    }
}

fn apply_plan(plan: &ShootdownPlan, mmus: &mut [Mmu], caches: &mut PteCacheSet) -> ShootdownStats {
    let mut stats = ShootdownStats::default();
    for mmu in mmus {
        stats.entries_invalidated += mmu.apply_shootdown(plan);
        if plan.full_flush {
            stats.full_flushes += 1;
        }
    }
    if !plan.full_flush {
        stats.ranged_ranges += plan.ranges.len() as u64;
    }
    caches.apply_shootdown(plan);
    stats
}

/// The per-core MMUs and per-socket page-table-line caches a re-execution
/// translates with, and its access and translation buffers.  Kept across
/// ledger jobs and reset before each, as the engine keeps and resets its
/// own structures, so no timed span pays for allocating or first touching
/// them.
pub struct Cores {
    mmus: Vec<Mmu>,
    caches: PteCacheSet,
    batch: Vec<Access>,
    /// Whether the re-execution records translations for [`tlb_pass`].
    record: bool,
    /// Per thread, the translation of every access (when recorded).
    translations: Vec<Vec<Translation>>,
}

/// A buffer of `len` touched but cleared slots.
fn touched<T: Clone>(fill: T, len: u64) -> Vec<T> {
    let mut buffer = vec![fill; usize::try_from(len).expect("buffer fits in memory")];
    buffer.clear();
    buffer
}

impl Cores {
    /// Cores for `threads` running `accesses_per_thread` accesses each;
    /// `record` sizes the translation buffers for [`tlb_pass`].
    pub fn new(
        system: &System,
        threads: &[ThreadPlacement],
        accesses_per_thread: u64,
        record: bool,
    ) -> Cores {
        let blank = Translation {
            addr: VirtAddr::new(0),
            is_write: false,
            size: PageSize::Base4K,
        };
        Cores {
            mmus: threads
                .iter()
                .map(|placement| Mmu::new(placement.core, placement.socket))
                .collect(),
            caches: PteCacheSet::for_machine(system.machine()),
            batch: touched(
                Access {
                    offset: 0,
                    is_write: false,
                },
                accesses_per_thread,
            ),
            record,
            translations: threads
                .iter()
                .map(|_| touched(blank, if record { accesses_per_thread } else { 0 }))
                .collect(),
        }
    }
}

/// Re-executes the measured phase of `threads` over `prepared` (which it
/// mutates: pass a clone), starting from empty `cores`.  Only schedules of
/// global (unfiltered) events are supported.
#[allow(clippy::too_many_arguments)]
pub fn mirror<S: AccessSource>(
    prepared: &mut PreparedSystem,
    cores: &mut Cores,
    threads: &[ThreadPlacement],
    accesses_per_thread: u64,
    sources: &mut [S],
    schedule: &PhaseSchedule,
    source_span: &'static str,
    spans: &mut Spans,
) -> Result<MirrorOutput, String> {
    assert!(
        !schedule.is_staggered(),
        "mirror supports global events only"
    );
    assert_eq!(threads.len(), sources.len());
    let PreparedSystem {
        system,
        mitosis,
        pid,
        region,
    } = prepared;
    let (pid, region) = (*pid, *region);
    let Cores {
        mmus,
        caches,
        batch,
        record,
        translations,
    } = cores;
    assert_eq!(mmus.len(), threads.len(), "one MMU per thread");
    caches.reset_for_run();
    for mmu in mmus.iter_mut() {
        mmu.reset_for_run();
        mmu.set_asid(System::asid_of(pid));
    }
    translations.iter_mut().for_each(Vec::clear);
    let mut out = MirrorOutput::default();
    let mut roots: Vec<Option<FrameId>> = vec![None; threads.len()];
    let mut segment_start = 0;
    for boundary in schedule.boundaries(accesses_per_thread) {
        if boundary > segment_start {
            let cost = system.machine().cost_model().clone();
            for (index, placement) in threads.iter().enumerate() {
                let span = spans.open(source_span);
                batch.clear();
                batch.extend((segment_start..boundary).map(|_| sources[index].next_access()));
                spans.close(span);

                let root = match roots[index] {
                    Some(root) => root,
                    None => {
                        let root = system
                            .cr3_for(pid, placement.socket)
                            .map_err(|e| e.to_string())?;
                        roots[index] = Some(root);
                        root
                    }
                };
                let mmu = &mut mmus[index];
                let recorded = &mut translations[index];
                let span = spans.open("mmu.access");
                for access in batch.iter() {
                    let addr = VirtAddr::new(region.as_u64() + (access.offset & !0x7));
                    let env = system.pt_env_mut();
                    let mut outcome = mmu.access(
                        addr,
                        access.is_write,
                        root,
                        &mut env.store,
                        &env.frames,
                        &cost,
                        caches.socket(placement.socket),
                    );
                    if outcome.fault {
                        out.demand_faults += 1;
                        let fault = spans.open("vmm.fault");
                        system
                            .handle_fault_access(pid, addr, placement.socket, access.is_write)
                            .map_err(|e| e.to_string())?;
                        spans.close(fault);
                        if !system.pending_shootdown().is_empty() {
                            let plan = system.take_shootdown_plan();
                            let apply = spans.open("mmu.apply_shootdown");
                            let local = apply_plan(&plan, std::slice::from_mut(mmu), caches);
                            spans.close(apply);
                            out.shootdowns.merge(&local);
                        }
                        let env = system.pt_env_mut();
                        outcome = mmu.access(
                            addr,
                            access.is_write,
                            root,
                            &mut env.store,
                            &env.frames,
                            &cost,
                            caches.socket(placement.socket),
                        );
                    }
                    if *record {
                        let Some(size) = outcome.page_size else {
                            return Err(format!("access at {addr:?} did not translate"));
                        };
                        recorded.push(Translation {
                            addr,
                            is_write: access.is_write,
                            size,
                        });
                    }
                }
                spans.close(span);
            }
        }

        // The boundary's phase changes, then its shootdown, exactly as the
        // engine's single policy point delivers it for global events.
        let mut mutates = false;
        let mut escalate = false;
        for event in schedule.events_at(boundary, accesses_per_thread) {
            let span = spans.open(change_span(event.change));
            apply_phase_change(system, mitosis, pid, event.change).map_err(|e| e.to_string())?;
            spans.close(span);
            mutates |= event.change.mutates_mappings();
            escalate |=
                event.change.mutates_mappings() && !event.change.supports_ranged_shootdown();
            roots.iter_mut().for_each(|root| *root = None);
        }
        let mut plan = system.take_shootdown_plan();
        if !system.config().shootdown.is_ranged() {
            // Broadcast mode records nothing: a mutation full-flushes all.
            plan = ShootdownPlan {
                full_flush: mutates,
                ..ShootdownPlan::default()
            };
        }
        plan.full_flush |= escalate;
        if !plan.is_empty() || mutates {
            // A full flush reaches every core; a ranged plan reaches them
            // only when a mapping-mutating event broadcast it.
            let targets: &mut [Mmu] = if plan.full_flush || mutates {
                mmus.as_mut_slice()
            } else {
                &mut []
            };
            let span = spans.open("mmu.apply_shootdown");
            let work = apply_plan(&plan, targets, caches);
            spans.close(span);
            out.shootdowns.merge(&work);
        }
        segment_start = boundary;
    }
    for mmu in mmus.iter() {
        out.mmu.merge(mmu.stats());
    }
    Ok(out)
}

/// Replays the recorded translations through a fresh `TlbHierarchy` per
/// thread — lookups, and an insert after every miss — under the
/// `mmu.tlb` span.  Returns the L1 hits, L2 hits and misses, which must
/// equal the `MmuStats` of the run that recorded them.
pub fn tlb_pass(cores: &Cores, asid: u16, spans: &mut Spans) -> [u64; 3] {
    let mut counts = [0u64; 3];
    let span = spans.open("mmu.tlb");
    for thread in &cores.translations {
        let mut tlb = TlbHierarchy::paper_testbed();
        for t in thread {
            let hit = [PageSize::Base4K, PageSize::Huge2M, PageSize::Giant1G]
                .into_iter()
                .find_map(|size| tlb.lookup(asid, t.addr, size, t.is_write));
            match hit {
                Some((TlbLevel::L1, ..)) => counts[0] += 1,
                Some((TlbLevel::L2, ..)) => counts[1] += 1,
                None => {
                    counts[2] += 1;
                    // The frame does not affect hits; the page number stands in.
                    let frame = FrameId::new(t.addr.as_u64() >> 12);
                    tlb.insert(asid, t.addr.align_down(t.size), t.size, frame, true);
                }
            }
        }
    }
    spans.close(span);
    counts
}
