//! Live-run sharding: one measured segment's per-thread access loops run
//! concurrently, one host worker per unit of socket groups.
//!
//! Mitosis gives every socket its own page-table replica, so threads on
//! different sockets walk disjoint trees, fill disjoint page-table-line
//! caches and own their MMUs.  When nothing else is shared — no phase
//! change can fire, and no access can enter the kernel — the threads of
//! different sockets are independent rollouts of one program, and running
//! them concurrently yields exactly the serial run's state.  [`plan`]
//! proves that up front and [`run_segment`] executes it; the engine falls
//! back to its serial loop, recording the [`SerialReason`], whenever the
//! proof fails.
//!
//! The proof has five conditions, each a [`SerialReason`] when it fails:
//!
//! * the engine is not a replay-pool worker (those are already the
//!   parallel layer and must never nest);
//! * the schedule is empty;
//! * the threads form at least two socket groups, and the host may run
//!   more than one worker;
//! * no two groups load one CR3, and every table each group walks lives on
//!   the group's own socket — Mitosis places socket `s`'s replica on `s`,
//!   so the groups' trees are pairwise disjoint and no two groups read or
//!   accessed/dirty-write one table;
//! * every 4 KiB page of the workload's region is present in every walked
//!   tree, and writable if the workload writes, so no demand or
//!   copy-on-write fault can happen.
//!
//! Workers share the system read-only: the walker's accessed/dirty update
//! is an atomic `fetch_or` on the shared page-table store.  A fault the
//! proof did not foresee (say, a source yielding an offset outside the
//! region) stops the run with [`MitosisError::ShardedFault`] naming the
//! thread and access, and a panicking worker is caught and reported as
//! [`MitosisError::ShardWorkerPanicked`]; neither unwinds into the caller.

use crate::engine::{ThreadPhase, ThreadPlacement, ThreadTotals};
use mitosis::MitosisError;
use mitosis_mem::{FrameId, FrameSpace, FrameTable};
use mitosis_mmu::{Mmu, MmuStats, PteCache};
use mitosis_numa::SocketId;
use mitosis_pt::{PtStore, VirtAddr};
use mitosis_vmm::{Pid, System, VmError};
use mitosis_workloads::{AccessSource, WorkloadSpec};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How the engine executed its most recent run (see
/// [`ExecutionEngine::last_plan`](crate::ExecutionEngine::last_plan)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunPlan {
    /// The per-thread access loops ran concurrently.
    Sharded {
        /// Socket groups the threads formed.
        groups: usize,
        /// Host workers the groups were merged onto (at most `groups`).
        workers: usize,
    },
    /// The threads ran back to back on the calling thread.
    Serial(SerialReason),
}

impl RunPlan {
    /// `true` when the run was sharded.
    pub fn sharded(&self) -> bool {
        matches!(self, RunPlan::Sharded { .. })
    }
}

impl fmt::Display for RunPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunPlan::Sharded { groups, workers } => {
                write!(
                    f,
                    "sharded: {groups} socket group(s) on {workers} worker(s)"
                )
            }
            RunPlan::Serial(reason) => reason.fmt(f),
        }
    }
}

/// Why a live run stayed serial: the first sharding-proof condition that
/// failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SerialReason {
    /// Phase changes are scheduled: they mutate the system between
    /// segments, and thread-filtered ones leave per-thread state behind.
    Schedule,
    /// All threads run on one socket: there is nothing to shard.
    SingleGroup,
    /// The host allows a single worker.
    OneHostCpu,
    /// Two socket groups could read or write one page table: they load the
    /// same CR3, or a walked table lives off its group's socket.
    SharedTree,
    /// Some page of the region is not present (or not writable for a
    /// writing workload) in a walked tree: an access could fault into the
    /// kernel.
    FaultRisk,
    /// The engine belongs to a replay-pool worker, which is already the
    /// parallel layer.
    ReplayWorker,
}

impl fmt::Display for SerialReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self {
            SerialReason::Schedule => "serial: phase changes are scheduled",
            SerialReason::SingleGroup => "serial: all threads on one socket",
            SerialReason::OneHostCpu => "serial: one host worker available",
            SerialReason::SharedTree => {
                "serial: socket groups share page tables (no per-socket replicas)"
            }
            SerialReason::FaultRisk => {
                "serial: the region is not fully mapped in every replica (fault risk)"
            }
            SerialReason::ReplayWorker => "serial: replay-pool worker engines never nest",
        };
        f.write_str(what)
    }
}

/// Merges groups down to at most `target` units: groups are placed
/// largest-first onto the least-loaded unit (LPT scheduling, load = member
/// count), groups are never split, and each unit's members are sorted
/// ascending (execution within a unit is order-sensitive).  Deterministic:
/// ties break towards the lower group / unit index, and the returned units
/// are ordered by their first member.
///
/// Live runs merge socket groups of thread indices onto host workers;
/// grouped replay merges socket groups of lane indices onto pool units.
pub fn merge_groups(groups: &[Vec<usize>], target: usize) -> Vec<Vec<usize>> {
    if groups.len() <= target {
        return groups.to_vec();
    }
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by_key(|&group| (std::cmp::Reverse(groups[group].len()), group));
    let mut loads = vec![0usize; target];
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); target];
    for group in order {
        let unit = (0..target).min_by_key(|&unit| loads[unit]).unwrap_or(0);
        loads[unit] += groups[group].len();
        members[unit].push(group);
    }
    let mut units: Vec<Vec<usize>> = members
        .into_iter()
        .filter(|member_groups| !member_groups.is_empty())
        .map(|member_groups| {
            let mut merged: Vec<usize> = member_groups
                .into_iter()
                .flat_map(|group| groups[group].iter().copied())
                .collect();
            merged.sort_unstable();
            merged
        })
        .collect();
    units.sort_by_key(|unit| unit.first().copied());
    units
}

/// The host's available parallelism, 1 when unknown; read once per
/// process.
pub(crate) fn host_parallelism() -> usize {
    static HOST: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The threads' socket groups: thread indices per distinct socket, in
/// thread order, groups ordered by first appearance.
fn socket_groups(threads: &[ThreadPlacement]) -> Vec<Vec<usize>> {
    let mut sockets: Vec<SocketId> = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (index, placement) in threads.iter().enumerate() {
        match sockets.iter().position(|s| *s == placement.socket) {
            Some(group) => groups[group].push(index),
            None => {
                sockets.push(placement.socket);
                groups.push(vec![index]);
            }
        }
    }
    groups
}

/// What the engine tells [`plan`] about the run it is about to execute.
pub(crate) struct PlanInput<'a> {
    pub(crate) system: &'a System,
    pub(crate) pid: Pid,
    pub(crate) spec: &'a WorkloadSpec,
    pub(crate) region: VirtAddr,
    pub(crate) threads: &'a [ThreadPlacement],
    pub(crate) schedule_empty: bool,
    pub(crate) max_workers: usize,
    pub(crate) replay_worker: bool,
}

/// The page-table facts the tree-walking half of the proof checked: the
/// store contents, each group's socket and CR3, the region and whether
/// the workload writes.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TreeFacts {
    content: u64,
    roots: Vec<(SocketId, FrameId)>,
    start: VirtAddr,
    end: VirtAddr,
    writes: bool,
}

/// The last tree-walking verdict an engine reached, kept so repeated runs
/// over clones of one prepared system (whose stores share a content id)
/// walk the replicas once, not once per run.
#[derive(Debug, Clone)]
pub(crate) struct ProofCache {
    facts: TreeFacts,
    verdict: Option<SerialReason>,
}

/// Decides how a run executes: the plan, plus — when sharded — the units
/// of thread indices each worker runs (whole socket groups, ascending).
/// `cache` carries the tree-walking verdict between runs of one engine.
///
/// # Errors
///
/// Returns [`VmError::NoSuchProcess`] for an unknown pid.
pub(crate) fn plan(
    input: &PlanInput<'_>,
    cache: &mut Option<ProofCache>,
) -> Result<(RunPlan, Vec<Vec<usize>>), VmError> {
    let serial = |reason| Ok((RunPlan::Serial(reason), Vec::new()));
    if input.replay_worker {
        return serial(SerialReason::ReplayWorker);
    }
    if !input.schedule_empty {
        return serial(SerialReason::Schedule);
    }
    let groups = socket_groups(input.threads);
    if groups.len() < 2 {
        return serial(SerialReason::SingleGroup);
    }
    let workers = input.max_workers.min(groups.len());
    if workers < 2 {
        return serial(SerialReason::OneHostCpu);
    }
    let system = input.system;
    let mut roots = Vec::with_capacity(groups.len());
    for group in &groups {
        let socket = input.threads[group[0]].socket;
        let root = system.cr3_for(input.pid, socket)?;
        if roots.iter().any(|(_, other)| *other == root) {
            return serial(SerialReason::SharedTree);
        }
        roots.push((socket, root));
    }
    let facts = TreeFacts {
        content: system.pt_env().store.content_id(),
        roots,
        start: input.region,
        end: input.region.add(input.spec.footprint()),
        writes: input.spec.write_fraction() > 0.0,
    };
    let verdict = match cache {
        Some(cached) if cached.facts == facts => cached.verdict,
        _ => {
            let verdict = walk_trees(system, &facts);
            *cache = Some(ProofCache { facts, verdict });
            verdict
        }
    };
    if let Some(reason) = verdict {
        return serial(reason);
    }
    Ok((
        RunPlan::Sharded {
            groups: groups.len(),
            workers,
        },
        merge_groups(&groups, workers),
    ))
}

/// The read-only context every worker of a segment shares.
pub(crate) struct Segment<'a> {
    pub(crate) store: &'a PtStore,
    pub(crate) frames: &'a FrameTable,
    pub(crate) frame_space: &'a FrameSpace,
    pub(crate) spec: &'a WorkloadSpec,
    pub(crate) region: VirtAddr,
    pub(crate) threads: &'a [ThreadPlacement],
    /// Every thread's translation state, in thread order.
    pub(crate) phases: &'a [&'a ThreadPhase],
    pub(crate) start: u64,
    /// The interval edges the segment is chunked at; the last is its end.
    pub(crate) edges: &'a [u64],
    /// Whether to snapshot each thread's counters at every edge.
    pub(crate) sampling: bool,
}

/// The engine's per-thread and per-socket mutable state a segment runs
/// on.  MMUs and caches move into the workers by value and come back when
/// the segment ends, so each lives on its worker's own stack while it
/// runs: neighbouring MMUs or caches written from two workers would
/// otherwise share cache lines on every access.
pub(crate) struct SegmentState<'a, S> {
    /// One MMU per thread, in thread order.
    pub(crate) mmus: &'a mut Vec<Mmu>,
    /// One page-table-line cache per socket, in socket order.
    pub(crate) caches: &'a mut Vec<PteCache>,
    pub(crate) totals: &'a mut [ThreadTotals],
    pub(crate) sources: &'a mut [S],
}

/// The tree-walking half of the proof: every table each group walks to
/// the region lives on the group's socket (else [`SerialReason::SharedTree`])
/// and maps every page of it, writable if the workload writes (else
/// [`SerialReason::FaultRisk`]).  `None` when both hold.
fn walk_trees(system: &System, facts: &TreeFacts) -> Option<SerialReason> {
    let env = system.pt_env();
    for &(socket, root) in &facts.roots {
        let mut misplaced = false;
        let covered =
            env.store
                .covers_range(root, facts.start, facts.end, facts.writes, &mut |table| {
                    misplaced = env.frames.socket_of(table) != socket;
                    !misplaced
                });
        if misplaced {
            return Some(SerialReason::SharedTree);
        }
        if !covered {
            return Some(SerialReason::FaultRisk);
        }
    }
    None
}

/// One thread's share of a sharded segment.
struct ThreadTask<'a, S> {
    index: usize,
    mmu: Mmu,
    totals: &'a mut ThreadTotals,
    source: &'a mut S,
}

/// One socket group inside a worker's unit: the socket's page-table-line
/// cache and its threads, in thread order.
struct GroupTask<'a, S> {
    socket: usize,
    cache: PteCache,
    threads: Vec<ThreadTask<'a, S>>,
}

/// Per-thread counter snapshots at each interval edge.
pub(crate) type EdgeSnaps = Vec<(ThreadTotals, MmuStats)>;

/// What a worker hands back: every MMU and cache it was given (also on
/// failure), each finished thread's edge snapshots, and its failure.
#[derive(Default)]
struct UnitOutput {
    mmus: Vec<(usize, Mmu)>,
    caches: Vec<(usize, PteCache)>,
    snaps: Vec<(usize, EdgeSnaps)>,
    failure: Option<MitosisError>,
}

/// Runs one segment with `units` (whole socket groups of thread indices)
/// on concurrent scoped workers, and returns each thread's edge snapshots
/// indexed by thread (empty when not sampling).  On return `state` holds
/// its MMUs and caches again, in order — all of them unless a worker
/// panicked, which loses that worker's share.
///
/// # Errors
///
/// The lowest-numbered thread's failure: [`MitosisError::ShardedFault`]
/// for an access that faulted, [`MitosisError::ShardWorkerPanicked`] for a
/// worker that panicked.  Every worker runs to its end or its own failure
/// before the segment returns.
pub(crate) fn run_segment<S: AccessSource + Send>(
    segment: &Segment<'_>,
    units: &[Vec<usize>],
    state: SegmentState<'_, S>,
) -> Result<Vec<EdgeSnaps>, MitosisError> {
    let thread_count = segment.threads.len();
    let sockets = state.caches.len();
    let mut unit_of_socket: Vec<Option<usize>> = vec![None; sockets];
    for (unit_index, unit) in units.iter().enumerate() {
        for &thread in unit {
            if let Some(placement) = segment.threads.get(thread) {
                unit_of_socket[placement.socket.index()] = Some(unit_index);
            }
        }
    }
    let mut groups: Vec<GroupTask<'_, S>> = state
        .caches
        .drain(..)
        .enumerate()
        .map(|(socket, cache)| GroupTask {
            socket,
            cache,
            threads: Vec::new(),
        })
        .collect();
    let tasks = state
        .mmus
        .drain(..)
        .zip(state.totals.iter_mut())
        .zip(state.sources.iter_mut())
        .enumerate();
    for (index, ((mmu, totals), source)) in tasks {
        groups[segment.threads[index].socket.index()]
            .threads
            .push(ThreadTask {
                index,
                mmu,
                totals,
                source,
            });
    }
    let mut unit_tasks: Vec<Vec<GroupTask<'_, S>>> = units.iter().map(|_| Vec::new()).collect();
    let mut idle: Vec<GroupTask<'_, S>> = Vec::new();
    for group in groups {
        match unit_of_socket[group.socket] {
            Some(unit) => unit_tasks[unit].push(group),
            None => idle.push(group),
        }
    }

    let outputs: Vec<UnitOutput> = std::thread::scope(|scope| {
        let handles: Vec<_> = unit_tasks
            .into_iter()
            .map(|unit| {
                let first_thread = unit
                    .iter()
                    .flat_map(|group| group.threads.iter().map(|task| task.index))
                    .min()
                    .unwrap_or(0);
                let handle = scope.spawn(move || {
                    let mut output = UnitOutput::default();
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        run_unit(segment, unit, &mut output);
                    }));
                    if run.is_err() {
                        output.failure = Some(MitosisError::ShardWorkerPanicked {
                            thread: first_thread,
                        });
                    }
                    output
                });
                (first_thread, handle)
            })
            .collect();
        handles
            .into_iter()
            .map(|(first_thread, handle)| {
                handle.join().unwrap_or_else(|_| UnitOutput {
                    failure: Some(MitosisError::ShardWorkerPanicked {
                        thread: first_thread,
                    }),
                    ..UnitOutput::default()
                })
            })
            .collect()
    });

    let mut snaps: Vec<EdgeSnaps> = (0..thread_count).map(|_| Vec::new()).collect();
    let mut mmus: Vec<(usize, Mmu)> = Vec::with_capacity(thread_count);
    let mut caches: Vec<(usize, PteCache)> = idle
        .into_iter()
        .map(|group| (group.socket, group.cache))
        .collect();
    let mut failure: Option<MitosisError> = None;
    for output in outputs {
        mmus.extend(output.mmus);
        caches.extend(output.caches);
        for (index, thread_snaps) in output.snaps {
            snaps[index] = thread_snaps;
        }
        if let Some(error) = output.failure {
            if failure.is_none_or(|seen| failed_thread(&error) < failed_thread(&seen)) {
                failure = Some(error);
            }
        }
    }
    mmus.sort_by_key(|(index, _)| *index);
    state.mmus.extend(mmus.into_iter().map(|(_, mmu)| mmu));
    caches.sort_by_key(|(socket, _)| *socket);
    state
        .caches
        .extend(caches.into_iter().map(|(_, cache)| cache));
    match failure {
        Some(error) => Err(error),
        None => Ok(snaps),
    }
}

/// The thread a shard failure names, for picking the lowest one.
fn failed_thread(error: &MitosisError) -> usize {
    match error {
        MitosisError::ShardedFault { thread, .. }
        | MitosisError::ShardWorkerPanicked { thread } => *thread,
        _ => usize::MAX,
    }
}

/// A worker's body: every group of its unit, every thread of a group in
/// thread order, each thread's chunks back to back — the serial loop's
/// per-thread operations in the serial loop's order.  The first fault
/// stops the unit; every MMU and cache still lands in `output`.
fn run_unit<S: AccessSource>(
    segment: &Segment<'_>,
    unit: Vec<GroupTask<'_, S>>,
    output: &mut UnitOutput,
) {
    for group in unit {
        // Moved onto this worker's stack for the group's whole run.
        let GroupTask {
            socket,
            mut cache,
            threads,
        } = group;
        for task in threads {
            let ThreadTask {
                index,
                mut mmu,
                totals,
                source,
            } = task;
            if output.failure.is_none() {
                match run_thread(segment, index, &mut mmu, totals, source, &mut cache) {
                    Ok(snaps) => output.snaps.push((index, snaps)),
                    Err(error) => output.failure = Some(error),
                }
            }
            output.mmus.push((index, mmu));
        }
        output.caches.push((socket, cache));
    }
}

/// One thread's accesses of the segment: the serial loop's body without
/// the kernel entry a fault would need.
fn run_thread<S: AccessSource>(
    segment: &Segment<'_>,
    index: usize,
    mmu: &mut Mmu,
    totals_out: &mut ThreadTotals,
    source: &mut S,
    cache: &mut PteCache,
) -> Result<EdgeSnaps, MitosisError> {
    let phase = segment.phases[index];
    let compute = segment.spec.compute_cycles_per_access();
    // Accumulate on this worker's stack: the engine keeps every thread's
    // totals in one small array.
    let mut totals = *totals_out;
    let mut snaps = Vec::with_capacity(if segment.sampling {
        segment.edges.len()
    } else {
        0
    });
    let mut chunk_start = segment.start;
    for &edge in segment.edges {
        for access_index in chunk_start..edge {
            let access = source.next_access();
            // Accesses are 8-byte word granular within the footprint.
            let addr = VirtAddr::new(segment.region.as_u64() + (access.offset & !0x7));
            totals.compute += compute;
            let outcome = mmu.access(
                addr,
                access.is_write,
                phase.cr3,
                segment.store,
                segment.frames,
                &phase.cost,
                cache,
            );
            totals.translation += outcome.translation_cycles;
            let frame = match outcome.frame {
                Some(frame) if !outcome.fault => frame,
                _ => {
                    *totals_out = totals;
                    return Err(MitosisError::ShardedFault {
                        thread: index,
                        access: access_index,
                    });
                }
            };
            let data_socket = segment.frame_space.socket_of(frame);
            totals.data += phase.data_cost[data_socket.index()];
        }
        chunk_start = edge;
        if segment.sampling {
            snaps.push((totals, *mmu.stats()));
        }
    }
    *totals_out = totals;
    Ok(snaps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_groups_respects_target_and_sorts_members() {
        // 4 socket groups onto 2 units: LPT pairs the largest with the
        // smallest; members within each unit come out ascending.
        let groups = vec![vec![0, 4, 5], vec![1], vec![2, 6], vec![3]];
        let units = merge_groups(&groups, 2);
        assert_eq!(units.len(), 2);
        let mut all: Vec<usize> = units.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5, 6]);
        for unit in &units {
            assert!(unit.windows(2).all(|pair| pair[0] < pair[1]));
        }
        // Largest group (3 members) sits alone-ish: its unit has 4
        // members, the other 3 — the balanced LPT split.
        let mut sizes: Vec<usize> = units.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![3, 4]);
    }

    #[test]
    fn merge_groups_is_identity_at_or_above_group_count() {
        let groups = vec![vec![0, 2], vec![1, 3]];
        assert_eq!(merge_groups(&groups, 2), groups);
        assert_eq!(merge_groups(&groups, 8), groups);
    }

    #[test]
    fn merge_groups_never_splits_a_group() {
        let groups = vec![vec![0, 3], vec![1, 4], vec![2, 5]];
        let units = merge_groups(&groups, 2);
        for group in &groups {
            let holder = units
                .iter()
                .filter(|unit| group.iter().any(|member| unit.contains(member)))
                .count();
            assert_eq!(holder, 1, "group {group:?} split across units");
        }
    }

    #[test]
    fn serial_reasons_render_like_shard_decisions() {
        assert_eq!(
            RunPlan::Serial(SerialReason::Schedule).to_string(),
            "serial: phase changes are scheduled"
        );
        assert_eq!(
            RunPlan::Sharded {
                groups: 4,
                workers: 2
            }
            .to_string(),
            "sharded: 4 socket group(s) on 2 worker(s)"
        );
        assert!(!RunPlan::Serial(SerialReason::FaultRisk).sharded());
    }
}
