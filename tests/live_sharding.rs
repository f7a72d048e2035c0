//! Live-run sharding: a run whose socket groups walk disjoint Mitosis
//! replicas executes its per-thread access loops concurrently, and must be
//! indistinguishable from the serial run — metrics, interval stream, every
//! replica's final page tables (placement and accessed/dirty bits), and the
//! page-table-line cache state a second run inherits.  Every condition of
//! the sharding proof has a negative test that pins its serial reason, and
//! a fault the proof did not foresee surfaces as a typed error.
//!
//! `MITOSIS_SIM_ACCESSES` sets the per-thread access count (default 2000),
//! so the determinism CI job runs this suite at two lengths.

use mitosis::{Mitosis, MitosisError};
use mitosis_numa::SocketId;
use mitosis_obs::{IntervalSample, MemoryRecorder, Observer};
use mitosis_pt::{iter_leaf_mappings, LeafMapping, PageTableDump};
use mitosis_sim::{
    ExecutionEngine, PhaseChange, PhaseSchedule, PreparedSystem, RunMetrics, RunPlan, SerialReason,
    SimParams, ThreadPlacement,
};
use mitosis_vmm::{MmapFlags, ThpMode};
use mitosis_workloads::{suite, Access, AccessSource, AccessStream, InitPattern, WorkloadSpec};
use std::sync::Arc;

fn params() -> SimParams {
    let accesses = std::env::var("MITOSIS_SIM_ACCESSES")
        .ok()
        .and_then(|value| value.parse().ok())
        .unwrap_or(2_000);
    SimParams::quick_test().with_accesses(accesses)
}

/// One prepared run: the system after setup, the scaled spec and the
/// thread placements.
struct Case {
    params: SimParams,
    spec: WorkloadSpec,
    prepared: PreparedSystem,
    threads: Vec<ThreadPlacement>,
}

/// Builds `spec` the way the multi-socket scenario does: every socket
/// initialises its chunk (or socket 0 everything), `per_socket` threads on
/// each socket, page tables replicated everywhere when `replicate`.
fn case(
    spec: &WorkloadSpec,
    params: &SimParams,
    thp: bool,
    per_socket: usize,
    replicate: bool,
    populate: bool,
) -> Case {
    let mut mitosis = Mitosis::new();
    let mut system = mitosis.install(params.machine());
    if thp {
        system.set_thp(ThpMode::Always);
    }
    let sockets: Vec<SocketId> = system.machine().socket_ids().collect();
    let pid = system.create_process(sockets[0]).expect("create process");
    let scaled = params.scale_workload(spec);
    let flags = if thp {
        MmapFlags::lazy()
    } else {
        MmapFlags::lazy().without_thp()
    };
    let region = system
        .mmap(pid, scaled.footprint(), flags)
        .expect("mmap region");
    if populate {
        ExecutionEngine::populate(
            &mut system,
            pid,
            region,
            scaled.footprint(),
            scaled.init(),
            &sockets,
        )
        .expect("populate");
    }
    if replicate {
        mitosis
            .enable_for_process(&mut system, pid, None)
            .expect("replicate page tables");
    }
    let threads = ExecutionEngine::threads_for(&system, &sockets, per_socket);
    Case {
        params: params.clone(),
        spec: scaled,
        prepared: PreparedSystem {
            system,
            mitosis,
            pid,
            region,
        },
        threads,
    }
}

/// Everything a run leaves behind that sharding must not change.
struct Observed {
    plan: RunPlan,
    metrics: RunMetrics,
    intervals: Vec<IntervalSample>,
    dumps: Vec<PageTableDump>,
    leaves: Vec<Vec<LeafMapping>>,
    /// A second run on the same engine and system, without a reset: its
    /// metrics depend on the first run's final page-table-line caches.
    second: RunMetrics,
}

impl Observed {
    /// Asserts `self` equals `other` in everything but the plan, naming
    /// the first difference instead of dumping whole page tables.
    fn assert_same_run(&self, other: &Observed, label: &str) {
        assert_eq!(self.metrics, other.metrics, "{label}: metrics diverged");
        assert_eq!(
            self.intervals.len(),
            other.intervals.len(),
            "{label}: interval sample count diverged"
        );
        for (index, (a, b)) in self.intervals.iter().zip(&other.intervals).enumerate() {
            assert_eq!(a, b, "{label}: interval sample {index} diverged");
        }
        for (socket, (a, b)) in self.dumps.iter().zip(&other.dumps).enumerate() {
            assert!(a == b, "{label}: socket {socket}'s placement dump diverged");
        }
        for (socket, (a, b)) in self.leaves.iter().zip(&other.leaves).enumerate() {
            assert_eq!(a.len(), b.len(), "{label}: socket {socket}'s leaf count");
            if let Some((x, y)) = a.iter().zip(b).find(|(x, y)| x != y) {
                panic!("{label}: socket {socket}'s replica diverged: {x:?} vs {y:?}");
            }
        }
        assert_eq!(
            self.second, other.second,
            "{label}: the second run (inheriting the page-table-line caches) diverged"
        );
    }
}

/// Runs `case` twice on one engine capped at `workers` host workers,
/// streaming interval samples from the first run.
fn observe(case: &Case, workers: usize) -> Observed {
    let mut run = case.prepared.clone();
    let mut engine = ExecutionEngine::new(&run.system);
    engine.set_live_workers(workers);
    let memory = Arc::new(MemoryRecorder::new());
    engine.set_observer(Observer::with_recorder(memory.clone()).interval_every(500));
    let metrics = run_once(&mut engine, case, &mut run).expect("first run");
    let plan = engine.last_plan();
    engine.set_observer(Observer::none());
    let sockets: Vec<SocketId> = run.system.machine().socket_ids().collect();
    let dumps = sockets
        .iter()
        .map(|socket| {
            run.system
                .page_table_dump_for_socket(run.pid, *socket)
                .expect("dump")
        })
        .collect();
    let leaves = sockets
        .iter()
        .map(|socket| {
            let root = run.system.cr3_for(run.pid, *socket).expect("cr3");
            iter_leaf_mappings(&run.system.pt_env().store, root)
        })
        .collect();
    let second = run_once(&mut engine, case, &mut run).expect("second run");
    Observed {
        plan,
        metrics,
        intervals: memory.intervals_for_track(0),
        dumps,
        leaves,
        second,
    }
}

fn run_once(
    engine: &mut ExecutionEngine,
    case: &Case,
    run: &mut PreparedSystem,
) -> Result<RunMetrics, MitosisError> {
    let mut streams = ExecutionEngine::thread_streams(&case.spec, &case.params, case.threads.len());
    engine.run_with_sources_dynamic(
        &mut run.system,
        &mut run.mitosis,
        run.pid,
        &case.spec,
        run.region,
        &case.threads,
        case.params.accesses_per_thread,
        &mut streams,
        &PhaseSchedule::new(),
    )
}

fn assert_sharded_matches_serial(label: &str, case: &Case, groups: usize) {
    let serial = observe(case, 1);
    assert_eq!(
        serial.plan,
        RunPlan::Serial(SerialReason::OneHostCpu),
        "{label}"
    );
    for workers in [2, 4] {
        let sharded = observe(case, workers);
        assert_eq!(
            sharded.plan,
            RunPlan::Sharded {
                groups,
                workers: workers.min(groups)
            },
            "{label}: the sharding proof must hold"
        );
        assert!(
            !sharded.intervals.is_empty(),
            "{label}: no interval samples"
        );
        sharded.assert_same_run(&serial, &format!("{label} on {workers} workers"));
    }
}

#[test]
fn xsbench_fm_on_four_sockets_shards_bit_identically() {
    let case = case(&suite::xsbench(), &params(), false, 1, true, true);
    assert_sharded_matches_serial("XSBench F+M", &case, 4);
}

#[test]
fn memcached_thp_with_two_threads_per_socket_shards_bit_identically() {
    let case = case(&suite::memcached(), &params(), true, 2, true, true);
    assert_eq!(case.threads.len(), 8);
    assert_sharded_matches_serial("Memcached THP 2/socket", &case, 4);
}

#[test]
fn gups_with_writes_shards_bit_identically() {
    let spec = suite::gups();
    assert!(spec.write_fraction() > 0.0, "GUPS must exercise dirty bits");
    let case = case(&spec, &params(), false, 1, true, true);
    assert_sharded_matches_serial("GUPS", &case, 4);
}

/// The golden `run_replicated` setup (tests/golden_metrics.rs): GUPS,
/// socket 0 touches everything, replicas on every socket, one thread per
/// socket, `ExecutionEngine::run`.  On any multi-CPU host its committed
/// snapshot is therefore an oracle for the sharded executor.
#[test]
fn golden_replicated_run_takes_the_sharded_path() {
    const GOLD_GUPS_REPL: &str = "RunMetrics { total_cycles: 3369924, compute_cycles: 40000, data_cycles: 8882000, translation_cycles: 2335935, threads: 4, accesses: 8000, mmu: MmuStats { accesses: 8000, tlb_l1_hits: 21, tlb_l2_hits: 167, tlb_misses: 7812, translation_cycles: 2335935, walk: WalkStats { walks: 7812, faults: 0, walk_cycles: 2334766, levels_accessed: 11761, local_dram_accesses: 7078, remote_dram_accesses: 0, pte_cache_hits: 4683, interfered_accesses: 0 } }, demand_faults: 0 }";
    let params = SimParams::quick_test();
    let scaled = params.scale_workload(&suite::gups());
    let mut mitosis = Mitosis::new();
    let mut system = mitosis.install(params.machine());
    let s0 = SocketId::new(0);
    let pid = system.create_process(s0).expect("create process");
    let region = system
        .mmap(pid, scaled.footprint(), MmapFlags::lazy().without_thp())
        .expect("mmap");
    ExecutionEngine::populate(
        &mut system,
        pid,
        region,
        scaled.footprint(),
        InitPattern::SingleThread,
        &[s0],
    )
    .expect("populate");
    mitosis
        .enable_for_process(&mut system, pid, None)
        .expect("replicate page tables");
    let sockets: Vec<SocketId> = system.machine().socket_ids().collect();
    let threads = ExecutionEngine::one_thread_per_socket(&system, &sockets);

    let mut default_engine = ExecutionEngine::new(&system);
    let metrics = default_engine
        .run(&mut system.clone(), pid, &scaled, region, &threads, &params)
        .expect("run");
    assert_eq!(format!("{metrics:?}"), GOLD_GUPS_REPL);
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let expected = if host >= 2 {
        RunPlan::Sharded {
            groups: 4,
            workers: host.min(4),
        }
    } else {
        RunPlan::Serial(SerialReason::OneHostCpu)
    };
    assert_eq!(default_engine.last_plan(), expected);

    // Forced onto two workers, the golden snapshot holds on any host.
    let mut engine = ExecutionEngine::new(&system);
    engine.set_live_workers(2);
    let metrics = engine
        .run(&mut system, pid, &scaled, region, &threads, &params)
        .expect("run");
    assert!(engine.last_plan().sharded());
    assert_eq!(format!("{metrics:?}"), GOLD_GUPS_REPL);
}

/// Runs `case` with `schedule` on an engine allowed 4 workers and returns
/// the plan it chose and the metrics.
fn plan_of(
    case: &Case,
    schedule: &PhaseSchedule,
    configure: impl Fn(&mut ExecutionEngine),
) -> (RunPlan, RunMetrics) {
    let mut run = case.prepared.clone();
    let mut engine = ExecutionEngine::new(&run.system);
    engine.set_live_workers(4);
    configure(&mut engine);
    let mut streams = ExecutionEngine::thread_streams(&case.spec, &case.params, case.threads.len());
    let metrics = engine
        .run_with_sources_dynamic(
            &mut run.system,
            &mut run.mitosis,
            run.pid,
            &case.spec,
            run.region,
            &case.threads,
            case.params.accesses_per_thread,
            &mut streams,
            schedule,
        )
        .expect("run");
    (engine.last_plan(), metrics)
}

fn gups_case(replicate: bool, populate: bool) -> Case {
    case(&suite::gups(), &params(), false, 1, replicate, populate)
}

#[test]
fn a_schedule_keeps_the_run_serial() {
    let case = gups_case(true, true);
    let schedule = PhaseSchedule::new().at(
        case.params.accesses_per_thread / 2,
        PhaseChange::MigrateData {
            target: SocketId::new(1),
        },
    );
    let (plan, _) = plan_of(&case, &schedule, |_| {});
    assert_eq!(plan, RunPlan::Serial(SerialReason::Schedule));
    assert_eq!(plan.to_string(), "serial: phase changes are scheduled");
}

#[test]
fn one_socket_group_keeps_the_run_serial() {
    let mut case = gups_case(true, true);
    case.threads = ExecutionEngine::threads_for(&case.prepared.system, &[SocketId::new(2)], 3);
    let (plan, _) = plan_of(&case, &PhaseSchedule::new(), |_| {});
    assert_eq!(plan, RunPlan::Serial(SerialReason::SingleGroup));
}

#[test]
fn one_host_worker_keeps_the_run_serial() {
    let case = gups_case(true, true);
    let (plan, metrics) = plan_of(&case, &PhaseSchedule::new(), |engine| {
        engine.set_live_workers(1)
    });
    assert_eq!(plan, RunPlan::Serial(SerialReason::OneHostCpu));
    let (sharded, sharded_metrics) = plan_of(&case, &PhaseSchedule::new(), |_| {});
    assert!(sharded.sharded());
    assert_eq!(metrics, sharded_metrics);
}

#[test]
fn a_shared_tree_keeps_the_run_serial() {
    // Without replication every socket loads the one base CR3.
    let case = gups_case(false, true);
    let (plan, metrics) = plan_of(&case, &PhaseSchedule::new(), |_| {});
    assert_eq!(plan, RunPlan::Serial(SerialReason::SharedTree));
    assert!(metrics.mmu.walk.remote_dram_accesses > 0);
}

#[test]
fn an_unmapped_region_keeps_the_run_serial() {
    // Lazily mapped and never populated: every first touch demand-faults.
    let case = gups_case(true, false);
    let (plan, metrics) = plan_of(&case, &PhaseSchedule::new(), |_| {});
    assert_eq!(plan, RunPlan::Serial(SerialReason::FaultRisk));
    assert!(metrics.demand_faults > 0);
}

#[test]
fn a_replay_pool_worker_engine_never_shards() {
    let case = gups_case(true, true);
    let (plan, metrics) = plan_of(&case, &PhaseSchedule::new(), |engine| {
        engine.set_replay_worker(true)
    });
    assert_eq!(plan, RunPlan::Serial(SerialReason::ReplayWorker));
    let (_, sharded) = plan_of(&case, &PhaseSchedule::new(), |_| {});
    assert_eq!(metrics, sharded);
}

#[test]
fn the_proof_is_redone_when_the_tables_change() {
    // One engine, two runs: a clone of the prepared system shards, then a
    // clone whose region has a freshly remapped (lazy, unpopulated) hole
    // must not reuse that verdict — its stores started out identical.
    let case = gups_case(true, true);
    let mut engine = ExecutionEngine::new(&case.prepared.system);
    engine.set_live_workers(4);
    let mut first = case.prepared.clone();
    run_once(&mut engine, &case, &mut first).expect("first run");
    assert!(engine.last_plan().sharded());

    let mut holed = case.prepared.clone();
    let hole = holed.region.add(case.spec.footprint() / 2);
    holed
        .system
        .munmap(holed.pid, hole, 1 << 20)
        .expect("munmap hole");
    holed
        .system
        .mmap_at(holed.pid, hole, 1 << 20, MmapFlags::lazy().without_thp())
        .expect("remap hole");
    let metrics = run_once(&mut engine, &case, &mut holed).expect("holed run");
    assert_eq!(engine.last_plan(), RunPlan::Serial(SerialReason::FaultRisk));
    assert!(metrics.demand_faults > 0);

    // And an unchanged clone is sharded again.
    let mut again = case.prepared.clone();
    run_once(&mut engine, &case, &mut again).expect("third run");
    assert!(engine.last_plan().sharded());
}

/// A generated stream with one access replaced by an offset past the end
/// of the region.
struct StrayAccess {
    stream: AccessStream,
    position: u64,
    stray_at: Option<u64>,
    stray_offset: u64,
}

impl AccessSource for StrayAccess {
    fn next_access(&mut self) -> Access {
        let access = self.stream.next_access();
        let position = self.position;
        self.position += 1;
        if self.stray_at == Some(position) {
            Access {
                offset: self.stray_offset,
                is_write: false,
            }
        } else {
            access
        }
    }
}

#[test]
fn an_unforeseen_fault_in_a_shard_is_a_typed_error() {
    let case = gups_case(true, true);
    let mut run = case.prepared.clone();
    let mut engine = ExecutionEngine::new(&run.system);
    engine.set_live_workers(4);
    // Thread 2 strays 1 GiB past the region at its 5th access: the proof
    // covers the region only, and a sharded group cannot enter the kernel.
    let mut sources: Vec<StrayAccess> =
        ExecutionEngine::thread_streams(&case.spec, &case.params, case.threads.len())
            .into_iter()
            .enumerate()
            .map(|(thread, stream)| StrayAccess {
                stream,
                position: 0,
                stray_at: (thread == 2).then_some(5),
                stray_offset: case.spec.footprint() + (1 << 30),
            })
            .collect();
    let error = engine
        .run_with_sources_dynamic(
            &mut run.system,
            &mut run.mitosis,
            run.pid,
            &case.spec,
            run.region,
            &case.threads,
            case.params.accesses_per_thread,
            &mut sources,
            &PhaseSchedule::new(),
        )
        .expect_err("the stray access must not pass silently");
    assert!(engine.last_plan().sharded());
    assert_eq!(
        error,
        MitosisError::ShardedFault {
            thread: 2,
            access: 5
        }
    );
    assert!(error.to_string().contains("thread 2 faulted at access 5"));

    // The engine stays usable: a clean run on a fresh clone afterwards
    // still matches a fresh engine.
    engine.reset();
    let mut fresh_run = case.prepared.clone();
    let after = run_once(&mut engine, &case, &mut fresh_run).expect("clean run");
    let mut reference = case.prepared.clone();
    let expected = run_once(
        &mut ExecutionEngine::new(&reference.system),
        &case,
        &mut reference,
    )
    .expect("reference run");
    assert_eq!(after, expected);
}
