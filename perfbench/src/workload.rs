//! The three workloads: how each is set up, what one measured job times,
//! and what its traced ledger job re-executes.
//!
//! Every job starts with empty simulated TLBs, paging-structure caches and
//! page-table-line caches, as in the figure harnesses.  `SimParams` are
//! always built with explicit access counts and seeds, never from the
//! environment.

use crate::alloc::AllocCount;
use crate::checks::{check_walks_local, SimOutput};
use crate::ledger::{mirror, tlb_pass, Cores, MirrorOutput};
use crate::spans::Spans;
use mitosis::Mitosis;
use mitosis_numa::{NodeMask, SocketId};
use mitosis_sim::{
    ExecutionEngine, MultiSocketConfig, PhaseChange, PhaseSchedule, PreparedSystem, RunMetrics,
    ShootdownStats, SimParams, ThreadPlacement,
};
use mitosis_trace::{
    capture_multisocket_scenario, prepare_replay, LaneCursor, ReplayOptions, ReplayRequest,
    ReplaySession, ReplaySnapshot, Trace,
};
use mitosis_vmm::{MmapFlags, System};
use mitosis_workloads::{suite, WorkloadSpec};
use std::time::{Duration, Instant};

/// Every workload runs on the paper's 4-socket testbed scaled down 128x.
const MACHINE_SCALE: u64 = 128;
/// `ms-walk`: accesses per thread, one thread on each of 4 sockets.
const MS_WALK_ACCESSES: u64 = 250_000;
/// `thp-replay`: accesses per lane, two lanes on each of 4 sockets.
const THP_REPLAY_ACCESSES: u64 = 500_000;
/// `fork-churn`: accesses per thread, one thread on each of 2 sockets.
const FORK_CHURN_ACCESSES: u64 = 100_000;
/// Lane-group workers of a `thp-replay` job.
const REPLAY_WORKERS: usize = 2;

/// The workload names the benchmark accepts.
pub const NAMES: [&str; 3] = ["ms-walk", "thp-replay", "fork-churn"];

/// Host-time split of one `ReplaySession::replay` call, from its report.
#[derive(Debug, Clone, Copy)]
pub struct SessionSplit {
    /// Snapshot clones summed over lane groups.
    pub clone: Duration,
    /// Fan-out phase: dispatch to the pool, group replays, merge.
    pub measured: Duration,
    /// The rest of the call: request validation, snapshot-cache
    /// verification and the shard decision.
    pub dispatch: Duration,
    pub sharded: bool,
    pub failures: usize,
}

/// One measured job.
#[derive(Debug, Clone)]
pub struct Job {
    pub out: SimOutput,
    /// Simulated accesses of the timed call.
    pub accesses: u64,
    /// The timed call: the engine run, or the whole `replay` call.
    pub measured: Duration,
    /// Clone, timed call and teardown.
    pub wall: Duration,
    /// Allocations made during the timed call (all threads).
    pub allocs: AllocCount,
    pub session: Option<SessionSplit>,
}

/// A set-up workload, ready to run jobs.
pub trait Workload {
    /// Runs one measured job.
    fn job(&mut self, spans: &mut Spans) -> Result<Job, String>;
    /// Workload-specific output checks of one job.
    fn check(&self, job: &Job) -> Result<(), String>;
    /// Runs one traced ledger job and checks it against `reference`, the
    /// output of a measured job.  Returns the simulated accesses it
    /// re-executed.
    fn ledger(&mut self, reference: &SimOutput, spans: &mut Spans) -> Result<u64, String>;
    /// Page-table and data bytes of the prepared system.
    fn footprint(&mut self, spans: &mut Spans) -> Result<(u64, u64), String>;
    /// Setup-only facts: trace bytes per access, the session's first
    /// `setup_wall`, and the worker threads it has spawned.
    fn session_facts(&self) -> (f64, Duration, usize) {
        (0.0, Duration::ZERO, 0)
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn params(seed: u64, accesses: u64) -> SimParams {
    SimParams::quick_test()
        .with_machine_scale(MACHINE_SCALE)
        .with_accesses(accesses)
        .with_seed(seed)
}

/// Sets `kind` up for `seed`.
pub fn setup(kind: &str, seed: u64, spans: &mut Spans) -> Result<Box<dyn Workload>, String> {
    match kind {
        "ms-walk" => ms_walk(seed, spans).map(|w| Box::new(w) as Box<dyn Workload>),
        "thp-replay" => ReplayBench::setup(seed, spans).map(|w| Box::new(w) as Box<dyn Workload>),
        "fork-churn" => fork_churn(seed, spans).map(|w| Box::new(w) as Box<dyn Workload>),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {NAMES:?}"
        )),
    }
}

/// A workload whose job is one engine run from a `PreparedSystem` clone
/// over live `AccessStream`s.
pub struct EngineBench {
    params: SimParams,
    spec: WorkloadSpec,
    prepared: PreparedSystem,
    threads: Vec<ThreadPlacement>,
    schedule: PhaseSchedule,
    engine: ExecutionEngine,
    /// Created by the first ledger job.
    cores: Option<Cores>,
    /// Whether every walker DRAM read must be local (full replication).
    local_walks: bool,
}

/// Builds the Mitosis system, maps and populates the workload's region
/// from `sockets`, and replicates its page tables onto `replicas`.
fn prepare(
    spec: &WorkloadSpec,
    params: &SimParams,
    sockets: &[SocketId],
    replicas: NodeMask,
    spans: &mut Spans,
) -> Result<(PreparedSystem, WorkloadSpec), String> {
    let mut mitosis = Mitosis::new();
    let mut system = mitosis.install(params.machine());
    system.set_shootdown_mode(params.shootdown_mode);
    let pid = system.create_process(sockets[0]).map_err(err)?;
    let scaled = params.scale_workload(spec);
    let region = system
        .mmap(pid, scaled.footprint(), MmapFlags::lazy())
        .map_err(err)?;
    let span = spans.open("sim.populate");
    ExecutionEngine::populate(
        &mut system,
        pid,
        region,
        scaled.footprint(),
        scaled.init(),
        sockets,
    )
    .map_err(err)?;
    spans.close(span);
    let span = spans.open("core.replicate");
    mitosis
        .enable_for_process(&mut system, pid, Some(replicas))
        .map_err(err)?;
    spans.close(span);
    let prepared = PreparedSystem {
        system,
        mitosis,
        pid,
        region,
    };
    Ok((prepared, scaled))
}

/// XSBench at 3.4 GiB in 4 KiB pages, first-touch parallel init, page
/// tables replicated on all 4 sockets (the paper's F+M), one thread per
/// socket.
fn ms_walk(seed: u64, spans: &mut Spans) -> Result<EngineBench, String> {
    let params = params(seed, MS_WALK_ACCESSES);
    let machine = params.machine();
    let sockets: Vec<SocketId> = machine.socket_ids().collect();
    let (prepared, spec) = prepare(
        &suite::xsbench(),
        &params,
        &sockets,
        machine.all_sockets(),
        spans,
    )?;
    let threads = ExecutionEngine::one_thread_per_socket(&prepared.system, &sockets);
    let engine = ExecutionEngine::new(&prepared.system);
    Ok(EngineBench {
        params,
        spec,
        prepared,
        threads,
        schedule: PhaseSchedule::new(),
        engine,
        cores: None,
        local_walks: true,
    })
}

/// GUPS at 512 MiB on sockets 0 and 1, replicated on both, ranged
/// shootdowns; the measured phase forks, migrates the page tables, drops
/// and restores the replicas, punches and remaps a hole, and forks again.
fn fork_churn(seed: u64, spans: &mut Spans) -> Result<EngineBench, String> {
    let params = params(seed, FORK_CHURN_ACCESSES).with_ranged_shootdowns();
    let sockets = [SocketId::new(0), SocketId::new(1)];
    let both = NodeMask::from_sockets(sockets);
    let (prepared, spec) = prepare(&suite::gups(), &params, &sockets, both, spans)?;
    let n = FORK_CHURN_ACCESSES;
    let hole = prepared.region.add(spec.footprint() / 4);
    let hole_len = spec.footprint() / 8;
    let schedule = PhaseSchedule::new()
        .at(n / 8, PhaseChange::Fork)
        .at(
            2 * n / 8,
            PhaseChange::MigratePageTable { target: sockets[1] },
        )
        .at(
            3 * n / 8,
            PhaseChange::SetReplicas {
                sockets: NodeMask::EMPTY,
            },
        )
        .at(4 * n / 8, PhaseChange::SetReplicas { sockets: both })
        .at(
            5 * n / 8,
            PhaseChange::MunmapAt {
                addr: hole,
                length: hole_len,
            },
        )
        .at(
            5 * n / 8,
            PhaseChange::MmapAt {
                addr: hole,
                length: hole_len,
            },
        )
        .at(6 * n / 8, PhaseChange::Fork);
    let threads = ExecutionEngine::one_thread_per_socket(&prepared.system, &sockets);
    let engine = ExecutionEngine::new(&prepared.system);
    Ok(EngineBench {
        params,
        spec,
        prepared,
        threads,
        schedule,
        engine,
        cores: None,
        local_walks: false,
    })
}

/// The same-stream proof: the traced re-execution must reproduce the
/// engine's `MmuStats` (summed over threads), demand faults and shootdown
/// work exactly.
fn check_mirror(reference: &SimOutput, mirrored: &MirrorOutput) -> Result<(), String> {
    let metrics = &reference.metrics;
    if mirrored.mmu != metrics.mmu
        || mirrored.demand_faults != metrics.demand_faults
        || mirrored.shootdowns != reference.shootdowns
    {
        return Err(format!(
            "traced re-execution diverged from the engine: {:?} / {} faults / {:?} vs {:?} / {} faults / {:?}",
            mirrored.mmu,
            mirrored.demand_faults,
            mirrored.shootdowns,
            metrics.mmu,
            metrics.demand_faults,
            reference.shootdowns
        ));
    }
    Ok(())
}

/// Times the TLB hierarchy alone on the translations the traced
/// re-execution recorded, and checks its hit counts against the engine's.
fn check_tlb_pass(
    cores: &Cores,
    asid: u16,
    metrics: &RunMetrics,
    spans: &mut Spans,
) -> Result<(), String> {
    let counts = tlb_pass(cores, asid, spans);
    let mmu = &metrics.mmu;
    if counts != [mmu.tlb_l1_hits, mmu.tlb_l2_hits, mmu.tlb_misses] {
        return Err(format!(
            "TLB-only pass {counts:?} disagrees with MmuStats {:?}",
            [mmu.tlb_l1_hits, mmu.tlb_l2_hits, mmu.tlb_misses]
        ));
    }
    Ok(())
}

impl Workload for EngineBench {
    fn job(&mut self, spans: &mut Spans) -> Result<Job, String> {
        let start = Instant::now();
        let span = spans.open("sim.snapshot_clone");
        let mut run = self.prepared.clone();
        spans.close(span);
        self.engine.reset();
        let mut streams =
            ExecutionEngine::thread_streams(&self.spec, &self.params, self.threads.len());
        let before = AllocCount::now();
        let span = spans.open("sim.engine");
        let timer = Instant::now();
        let metrics = self.engine.run_with_sources_dynamic(
            &mut run.system,
            &mut run.mitosis,
            run.pid,
            &self.spec,
            run.region,
            &self.threads,
            self.params.accesses_per_thread,
            &mut streams,
            &self.schedule,
        );
        let measured = timer.elapsed();
        spans.close(span);
        let allocs = AllocCount::now().since(before);
        let metrics = metrics.map_err(err)?;
        drop(run);
        Ok(Job {
            out: SimOutput {
                metrics,
                shootdowns: self.engine.last_shootdowns(),
            },
            accesses: metrics.accesses,
            measured,
            wall: start.elapsed(),
            allocs,
            session: None,
        })
    }

    fn check(&self, job: &Job) -> Result<(), String> {
        let expected = self.params.accesses_per_thread * self.threads.len() as u64;
        if job.out.metrics.accesses != expected {
            return Err(format!(
                "{} accesses simulated, {expected} expected",
                job.out.metrics.accesses
            ));
        }
        if self.local_walks {
            check_walks_local(&job.out.metrics)?;
        }
        Ok(())
    }

    fn ledger(&mut self, reference: &SimOutput, spans: &mut Spans) -> Result<u64, String> {
        let span = spans.open("sim.snapshot_clone");
        let mut run = self.prepared.clone();
        spans.close(span);
        let mut streams =
            ExecutionEngine::thread_streams(&self.spec, &self.params, self.threads.len());
        // Without mid-run mutations every translation is final, so the
        // TLB-only pass can replay them.
        let record = self.schedule.is_empty();
        let cores = self.cores.get_or_insert_with(|| {
            Cores::new(
                &self.prepared.system,
                &self.threads,
                self.params.accesses_per_thread,
                record,
            )
        });
        let mirrored = mirror(
            &mut run,
            cores,
            &self.threads,
            self.params.accesses_per_thread,
            &mut streams,
            &self.schedule,
            "workloads.next_access",
            spans,
        )?;
        check_mirror(reference, &mirrored)?;
        if record {
            check_tlb_pass(cores, System::asid_of(run.pid), &reference.metrics, spans)?;
        }
        Ok(reference.metrics.accesses)
    }

    fn footprint(&mut self, _spans: &mut Spans) -> Result<(u64, u64), String> {
        let footprint = self
            .prepared
            .system
            .footprint(self.prepared.pid)
            .map_err(err)?;
        Ok((footprint.total_pagetables(), footprint.total_data()))
    }
}

/// Memcached at 2.7 GiB with THP always, F+M, two threads per socket:
/// captured once, sent through the wire format, and replayed by one warm
/// `ReplaySession` per job.
pub struct ReplayBench {
    params: SimParams,
    trace: Trace,
    live: RunMetrics,
    session: ReplaySession,
    request: ReplayRequest,
    first_setup_wall: Duration,
    bytes_per_access: f64,
    /// Built on the first ledger job.
    replayer: Option<SerialReplay>,
}

/// What a `thp-replay` ledger job replays with: the prepared trace (the
/// serial engine run and the traced re-execution start from clones of
/// it), the lanes' thread placements, and the engine and cores.
struct SerialReplay {
    snapshot: ReplaySnapshot,
    threads: Vec<ThreadPlacement>,
    engine: ExecutionEngine,
    cores: Cores,
}

impl SerialReplay {
    /// The replayer in `slot`, prepared from `trace` on first use.
    fn get<'a>(
        slot: &'a mut Option<SerialReplay>,
        trace: &Trace,
        params: &SimParams,
        spans: &mut Spans,
    ) -> Result<&'a mut SerialReplay, String> {
        if slot.is_none() {
            let span = spans.open("session.prepare");
            let snapshot = prepare_replay(trace, params, ReplayOptions::new()).map_err(err)?;
            spans.close(span);
            let system = &snapshot.prepared().system;
            let sockets: Vec<SocketId> = system.machine().socket_ids().collect();
            let threads = ExecutionEngine::threads_for(system, &sockets, params.threads_per_socket);
            let engine = ExecutionEngine::new(system);
            let cores = Cores::new(system, &threads, params.accesses_per_thread, true);
            *slot = Some(SerialReplay {
                snapshot,
                threads,
                engine,
                cores,
            });
        }
        Ok(slot.as_mut().expect("prepared above"))
    }
}

impl ReplayBench {
    fn setup(seed: u64, spans: &mut Spans) -> Result<ReplayBench, String> {
        let params = params(seed, THP_REPLAY_ACCESSES).with_threads_per_socket(2);
        let span = spans.open("trace.capture");
        let captured = capture_multisocket_scenario(
            &suite::memcached(),
            MultiSocketConfig::first_touch().with_thp().with_mitosis(),
            &params,
        )
        .map_err(err)?;
        spans.close(span);
        let span = spans.open("trace.encode");
        let bytes = captured.trace.to_bytes().map_err(err)?;
        spans.close(span);
        let span = spans.open("trace.decode");
        let trace = Trace::from_bytes(&bytes).map_err(err)?;
        spans.close(span);
        if trace != captured.trace {
            return Err("decoded trace differs from the captured trace".into());
        }
        let bytes_per_access = bytes.len() as f64 / trace.accesses() as f64;
        drop(bytes);

        let mut session = ReplaySession::new(&params);
        let request = ReplayRequest::new().grouped(REPLAY_WORKERS);
        // The first request prepares the snapshot and spawns the pool;
        // every measured job then replays on the warm session.
        let span = spans.open("session.replay");
        let first = session.replay(&trace, &request).map_err(err)?;
        spans.close(span);
        if first.outcome.metrics != captured.live_metrics {
            return Err("first replay differs from the live capture".into());
        }
        Ok(ReplayBench {
            params,
            trace,
            live: captured.live_metrics,
            session,
            request,
            first_setup_wall: first.setup_wall,
            bytes_per_access,
            replayer: None,
        })
    }
}

fn lane_cursors(trace: &Trace) -> Vec<LaneCursor<'_>> {
    trace
        .lanes
        .iter()
        .map(|lane| LaneCursor::new(&lane.accesses))
        .collect()
}

impl Workload for ReplayBench {
    fn job(&mut self, spans: &mut Spans) -> Result<Job, String> {
        let before = AllocCount::now();
        let span = spans.open("session.replay");
        let timer = Instant::now();
        let report = self.session.replay(&self.trace, &self.request);
        let measured = timer.elapsed();
        spans.close(span);
        let allocs = AllocCount::now().since(before);
        let report = report.map_err(err)?;
        let clone = report.outcome.setup_wall.saturating_sub(report.setup_wall);
        let dispatch = report
            .wall
            .saturating_sub(report.setup_wall)
            .saturating_sub(report.measured_wall);
        Ok(Job {
            out: SimOutput {
                metrics: report.outcome.metrics,
                shootdowns: ShootdownStats::default(),
            },
            accesses: report.outcome.metrics.accesses,
            measured,
            wall: measured,
            allocs,
            session: Some(SessionSplit {
                clone,
                measured: report.measured_wall,
                dispatch,
                sharded: report.decision == mitosis_trace::ShardDecision::Sharded,
                failures: report.failures.len(),
            }),
        })
    }

    fn check(&self, job: &Job) -> Result<(), String> {
        if job.out.metrics != self.live {
            return Err("replayed metrics differ from the live capture".into());
        }
        match job.session {
            Some(split) if split.sharded && split.failures == 0 => {}
            other => return Err(format!("replay was not a clean shard: {other:?}")),
        }
        check_walks_local(&job.out.metrics)
    }

    fn ledger(&mut self, reference: &SimOutput, spans: &mut Spans) -> Result<u64, String> {
        let SerialReplay {
            snapshot,
            threads,
            engine,
            cores,
        } = SerialReplay::get(&mut self.replayer, &self.trace, &self.params, spans)?;

        // The serial engine over the same lanes: the ledger's `sim.engine`.
        let span = spans.open("sim.snapshot_clone");
        let mut run = snapshot.prepared().clone();
        spans.close(span);
        engine.reset();
        let mut cursors = lane_cursors(&self.trace);
        let span = spans.open("sim.engine");
        let metrics = engine
            .run_with_sources_dynamic(
                &mut run.system,
                &mut run.mitosis,
                run.pid,
                snapshot.spec(),
                run.region,
                threads,
                self.params.accesses_per_thread,
                &mut cursors,
                &PhaseSchedule::new(),
            )
            .map_err(err)?;
        spans.close(span);
        drop(run);
        if metrics != reference.metrics {
            return Err("serial engine replay differs from the grouped replay".into());
        }

        let span = spans.open("sim.snapshot_clone");
        let mut run = snapshot.prepared().clone();
        spans.close(span);
        let mut cursors = lane_cursors(&self.trace);
        let mirrored = mirror(
            &mut run,
            cores,
            threads,
            self.params.accesses_per_thread,
            &mut cursors,
            &PhaseSchedule::new(),
            "trace.cursor",
            spans,
        )?;
        check_mirror(reference, &mirrored)?;
        check_tlb_pass(cores, System::asid_of(run.pid), &reference.metrics, spans)?;
        Ok(reference.metrics.accesses)
    }

    fn footprint(&mut self, spans: &mut Spans) -> Result<(u64, u64), String> {
        let replayer = SerialReplay::get(&mut self.replayer, &self.trace, &self.params, spans)?;
        let prepared = replayer.snapshot.prepared();
        let footprint = prepared.system.footprint(prepared.pid).map_err(err)?;
        Ok((footprint.total_pagetables(), footprint.total_data()))
    }

    fn session_facts(&self) -> (f64, Duration, usize) {
        (
            self.bytes_per_access,
            self.first_setup_wall,
            self.session.threads_spawned(),
        )
    }
}
