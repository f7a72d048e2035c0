//! Host-time benchmark of the Mitosis simulator: end-to-end metrics per
//! workload, and a per-crate layer ledger from a separate traced run.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ms-walk --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The run sets the workload up several times (reporting the median), then
//! runs measured jobs until `--seconds` have passed.  With `--trace 0` it
//! prints the end-to-end metrics; with `--trace 1` it interleaves measured
//! jobs with spans off and on and traced ledger jobs, prints the per-layer
//! metrics and writes the spans to `perfbench/out/spans-<workload>.jsonl`.
//! Human-readable lines come first; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! See `perfbench/README.md` for the metric definitions.

mod alloc;
mod checks;
mod ledger;
mod spans;
mod workload;

use alloc::AllocCount;
use checks::SimOutput;
use spans::{SelfTime, Spans};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Job, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// A run sets up at least `MIN_SETUPS` times, and keeps setting up until
/// `SETUP_BUDGET_S` seconds are spent or `MAX_SETUPS` are done; `setup_s`
/// is their median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 11;
const SETUP_BUDGET_S: f64 = 2.0;
/// Measured jobs a run makes even when `--seconds` is already spent;
/// `peak_rss_mib` is read once this many jobs have run, so it covers a
/// fixed amount of work whatever the run length.
const MIN_JOBS: usize = 3;
/// `wall_s` is the host time of one setup plus this many jobs.
const WALL_JOBS: f64 = 10.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workload::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {:?}",
            workload::NAMES
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it, and its
/// value, if that percentile lies above the median.
fn tail(values: &[f64]) -> Option<(usize, f64)> {
    let n = values.len();
    let percentile = (n.checked_sub(10)? * 100) / n;
    if percentile <= 50 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (percentile * n).div_ceil(100).max(1);
    Some((percentile, sorted[rank - 1]))
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Job counts and the run's correctness state.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// The first job that passed the workload's own checks: every later
    /// job must reproduce it exactly.
    first: Option<SimOutput>,
    self_test: Option<bool>,
}

impl Tally {
    fn record(
        &mut self,
        bench: &dyn Workload,
        result: Result<Job, String>,
        expected: Option<u64>,
    ) -> Option<Job> {
        self.attempted += 1;
        let job = self.fail_on(result)?;
        let checked = bench.check(&job).and_then(|()| {
            let first = *self.first.get_or_insert(job.out);
            self.self_test
                .get_or_insert_with(|| checks::self_test(&first));
            checks::check_repeat(&first, &job.out, expected)
        });
        // A job that fails its checks still ran: it counts as failed, and
        // its timing is kept.
        self.fail_on(checked);
        Some(job)
    }

    fn fail_on<T>(&mut self, result: Result<T, String>) -> Option<T> {
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: job {} failed: {e}", self.attempted);
                None
            }
        }
    }
}

/// Which kind of job a span's job id belongs to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum JobKind {
    Setup,
    Untraced,
    Traced,
    Ledger,
    /// A job that returned an error: its partial spans count nowhere.
    Failed,
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn ns_per_access(job: &Job) -> f64 {
    job.measured.as_nanos() as f64 / job.accesses as f64
}

fn run(args: &Args) -> Result<(), String> {
    let mut spans = Spans::new();
    spans.set_on(args.trace);
    let mut kinds: Vec<JobKind> = Vec::new();

    let mut setup_s = Vec::new();
    let mut setup_bytes = Vec::new();
    let mut bench: Option<Box<dyn Workload>> = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // Tear the previous setup down first, so setups never overlap.
        drop(bench.take());
        spans.set_job(kinds.len() as u32);
        kinds.push(JobKind::Setup);
        let before = AllocCount::now();
        let start = Instant::now();
        bench = Some(workload::setup(&args.workload, args.seed, &mut spans)?);
        setup_s.push(start.elapsed().as_secs_f64());
        setup_bytes.push(AllocCount::now().since(before).bytes as f64);
    }
    let mut bench = bench.expect("at least one setup ran");

    let expected = checks::committed(&args.workload, args.seed);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut tally = Tally::default();
    let mut untraced: Vec<Job> = Vec::new();
    let mut traced: Vec<Job> = Vec::new();
    let mut ledger_accesses = 0u64;
    let mut peak_rss = None;
    loop {
        let rounds: &[JobKind] = if args.trace {
            &[JobKind::Untraced, JobKind::Traced, JobKind::Ledger]
        } else {
            &[JobKind::Untraced]
        };
        for &kind in rounds {
            spans.set_on(args.trace && kind != JobKind::Untraced);
            spans.set_job(kinds.len() as u32);
            kinds.push(kind);
            let completed = if kind == JobKind::Ledger {
                let Some(first) = tally.first else {
                    kinds.pop();
                    continue;
                };
                tally.attempted += 1;
                let result = bench.ledger(&first, &mut spans);
                spans.close_all();
                tally
                    .fail_on(result)
                    .map(|accesses| ledger_accesses += accesses)
            } else {
                let result = bench.job(&mut spans);
                spans.close_all();
                tally
                    .record(bench.as_ref(), result, expected)
                    .map(|job| match kind {
                        JobKind::Traced => traced.push(job),
                        _ => untraced.push(job),
                    })
            };
            if completed.is_none() {
                *kinds.last_mut().expect("pushed above") = JobKind::Failed;
            }
        }
        if peak_rss.is_none() && tally.attempted >= MIN_JOBS as u64 {
            peak_rss = Some(peak_rss_mib()?);
        }
        if Instant::now() >= deadline && tally.attempted >= MIN_JOBS as u64 {
            break;
        }
    }
    if untraced.is_empty() || (args.trace && (traced.is_empty() || ledger_accesses == 0)) {
        return Err(format!(
            "no measured job completed ({} of {} failed)",
            tally.failed, tally.attempted
        ));
    }
    let first = tally.first.unwrap_or(untraced[0].out);
    let correct = tally.failed == 0 && tally.self_test == Some(true);

    let mut report = Vec::new();
    let metrics = if args.trace {
        let footprint = bench.footprint(&mut spans)?;
        let ledger = Ledger {
            spans: &spans,
            kinds: &kinds,
            ledger_accesses,
        };
        let metrics = ledger.metrics(
            bench.as_ref(),
            &first,
            &untraced,
            &traced,
            &setup_bytes,
            footprint,
        );
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}.jsonl", args.workload));
        spans.write_jsonl(&path).map_err(|e| e.to_string())?;
        report.push(format!("spans written to {}", path.display()));
        metrics
    } else {
        let ns: Vec<f64> = untraced.iter().map(ns_per_access).collect();
        let setup = median(&setup_s);
        let job_wall: Vec<f64> = untraced.iter().map(|j| j.wall.as_secs_f64()).collect();
        report.push(format!(
            "measured_ns_per_access: median of {} jobs; {}",
            ns.len(),
            match tail(&ns) {
                Some((p, value)) => format!("p{p} = {value:.1} ns (ten or more jobs beyond it)"),
                None => "too few jobs for a tail percentile above the median".into(),
            }
        ));
        report.push(format!("per-job ns/access: {ns:.1?}"));
        report.push(format!(
            "setups: {setup_s:.3?} s; failed_share = {}",
            tally.failed as f64 / tally.attempted as f64
        ));
        vec![
            Metric {
                name: "measured_ns_per_access",
                value: median(&ns),
                unit: "ns",
            },
            Metric {
                name: "setup_s",
                value: setup,
                unit: "s",
            },
            Metric {
                name: "wall_s",
                value: setup + WALL_JOBS * median(&job_wall),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mib",
                value: peak_rss.expect("read after the first jobs"),
                unit: "MiB",
            },
            Metric {
                name: "success_share",
                value: (tally.attempted - tally.failed) as f64 / tally.attempted as f64,
                unit: "share",
            },
        ]
    };

    println!(
        "perfbench {} seed {} ({}): {} jobs attempted, {} failed, self-test {}",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        tally.attempted,
        tally.failed,
        if tally.self_test == Some(true) {
            "ok"
        } else {
            "FAILED"
        }
    );
    println!(
        "  simulated-output fingerprint: {} {} {:016x} ({})",
        args.workload,
        args.seed,
        first.fingerprint(),
        match expected {
            Some(want) if want == first.fingerprint() => "matches the committed one",
            Some(_) => "DIFFERS from the committed one",
            None => "no committed fingerprint for this seed",
        }
    );
    for line in &report {
        println!("  {line}");
    }
    for metric in &metrics {
        println!("  {} = {} {}", metric.name, metric.value, metric.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    Ok(())
}

/// Per-layer metrics derived from the traced run's spans.
struct Ledger<'a> {
    spans: &'a Spans,
    kinds: &'a [JobKind],
    /// Simulated accesses re-executed by all ledger jobs together.
    ledger_accesses: u64,
}

/// The spans of one traced re-execution of the measured phase; the
/// residual is the engine's time per access minus theirs.
const MIRROR_SPANS: [&str; 9] = [
    "workloads.next_access",
    "trace.cursor",
    "mmu.access",
    "vmm.fault",
    "mmu.apply_shootdown",
    "vmm.fork",
    "vmm.mmap",
    "core.migrate_pt",
    "core.set_replicas",
];

impl Ledger<'_> {
    fn times(&self, kinds: &[JobKind]) -> BTreeMap<&'static str, SelfTime> {
        self.spans
            .self_times(|job| kinds.contains(&self.kinds[job as usize]))
    }

    fn count(&self, kind: JobKind) -> f64 {
        self.kinds.iter().filter(|k| **k == kind).count() as f64
    }

    #[allow(clippy::too_many_arguments)]
    fn metrics(
        &self,
        bench: &dyn Workload,
        first: &SimOutput,
        untraced: &[Job],
        traced: &[Job],
        setup_bytes: &[f64],
        (table_bytes, data_bytes): (u64, u64),
    ) -> Vec<Metric> {
        let setup = self.times(&[JobKind::Setup]);
        let ledger = self.times(&[JobKind::Ledger]);
        let measured = self.times(&[JobKind::Traced, JobKind::Ledger]);
        let all: Vec<&Job> = untraced.iter().chain(traced).collect();
        let ledger_jobs = self.count(JobKind::Ledger);
        let accesses = self.ledger_accesses as f64;

        let ns = |map: &BTreeMap<&str, SelfTime>, name: &str| map.get(name).map_or(0, |t| t.ns);
        let per_access = |name: &str| ns(&ledger, name) as f64 / accesses;
        let per_call = |map: &BTreeMap<&str, SelfTime>, name: &str| {
            map.get(name).map_or(0.0, |t| t.ns as f64 / t.calls as f64)
        };
        let per_ledger_job_s = |name: &str| ns(&ledger, name) as f64 / ledger_jobs / 1e9;
        let job_median =
            |f: &dyn Fn(&Job) -> f64| median(&all.iter().map(|j| f(j)).collect::<Vec<_>>());
        let split = |f: &dyn Fn(&workload::SessionSplit) -> f64| {
            job_median(&|j: &Job| j.session.as_ref().map_or(0.0, f))
        };

        // The engine per access: the grouped replay's serial counterpart in
        // the ledger jobs (thp-replay), else the traced measured jobs.
        let engine_ns = if ledger.contains_key("sim.engine") {
            per_access("sim.engine")
        } else {
            let engine_accesses: u64 = traced.iter().map(|j| j.accesses).sum();
            ns(&measured, "sim.engine") as f64 / engine_accesses as f64
        };
        let mirrored: f64 = MIRROR_SPANS.iter().map(|name| per_access(name)).sum();
        let tlb = ns(&ledger, "mmu.tlb");
        let m = &first.metrics;
        let mmu = &m.mmu;
        let walk_ns = if tlb > 0 && mmu.walk.walks > 0 {
            (ns(&ledger, "mmu.access") as f64 - tlb as f64) / (mmu.walk.walks as f64 * ledger_jobs)
        } else {
            0.0
        };
        let ratio = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                part as f64 / whole as f64
            }
        };
        let (bytes_per_access, prepare, threads_spawned) = bench.session_facts();
        let ns_untraced = median(&untraced.iter().map(ns_per_access).collect::<Vec<_>>());
        let ns_traced = median(&traced.iter().map(ns_per_access).collect::<Vec<_>>());

        let metric = |name, value, unit| Metric { name, value, unit };
        vec![
            metric(
                "workloads.next_access_ns",
                per_access("workloads.next_access"),
                "ns",
            ),
            metric("trace.cursor_ns", per_access("trace.cursor"), "ns"),
            metric(
                "trace.capture_s",
                per_call(&setup, "trace.capture") / 1e9,
                "s",
            ),
            metric(
                "trace.encode_s",
                per_call(&setup, "trace.encode") / 1e9,
                "s",
            ),
            metric(
                "trace.decode_s",
                per_call(&setup, "trace.decode") / 1e9,
                "s",
            ),
            metric("trace.bytes_per_access", bytes_per_access, "B"),
            metric("session.prepare_s", prepare.as_secs_f64(), "s"),
            metric("session.clone_s", split(&|s| s.clone.as_secs_f64()), "s"),
            metric(
                "session.measured_s",
                split(&|s| s.measured.as_secs_f64()),
                "s",
            ),
            metric(
                "session.dispatch_s",
                split(&|s| s.dispatch.as_secs_f64()),
                "s",
            ),
            metric(
                "session.sharded",
                all.iter()
                    .filter(|j| j.session.is_some_and(|s| s.sharded))
                    .count() as f64,
                "count",
            ),
            metric("session.threads_spawned", threads_spawned as f64, "count"),
            metric(
                "session.failures",
                all.iter()
                    .map(|j| j.session.map_or(0, |s| s.failures))
                    .sum::<usize>() as f64,
                "count",
            ),
            metric(
                "sim.populate_s",
                per_call(&setup, "sim.populate") / 1e9,
                "s",
            ),
            metric(
                "sim.snapshot_clone_s",
                per_call(&measured, "sim.snapshot_clone") / 1e9,
                "s",
            ),
            metric("sim.engine_ns", engine_ns, "ns"),
            metric("sim.residual_ns", engine_ns - mirrored, "ns"),
            metric("mmu.tlb_ns", per_access("mmu.tlb"), "ns"),
            metric("mmu.access_ns", per_access("mmu.access"), "ns"),
            metric("mmu.walk_ns", walk_ns, "ns"),
            metric(
                "mmu.apply_shootdown_ns",
                per_call(&ledger, "mmu.apply_shootdown"),
                "ns",
            ),
            metric("vmm.fault_ns", per_call(&ledger, "vmm.fault"), "ns"),
            metric("vmm.fork_s", per_ledger_job_s("vmm.fork"), "s"),
            metric("vmm.mmap_s", per_ledger_job_s("vmm.mmap"), "s"),
            metric(
                "core.replicate_s",
                per_call(&setup, "core.replicate") / 1e9,
                "s",
            ),
            metric(
                "core.migrate_pt_s",
                per_ledger_job_s("core.migrate_pt"),
                "s",
            ),
            metric(
                "core.set_replicas_s",
                per_ledger_job_s("core.set_replicas"),
                "s",
            ),
            metric(
                "host.allocs_measured",
                job_median(&|j: &Job| j.allocs.allocs as f64),
                "count",
            ),
            metric(
                "host.alloc_bytes_measured",
                job_median(&|j: &Job| j.allocs.bytes as f64),
                "B",
            ),
            metric("host.alloc_bytes_setup", median(setup_bytes), "B"),
            metric(
                "mmu.tlb_l1_hit_ratio",
                ratio(mmu.tlb_l1_hits, mmu.accesses),
                "ratio",
            ),
            metric(
                "mmu.tlb_l2_hit_ratio",
                ratio(mmu.tlb_l2_hits, mmu.accesses),
                "ratio",
            ),
            metric(
                "mmu.walks_per_kaccess",
                1000.0 * ratio(mmu.walk.walks, m.accesses),
                "count",
            ),
            metric(
                "mmu.levels_per_walk",
                ratio(mmu.walk.levels_accessed, mmu.walk.walks),
                "count",
            ),
            metric(
                "mmu.pte_cache_hit_ratio",
                ratio(mmu.walk.pte_cache_hits, mmu.walk.total_reads()),
                "ratio",
            ),
            metric(
                "mmu.remote_walk_fraction",
                mmu.walk.remote_dram_fraction(),
                "ratio",
            ),
            metric("sim.cycles_per_access", m.cycles_per_access(), "cycles"),
            metric("sim.walk_cycle_fraction", m.walk_cycle_fraction(), "ratio"),
            metric("sim.demand_faults", m.demand_faults as f64, "count"),
            metric(
                "shootdown.full_flushes",
                first.shootdowns.full_flushes as f64,
                "count",
            ),
            metric(
                "shootdown.ranged_ranges",
                first.shootdowns.ranged_ranges as f64,
                "count",
            ),
            metric(
                "shootdown.entries_invalidated",
                first.shootdowns.entries_invalidated as f64,
                "count",
            ),
            metric("pt.table_bytes", table_bytes as f64, "B"),
            metric("mem.data_bytes", data_bytes as f64, "B"),
            metric(
                "tracing.overhead_ns_per_access",
                ns_traced - ns_untraced,
                "ns",
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&values), None);
        let values: Vec<f64> = (1..=40).map(f64::from).collect();
        // 40 jobs: the 75th percentile has exactly ten beyond it.
        assert_eq!(tail(&values), Some((75, 30.0)));
    }
}
