//! Output checks.  The simulated statistics are outputs to check, not
//! metrics to improve: a perf change must leave every one of them
//! bit-identical.  A failed check fails the job it was made on.

use mitosis_mmu::MmuStats;
use mitosis_sim::{RunMetrics, ShootdownStats};

/// What one job produced on the simulated plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOutput {
    pub metrics: RunMetrics,
    pub shootdowns: ShootdownStats,
}

/// The committed fingerprints: `workload seed hex` per line.
const COMMITTED: &str = include_str!("../fingerprints.txt");

fn fnv1a(words: &[u64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

fn mmu_words(mmu: &MmuStats) -> [u64; 13] {
    let walk = &mmu.walk;
    [
        mmu.accesses,
        mmu.tlb_l1_hits,
        mmu.tlb_l2_hits,
        mmu.tlb_misses,
        mmu.translation_cycles,
        walk.walks,
        walk.faults,
        walk.walk_cycles,
        walk.levels_accessed,
        walk.local_dram_accesses,
        walk.remote_dram_accesses,
        walk.pte_cache_hits,
        walk.interfered_accesses,
    ]
}

impl SimOutput {
    /// Stable hash of every simulated field.
    pub fn fingerprint(&self) -> u64 {
        let m = &self.metrics;
        let mut words = vec![
            m.total_cycles,
            m.compute_cycles,
            m.data_cycles,
            m.translation_cycles,
            m.threads as u64,
            m.accesses,
            m.demand_faults,
            self.shootdowns.full_flushes,
            self.shootdowns.ranged_ranges,
            self.shootdowns.entries_invalidated,
        ];
        words.extend(mmu_words(&m.mmu));
        fnv1a(&words)
    }
}

/// The committed fingerprint of `workload` under `seed`, if any.
pub fn committed(workload: &str, seed: u64) -> Option<u64> {
    lookup(COMMITTED, workload, seed)
}

fn lookup(table: &str, workload: &str, seed: u64) -> Option<u64> {
    table
        .lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let mut fields = line.split_whitespace();
            let (name, s, hex) = (fields.next()?, fields.next()?, fields.next()?);
            (name == workload && s.parse::<u64>().ok()? == seed)
                .then(|| u64::from_str_radix(hex, 16).ok())
                .flatten()
        })
}

/// Checks a job's output against the run's first job and, when present,
/// the committed fingerprint.
pub fn check_repeat(
    first: &SimOutput,
    job: &SimOutput,
    expected: Option<u64>,
) -> Result<(), String> {
    if job != first {
        return Err(format!(
            "job output differs from the run's first job: {job:?} vs {first:?}"
        ));
    }
    match expected {
        Some(want) if job.fingerprint() != want => Err(format!(
            "fingerprint {:016x} != committed {want:016x}",
            job.fingerprint()
        )),
        _ => Ok(()),
    }
}

/// The Mitosis invariant: with replicated page tables every walker DRAM
/// read is served by the walking core's own socket.
pub fn check_walks_local(metrics: &RunMetrics) -> Result<(), String> {
    let walk = &metrics.mmu.walk;
    if walk.remote_dram_accesses != 0 || walk.local_dram_accesses == 0 {
        return Err(format!(
            "walker DRAM reads not 100% local: {} local, {} remote",
            walk.local_dram_accesses, walk.remote_dram_accesses
        ));
    }
    Ok(())
}

/// Negative self-test, run once per benchmark run on a real output: a
/// perturbed output and a perturbed expected fingerprint must both be
/// caught.  Returns `false` if either slips through.
pub fn self_test(output: &SimOutput) -> bool {
    let mut perturbed = *output;
    perturbed.metrics.total_cycles += 1;
    let wrong = output.fingerprint() ^ 1;
    check_repeat(output, output, Some(output.fingerprint())).is_ok()
        && check_repeat(output, &perturbed, None).is_err()
        && check_repeat(output, output, Some(wrong)).is_err()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output() -> SimOutput {
        let mut metrics = RunMetrics {
            total_cycles: 1000,
            accesses: 10,
            threads: 1,
            ..RunMetrics::default()
        };
        metrics.mmu.walk.local_dram_accesses = 4;
        SimOutput {
            metrics,
            shootdowns: ShootdownStats::default(),
        }
    }

    #[test]
    fn perturbed_outputs_and_fingerprints_are_caught() {
        let out = output();
        assert!(self_test(&out));
        let mut remote = out.metrics;
        remote.mmu.walk.remote_dram_accesses = 1;
        assert!(check_walks_local(&out.metrics).is_ok());
        assert!(check_walks_local(&remote).is_err());
    }

    #[test]
    fn fingerprint_table_parses() {
        let table = "ms-walk 1 00000000000000ff\nfork-churn 1 10\n";
        assert_eq!(lookup(table, "ms-walk", 1), Some(0xff));
        assert_eq!(lookup(table, "fork-churn", 1), Some(0x10));
        assert_eq!(lookup(table, "ms-walk", 2), None);
        for line in COMMITTED.lines().filter(|line| !line.starts_with('#')) {
            assert_eq!(line.split_whitespace().count(), 3, "bad line {line:?}");
        }
    }
}
