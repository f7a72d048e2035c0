//! Shared helpers for the figure and table harnesses.
//!
//! Each benchmark target in `benches/` regenerates one figure or table of
//! the Mitosis paper.  The targets are ordinary `main` programs
//! (`harness = false`) that print a text version of the figure, except for
//! the micro-benchmarks which use Criterion.
//!
//! Run a single harness with, for example:
//!
//! ```text
//! cargo bench -p mitosis-bench --bench fig09_multisocket
//! ```
//!
//! The `MITOSIS_SIM_ACCESSES` environment variable scales the measured
//! access count (default 60 000 per thread) to trade precision for run time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mitosis_sim::{NormalizedRow, ScenarioResult, SimParams};

/// Parameters used by all figure harnesses.
pub fn harness_params() -> SimParams {
    SimParams::new()
}

/// Prints the standard harness header for one figure/table.
pub fn print_header(id: &str, title: &str) {
    println!();
    println!("=================================================================");
    println!("{id}: {title}");
    println!("=================================================================");
}

/// Prints a normalized-runtime table in the paper's bar-chart layout.
pub fn print_normalized(workload: &str, rows: &[NormalizedRow]) {
    println!("\n--- {workload} ---");
    println!(
        "{:<24} {:>18} {:>15}",
        "config", "normalized runtime", "walk fraction"
    );
    for row in rows {
        println!(
            "{:<24} {:>18.3} {:>14.1}%",
            row.label,
            row.normalized_runtime,
            row.walk_fraction * 100.0
        );
    }
}

/// Prints the per-socket remote-leaf-PTE percentages (Figures 1 and 4).
pub fn print_remote_leaf_fractions(result: &ScenarioResult) {
    let cells: Vec<String> = result
        .remote_leaf_fractions
        .iter()
        .enumerate()
        .map(|(s, f)| format!("socket{}: {:>5.1}%", s, f * 100.0))
        .collect();
    println!("{:<24} {}", result.label, cells.join("  "));
}

/// Prints the speedup annotation the paper places above Mitosis bars.
pub fn print_speedup(label: &str, baseline_cycles: u64, mitosis_cycles: u64) {
    if mitosis_cycles == 0 {
        return;
    }
    println!(
        "{:<24} speedup with Mitosis: {:.2}x",
        label,
        baseline_cycles as f64 / mitosis_cycles as f64
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_params_use_the_paper_machine() {
        let params = harness_params();
        assert_eq!(params.machine().sockets(), 4);
    }

    #[test]
    fn printing_helpers_do_not_panic() {
        print_header("Figure 0", "smoke test");
        print_normalized(
            "GUPS",
            &[NormalizedRow {
                label: "LP-LD".into(),
                normalized_runtime: 1.0,
                walk_fraction: 0.5,
            }],
        );
        print_speedup("GUPS", 200, 100);
        print_speedup("GUPS", 200, 0);
    }
}
