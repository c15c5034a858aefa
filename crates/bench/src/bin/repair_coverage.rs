//! Repair-coverage harness for the staged recovery engine: sweeps the
//! per-cycle token budget and reports, per budget, how the extended
//! outcome table shifts — repaired-and-verified errors, repair
//! failures, escapes, ladder escalations, repair latency, and call
//! throughput. Shows the budget trade-off the engine exists to make:
//! small budgets stretch repairs over more cycles (higher latency,
//! still-graceful throughput) while large budgets close findings in
//! the cycle that flags them.
//!
//! ```sh
//! cargo run --release -p wtnc-bench --bin repair_coverage
//! ```

use wtnc::inject::recovery_campaign::{run_campaign, RecoveryCampaignConfig};
use wtnc::inject::RunOutcome;
use wtnc::recovery::RecoveryConfig;
use wtnc::sim::SimDuration;
use wtnc_bench::scaled_runs;

fn main() {
    let runs = scaled_runs(5);
    println!("Repair coverage vs per-cycle budget ({runs} runs per point)\n");
    println!(
        "{:>6} {:>9} {:>9} {:>8} {:>8} {:>11} {:>12} {:>7}",
        "budget", "repaired", "failed", "escaped", "escal.", "latency (s)", "coverage (%)", "calls"
    );
    for budget in [2u32, 4, 8, 16, 32, 64, 128] {
        let config = RecoveryCampaignConfig {
            duration: SimDuration::from_secs(1_000),
            error_iat: SimDuration::from_secs(5),
            recovery: RecoveryConfig { cycle_budget: budget, ..RecoveryConfig::default() },
        };
        let r = run_campaign(&config, runs);
        println!(
            "{:>6} {:>9} {:>9} {:>8} {:>8} {:>11.2} {:>12.1} {:>7}",
            budget,
            r.outcomes.count(RunOutcome::DetectedRepaired),
            r.outcomes.count(RunOutcome::RepairFailed),
            r.outcomes.count(RunOutcome::FailSilenceViolation),
            r.escalations,
            r.repair_latency_s,
            r.outcomes.coverage(),
            r.calls,
        );
    }
}
