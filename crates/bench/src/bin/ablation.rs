//! Quality ablation of the prioritized-audit weights (DESIGN.md §4):
//! each importance term of §4.4.1 — access frequency, object nature,
//! error history — is disabled in turn, and the resulting
//! escaped-error percentage is compared against the full scheduler
//! and the round-robin baseline. A second table times the decision
//! itself: the prioritized scheduler's table ranking against plain
//! round-robin, per `next_table` call, across database sizes.
//!
//! ```sh
//! cargo run --release -p wtnc-bench --bin ablation
//! ```

use std::time::Instant;

use wtnc::audit::{AuditScheduler, PriorityScheduler, PriorityWeights, RoundRobinScheduler};
use wtnc::db::{schema, Database};
use wtnc::inject::priority_campaign::{run_once_with_weights, PriorityCampaignConfig, SEED};
use wtnc::sim::{SimDuration, SimRng};
use wtnc_bench::scaled_runs;

fn campaign(
    config: &PriorityCampaignConfig,
    weights: Option<PriorityWeights>,
    runs: usize,
) -> (f64, f64) {
    let mut rng = SimRng::seed_from(SEED);
    let mut injected = 0u64;
    let mut escaped = 0u64;
    let mut latency = wtnc::sim::stats::Accumulator::new();
    for _ in 0..runs {
        let r = run_once_with_weights(config, weights, rng.bits());
        injected += r.injected;
        escaped += r.escaped;
        if r.caught > 0 {
            latency.push(r.detection_latency_s);
        }
    }
    (100.0 * escaped as f64 / injected.max(1) as f64, latency.mean())
}

/// Best-of-3 nanoseconds per `next_table` decision over `db`.
fn decision_ns(scheduler: &mut dyn AuditScheduler, db: &Database) -> f64 {
    const REPS: u32 = 100_000;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..REPS {
            std::hint::black_box(scheduler.next_table(std::hint::black_box(db)));
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best * 1e9 / f64::from(REPS)
}

fn main() {
    let runs = scaled_runs(8);
    let config = PriorityCampaignConfig {
        proportional_errors: true,
        mtbf: SimDuration::from_secs(2),
        duration: SimDuration::from_secs(300),
        ..PriorityCampaignConfig::default()
    };
    println!("prioritized-audit weight ablation ({runs} runs each, proportional errors)\n");
    println!("{:<34} {:>12} {:>16}", "scheduler", "escaped %", "latency (s)");
    println!("{}", "-".repeat(64));

    let full = PriorityWeights::default();
    let cases: Vec<(&str, Option<PriorityWeights>)> = vec![
        ("round-robin baseline", None),
        ("full weights (paper §4.4.1)", Some(full)),
        ("no access-frequency term", Some(PriorityWeights { access: 0.0, ..full })),
        ("no object-nature term", Some(PriorityWeights { nature: 0.0, ..full })),
        ("no error-history term", Some(PriorityWeights { errors: 0.0, ..full })),
    ];
    for (name, weights) in cases {
        let (escaped, latency) = campaign(&config, weights, runs);
        println!("{name:<34} {escaped:>11.2}% {latency:>15.2}");
    }
    println!(
        "\nexpectation: the full scheduler escapes least; dropping the access-frequency term \
         hurts most under activity-correlated errors"
    );

    println!("\nscheduler decision cost (ns per next_table call, best of 3)\n");
    println!("{:>6} {:>14} {:>14} {:>10}", "scale", "round-robin", "prioritized", "ratio");
    for scale in [1u32, 8, 32] {
        let db = Database::build(schema::six_table_schema(scale)).expect("six-table schema");
        let rr = decision_ns(&mut RoundRobinScheduler::new(), &db);
        let pri = decision_ns(&mut PriorityScheduler::new(full), &db);
        println!("{scale:>6} {rr:>14.1} {pri:>14.1} {:>9.1}x", pri / rr.max(1e-3));
    }
}
