//! Injection campaign driving the staged recovery engine.
//!
//! The database campaign (§5.1) lets each audit element repair inline.
//! This harness runs the same workload and error process with the
//! audit subsystem in *detect-only* mode and the [`RecoveryEngine`]
//! consuming the flagged findings: repairs execute under a per-cycle
//! token budget, escalate along the ladder when verification fails,
//! and every successful repair is verified by re-running the
//! originating audit element. Each injected error is classified into
//! the extended outcome table ([`RunOutcome::DetectedRepaired`],
//! [`RunOutcome::RepairFailed`]), and the engine's busy time stalls
//! call arrivals — which is how the per-cycle budget translates into
//! graceful (rather than total) throughput degradation under a
//! corruption storm.

use serde::{Deserialize, Serialize};
use wtnc_audit::AuditConfig;
use wtnc_callproc::{CallHandle, DesClient, WorkloadConfig};
use wtnc_db::{schema, TaintFate};
use wtnc_recovery::{RecoveryConfig, RecoveryEngine, RepairLogEntry, RepairOutcome, TOKEN_TIME};
use wtnc_sim::stats::Accumulator;
use wtnc_sim::{EventQueue, SimDuration, SimRng, SimTime};

use crate::outcome::{OutcomeCounts, RunOutcome};
use crate::Controller;

/// Configuration of one recovery-campaign run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryCampaignConfig {
    /// Run length.
    pub duration: SimDuration,
    /// Mean error inter-arrival time (exponential).
    pub error_iat: SimDuration,
    /// Periodic audit interval.
    pub audit_period: SimDuration,
    /// Client workload parameters.
    pub workload: WorkloadConfig,
    /// Record slots per dynamic table.
    pub slots: u32,
    /// Engine configuration (cycle budget, recurrence escalation).
    pub recovery: RecoveryConfig,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for RecoveryCampaignConfig {
    fn default() -> Self {
        let workload = WorkloadConfig {
            interarrival_mean: SimDuration::from_secs(2),
            ..WorkloadConfig::default()
        };
        RecoveryCampaignConfig {
            duration: SimDuration::from_secs(2_000),
            error_iat: SimDuration::from_secs(20),
            audit_period: SimDuration::from_secs(10),
            workload,
            slots: 14,
            recovery: RecoveryConfig::default(),
            seed: 0x4EC0,
        }
    }
}

/// Result of one recovery-campaign run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RecoveryRunResult {
    /// Errors injected.
    pub injected: u64,
    /// Per-error outcome tally (extended Table 7).
    pub outcomes: OutcomeCounts,
    /// Repair attempts executed by the engine.
    pub attempted: u64,
    /// Repairs closed with a clean verification re-run.
    pub verified: u64,
    /// Repairs closed as failures at the top of the ladder.
    pub failed: u64,
    /// Ladder escalations.
    pub escalations: u64,
    /// Budget tokens spent.
    pub tokens_spent: u64,
    /// Controller restarts executed by the top rung.
    pub controller_restarts: u64,
    /// Mean repair latency (detection to closed finding), virtual
    /// seconds.
    pub repair_latency_s: f64,
    /// Controller busy time consumed by repairs, virtual seconds.
    pub repair_busy_s: f64,
    /// Calls whose setup completed.
    pub calls: u64,
    /// Mean call setup time in milliseconds.
    pub avg_setup_ms: f64,
    /// The engine's deterministic repair log (same seed → identical
    /// log).
    pub log: Vec<RepairLogEntry>,
}

/// Aggregated result of many runs.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RecoveryCampaignResult {
    /// Errors injected across all runs.
    pub injected: u64,
    /// Merged outcome tally.
    pub outcomes: OutcomeCounts,
    /// Repair attempts across all runs.
    pub attempted: u64,
    /// Verified repairs across all runs.
    pub verified: u64,
    /// Failed repairs across all runs.
    pub failed: u64,
    /// Escalations across all runs.
    pub escalations: u64,
    /// Tokens spent across all runs.
    pub tokens_spent: u64,
    /// Controller restarts across all runs.
    pub controller_restarts: u64,
    /// Mean of per-run mean repair latencies, virtual seconds.
    pub repair_latency_s: f64,
    /// Calls completed across all runs.
    pub calls: u64,
    /// Mean of per-run mean setup times, milliseconds.
    pub avg_setup_ms: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Arrival,
    Poll(CallHandle),
    End(CallHandle),
    AuditTick,
    Inject,
}

/// Runs one recovery-campaign run and returns its result.
pub fn run_once(config: &RecoveryCampaignConfig, seed: u64) -> RecoveryRunResult {
    let mut rng = SimRng::seed_from(seed);
    let mut c = Controller::new(schema::standard_schema_with_slots(config.slots))
        .expect("schema builds")
        .with_audit(AuditConfig {
            periodic_interval: config.audit_period,
            ..AuditConfig::default()
        })
        .with_recovery(config.recovery);
    let mut client = DesClient::new(config.workload, rng.bits(), true);

    let mut queue: EventQueue<Ev> = EventQueue::new();
    queue.schedule(SimTime::ZERO + client.next_arrival_gap(), Ev::Arrival);
    queue.schedule(SimTime::ZERO + rng.exponential(config.error_iat), Ev::Inject);
    queue.schedule(SimTime::ZERO + config.audit_period, Ev::AuditTick);

    let mut injected: u64 = 0;
    // Repairs consume controller time; arrivals stall (not drop) until
    // the engine's busy window has passed.
    let mut busy_until = SimTime::ZERO;
    let end_of_run = SimTime::ZERO + config.duration;

    while let Some(at) = queue.peek_time() {
        if at > end_of_run {
            break;
        }
        let (now, ev) = queue.pop().expect("peeked");
        match ev {
            Ev::Arrival => {
                if now < busy_until {
                    queue.schedule(busy_until, Ev::Arrival);
                    continue;
                }
                if let Some((handle, setup)) =
                    client.start_call(&mut c.db, &mut c.api, &mut c.registry, now)
                {
                    let call_duration = client.next_call_duration();
                    queue.schedule(now + setup + call_duration, Ev::End(handle));
                    queue.schedule(now + setup + client.config().poll_period, Ev::Poll(handle));
                }
                queue.schedule(now + client.next_arrival_gap(), Ev::Arrival);
            }
            Ev::Poll(handle) => {
                if client.poll_call(&mut c.db, &mut c.api, &c.registry, handle, now) {
                    queue.schedule(now + client.config().poll_period, Ev::Poll(handle));
                }
            }
            Ev::End(handle) => {
                client.end_call(&mut c.db, &mut c.api, &mut c.registry, handle, now);
            }
            Ev::AuditTick => {
                let (_, outcome) = c.run_recovery_cycle(now).expect("audit alive, engine attached");
                let stalled = now + outcome.busy;
                if stalled > busy_until {
                    busy_until = stalled;
                }
                queue.schedule(now + config.audit_period, Ev::AuditTick);
            }
            Ev::Inject => {
                let offset = rng.index(c.db.region_len());
                let bit = (rng.bits() % 8) as u8;
                c.inject_bit_flip(offset, bit, now);
                injected += 1;
                queue.schedule(now + rng.exponential(config.error_iat), Ev::Inject);
            }
        }
    }

    classify(&c.db, c.recovery().expect("engine attached"), &client, injected)
}

/// Maps every injected error's fate to an extended-table outcome.
fn classify(
    db: &wtnc_db::Database,
    engine: &RecoveryEngine,
    client: &DesClient,
    injected: u64,
) -> RecoveryRunResult {
    // Final repair disposition per ground-truth taint id: the last log
    // entry whose repair removed that taint. `Failed` means even the
    // top rung never passed verification.
    let mut disposition: std::collections::HashMap<u64, RepairOutcome> =
        std::collections::HashMap::new();
    for entry in engine.log() {
        for &id in &entry.caught {
            disposition.insert(id, entry.outcome);
        }
    }

    let mut outcomes = OutcomeCounts::new();
    for &(_offset, entry, fate) in db.taint().resolved() {
        let outcome = match fate {
            TaintFate::Caught { .. } => match disposition.get(&entry.id) {
                Some(RepairOutcome::Failed) => RunOutcome::RepairFailed,
                // Verified, unverified, or removed by a repair that
                // later escalated for other damage: the corruption is
                // gone either way.
                Some(_) => RunOutcome::DetectedRepaired,
                // Caught outside the engine (e.g. a restart sweep).
                None => RunOutcome::AuditDetection,
            },
            TaintFate::Escaped { .. } => RunOutcome::FailSilenceViolation,
            TaintFate::Overwritten { .. } => RunOutcome::NotManifested,
        };
        outcomes.record(outcome);
    }
    // Latent at end of run: never touched detection or the client.
    for _ in 0..db.taint().latent_count() {
        outcomes.record(RunOutcome::NotActivated);
    }

    let stats = engine.stats();
    RecoveryRunResult {
        injected,
        outcomes,
        attempted: stats.attempted,
        verified: stats.verified,
        failed: stats.failed,
        escalations: stats.escalations,
        tokens_spent: stats.tokens_spent,
        controller_restarts: stats.controller_restarts,
        repair_latency_s: stats.mean_latency_s(),
        repair_busy_s: TOKEN_TIME.as_secs_f64() * stats.tokens_spent as f64,
        calls: client.stats().calls_completed_setup,
        avg_setup_ms: client.stats().setup_time.mean(),
        log: engine.log().to_vec(),
    }
}

/// Runs `runs` independent runs in parallel and sums the results
/// (deterministic: identical to a serial execution).
pub fn run_campaign(config: &RecoveryCampaignConfig, runs: usize) -> RecoveryCampaignResult {
    let results = crate::parallel::run_runs(config.seed, runs, |seed| run_once(config, seed));
    let mut total = RecoveryCampaignResult::default();
    let mut setup = Accumulator::new();
    let mut latency = Accumulator::new();
    for r in results {
        total.injected += r.injected;
        total.outcomes.merge(&r.outcomes);
        total.attempted += r.attempted;
        total.verified += r.verified;
        total.failed += r.failed;
        total.escalations += r.escalations;
        total.tokens_spent += r.tokens_spent;
        total.controller_restarts += r.controller_restarts;
        total.calls += r.calls;
        if r.calls > 0 {
            setup.push(r.avg_setup_ms);
        }
        if r.verified > 0 {
            latency.push(r.repair_latency_s);
        }
    }
    total.avg_setup_ms = setup.mean();
    total.repair_latency_s = latency.mean();
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short(error_iat_secs: u64) -> RecoveryCampaignConfig {
        RecoveryCampaignConfig {
            duration: SimDuration::from_secs(300),
            error_iat: SimDuration::from_secs(error_iat_secs),
            ..RecoveryCampaignConfig::default()
        }
    }

    #[test]
    fn campaign_repairs_and_verifies() {
        let r = run_campaign(&short(10), 3);
        assert!(r.injected > 30, "enough errors injected: {}", r.injected);
        assert!(r.outcomes.count(RunOutcome::DetectedRepaired) > 0, "repairs verified: {r:?}");
        assert!(r.verified > 0);
        assert!(r.tokens_spent > 0);
        assert!(r.repair_latency_s >= 0.0);
    }

    #[test]
    fn accounting_is_complete() {
        let r = run_once(&short(10), 42);
        assert_eq!(r.outcomes.total(), r.injected);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_once(&short(5), 77);
        let b = run_once(&short(5), 77);
        assert_eq!(a.log, b.log, "repair logs differ under the same seed");
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.calls, b.calls);
    }

    #[test]
    fn tight_budget_defers_but_still_repairs() {
        let tight = RecoveryCampaignConfig {
            recovery: RecoveryConfig { cycle_budget: 4, ..RecoveryConfig::default() },
            ..short(5)
        };
        let r = run_campaign(&tight, 2);
        assert!(r.outcomes.count(RunOutcome::DetectedRepaired) > 0);
        assert!(r.calls > 0, "call processing survives the storm");
    }
}
