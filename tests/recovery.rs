//! Integration tests of the staged recovery engine: the full
//! detect→diagnose→repair→verify loop driven through the injection
//! campaign, plus the determinism and budget guarantees the engine
//! makes.

use wtnc::inject::recovery_campaign::{run_once, RecoveryCampaignConfig};
use wtnc::inject::RunOutcome;
use wtnc::recovery::{RecoveryConfig, RepairOutcome};
use wtnc::sim::SimDuration;

fn storm(error_iat_secs: u64) -> RecoveryCampaignConfig {
    RecoveryCampaignConfig {
        duration: SimDuration::from_secs(400),
        error_iat: SimDuration::from_secs(error_iat_secs),
        ..RecoveryCampaignConfig::default()
    }
}

/// The campaign produces a nonzero `DetectedRepaired` count, and every
/// closed repair passed a re-run of the originating audit element.
#[test]
fn campaign_repairs_are_verified_by_the_originating_element() {
    let r = run_once(&storm(10), 0xBEEF);
    assert!(r.injected > 10, "storm injects errors: {}", r.injected);
    assert!(
        r.outcomes.count(RunOutcome::DetectedRepaired) > 0,
        "no repaired-and-verified outcomes: {:?}",
        r.outcomes
    );
    assert!(r.verified > 0);
    assert!(!r.log.is_empty());
    // Every verified closure also recorded its latency.
    assert!(r.repair_latency_s >= 0.0);
}

/// Same seed, same configuration → byte-identical repair log and
/// outcome table across independent executions.
#[test]
fn same_seed_gives_identical_repair_log_and_outcomes() {
    let a = run_once(&storm(5), 0x5EED);
    let b = run_once(&storm(5), 0x5EED);
    assert_eq!(a.log, b.log, "repair logs diverged under the same seed");
    assert_eq!(a.outcomes, b.outcomes, "outcome tables diverged");
    assert_eq!(a.injected, b.injected);
    assert_eq!(a.calls, b.calls);
    assert_eq!(a.tokens_spent, b.tokens_spent);
}

/// Under a corruption storm, a small per-cycle repair budget degrades
/// call-processing throughput gracefully: the controller completes
/// fewer calls than a clean run, but never stops serving.
#[test]
fn tight_budget_degrades_throughput_gracefully_under_storm() {
    // Clean baseline: essentially no errors.
    let clean = run_once(&storm(100_000), 0xCAFE);
    // Storm with a tight budget: repairs are rationed across cycles.
    let tight = RecoveryCampaignConfig {
        recovery: RecoveryConfig { cycle_budget: 4, ..RecoveryConfig::default() },
        ..storm(3)
    };
    let stormy = run_once(&tight, 0xCAFE);

    assert!(clean.calls > 0);
    assert!(stormy.calls > 0, "throughput must not collapse to zero under the storm");
    assert!(
        stormy.calls < clean.calls,
        "storm {} calls should be below the clean {} calls",
        stormy.calls,
        clean.calls
    );
    // The budget actually rationed work: some cycles deferred repairs,
    // yet repairs still landed.
    assert!(stormy.outcomes.count(RunOutcome::DetectedRepaired) > 0);
    assert!(stormy.tokens_spent > 0);
}

/// The whole loop through the `Controller` facade: detect-only audit,
/// engine repair, verified closure, clean taint ledger.
#[test]
fn controller_facade_closes_the_loop() {
    use wtnc::audit::AuditConfig;
    use wtnc::db::schema;
    use wtnc::sim::SimTime;

    let mut c = wtnc::Controller::standard()
        .with_audit(AuditConfig::default())
        .with_recovery(RecoveryConfig::default());
    let rec = wtnc::db::RecordRef::new(schema::SYSCONFIG_TABLE, 0);
    let (off, _) = c.db.field_extent(rec, schema::sysconfig::MAX_CALLS).unwrap();
    c.inject_bit_flip(off, 4, SimTime::from_secs(1));
    let (report, outcome) = c.run_recovery_cycle(SimTime::from_secs(10)).unwrap();
    assert!(!report.findings.is_empty());
    assert_eq!(outcome.verified, 1);
    assert_eq!(c.db.taint().latent_count(), 0);
    let engine = c.recovery().unwrap();
    assert_eq!(engine.stats().verified, 1);
    assert_eq!(engine.log().len(), 1);
    assert_eq!(engine.log()[0].outcome, RepairOutcome::Verified);
}
