//! Database injection campaigns (§5.1, Tables 2–4 and Figure 3).
//!
//! Random bit errors are inserted into the database image at a
//! configurable inter-arrival time while the discrete-event
//! call-processing client runs; the audit subsystem (when enabled)
//! sweeps the database periodically. Each injected error's fate is
//! classified from the ground-truth taint ledger: **escaped** (the
//! client consumed it first), **caught** (an audit element repaired
//! it), or **no effect** (overwritten by a legitimate write, or latent
//! at the end of the run).

use wtnc_audit::{AuditConfig, AuditElementKind, AuditProcess};
use wtnc_callproc::{CallHandle, DesClient, WorkloadConfig};
use wtnc_db::{schema, Database, DbApi, TaintFate, TaintKind};
use wtnc_sim::stats::Accumulator;
use wtnc_sim::{EventQueue, SimDuration, SimRng, SimTime};

use crate::Controller;

/// Periodic audit interval of the §5.1 node (paper: 10 s).
pub(crate) const AUDIT_PERIOD: SimDuration = SimDuration::from_secs(10);

/// Record slots per dynamic table of the §5.1 node. Sized so the
/// workload keeps the tables densely used, as in the production
/// controller.
pub(crate) const SLOTS: u32 = 14;

/// Base seed the campaign draws its run seeds from.
const SEED: u64 = 0xDB01;

/// Client workload of the §5.1 node (paper Table 2). Table 2 lists a
/// 10 s average inter-arrival time per call-processing thread; with 16
/// threads the paper's run processes "approximately 1000 calls" in
/// 2000 s, i.e. one arrival every ~2 s globally — which is what we
/// schedule.
pub(crate) fn workload() -> WorkloadConfig {
    WorkloadConfig { interarrival_mean: SimDuration::from_secs(2), ..WorkloadConfig::default() }
}

/// Configuration of one database-injection run. The node is fixed: a
/// 10 s audit period, 14 slots per dynamic table and Table 2's
/// workload at a 2 s arrival gap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbCampaignConfig {
    /// Whether the audit subsystem runs.
    pub audits: bool,
    /// Run length (paper: 2000 s).
    pub duration: SimDuration,
    /// Mean error inter-arrival time (exponential; paper: 2–20 s).
    pub error_iat: SimDuration,
    /// Registers the §4.4.2 selective-monitoring element (with
    /// derived-invariant repair) over the schema's unruled attributes —
    /// the extension experiment closing part of the "lack of rule"
    /// escape category.
    pub selective_monitoring: bool,
}

impl Default for DbCampaignConfig {
    fn default() -> Self {
        DbCampaignConfig {
            audits: true,
            duration: SimDuration::from_secs(2_000),
            error_iat: SimDuration::from_secs(20),
            selective_monitoring: false,
        }
    }
}

/// The paper's Table 4 row structure: per-error-type detection and
/// escape counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Table4Breakdown {
    /// Structural errors detected (paper: 100%).
    pub structural_detected: u64,
    /// Structural errors that escaped.
    pub structural_escaped: u64,
    /// Static-data errors detected (paper: 100%).
    pub static_detected: u64,
    /// Static-data errors that escaped (catalog consumed by a failing
    /// API call).
    pub static_escaped: u64,
    /// Dynamic-data errors caught by the range check (paper: 45%).
    pub dynamic_range_detected: u64,
    /// Dynamic-data errors caught by the semantic check (paper: 34%).
    pub dynamic_semantic_detected: u64,
    /// Dynamic-data errors caught by the selective-monitoring element
    /// (extension; zero unless enabled).
    pub dynamic_selective_detected: u64,
    /// Dynamic-data errors caught by other elements (structural reload
    /// sweeps, etc.).
    pub dynamic_other_detected: u64,
    /// Dynamic-data escapes with a rule available — the audit lost the
    /// race (paper: 14%, "due to timing").
    pub dynamic_escaped_timing: u64,
    /// Dynamic-data escapes with no enforceable rule (paper: 4%).
    pub dynamic_escaped_no_rule: u64,
    /// Errors with no effect: overwritten or latent (paper: 3%).
    pub no_effect: u64,
}

/// Aggregated result of a database-injection campaign.
#[derive(Debug, Clone, Default)]
pub struct DbCampaignResult {
    /// Total errors injected.
    pub injected: u64,
    /// Errors that escaped to the application.
    pub escaped: u64,
    /// Errors caught (and repaired) by the audits.
    pub caught: u64,
    /// Errors overwritten by legitimate client writes.
    pub overwritten: u64,
    /// Errors still latent at the end of the run.
    pub latent: u64,
    /// Per-type breakdown (Table 4).
    pub breakdown: Table4Breakdown,
    /// Mean call setup time in milliseconds.
    pub avg_setup_ms: f64,
    /// Mean detection latency in seconds (caught errors only).
    pub detection_latency_s: f64,
    /// Calls whose setup completed across the campaign.
    pub calls: u64,
    /// Cold restarts escalated by the manager after fatal catalog
    /// corruption (full reload from disk).
    pub cold_restarts: u64,
}

impl DbCampaignResult {
    /// Escaped errors as a percentage of injections.
    pub fn escaped_pct(&self) -> f64 {
        if self.injected == 0 {
            0.0
        } else {
            100.0 * self.escaped as f64 / self.injected as f64
        }
    }

    /// Caught errors as a percentage of injections.
    pub fn caught_pct(&self) -> f64 {
        if self.injected == 0 {
            0.0
        } else {
            100.0 * self.caught as f64 / self.injected as f64
        }
    }

    /// "Other" (no-effect) errors as a percentage of injections.
    pub fn no_effect_pct(&self) -> f64 {
        if self.injected == 0 {
            0.0
        } else {
            100.0 * (self.overwritten + self.latent) as f64 / self.injected as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Arrival,
    Poll(CallHandle),
    End(CallHandle),
    AuditTick,
    Inject,
}

/// True when any in-region catalog descriptor fails validation — the
/// manager's controller-down check.
fn catalog_broken(db: &Database) -> bool {
    for tm in db.catalog().tables() {
        let entry = match wtnc_db::Catalog::read_region_entry(db.region(), tm.id) {
            Ok(e) => e,
            Err(_) => return true,
        };
        for fi in 0..tm.def.fields.len() {
            if wtnc_db::Catalog::read_region_field(
                db.region(),
                tm.id,
                &entry,
                wtnc_db::FieldId(fi as u16),
            )
            .is_err()
            {
                return true;
            }
        }
    }
    false
}

/// Runs one §5.1 experiment run and returns its result.
pub fn run_once(config: &DbCampaignConfig, seed: u64) -> DbCampaignResult {
    let mut rng = SimRng::seed_from(seed);
    let mut c = Controller::new(schema::standard_schema_with_slots(SLOTS)).expect("schema builds");
    if config.audits {
        c = c.with_audit(AuditConfig { periodic_interval: AUDIT_PERIOD, ..AuditConfig::default() });
        if config.selective_monitoring {
            let monitor = wtnc_audit::SelectiveMonitor::new(
                wtnc_audit::SelectiveConfig {
                    suspect_fraction: 0.25,
                    min_observations: 40,
                    repair_unseen: true,
                },
                vec![
                    (schema::PROCESS_TABLE, schema::process::NAME_ID),
                    (schema::CONNECTION_TABLE, schema::connection::BILLING_UNITS),
                    (schema::RESOURCE_TABLE, schema::resource::POWER_MW),
                ],
            );
            c.audit_mut().expect("audit attached").register_element(Box::new(monitor));
        }
    } else {
        // The "original" API: no audit instrumentation, base costs.
        c.api = DbApi::without_instrumentation();
    }
    let mut client = DesClient::new(workload(), rng.bits(), config.audits);

    let mut queue: EventQueue<Ev> = EventQueue::new();
    queue.schedule(SimTime::ZERO + client.next_arrival_gap(), Ev::Arrival);
    queue.schedule(SimTime::ZERO + rng.exponential(config.error_iat), Ev::Inject);
    if config.audits {
        queue.schedule(SimTime::ZERO + AUDIT_PERIOD, Ev::AuditTick);
    }

    let mut injected: u64 = 0;
    let mut cold_restarts: u64 = 0;
    let end_of_run = SimTime::ZERO + config.duration;

    while let Some(at) = queue.peek_time() {
        if at > end_of_run {
            break;
        }
        let (now, ev) = queue.pop().expect("peeked");
        match ev {
            Ev::Arrival => {
                match client.start_call(&mut c.db, &mut c.api, &mut c.registry, now) {
                    Some((handle, setup)) => {
                        let call_duration = client.next_call_duration();
                        queue.schedule(now + setup + call_duration, Ev::End(handle));
                        queue.schedule(now + setup + client.config().poll_period, Ev::Poll(handle));
                    }
                    None => {
                        // Fatal catalog corruption takes the whole
                        // controller down; the manager escalates to a
                        // cold restart (full reload from disk). Errors
                        // swept away by the reload never reached the
                        // application: no effect.
                        if catalog_broken(&c.db) {
                            // Reload the descriptor area from disk;
                            // call state survives the warm restart.
                            let len = c.db.catalog().catalog_len();
                            c.db.reload_range(0, len).expect("catalog within region");
                            c.db.taint_mut().resolve_range(
                                0,
                                len,
                                TaintFate::Overwritten { at: now },
                            );
                            cold_restarts += 1;
                        }
                    }
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
                c.run_audit_cycle(now);
                queue.schedule(now + AUDIT_PERIOD, Ev::AuditTick);
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

    let mut result = classify(&c.db, c.audit(), &client, injected);
    result.cold_restarts = cold_restarts;
    result
}

/// Classifies the run's taints into the campaign result.
fn classify(
    db: &Database,
    audit: Option<&AuditProcess>,
    client: &DesClient,
    injected: u64,
) -> DbCampaignResult {
    let mut result = DbCampaignResult {
        injected,
        avg_setup_ms: client.stats().setup_time.mean(),
        calls: client.stats().calls_completed_setup,
        ..DbCampaignResult::default()
    };
    let mut latency = Accumulator::new();

    // Element attribution by taint id.
    let caught_by: std::collections::HashMap<u64, AuditElementKind> = audit
        .map(|a| a.catch_log().iter().map(|&(entry, kind, _)| (entry.id, kind)).collect())
        .unwrap_or_default();
    let caught_at: std::collections::HashMap<u64, SimTime> = audit
        .map(|a| a.catch_log().iter().map(|&(entry, _, at)| (entry.id, at)).collect())
        .unwrap_or_default();

    for &(_offset, entry, fate) in db.taint().resolved() {
        match fate {
            TaintFate::Caught { at } => {
                result.caught += 1;
                let when = caught_at.get(&entry.id).copied().unwrap_or(at);
                latency.push(when.saturating_since(entry.at).as_secs_f64());
                match (entry.kind, caught_by.get(&entry.id)) {
                    (TaintKind::Structural, _) => result.breakdown.structural_detected += 1,
                    (TaintKind::StaticData, _) => result.breakdown.static_detected += 1,
                    (_, Some(AuditElementKind::Range)) => {
                        result.breakdown.dynamic_range_detected += 1
                    }
                    (_, Some(AuditElementKind::Semantic)) => {
                        result.breakdown.dynamic_semantic_detected += 1
                    }
                    (_, Some(AuditElementKind::Selective)) => {
                        result.breakdown.dynamic_selective_detected += 1
                    }
                    _ => result.breakdown.dynamic_other_detected += 1,
                }
            }
            TaintFate::Escaped { .. } => {
                result.escaped += 1;
                match entry.kind {
                    TaintKind::Structural => result.breakdown.structural_escaped += 1,
                    TaintKind::StaticData => result.breakdown.static_escaped += 1,
                    TaintKind::DynamicRuled | TaintKind::Slack => {
                        result.breakdown.dynamic_escaped_timing += 1
                    }
                    TaintKind::DynamicUnruled => result.breakdown.dynamic_escaped_no_rule += 1,
                }
            }
            TaintFate::Overwritten { .. } => {
                result.overwritten += 1;
                result.breakdown.no_effect += 1;
            }
        }
    }
    result.latent = db.taint().latent_count() as u64;
    result.breakdown.no_effect += result.latent;
    result.detection_latency_s = latency.mean();
    result
}

/// Runs `runs` independent runs and sums the results (the paper uses
/// 30 runs per configuration). Runs execute in parallel across cores;
/// results are identical to a serial execution.
pub fn run_campaign(config: &DbCampaignConfig, runs: usize) -> DbCampaignResult {
    let results = crate::parallel::run_runs(SEED, runs, |seed| run_once(config, seed));
    let mut total = DbCampaignResult::default();
    let mut setup = Accumulator::new();
    let mut latency = Accumulator::new();
    for r in results {
        total.injected += r.injected;
        total.escaped += r.escaped;
        total.caught += r.caught;
        total.overwritten += r.overwritten;
        total.latent += r.latent;
        total.calls += r.calls;
        total.cold_restarts += r.cold_restarts;
        let b = &mut total.breakdown;
        let o = &r.breakdown;
        b.structural_detected += o.structural_detected;
        b.structural_escaped += o.structural_escaped;
        b.static_detected += o.static_detected;
        b.static_escaped += o.static_escaped;
        b.dynamic_range_detected += o.dynamic_range_detected;
        b.dynamic_semantic_detected += o.dynamic_semantic_detected;
        b.dynamic_selective_detected += o.dynamic_selective_detected;
        b.dynamic_other_detected += o.dynamic_other_detected;
        b.dynamic_escaped_timing += o.dynamic_escaped_timing;
        b.dynamic_escaped_no_rule += o.dynamic_escaped_no_rule;
        b.no_effect += o.no_effect;
        if r.calls > 0 {
            setup.push(r.avg_setup_ms);
        }
        if r.caught > 0 {
            latency.push(r.detection_latency_s);
        }
    }
    total.avg_setup_ms = setup.mean();
    total.detection_latency_s = latency.mean();
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short(audits: bool, error_iat_secs: u64) -> DbCampaignConfig {
        DbCampaignConfig {
            audits,
            duration: SimDuration::from_secs(300),
            error_iat: SimDuration::from_secs(error_iat_secs),
            ..DbCampaignConfig::default()
        }
    }

    #[test]
    fn audits_reduce_escapes_substantially() {
        let with = run_campaign(&short(true, 10), 4);
        let without = run_campaign(&short(false, 10), 4);
        assert!(with.injected > 50, "enough errors injected: {}", with.injected);
        assert!(with.caught > 0, "audits catch something");
        assert!(
            with.escaped_pct() < without.escaped_pct(),
            "with audits {}% !< without {}%",
            with.escaped_pct(),
            without.escaped_pct()
        );
        // Paper shape: roughly 5x reduction (63% -> 13%); allow slack.
        assert!(
            with.escaped_pct() < 0.6 * without.escaped_pct(),
            "with {}%, without {}%",
            with.escaped_pct(),
            without.escaped_pct()
        );
        // Latent errors shrink too (37% -> 2% in the paper).
        let latent_with = with.latent as f64 / with.injected as f64;
        let latent_without = without.latent as f64 / without.injected as f64;
        assert!(latent_with < latent_without);
    }

    #[test]
    fn without_audits_nothing_is_caught() {
        let r = run_campaign(&short(false, 10), 2);
        assert_eq!(r.caught, 0);
        assert_eq!(r.injected, r.escaped + r.overwritten + r.latent);
    }

    #[test]
    fn accounting_is_complete() {
        let r = run_campaign(&short(true, 10), 2);
        assert_eq!(r.injected, r.escaped + r.caught + r.overwritten + r.latent);
        let b = &r.breakdown;
        assert_eq!(
            r.caught,
            b.structural_detected
                + b.static_detected
                + b.dynamic_range_detected
                + b.dynamic_semantic_detected
                + b.dynamic_selective_detected
                + b.dynamic_other_detected
        );
        assert_eq!(
            r.escaped,
            b.structural_escaped
                + b.static_escaped
                + b.dynamic_escaped_timing
                + b.dynamic_escaped_no_rule
        );
        assert_eq!(r.overwritten + r.latent, b.no_effect);
    }

    #[test]
    fn setup_time_rises_with_audits() {
        let with = run_campaign(&short(true, 20), 2);
        let without = run_campaign(&short(false, 20), 2);
        assert!(with.calls > 0 && without.calls > 0);
        assert!(
            with.avg_setup_ms > without.avg_setup_ms,
            "with {} !> without {}",
            with.avg_setup_ms,
            without.avg_setup_ms
        );
    }

    #[test]
    fn higher_error_rate_more_escapes() {
        let slow = run_campaign(&short(true, 20), 3);
        let fast = run_campaign(&short(true, 2), 3);
        assert!(fast.injected > 3 * slow.injected);
        assert!(fast.escaped > slow.escaped, "fast {} !> slow {}", fast.escaped, slow.escaped);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_once(&short(true, 10), 77);
        let b = run_once(&short(true, 10), 77);
        assert_eq!(a.injected, b.injected);
        assert_eq!(a.escaped, b.escaped);
        assert_eq!(a.caught, b.caught);
    }
}
