//! Database injection campaigns (§5.1, Tables 2–4 and Figure 3).
//!
//! Random bit errors are inserted into the database image at a
//! configurable inter-arrival time while the discrete-event
//! call-processing client runs; the audit subsystem (when enabled)
//! sweeps the database periodically. Each injected error's fate is
//! classified from the ground-truth taint ledger: **escaped** (the
//! client consumed it first), **caught** (an audit element repaired
//! it), or **no effect** (overwritten by a legitimate write, or latent
//! at the end of the run). The catching element comes from the audit
//! reports' findings, the detection time from the taint's fate.
//!
//! The recovery campaign runs this same node, through the same event
//! loop, with the repair engine attached.

use std::collections::HashMap;

use wtnc_audit::{AuditConfig, AuditElementKind};
use wtnc_callproc::{CallHandle, DesClient, WorkloadConfig};
use wtnc_db::{schema, Database, DbApi, TaintFate, TaintKind};
use wtnc_sim::stats::Accumulator;
use wtnc_sim::{EventQueue, SimDuration, SimRng, SimTime};

use crate::Controller;

/// Periodic audit interval of the §5.1 node (paper: 10 s).
const AUDIT_PERIOD: SimDuration = SimDuration::from_secs(10);

/// Record slots per dynamic table of the §5.1 node. Sized so the
/// workload keeps the tables densely used, as in the production
/// controller.
const SLOTS: u32 = 14;

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

/// The §5.1 node: the standard schema at [`SLOTS`] slots per dynamic
/// table with the periodic audit attached, or — without `audits` — the
/// "original" node: no audit process and the uninstrumented API.
pub(crate) fn node(audits: bool) -> Controller {
    let mut c = Controller::new(schema::standard_schema_with_slots(SLOTS)).expect("schema builds");
    if !audits {
        c.api = DbApi::without_instrumentation();
        return c;
    }
    c.with_audit(AuditConfig { periodic_interval: AUDIT_PERIOD, ..AuditConfig::default() })
}

/// What one run of the §5.1 node leaves for a campaign's classifier.
pub(crate) struct NodeRun {
    /// Bit flips injected.
    pub(crate) injected: u64,
    /// Cold restarts after a refused arrival found the catalog broken.
    pub(crate) cold_restarts: u64,
    /// The audit element whose finding caught each taint id.
    pub(crate) caught_by: HashMap<u64, AuditElementKind>,
}

/// Runs the §5.1 node for `duration`: Table 2's client and bit flips
/// at a mean gap of `error_iat`. What is attached to `c` decides the
/// rest. An audit process gets a tick every [`AUDIT_PERIOD`]. With a
/// recovery engine the tick is a detect→repair round whose busy time
/// stalls (not drops) call arrivals; without one it is an audit cycle,
/// and an arrival refused by a broken catalog cold-restarts the
/// descriptor area.
pub(crate) fn run_node(
    c: &mut Controller,
    client: &mut DesClient,
    rng: &mut SimRng,
    duration: SimDuration,
    error_iat: SimDuration,
) -> NodeRun {
    let engine = c.recovery().is_some();
    let mut queue: EventQueue<Ev> = EventQueue::new();
    queue.schedule(SimTime::ZERO + client.next_arrival_gap(), Ev::Arrival);
    queue.schedule(SimTime::ZERO + rng.exponential(error_iat), Ev::Inject);
    if c.audit().is_some() {
        queue.schedule(SimTime::ZERO + AUDIT_PERIOD, Ev::AuditTick);
    }

    let mut run = NodeRun { injected: 0, cold_restarts: 0, caught_by: HashMap::new() };
    let mut busy_until = SimTime::ZERO;
    let end_of_run = SimTime::ZERO + duration;

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
                match client.start_call(&mut c.db, &mut c.api, &mut c.registry, now) {
                    Some((handle, setup)) => {
                        let call_duration = client.next_call_duration();
                        queue.schedule(now + setup + call_duration, Ev::End(handle));
                        queue.schedule(now + setup + client.config().poll_period, Ev::Poll(handle));
                    }
                    // Fatal catalog corruption takes the whole
                    // controller down; the manager escalates to a cold
                    // restart, reloading the descriptor area from disk
                    // (call state survives). Errors swept away by the
                    // reload never reached the application: no effect.
                    None if !engine && catalog_broken(&c.db) => {
                        let len = c.db.catalog().catalog_len();
                        c.db.reload_range(0, len).expect("catalog within region");
                        c.db.taint_mut().resolve_range(0, len, TaintFate::Overwritten { at: now });
                        run.cold_restarts += 1;
                    }
                    None => {}
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
                let report = if engine {
                    let (report, outcome) =
                        c.run_recovery_cycle(now).expect("audit alive, engine attached");
                    busy_until = busy_until.max(now + outcome.busy);
                    Some(report)
                } else {
                    c.run_audit_cycle(now)
                };
                for f in report.iter().flat_map(|r| &r.findings) {
                    for taint in &f.caught {
                        run.caught_by.insert(taint.id, f.element);
                    }
                }
                queue.schedule(now + AUDIT_PERIOD, Ev::AuditTick);
            }
            Ev::Inject => {
                let offset = rng.index(c.db.region_len());
                let bit = (rng.bits() % 8) as u8;
                c.inject_bit_flip(offset, bit, now);
                run.injected += 1;
                queue.schedule(now + rng.exponential(error_iat), Ev::Inject);
            }
        }
    }
    run
}

/// Runs one §5.1 experiment run and returns its result.
pub fn run_once(config: &DbCampaignConfig, seed: u64) -> DbCampaignResult {
    let mut rng = SimRng::seed_from(seed);
    let mut c = node(config.audits);
    if config.audits && config.selective_monitoring {
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
    let mut client = DesClient::new(workload(), rng.bits(), config.audits);
    let run = run_node(&mut c, &mut client, &mut rng, config.duration, config.error_iat);
    classify(&c.db, &client, &run)
}

/// Classifies the run's taints into the campaign result.
fn classify(db: &Database, client: &DesClient, run: &NodeRun) -> DbCampaignResult {
    let mut result = DbCampaignResult {
        injected: run.injected,
        cold_restarts: run.cold_restarts,
        avg_setup_ms: client.stats().setup_time.mean(),
        calls: client.stats().calls_completed_setup,
        ..DbCampaignResult::default()
    };
    let mut latency = Accumulator::new();

    for &(_offset, entry, fate) in db.taint().resolved() {
        match fate {
            TaintFate::Caught { at } => {
                result.caught += 1;
                latency.push(at.saturating_since(entry.at).as_secs_f64());
                match (entry.kind, run.caught_by.get(&entry.id)) {
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
