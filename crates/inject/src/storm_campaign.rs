//! Traffic-storm injection campaign: audit under overload.
//!
//! The 2001 paper assumes the audit subsystem always gets to run. This
//! harness attacks that assumption: clients push offered IPC load past
//! the auditor's saturation point (super-producer, raw IPC flood and
//! diurnal-burst models), a single data corruption is planted mid-storm,
//! and the campaign measures what the storm does to the *detector* —
//! audit-cycle stretch, detection latency, supervisor watermark-driven
//! false restarts — with and without the resource-isolation layer
//! (bounded fair IPC via [`wtnc_db::IpcConfig`], the audit CPU token
//! bucket via [`wtnc_audit::BudgetConfig`], and starved-vs-silent
//! supervision via [`wtnc_audit::Supervisor::note_starved`]).
//!
//! The audit's CPU consumption is modeled in virtual time: a cycle that
//! drains `n` queued events and screens `r` records occupies the audit
//! process for `n × EVENT_COST + r × RECORD_COST`, and its results are
//! published only when that work completes. Without isolation the queue
//! is effectively unbounded, the drain cost grows with the backlog, and
//! past saturation each cycle takes longer than the interval that feeds
//! it — the classic receive-livelock spiral. The supervisor, watching
//! the audit's progress watermark, then condemns the busy-but-healthy
//! auditor as livelocked and restarts it, aborting the drain and making
//! things worse. With isolation the queue bound caps the drain, the
//! token bucket sheds screens honestly (degraded cycles with explicit
//! findings), and starvation notices keep the escalation ladder quiet.

use wtnc_audit::{
    AuditConfig, AuditProcess, BudgetConfig, SupervisedRole, SupervisorConfig, HEARTBEAT_INTERVAL,
};
use wtnc_db::{schema, DbApi, DbOp, IpcConfig, RecordRef};
use wtnc_sim::stats::Accumulator;
use wtnc_sim::{Enqueue, EventQueue, Responsiveness, SimDuration, SimRng, SimTime};

use crate::outcome::{OutcomeCounts, RunOutcome};
use crate::process_campaign::Worker;
use crate::Controller;

/// Virtual CPU time the audit main thread spends routing one drained
/// IPC event. The reciprocal is the auditor's saturation rate: offered
/// load is expressed as a multiple of `1 / EVENT_COST` events per
/// second.
pub const EVENT_COST: SimDuration = SimDuration::from_micros(500);

/// Virtual CPU time to screen one record.
pub const RECORD_COST: SimDuration = SimDuration::from_micros(50);

/// Offered-load saturation rate: events per simulated second at which
/// draining alone consumes the whole audit interval.
pub const SATURATION_EVENTS_PER_SEC: f64 = 2_000.0;

/// The highest offered load a storm run takes, as a multiple of
/// [`SATURATION_EVENTS_PER_SEC`]. Each client tick posts at most this
/// load's worth of events, so a run at any larger load (even an
/// infinite one) still ends; the CLI refuses `--load` above it.
pub const MAX_LOAD: f64 = 100.0;

/// The storm traffic models (the rows of the campaign table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StormModel {
    /// One client goes rogue and emits the entire offered load while
    /// the others keep their normal call-processing pace — the
    /// fairness-policy stress case (only the spammer's lane may shed).
    SuperProducer,
    /// Every client floods raw read-class notifications — pure IPC
    /// noise spread evenly across lanes.
    IpcFlood,
    /// The offered load alternates between a busy-hour burst at the
    /// full rate and a quarter-rate lull every 20 simulated seconds.
    DiurnalBurst,
}

impl StormModel {
    /// Every model, in campaign-table order.
    pub const ALL: [StormModel; 3] =
        [StormModel::SuperProducer, StormModel::IpcFlood, StormModel::DiurnalBurst];

    /// Stable snake_case name (JSON column key).
    pub fn name(self) -> &'static str {
        match self {
            StormModel::SuperProducer => "super_producer",
            StormModel::IpcFlood => "ipc_flood",
            StormModel::DiurnalBurst => "diurnal_burst",
        }
    }
}

/// When the single data corruption is planted. Deliberately *off* the
/// audit-period grid: latency then measures a realistic wait from
/// mid-cycle, not the degenerate corrupt-then-immediately-audit
/// alignment.
const CORRUPT_AT: SimDuration = SimDuration::from_secs(32);

/// Call-processing clients (client 0 is the super-producer).
const CLIENTS: u32 = 4;

/// Record slots per dynamic table.
const SLOTS: u32 = 64;

/// Periodic audit-cycle interval.
const AUDIT_PERIOD: SimDuration = SimDuration::from_secs(5);

/// Base seed the campaign draws its run seeds from.
const SEED: u64 = 0x5708_4ABC;

/// Configuration of one storm-campaign run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormCampaignConfig {
    /// Run length.
    pub duration: SimDuration,
    /// Offered IPC load as a multiple of the auditor's saturation rate
    /// ([`SATURATION_EVENTS_PER_SEC`]).
    pub load: f64,
    /// Supervision thresholds. The supervision tick runs every
    /// [`HEARTBEAT_INTERVAL`].
    pub supervisor: SupervisorConfig,
    /// The storm traffic model.
    pub model: StormModel,
    /// Resource isolation on/off: bounded fair IPC, audit CPU budget,
    /// starvation-aware supervision.
    pub isolation: bool,
}

impl Default for StormCampaignConfig {
    fn default() -> Self {
        StormCampaignConfig {
            duration: SimDuration::from_secs(120),
            load: 2.0,
            supervisor: SupervisorConfig::default(),
            model: StormModel::SuperProducer,
            isolation: true,
        }
    }
}

/// Result of one storm-campaign run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StormRunResult {
    /// Corruptions planted (always 1 per run).
    pub injected: u64,
    /// Outcome tally: [`RunOutcome::AuditDetection`] when the planted
    /// corruption was detected within the run,
    /// [`RunOutcome::ClientHang`] when it sat undetected to the end.
    pub outcomes: OutcomeCounts,
    /// The planted corruption was detected within the run.
    pub detected: bool,
    /// Detection latency (corruption to published audit finding),
    /// virtual seconds. When undetected this is the honest *floor*
    /// `duration - CORRUPT_AT` (the true latency is at least this).
    pub detection_latency_s: f64,
    /// Audit cycles that ran to completion.
    pub cycles_completed: u64,
    /// In-flight cycles aborted by a (false) audit restart.
    pub cycles_aborted: u64,
    /// Mean completed-cycle duration, virtual seconds.
    pub mean_cycle_s: f64,
    /// Cycles that shed table screens (budget exhausted) — each one
    /// carries an explicit `DegradedCycle` finding.
    pub degraded_cycles: u64,
    /// `DegradedCycle` findings observed across completed cycles (the
    /// zero-fail-silence cross-check for `degraded_cycles`).
    pub degraded_findings: u64,
    /// Table screens shed across all completed cycles.
    pub tables_shed: u64,
    /// Starvation notices recorded with the supervisor.
    pub starved_notes: u64,
    /// Storm events the producers attempted to post.
    pub offered_events: u64,
    /// ... of which the queue accepted.
    pub accepted_events: u64,
    /// ... of which were shed at a producer's own lane bound.
    pub shed_events: u64,
    /// ... of which were refused with a retry hint (producer backed
    /// off until its next tick).
    pub backpressured_events: u64,
    /// Supervisor restarts of the (healthy) audit process — every one
    /// is a watermark-driven false positive, since no process fault is
    /// ever injected.
    pub false_restarts: u64,
    /// Controller-restart escalations requested.
    pub escalations: u64,
    /// Call transactions completed by the background workload.
    pub calls_completed: u64,
}

/// Aggregated result of many runs at one (model, load, isolation)
/// point.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StormCampaignResult {
    /// Runs executed.
    pub runs: u64,
    /// Corruptions planted across all runs.
    pub injected: u64,
    /// Merged outcome tally.
    pub outcomes: OutcomeCounts,
    /// Runs whose corruption was detected in time.
    pub detected_runs: u64,
    /// Mean per-run detection latency (floors included for undetected
    /// runs — an underestimate exactly when detection failed).
    pub detection_latency_s: f64,
    /// Worst per-run detection latency (or floor).
    pub max_detection_latency_s: f64,
    /// Mean completed-cycle duration across runs.
    pub mean_cycle_s: f64,
    /// Summed counters across runs.
    pub cycles_completed: u64,
    /// Aborted in-flight cycles across runs.
    pub cycles_aborted: u64,
    /// Degraded cycles across runs.
    pub degraded_cycles: u64,
    /// Shed table screens across runs.
    pub tables_shed: u64,
    /// Starvation notices across runs.
    pub starved_notes: u64,
    /// Offered storm events across runs.
    pub offered_events: u64,
    /// Accepted storm events across runs.
    pub accepted_events: u64,
    /// Lane-shed storm events across runs.
    pub shed_events: u64,
    /// Backpressured storm events across runs.
    pub backpressured_events: u64,
    /// False audit restarts across runs.
    pub false_restarts: u64,
    /// Escalations across runs.
    pub escalations: u64,
    /// Completed calls across runs.
    pub calls_completed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    ClientTick,
    Supervise,
    AuditStart,
    AuditDone { gen: u64 },
    Corrupt,
}

/// Producer ticks: how often storm posts are batched.
const CLIENT_TICK: SimDuration = SimDuration::from_millis(100);

/// The isolation arm's IPC sizing: the queue bound caps one cycle's
/// drain cost at `2048 × EVENT_COST ≈ 1 s`.
fn isolated_ipc() -> IpcConfig {
    IpcConfig { capacity: 2_048, lane_capacity: 512, retry_after: SimDuration::from_millis(10) }
}

/// The no-isolation arm: one giant shared queue (the historical
/// behavior, scaled up so nothing is ever refused within a run).
fn unisolated_ipc() -> IpcConfig {
    IpcConfig {
        capacity: 1 << 22,
        lane_capacity: 1 << 22,
        retry_after: SimDuration::from_millis(10),
    }
}

/// The isolation arm's audit CPU budget: 85 record-screens per second
/// guaranteed. Calibrated against [`isolated_ipc`]: a calm or
/// single-spammer cycle (lane-capped drain plus the 212-record standard
/// schema) fits in one period's refill, while a full aggregate flood
/// (queue-bound drain of 2 048 events = 256 tokens) overruns it, so
/// only *collective* overload degrades cycles — never one rogue client.
fn isolated_budget() -> BudgetConfig {
    BudgetConfig { refill_per_sec: 85, burst: 600 }
}

/// Runs one storm run and returns its result.
pub fn run_once(config: &StormCampaignConfig, seed: u64) -> StormRunResult {
    let mut rng = SimRng::seed_from(seed);
    let audit_config = AuditConfig {
        periodic_interval: AUDIT_PERIOD,
        // A full scan every cycle, so detection is decided by the
        // overload dynamics, not by the change-tracking window.
        full_rescan_period: 1,
        // The long-lived victim record must not be swept as an orphan.
        orphan_grace: SimDuration::from_secs(1_000_000),
        budget: config.isolation.then(isolated_budget),
        ..AuditConfig::default()
    };
    let mut c = Controller::new(schema::standard_schema_with_slots(SLOTS))
        .expect("schema builds")
        .with_audit(audit_config)
        .with_supervision(config.supervisor);
    c.api = DbApi::with_ipc(if config.isolation { isolated_ipc() } else { unisolated_ipc() });
    // Watch the audit's progress watermark: this is the supervision
    // behavior the storm subverts (a busy auditor looks livelocked).
    let audit_pid = c.audit_pid().expect("audit attached");
    c.supervisor_mut().expect("supervision attached").register(
        audit_pid,
        SupervisedRole::Audit,
        true,
        SimTime::ZERO,
    );
    let mut workers = Worker::spawn_all(&mut c, CLIENTS);

    // The victim: a long-lived valid connection record whose ruled
    // caller_id field the storm-time corruption will flip out of range.
    let victim_pid = workers[0].pid;
    let victim = c
        .api
        .alloc_record(&mut c.db, victim_pid, schema::CONNECTION_TABLE, SimTime::ZERO)
        .expect("victim slot");
    c.api
        .write_fld(
            &mut c.db,
            victim_pid,
            schema::CONNECTION_TABLE,
            victim,
            schema::connection::CALLER_ID,
            1_234,
            SimTime::ZERO,
        )
        .expect("victim field");

    let mut queue: EventQueue<Ev> = EventQueue::new();
    queue.schedule(SimTime::ZERO + CLIENT_TICK, Ev::ClientTick);
    queue.schedule(SimTime::ZERO + HEARTBEAT_INTERVAL, Ev::Supervise);
    queue.schedule(SimTime::ZERO + AUDIT_PERIOD, Ev::AuditStart);
    queue.schedule(SimTime::ZERO + CORRUPT_AT, Ev::Corrupt);

    let end_of_run = SimTime::ZERO + config.duration;
    let mut r = StormRunResult::default();
    let mut cycle_time = Accumulator::new();
    let mut corrupted_at: Option<SimTime> = None;
    let mut detected_at: Option<SimTime> = None;
    // Generation guard: an audit restart aborts the in-flight cycle.
    let mut cycle_gen: u64 = 0;
    let mut inflight: Option<SimTime> = None; // start time of the in-flight cycle

    while let Some(at) = queue.peek_time() {
        if at > end_of_run {
            break;
        }
        let (now, ev) = queue.pop().expect("peeked");
        match ev {
            Ev::ClientTick => {
                for (i, w) in workers.iter_mut().enumerate() {
                    if c.registry.responsiveness(w.pid) != Some(Responsiveness::Responsive) {
                        continue;
                    }
                    w.step_call(&mut c.db, &mut c.api, now);
                    c.supervisor_mut().expect("supervision attached").note_progress(w.pid, now);
                    let n = storm_posts(config, i, now, &mut rng);
                    for k in 0..n {
                        r.offered_events += 1;
                        let verdict = c.api.post_event(
                            w.pid,
                            DbOp::ReadFld,
                            Some(schema::CONNECTION_TABLE),
                            Some((k % u64::from(SLOTS)) as u32),
                            now,
                        );
                        match verdict {
                            Enqueue::Accepted => r.accepted_events += 1,
                            Enqueue::Shed => r.shed_events += 1,
                            Enqueue::Backpressure { .. } => {
                                // Honor the hint: drop the rest of this
                                // tick's batch and retry next tick.
                                r.backpressured_events += 1;
                                break;
                            }
                        }
                    }
                }
                queue.schedule(now + CLIENT_TICK, Ev::ClientTick);
            }
            Ev::Supervise => {
                let audit_pid = c.audit_pid();
                let report = c.supervise_tick(now).expect("supervision attached");
                let audit_restarted =
                    report.restarts.iter().any(|&(old, _)| Some(old) == audit_pid);
                Worker::rebind(&mut workers, &report.restarts, &mut c);
                // No process fault is ever injected: every restart the
                // supervisor performs is a false positive.
                r.false_restarts += report.restarts.len() as u64;
                if audit_restarted {
                    // The in-flight cycle dies with the old incarnation;
                    // its drained-but-unprocessed work is lost.
                    if inflight.take().is_some() {
                        r.cycles_aborted += 1;
                    }
                    cycle_gen += 1;
                    let fresh = AuditProcess::new(audit_config, &c.db);
                    *c.audit_mut().expect("audit attached") = fresh;
                    queue.schedule(now + AUDIT_PERIOD, Ev::AuditStart);
                }
                queue.schedule(now + HEARTBEAT_INTERVAL, Ev::Supervise);
            }
            Ev::AuditStart => {
                // Cost model: the cycle occupies the auditor for the
                // drain of the current backlog plus the screen work;
                // results publish at completion.
                let backlog = c.api.events().len() as u64;
                let screens: u64 =
                    c.db.catalog().tables().map(|tm| u64::from(tm.def.record_count)).sum();
                let cost = EVENT_COST * backlog + RECORD_COST * screens;
                inflight = Some(now);
                queue.schedule(now + cost, Ev::AuditDone { gen: cycle_gen });
            }
            Ev::AuditDone { gen } => {
                if gen != cycle_gen {
                    continue; // aborted incarnation
                }
                // A condemned auditor awaiting its restart (backing
                // off) cannot finish the cycle: it stays in flight and
                // is counted aborted when the restart lands.
                let Some(report) = c.run_audit_cycle(now) else {
                    continue;
                };
                let started = inflight.take().expect("cycle in flight");
                r.cycles_completed += 1;
                cycle_time.push(now.saturating_since(started).as_secs_f64());
                if !report.tables_shed.is_empty() {
                    let audit_pid = c.audit_pid().expect("audit attached");
                    c.supervisor_mut().expect("supervision attached").note_starved(audit_pid, now);
                }
                r.tables_shed += report.tables_shed.len() as u64;
                r.degraded_findings +=
                    report.by_element(wtnc_audit::AuditElementKind::DegradedCycle).count() as u64;
                if corrupted_at.is_some() && detected_at.is_none() {
                    let caught = report.findings.iter().any(|f| {
                        f.element == wtnc_audit::AuditElementKind::Range
                            && f.table == Some(schema::CONNECTION_TABLE)
                    });
                    if caught {
                        detected_at = Some(now);
                    }
                }
                queue.schedule((started + AUDIT_PERIOD).max(now), Ev::AuditStart);
            }
            Ev::Corrupt => {
                let rec = RecordRef::new(schema::CONNECTION_TABLE, victim);
                let (off, len) =
                    c.db.field_extent(rec, schema::connection::CALLER_ID).expect("ext");
                // Flip the MSB of the little-endian u32: far outside the
                // 0..=9_999 range rule.
                c.db.flip_bit(off + len - 1, 7).expect("in region");
                corrupted_at = Some(now);
                r.injected += 1;
            }
        }
    }

    r.detected = detected_at.is_some();
    if let Some(t0) = corrupted_at {
        let latency = match detected_at {
            Some(t) => t.saturating_since(t0),
            None => end_of_run.saturating_since(t0),
        };
        r.detection_latency_s = latency.as_secs_f64();
        r.outcomes.record(if r.detected {
            RunOutcome::AuditDetection
        } else {
            RunOutcome::ClientHang
        });
    }
    r.degraded_cycles = c.audit().expect("audit attached").degraded_cycles();
    let ledger = c.supervisor().expect("supervision attached").ledger();
    r.starved_notes = ledger.starved_notes;
    r.escalations = ledger.controller_restarts_requested;
    r.mean_cycle_s = cycle_time.mean();
    r.calls_completed = workers.iter().map(|w| w.completed).sum();
    r
}

/// How many storm events client `i` posts this tick under the model.
fn storm_posts(config: &StormCampaignConfig, i: usize, now: SimTime, rng: &mut SimRng) -> u64 {
    let per_tick = config.load * SATURATION_EVENTS_PER_SEC * CLIENT_TICK.as_secs_f64();
    let share = match config.model {
        StormModel::SuperProducer => {
            if i == 0 {
                per_tick
            } else {
                0.0
            }
        }
        StormModel::IpcFlood => per_tick / f64::from(CLIENTS),
        StormModel::DiurnalBurst => {
            // 20 s busy-hour bursts alternating with quarter-rate lulls.
            let phase = (now.as_secs_f64() / 20.0) as u64 % 2;
            let factor = if phase == 0 { 1.0 } else { 0.25 };
            factor * per_tick / f64::from(CLIENTS)
        }
    };
    // Saturate at `MAX_LOAD`'s volume, then dither the fractional part
    // deterministically so low rates still average out correctly.
    let share = share.min(MAX_LOAD * SATURATION_EVENTS_PER_SEC * CLIENT_TICK.as_secs_f64());
    let whole = share as u64;
    whole + u64::from(rng.unit() < share.fract())
}

/// Runs `runs` independent runs in parallel and aggregates the results
/// (deterministic: identical to a serial execution).
pub fn run_campaign(config: &StormCampaignConfig, runs: usize) -> StormCampaignResult {
    let results = crate::parallel::run_runs(SEED, runs, |seed| run_once(config, seed));
    let mut total = StormCampaignResult { runs: runs as u64, ..StormCampaignResult::default() };
    let mut latency = Accumulator::new();
    let mut cycle = Accumulator::new();
    for r in results {
        total.injected += r.injected;
        total.outcomes.merge(&r.outcomes);
        total.detected_runs += u64::from(r.detected);
        latency.push(r.detection_latency_s);
        if r.cycles_completed > 0 {
            cycle.push(r.mean_cycle_s);
        }
        total.cycles_completed += r.cycles_completed;
        total.cycles_aborted += r.cycles_aborted;
        total.degraded_cycles += r.degraded_cycles;
        total.tables_shed += r.tables_shed;
        total.starved_notes += r.starved_notes;
        total.offered_events += r.offered_events;
        total.accepted_events += r.accepted_events;
        total.shed_events += r.shed_events;
        total.backpressured_events += r.backpressured_events;
        total.false_restarts += r.false_restarts;
        total.escalations += r.escalations;
        total.calls_completed += r.calls_completed;
    }
    total.detection_latency_s = latency.mean();
    total.max_detection_latency_s = latency.max().unwrap_or(0.0);
    total.mean_cycle_s = cycle.mean();
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storm(model: StormModel, load: f64, isolation: bool) -> StormCampaignConfig {
        StormCampaignConfig { model, load, isolation, ..StormCampaignConfig::default() }
    }

    #[test]
    fn posts_per_tick_saturate_at_the_max_load() {
        let posts = |load: f64| {
            let mut rng = SimRng::seed_from(1);
            storm_posts(&storm(StormModel::SuperProducer, load, true), 0, SimTime::ZERO, &mut rng)
        };
        let cap = posts(MAX_LOAD);
        assert_eq!(cap, 20_000);
        for load in [MAX_LOAD * 2.0, 1e300, f64::INFINITY] {
            assert_eq!(posts(load), cap, "load {load}");
        }
        // Shipped loads are far below the cap and keep their volume.
        assert_eq!(posts(4.0), 800);
    }

    #[test]
    fn every_offered_event_is_accounted() {
        for model in StormModel::ALL {
            let r = run_once(&storm(model, 4.0, true), 3);
            assert!(r.offered_events > 0, "{model:?}");
            assert_eq!(
                r.offered_events,
                r.accepted_events + r.shed_events + r.backpressured_events,
                "{model:?}: every post gets exactly one verdict"
            );
            assert_eq!(r.outcomes.total(), r.injected, "{model:?}: outcome accounting");
        }
    }

    #[test]
    fn degraded_cycles_are_never_silent() {
        let r = run_once(&storm(StormModel::IpcFlood, 4.0, true), 5);
        assert!(r.degraded_cycles > 0, "aggregate flood at 4x saturation must shed screens: {r:?}");
        assert_eq!(
            r.degraded_cycles, r.degraded_findings,
            "every degraded cycle surfaces an explicit finding"
        );
        assert_eq!(
            r.starved_notes, r.degraded_cycles,
            "every degraded cycle files a starvation notice"
        );
        // Shedding keeps the hot table screened: detection still lands.
        assert!(r.detected, "degradation must not blind the auditor: {r:?}");
    }

    #[test]
    fn super_producer_is_shed_without_evicting_the_quiet_clients() {
        let r = run_once(&storm(StormModel::SuperProducer, 4.0, true), 7);
        assert!(r.shed_events + r.backpressured_events > 0, "past saturation the lane caps bite");
        // The background workload keeps completing calls throughout.
        assert!(r.calls_completed > 0);
        // Fairness contains a single spammer at its lane *before* the
        // spam can eat the audit budget: no degraded cycles, unlike the
        // aggregate flood at the same offered load.
        assert_eq!(r.degraded_cycles, 0, "one rogue lane must not degrade the audit: {r:?}");
    }

    #[test]
    fn isolation_bounds_detection_latency_under_storm() {
        let with = run_once(&storm(StormModel::SuperProducer, 4.0, true), 11);
        let without = run_once(&storm(StormModel::SuperProducer, 4.0, false), 11);
        assert!(with.detected, "isolated auditor detects mid-storm: {with:?}");
        assert!(
            with.false_restarts == 0,
            "no watermark-driven false restarts with isolation: {with:?}"
        );
        assert!(
            without.false_restarts > 0,
            "without isolation the busy auditor is condemned as livelocked: {without:?}"
        );
        assert!(
            !without.detected || without.detection_latency_s > 2.0 * with.detection_latency_s,
            "without isolation detection is late or never: with={} without={} (detected={})",
            with.detection_latency_s,
            without.detection_latency_s,
            without.detected,
        );
    }

    #[test]
    fn unloaded_baseline_detects_promptly_in_both_arms() {
        for isolation in [true, false] {
            let r = run_once(&storm(StormModel::SuperProducer, 0.1, isolation), 13);
            assert!(r.detected, "isolation={isolation}: {r:?}");
            assert!(r.false_restarts == 0, "isolation={isolation}: {r:?}");
            assert!(
                r.detection_latency_s <= 2.0 * AUDIT_PERIOD.as_secs_f64(),
                "unloaded detection within ~2 cycles: {r:?}"
            );
        }
    }

    #[test]
    fn escalated_storm_executes_the_controller_restart() {
        // Fast escalation under an unisolated 4x flood: the busy
        // auditor is condemned until its lineage exhausts the backoff
        // ladder. The requested controller restart is executed, which
        // clears the lineage's storm history, so the auditor comes
        // back and the ladder can escalate again.
        let config = StormCampaignConfig {
            supervisor: SupervisorConfig {
                storm_threshold: 2,
                backoff_base: SimDuration::from_secs(4),
                escalate_after_backoffs: 1,
                ..SupervisorConfig::default()
            },
            ..storm(StormModel::IpcFlood, 4.0, false)
        };
        let r = run_once(&config, 0);
        assert!(r.escalations >= 2, "the restarted auditor escalated again: {r:?}");
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_once(&storm(StormModel::DiurnalBurst, 3.0, true), 77);
        let b = run_once(&storm(StormModel::DiurnalBurst, 3.0, true), 77);
        assert_eq!(a, b);
    }

    #[test]
    fn campaign_aggregates_across_runs() {
        let r = run_campaign(&storm(StormModel::IpcFlood, 2.0, true), 3);
        assert_eq!(r.runs, 3);
        assert_eq!(r.outcomes.total(), r.injected);
        assert_eq!(r.detected_runs, 3, "{r:?}");
        assert!(r.max_detection_latency_s >= r.detection_latency_s);
    }
}
