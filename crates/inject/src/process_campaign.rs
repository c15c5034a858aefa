//! Process-fault injection campaign driving the supervision loop.
//!
//! The database and text campaigns corrupt *data*; this harness faults
//! the *processes* themselves, exercising the supervision tier end to
//! end ([`Supervisor`](wtnc_audit::Supervisor), run through the
//! [`Controller`]): clients and the audit process register as
//! supervised, faults are injected as crashes, hangs (alive but
//! silent, optionally holding a record lock) and livelocks (replying
//! but making no database progress), and every fault must be detected,
//! its stolen locks released, and its lineage warm-restarted — or, on
//! a restart storm, escalated through backoff to a controller restart.
//!
//! Each injected fault is classified into the extended Table 7
//! taxonomy:
//!
//! * [`RunOutcome::DetectedRepaired`] — condemned and warm-restarted
//!   (or swept healthy by a controller restart another lineage
//!   triggered);
//! * [`RunOutcome::RepairFailed`] — the lineage exhausted its backoff
//!   ladder; only the global controller restart recovered it;
//! * [`RunOutcome::AuditDetection`] — condemned by the supervision
//!   tier but the run ended mid-backoff, before the restart completed;
//! * [`RunOutcome::ClientHang`] — the fault was never detected within
//!   the run (the process stayed silently out of service);
//! * [`RunOutcome::NotActivated`] — no healthy target existed at
//!   injection time.
//!
//! Alongside the outcome tally the campaign reports the supervision
//! tier's quality-of-service numbers: per-fault detection latency and
//! unavailability, total downtime, dropped calls and stolen locks —
//! the availability accounting the paper's 5ESS lineage (§2) demands
//! of a telephone controller.

use wtnc_audit::{
    AuditConfig, RecoveryAction, RestartRecord, SupervisorConfig, HEARTBEAT_INTERVAL,
};
use wtnc_db::{schema, Database, DbApi, RecordRef};
use wtnc_sim::stats::Accumulator;
use wtnc_sim::{EventQueue, Pid, Responsiveness, SimDuration, SimRng, SimTime};

use crate::outcome::{OutcomeCounts, RunOutcome};
use crate::Controller;

/// The process-fault models (the rows of the campaign table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessFaultModel {
    /// A call-processing client dies outright; its connection vanishes
    /// but any locks it held stay behind.
    ClientCrash,
    /// A client hangs — alive but silent — while holding a record
    /// lock, the paper's motivating deadlock scenario ("terminates the
    /// client process holding the lock …, thereby releasing the
    /// lock").
    ClientHangWithLock,
    /// A client livelocks: it keeps answering heartbeat probes but
    /// stops making database progress. Only per-process progress
    /// accounting can see this.
    ClientLivelock,
    /// The audit process itself crashes (the auditor is a fault domain
    /// of its own).
    AuditCrash,
    /// The audit process hangs alive-but-silent; its heartbeat element
    /// is reachable but must not count as replying.
    AuditHang,
}

impl ProcessFaultModel {
    /// Every model, in campaign-table order.
    pub const ALL: [ProcessFaultModel; 5] = [
        ProcessFaultModel::ClientCrash,
        ProcessFaultModel::ClientHangWithLock,
        ProcessFaultModel::ClientLivelock,
        ProcessFaultModel::AuditCrash,
        ProcessFaultModel::AuditHang,
    ];

    /// Stable snake_case name (JSON column key).
    pub fn name(self) -> &'static str {
        match self {
            ProcessFaultModel::ClientCrash => "client_crash",
            ProcessFaultModel::ClientHangWithLock => "client_hang_with_lock",
            ProcessFaultModel::ClientLivelock => "client_livelock",
            ProcessFaultModel::AuditCrash => "audit_crash",
            ProcessFaultModel::AuditHang => "audit_hang",
        }
    }

    fn targets_audit(self) -> bool {
        matches!(self, ProcessFaultModel::AuditCrash | ProcessFaultModel::AuditHang)
    }
}

/// Client work-transaction period: every period each healthy client
/// advances its current call by one step.
const WORK_PERIOD: SimDuration = SimDuration::from_secs(2);

/// Periodic audit-cycle interval.
const AUDIT_PERIOD: SimDuration = SimDuration::from_secs(10);

/// Record slots per dynamic table.
const SLOTS: u32 = 64;

/// Base seed the campaign draws its run seeds from.
const SEED: u64 = 0x5EC5;

/// Configuration of one process-campaign run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessCampaignConfig {
    /// Run length.
    pub duration: SimDuration,
    /// Mean fault inter-arrival time (exponential).
    pub fault_iat: SimDuration,
    /// Call-processing clients.
    pub clients: u32,
    /// Supervision thresholds. The supervision tick runs every
    /// [`HEARTBEAT_INTERVAL`].
    pub supervisor: SupervisorConfig,
    /// The fault model injected this run.
    pub model: ProcessFaultModel,
}

impl Default for ProcessCampaignConfig {
    fn default() -> Self {
        ProcessCampaignConfig {
            duration: SimDuration::from_secs(600),
            fault_iat: SimDuration::from_secs(60),
            clients: 4,
            supervisor: SupervisorConfig::default(),
            model: ProcessFaultModel::ClientCrash,
        }
    }
}

/// Result of one process-campaign run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProcessRunResult {
    /// Faults injected (including `NotActivated` attempts).
    pub injected: u64,
    /// Per-fault outcome tally.
    pub outcomes: OutcomeCounts,
    /// Faults the supervision tier condemned within the run.
    pub detected: u64,
    /// Mean detection latency (fault injection to condemnation),
    /// virtual seconds, over detected faults.
    pub detection_latency_s: f64,
    /// Mean unavailability interval (fault injection to completed
    /// restart), virtual seconds, over restarted faults.
    pub unavailable_s: f64,
    /// Total supervised downtime at end of run (closed + open
    /// intervals), virtual seconds.
    pub downtime_s: f64,
    /// Warm restarts performed.
    pub restarts: u64,
    /// Storm escalations (controller restarts requested).
    pub escalations: u64,
    /// Controller restarts executed.
    pub controller_restarts: u64,
    /// Calls dropped because their owning client went down.
    pub dropped_calls: u64,
    /// Locks stolen from condemned processes.
    pub locks_stolen: u64,
    /// Call transactions completed by the workload.
    pub calls_completed: u64,
    /// The supervision trace: every restart record in occurrence
    /// order. Deterministic (same seed ⇒ identical trace).
    pub trace: Vec<RestartRecord>,
}

/// Aggregated result of many runs of one fault model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProcessCampaignResult {
    /// Faults injected across all runs.
    pub injected: u64,
    /// Merged outcome tally.
    pub outcomes: OutcomeCounts,
    /// Detected faults across all runs.
    pub detected: u64,
    /// Mean of per-run mean detection latencies, virtual seconds.
    pub detection_latency_s: f64,
    /// Mean of per-run mean unavailability intervals, virtual seconds.
    pub unavailable_s: f64,
    /// Total downtime across all runs, virtual seconds.
    pub downtime_s: f64,
    /// Warm restarts across all runs.
    pub restarts: u64,
    /// Storm escalations across all runs.
    pub escalations: u64,
    /// Controller restarts executed across all runs.
    pub controller_restarts: u64,
    /// Dropped calls across all runs.
    pub dropped_calls: u64,
    /// Stolen locks across all runs.
    pub locks_stolen: u64,
    /// Completed call transactions across all runs.
    pub calls_completed: u64,
}

/// A call-processing worker: one supervised client advancing a
/// two-step call transaction (allocate + write, then read + free) on
/// the connection table, holding the record lock while the call is in
/// flight. The storm campaign's background workload runs the same
/// worker.
#[derive(Debug)]
pub(crate) struct Worker {
    pub(crate) pid: Pid,
    /// The in-flight call's connection-record index.
    pub(crate) call: Option<u32>,
    pub(crate) completed: u64,
}

impl Worker {
    /// Spawns `clients` supervised workers named `client-<i>`.
    pub(crate) fn spawn_all(c: &mut Controller, clients: u32) -> Vec<Worker> {
        (0..clients)
            .map(|i| Worker {
                pid: c.spawn_client(&format!("client-{i}"), SimTime::ZERO),
                call: None,
                completed: 0,
            })
            .collect()
    }

    /// Re-binds the workers to their restarted pids. A restarted
    /// worker's in-flight call is dropped (its lock was already stolen
    /// at condemnation); the controller re-opened its connection.
    pub(crate) fn rebind(workers: &mut [Worker], restarts: &[(Pid, Pid)], c: &mut Controller) {
        for &(old, new) in restarts {
            if let Some(w) = workers.iter_mut().find(|w| w.pid == old) {
                w.pid = new;
                if w.call.take().is_some() {
                    c.supervisor_mut().expect("supervision attached").note_dropped_calls(1);
                }
            }
        }
    }

    /// Advances the call transaction by one step. The caller id written
    /// is the pid modulo 9 999, inside CALLER_ID's `0..=9_999` range
    /// rule however many restarts the run has seen.
    pub(crate) fn step_call(&mut self, db: &mut Database, api: &mut DbApi, now: SimTime) {
        let table = schema::CONNECTION_TABLE;
        match self.call {
            None => {
                let Ok(index) = api.alloc_record(db, self.pid, table, now) else {
                    return;
                };
                let rec = RecordRef::new(table, index);
                if api.lock(db, rec, self.pid, now).is_err() {
                    let _ = api.free_record(db, self.pid, table, index, now);
                    return;
                }
                let _ = api.write_fld(
                    db,
                    self.pid,
                    table,
                    index,
                    schema::connection::CALLER_ID,
                    u64::from(self.pid.0) % 9_999,
                    now,
                );
                self.call = Some(index);
            }
            Some(index) => {
                let rec = RecordRef::new(table, index);
                let _ =
                    api.read_fld(db, self.pid, table, index, schema::connection::CALLER_ID, now);
                api.unlock(rec, self.pid);
                let _ = api.free_record(db, self.pid, table, index, now);
                self.call = None;
                self.completed += 1;
            }
        }
    }
}

/// One injected fault awaiting resolution.
#[derive(Debug)]
struct PendingFault {
    /// The pid the fault was injected into (restart records name it as
    /// their `old` pid).
    pid: Pid,
    injected_at: SimTime,
    /// This lineage exhausted its backoff ladder: a
    /// `RequestedControllerRestart` finding named it, so its eventual
    /// storm-sweep restart is a local-repair failure.
    escalated: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    WorkTick,
    Supervise,
    AuditTick,
    Inject,
}

/// Runs one process-campaign run and returns its result.
pub fn run_once(config: &ProcessCampaignConfig, seed: u64) -> ProcessRunResult {
    let mut rng = SimRng::seed_from(seed);
    let mut c = Controller::new(schema::standard_schema_with_slots(SLOTS))
        .expect("schema builds")
        .with_audit(AuditConfig { periodic_interval: AUDIT_PERIOD, ..AuditConfig::default() })
        .with_supervision(config.supervisor);
    let mut workers = Worker::spawn_all(&mut c, config.clients);

    let mut queue: EventQueue<Ev> = EventQueue::new();
    queue.schedule(SimTime::ZERO + WORK_PERIOD, Ev::WorkTick);
    queue.schedule(SimTime::ZERO + HEARTBEAT_INTERVAL, Ev::Supervise);
    queue.schedule(SimTime::ZERO + AUDIT_PERIOD, Ev::AuditTick);
    queue.schedule(SimTime::ZERO + rng.exponential(config.fault_iat), Ev::Inject);

    let mut injected: u64 = 0;
    let mut outcomes = OutcomeCounts::new();
    let mut pending: Vec<PendingFault> = Vec::new();
    let mut detection = Accumulator::new();
    let mut unavailability = Accumulator::new();
    let end_of_run = SimTime::ZERO + config.duration;
    let mut final_now = SimTime::ZERO;

    while let Some(at) = queue.peek_time() {
        if at > end_of_run {
            break;
        }
        let (now, ev) = queue.pop().expect("peeked");
        final_now = now;
        match ev {
            Ev::WorkTick => {
                for w in workers.iter_mut() {
                    if c.registry.responsiveness(w.pid) != Some(Responsiveness::Responsive) {
                        continue;
                    }
                    w.step_call(&mut c.db, &mut c.api, now);
                    c.supervisor_mut().expect("supervision attached").note_progress(w.pid, now);
                }
                queue.schedule(now + WORK_PERIOD, Ev::WorkTick);
            }
            Ev::Supervise => {
                let ledger_before = supervisor(&c).ledger().restarts.len();
                let report = c.supervise_tick(now).expect("supervision attached");
                // An escalation finding marks its lineage's pending
                // fault as beyond local repair.
                for f in &report.findings {
                    if matches!(f.action, RecoveryAction::RequestedControllerRestart) {
                        if let Some(wtnc_audit::FindingTarget::Client { pid }) = f.target {
                            for p in pending.iter_mut().filter(|p| p.pid == pid) {
                                p.escalated = true;
                            }
                        }
                    }
                }
                Worker::rebind(&mut workers, &report.restarts, &mut c);
                // Resolve pending faults against the new trace tail.
                for rec in &supervisor(&c).ledger().restarts[ledger_before..] {
                    let Some(i) = pending.iter().position(|p| p.pid == rec.old) else {
                        continue;
                    };
                    let fault = pending.swap_remove(i);
                    let outcome = if fault.escalated {
                        RunOutcome::RepairFailed
                    } else {
                        RunOutcome::DetectedRepaired
                    };
                    outcomes.record(outcome);
                    detection
                        .push(rec.condemned_at.saturating_since(fault.injected_at).as_secs_f64());
                    unavailability
                        .push(rec.restarted_at.saturating_since(fault.injected_at).as_secs_f64());
                }
                queue.schedule(now + HEARTBEAT_INTERVAL, Ev::Supervise);
            }
            Ev::AuditTick => {
                let audit_pid = c.audit_pid().expect("audit attached");
                if c.registry.responsiveness(audit_pid) == Some(Responsiveness::Responsive) {
                    c.run_audit_cycle(now);
                }
                queue.schedule(now + AUDIT_PERIOD, Ev::AuditTick);
            }
            Ev::Inject => {
                injected += 1;
                match inject_fault(config.model, &mut rng, &workers, &pending, &mut c, now) {
                    Some(fault) => pending.push(fault),
                    None => outcomes.record(RunOutcome::NotActivated),
                }
                queue.schedule(now + rng.exponential(config.fault_iat), Ev::Inject);
            }
        }
    }

    let sup = supervisor(&c);
    // Faults still pending at end of run.
    for fault in &pending {
        if sup.is_down(fault.pid) {
            // Condemned but the run ended mid-backoff, before the warm
            // restart completed: the supervision tier *did* detect it,
            // so it scores as a detection without a closed repair.
            outcomes.record(RunOutcome::AuditDetection);
            detection.push(final_now.saturating_since(fault.injected_at).as_secs_f64());
        } else {
            // Never condemned: the process sat silently out of service
            // for the rest of the run.
            outcomes.record(RunOutcome::ClientHang);
        }
    }

    let ledger = sup.ledger();
    ProcessRunResult {
        injected,
        detected: detection.count(),
        detection_latency_s: detection.mean(),
        unavailable_s: unavailability.mean(),
        downtime_s: sup.total_downtime(final_now).as_secs_f64(),
        restarts: ledger.restarts.len() as u64,
        escalations: ledger.controller_restarts_requested,
        controller_restarts: ledger.controller_restarts_executed,
        dropped_calls: ledger.dropped_calls,
        locks_stolen: ledger.restarts.iter().map(|r| r.locks_stolen as u64).sum(),
        calls_completed: workers.iter().map(|w| w.completed).sum(),
        trace: ledger.restarts.clone(),
        outcomes,
    }
}

fn supervisor(c: &Controller) -> &wtnc_audit::Supervisor {
    c.supervisor().expect("supervision attached")
}

/// Injects one fault per the model. Returns `None` when no healthy
/// target existed (the attempt is `NotActivated`).
fn inject_fault(
    model: ProcessFaultModel,
    rng: &mut SimRng,
    workers: &[Worker],
    pending: &[PendingFault],
    c: &mut Controller,
    now: SimTime,
) -> Option<PendingFault> {
    let sup = supervisor(c);
    let healthy = |pid: Pid| {
        c.registry.responsiveness(pid) == Some(Responsiveness::Responsive)
            && !sup.is_down(pid)
            && !pending.iter().any(|p| p.pid == pid)
    };
    let target = if model.targets_audit() {
        let audit_pid = c.audit_pid().expect("audit attached");
        if healthy(audit_pid) {
            Some((audit_pid, None))
        } else {
            None
        }
    } else {
        let candidates: Vec<&Worker> = workers.iter().filter(|w| healthy(w.pid)).collect();
        if candidates.is_empty() {
            None
        } else {
            let w = candidates[rng.index(candidates.len())];
            Some((w.pid, w.call))
        }
    };
    let (pid, call) = target?;
    match model {
        ProcessFaultModel::ClientCrash | ProcessFaultModel::AuditCrash => {
            c.registry.crash(pid, now);
            if model == ProcessFaultModel::ClientCrash {
                // The connection vanishes; locks stay behind (the
                // supervisor must steal them).
                c.api.crash_client(pid);
            }
        }
        ProcessFaultModel::ClientHangWithLock => {
            // Make sure the victim holds a lock when it freezes: its
            // in-flight call record, or a fresh lock it wedges on.
            if call.is_none() {
                let index = rng.index(8) as u32;
                let _ =
                    c.api.lock(&c.db, RecordRef::new(schema::CONNECTION_TABLE, index), pid, now);
            }
            c.registry.set_responsiveness(pid, Responsiveness::Hung);
        }
        ProcessFaultModel::ClientLivelock => {
            c.registry.set_responsiveness(pid, Responsiveness::Livelocked);
        }
        ProcessFaultModel::AuditHang => {
            c.registry.set_responsiveness(pid, Responsiveness::Hung);
        }
    }
    Some(PendingFault { pid, injected_at: now, escalated: false })
}

/// Runs `runs` independent runs in parallel and sums the results
/// (deterministic: identical to a serial execution).
pub fn run_campaign(config: &ProcessCampaignConfig, runs: usize) -> ProcessCampaignResult {
    let results = crate::parallel::run_runs(SEED, runs, |seed| run_once(config, seed));
    let mut total = ProcessCampaignResult::default();
    let mut latency = Accumulator::new();
    let mut unavail = Accumulator::new();
    for r in results {
        total.injected += r.injected;
        total.outcomes.merge(&r.outcomes);
        total.detected += r.detected;
        total.downtime_s += r.downtime_s;
        total.restarts += r.restarts;
        total.escalations += r.escalations;
        total.controller_restarts += r.controller_restarts;
        total.dropped_calls += r.dropped_calls;
        total.locks_stolen += r.locks_stolen;
        total.calls_completed += r.calls_completed;
        if r.detected > 0 {
            latency.push(r.detection_latency_s);
        }
        if r.restarts > 0 {
            unavail.push(r.unavailable_s);
        }
    }
    total.detection_latency_s = latency.mean();
    total.unavailable_s = unavail.mean();
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtnc_audit::{RestartCause, SupervisedRole};

    fn short(model: ProcessFaultModel) -> ProcessCampaignConfig {
        ProcessCampaignConfig {
            duration: SimDuration::from_secs(300),
            fault_iat: SimDuration::from_secs(30),
            model,
            ..ProcessCampaignConfig::default()
        }
    }

    #[test]
    fn every_client_crash_is_detected_and_restarted() {
        let r = run_once(&short(ProcessFaultModel::ClientCrash), 7);
        assert!(r.injected >= 5, "enough faults injected: {}", r.injected);
        assert_eq!(r.outcomes.total(), r.injected, "accounting is complete");
        assert!(r.outcomes.count(RunOutcome::DetectedRepaired) > 0, "{r:?}");
        assert_eq!(r.outcomes.count(RunOutcome::ClientHang), 0, "no crash goes unnoticed: {r:?}");
        assert!(r.detection_latency_s > 0.0);
        assert!(r.unavailable_s >= r.detection_latency_s);
        assert!(r.trace.iter().all(|t| t.cause == RestartCause::Crash));
    }

    #[test]
    fn hung_clients_lose_their_locks() {
        let r = run_once(&short(ProcessFaultModel::ClientHangWithLock), 11);
        assert!(r.injected >= 5);
        assert_eq!(r.outcomes.total(), r.injected);
        assert!(r.locks_stolen > 0, "stolen locks reported: {r:?}");
        assert!(r.outcomes.count(RunOutcome::DetectedRepaired) > 0);
        // A hang can be condemned by the heartbeat or by the stale-lock
        // backstop; either way nothing stays wedged.
        assert!(
            r.trace.iter().all(|t| matches!(t.cause, RestartCause::Hang | RestartCause::StaleLock)),
            "{:#?}",
            r.trace
        );
    }

    #[test]
    fn livelocked_clients_are_caught_by_progress_accounting() {
        let r = run_once(&short(ProcessFaultModel::ClientLivelock), 13);
        assert!(r.injected >= 5);
        assert_eq!(r.outcomes.total(), r.injected);
        assert!(r.outcomes.count(RunOutcome::DetectedRepaired) > 0, "{r:?}");
        assert!(r.trace.iter().any(|t| t.cause == RestartCause::Livelock));
    }

    #[test]
    fn audit_process_faults_are_recovered_too() {
        for model in [ProcessFaultModel::AuditCrash, ProcessFaultModel::AuditHang] {
            let r = run_once(&short(model), 17);
            assert!(r.injected >= 3, "{model:?}: {}", r.injected);
            assert_eq!(r.outcomes.total(), r.injected, "{model:?}");
            assert!(
                r.outcomes.count(RunOutcome::DetectedRepaired) > 0,
                "{model:?} recovered: {r:?}"
            );
            // Clustered audit faults may storm and escalate, sweeping
            // the (healthy) clients with Storm-cause records; every
            // *directly condemned* lineage must be the audit.
            assert!(
                r.trace
                    .iter()
                    .filter(|t| t.cause != RestartCause::Storm)
                    .all(|t| t.role == SupervisedRole::Audit),
                "{model:?}: non-storm restarts must be audit-role"
            );
        }
    }

    #[test]
    fn restart_storms_escalate_to_a_controller_restart() {
        // One client, rapid-fire crashes, small storm thresholds: the
        // lineage must storm, back off, and escalate.
        let config = ProcessCampaignConfig {
            duration: SimDuration::from_secs(600),
            fault_iat: SimDuration::from_secs(5),
            clients: 1,
            supervisor: SupervisorConfig {
                storm_threshold: 2,
                backoff_base: SimDuration::from_secs(4),
                escalate_after_backoffs: 1,
                ..SupervisorConfig::default()
            },
            model: ProcessFaultModel::ClientCrash,
        };
        let r = run_once(&config, 23);
        assert!(r.escalations > 0, "storm escalated: {r:?}");
        assert!(r.controller_restarts > 0, "controller restart executed: {r:?}");
        assert!(r.outcomes.count(RunOutcome::RepairFailed) > 0, "{r:?}");
        assert_eq!(r.outcomes.total(), r.injected);
    }

    #[test]
    fn campaign_aggregates_across_runs() {
        let r = run_campaign(&short(ProcessFaultModel::ClientCrash), 3);
        assert_eq!(r.outcomes.total(), r.injected);
        assert!(r.restarts > 0);
        assert!(r.outcomes.availability() > 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_once(&short(ProcessFaultModel::ClientHangWithLock), 77);
        let b = run_once(&short(ProcessFaultModel::ClientHangWithLock), 77);
        assert_eq!(a.trace, b.trace, "supervision traces differ under the same seed");
        assert_eq!(a, b);
    }

    #[test]
    fn downtime_outcomes_match_measured_unavailability() {
        // Cross-check the RunOutcome::implies_downtime contract: a run
        // whose faults all closed as DetectedRepaired reports its
        // service loss via unavailability intervals, while downtime
        // outcomes only appear when recovery failed or never happened.
        let r = run_once(&short(ProcessFaultModel::ClientCrash), 7);
        let down_outcomes: u64 = RunOutcome::ALL
            .iter()
            .filter(|o| o.implies_downtime())
            .map(|&o| r.outcomes.count(o))
            .sum();
        if down_outcomes == 0 {
            assert!(r.outcomes.availability() >= r.outcomes.coverage());
            assert!((r.outcomes.availability() - 100.0).abs() < 1e-9);
        }
        if r.restarts > 0 {
            assert!(r.downtime_s > 0.0, "restarts imply measured downtime: {r:?}");
        }
    }
}
