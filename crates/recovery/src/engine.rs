//! The staged recovery engine.

use std::collections::{HashMap, VecDeque};

use wtnc_audit::{AuditElementKind, AuditProcess, Finding, FindingTarget, RecoveryAction};
use wtnc_db::{Database, DbApi, RecordRef, TableId, TaintEntry, TaintFate};
use wtnc_sim::{ProcessRegistry, SimDuration, SimTime};

use crate::log::{RecoveryStats, RepairLogEntry, RepairOutcome};

/// A rung of the escalation ladder, ordered from most localized to
/// most global. Verification failures and recurring targets climb one
/// rung at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rung {
    /// Smallest repair that can close the finding: restore dirty
    /// golden blocks, reset the field to its catalog default, rebuild
    /// the header at its computed offset, or free the zombie record.
    FieldRepair,
    /// Re-initialize the whole record slot from the golden image.
    RecordReinit,
    /// Reload the table's whole extent from the golden image (dropped
    /// calls are the tolerated cost).
    TableRebuild,
    /// Terminate the client that last wrote the target (it keeps
    /// re-corrupting the data) and re-initialize the record.
    ClientRestart,
    /// Reload the entire database and request a controller restart
    /// from the manager ([`CycleOutcome::restart_requested`]). The
    /// rung itself kills or restarts no process: processes are the
    /// supervisor's.
    ControllerRestart,
}

impl Rung {
    /// The ladder in escalation order.
    pub const LADDER: [Rung; 5] = [
        Rung::FieldRepair,
        Rung::RecordReinit,
        Rung::TableRebuild,
        Rung::ClientRestart,
        Rung::ControllerRestart,
    ];

    /// Position within [`Rung::LADDER`].
    pub fn index(self) -> usize {
        Rung::LADDER.iter().position(|&r| r == self).expect("rung in ladder")
    }

    /// The next rung up (saturating at the top).
    pub fn next(self) -> Rung {
        Rung::LADDER[(self.index() + 1).min(Rung::LADDER.len() - 1)]
    }

    /// Token cost of executing this rung. A cycle's budget
    /// ([`RecoveryConfig::cycle_budget`]) is spent against these.
    pub fn cost(self) -> u32 {
        match self {
            Rung::FieldRepair => 1,
            Rung::RecordReinit => 4,
            Rung::TableRebuild => 16,
            Rung::ClientRestart => 8,
            Rung::ControllerRestart => 64,
        }
    }
}

/// Virtual controller busy time charged per budget token spent. The
/// campaign harnesses stall call arrivals for a cycle's total, which is
/// how a corruption storm degrades throughput gracefully instead of
/// freezing the controller.
pub const TOKEN_TIME: SimDuration = SimDuration::from_millis(2);

/// Block size of the golden-image CRC diff used by static-region
/// repairs.
const GOLDEN_DIFF_BLOCK: usize = 64;

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Budget tokens available per [`RecoveryEngine::run_cycle`] call.
    /// Work beyond the budget stays queued for the next cycle, keeping
    /// worst-case repair time per cycle bounded. A ticket whose rung
    /// costs more than the whole budget still runs when it is the
    /// first of its cycle (deficit-style), so an escalated repair can
    /// never stall the queue permanently.
    pub cycle_budget: u32,
    /// A target that was already repaired-and-verified this many times
    /// re-enters the queue one rung higher per multiple (localized
    /// repair is evidently not holding).
    pub escalate_after: u32,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig { cycle_budget: 64, escalate_after: 2 }
    }
}

/// Outcome of one engine cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleOutcome {
    /// Repair attempts executed this cycle.
    pub attempted: u64,
    /// Findings closed with a clean verification.
    pub verified: u64,
    /// Findings closed as repair failures.
    pub failed: u64,
    /// Verification failures that climbed a rung.
    pub escalated: u64,
    /// Tickets left queued because the budget ran out.
    pub deferred: u64,
    /// Tokens spent.
    pub tokens_spent: u32,
    /// Controller busy time consumed by the repairs.
    pub busy: SimDuration,
    /// The top rung executed: the manager should restart the
    /// controller.
    pub restart_requested: bool,
}

/// One queued repair ticket.
#[derive(Debug, Clone)]
struct Ticket {
    element: AuditElementKind,
    target: FindingTarget,
    table: Option<TableId>,
    detected_at: SimTime,
    rung: Rung,
}

/// Per-target recurrence history.
#[derive(Debug, Clone, Copy, Default)]
struct History {
    /// Closed (verified) repairs of this target.
    repairs: u32,
}

/// The staged detect→diagnose→repair→verify engine. See the [crate
/// docs](crate) for the overall loop.
#[derive(Debug)]
pub struct RecoveryEngine {
    config: RecoveryConfig,
    queue: VecDeque<Ticket>,
    history: HashMap<FindingTarget, History>,
    log: Vec<RepairLogEntry>,
    stats: RecoveryStats,
    disk: Option<crate::DiskGoldenSource>,
    seq: u64,
}

impl RecoveryEngine {
    /// Creates the engine.
    pub fn new(config: RecoveryConfig) -> Self {
        RecoveryEngine {
            config,
            queue: VecDeque::new(),
            history: HashMap::new(),
            log: Vec::new(),
            stats: RecoveryStats::default(),
            disk: None,
            seq: 0,
        }
    }

    /// Sets (or clears) the repair-from-disk source. When present,
    /// golden-based repairs refresh the affected golden range from
    /// this durable copy first, so repairs draw on verified disk state
    /// instead of trusting the surviving in-memory golden image.
    pub fn set_disk_source(&mut self, source: Option<crate::DiskGoldenSource>) {
        self.disk = source;
    }

    /// The deterministic repair log.
    pub fn log(&self) -> &[RepairLogEntry] {
        &self.log
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &RecoveryStats {
        &self.stats
    }

    /// Tickets currently queued.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues the `Flagged` findings of one audit report. Targets
    /// already queued are not duplicated; targets with a recurrence
    /// history enter one rung higher per [`RecoveryConfig::escalate_after`]
    /// closed repairs.
    pub fn ingest(&mut self, findings: &[Finding], _now: SimTime) {
        for f in findings {
            if f.action != RecoveryAction::Flagged {
                continue;
            }
            let Some(target) = f.target else { continue };
            if self.queue.iter().any(|t| t.target == target) {
                continue;
            }
            let repairs = self.history.get(&target).map_or(0, |h| h.repairs);
            let climb = repairs.checked_div(self.config.escalate_after).unwrap_or(0) as usize;
            let rung = Rung::LADDER[climb.min(Rung::LADDER.len() - 1)];
            self.queue.push_back(Ticket {
                element: f.element,
                target,
                table: f.table,
                detected_at: f.at,
                rung,
            });
        }
    }

    /// Executes queued repairs under the cycle budget, verifying each
    /// against the originating audit element and escalating failures
    /// along the ladder.
    pub fn run_cycle(
        &mut self,
        db: &mut Database,
        api: &mut DbApi,
        registry: &mut ProcessRegistry,
        audit: &mut AuditProcess,
        now: SimTime,
    ) -> CycleOutcome {
        let mut outcome = CycleOutcome::default();
        let budget = self.config.cycle_budget;
        while let Some(ticket) = self.queue.front().cloned() {
            let cost = ticket.rung.cost();
            // The first ticket of a cycle always runs, even when its
            // rung costs more than the whole budget — otherwise an
            // escalated repair at the queue head would stall recovery
            // permanently.
            if outcome.tokens_spent > 0 && outcome.tokens_spent.saturating_add(cost) > budget {
                break;
            }
            self.queue.pop_front();
            outcome.tokens_spent += cost;
            outcome.attempted += 1;
            self.stats.attempted += 1;
            self.stats.tokens_spent += u64::from(cost);
            self.stats.per_rung[ticket.rung.index()] += 1;

            let caught = self.execute(db, api, registry, &ticket, now);
            if ticket.rung == Rung::ControllerRestart {
                outcome.restart_requested = true;
                self.stats.controller_restarts += 1;
            }
            if let Some(table) = ticket.table {
                db.note_errors_detected(table, caught.len().max(1) as u64);
            }

            let verdict = if self.verify_repair(db, api, audit, &ticket, now) {
                RepairOutcome::Verified
            } else if ticket.rung == Rung::ControllerRestart {
                RepairOutcome::Failed
            } else {
                RepairOutcome::Escalated
            };

            match verdict {
                RepairOutcome::Verified => {
                    outcome.verified += 1;
                    self.stats.verified += 1;
                    self.close(&ticket, now);
                }
                RepairOutcome::Escalated => {
                    outcome.escalated += 1;
                    self.stats.escalations += 1;
                    self.queue.push_back(Ticket { rung: ticket.rung.next(), ..ticket.clone() });
                }
                RepairOutcome::Failed => {
                    outcome.failed += 1;
                    self.stats.failed += 1;
                }
            }

            self.seq += 1;
            self.log.push(RepairLogEntry {
                seq: self.seq,
                at: now,
                element: ticket.element,
                target: ticket.target,
                rung: ticket.rung,
                outcome: verdict,
                cost,
                caught: caught.iter().map(|t| t.id).collect(),
            });
        }
        outcome.deferred = self.queue.len() as u64;
        outcome.busy = TOKEN_TIME * u64::from(outcome.tokens_spent);
        outcome
    }

    /// Records a closed finding: recurrence history and repair latency.
    fn close(&mut self, ticket: &Ticket, now: SimTime) {
        self.history.entry(ticket.target).or_default().repairs += 1;
        self.stats.latency.push(now.saturating_since(ticket.detected_at).as_secs_f64());
    }

    /// Executes one rung against one target; returns the ground-truth
    /// taints the repair removed.
    fn execute(
        &mut self,
        db: &mut Database,
        api: &mut DbApi,
        registry: &mut ProcessRegistry,
        ticket: &Ticket,
        now: SimTime,
    ) -> Vec<TaintEntry> {
        let caught_at = TaintFate::Caught { at: now };
        let mut caught = Vec::new();
        let resolve = |db: &mut Database, offset: usize, len: usize| {
            db.taint_mut().resolve_range(offset, len, caught_at)
        };
        // With a repair-from-disk source attached, refresh the golden
        // bytes the rung is about to copy from — the in-memory golden
        // can be corrupted by the same fault as the region.
        if let Some(disk) = &self.disk {
            let range = match (ticket.rung, ticket.target) {
                (Rung::ControllerRestart, _) => Some((0, db.region_len())),
                (Rung::TableRebuild, FindingTarget::Range { offset, len }) => Some((offset, len)),
                (Rung::TableRebuild, _) => ticket
                    .table
                    .and_then(|t| db.catalog().table(t).ok())
                    .map(|tm| (tm.offset, tm.data_len())),
                (_, FindingTarget::Range { offset, len }) => Some((offset, len)),
                (
                    _,
                    FindingTarget::Header { table, record }
                    | FindingTarget::Field { table, record, .. }
                    | FindingTarget::Record { table, record },
                ) => {
                    let rec = RecordRef::new(table, record);
                    match (db.record_offset(rec), db.record_size(table)) {
                        (Ok(o), Ok(l)) => Some((o, l)),
                        _ => None,
                    }
                }
                (_, FindingTarget::Client { .. }) => None,
            };
            if let Some((offset, len)) = range {
                disk.refresh_range(db, offset, len);
            }
        }
        match (ticket.rung, ticket.target) {
            (Rung::FieldRepair, FindingTarget::Range { offset, len }) => {
                for (o, l) in db.golden_block_diff(offset, len, GOLDEN_DIFF_BLOCK) {
                    db.restore_static_block(o, l).expect("dirty block within region");
                    caught.extend(resolve(db, o, l));
                }
            }
            (Rung::FieldRepair, FindingTarget::Field { table, record, field }) => {
                let rec = RecordRef::new(table, record);
                if let Ok((o, l)) = db.reset_field_to_default(rec, wtnc_db::FieldId(field)) {
                    caught.extend(resolve(db, o, l));
                }
            }
            (Rung::FieldRepair, FindingTarget::Header { table, record }) => {
                if let Ok((o, l)) = db.rebuild_header(RecordRef::new(table, record)) {
                    caught.extend(resolve(db, o, l));
                }
            }
            (Rung::FieldRepair, FindingTarget::Record { table, record }) => {
                // Unlink the zombie loop at its anchor: the paper's
                // preemptive free.
                let rec = RecordRef::new(table, record);
                if db.free_record_raw(rec).is_ok() {
                    let o = db.record_offset(rec).expect("record exists");
                    let l = db.record_size(table).expect("table exists");
                    caught.extend(resolve(db, o, l));
                }
            }
            (Rung::RecordReinit, FindingTarget::Range { offset, len })
            | (Rung::TableRebuild, FindingTarget::Range { offset, len }) => {
                db.restore_static_block(offset, len).expect("range within region");
                caught.extend(resolve(db, offset, len));
            }
            (
                Rung::RecordReinit,
                FindingTarget::Header { table, record }
                | FindingTarget::Field { table, record, .. }
                | FindingTarget::Record { table, record },
            ) => {
                if let Ok((o, l)) = db.restore_record(RecordRef::new(table, record)) {
                    caught.extend(resolve(db, o, l));
                }
            }
            (Rung::TableRebuild, _) => {
                if let Some(table) = ticket.table {
                    if let Ok(tm) = db.catalog().table(table) {
                        let (o, l) = (tm.offset, tm.data_len());
                        db.restore_static_block(o, l).expect("table extent within region");
                        caught.extend(resolve(db, o, l));
                    }
                }
            }
            (Rung::ClientRestart, target) => {
                // Kill the client that keeps corrupting the target,
                // then re-initialize the data it held.
                let pid = match target {
                    FindingTarget::Client { pid } => Some(pid),
                    FindingTarget::Header { table, record }
                    | FindingTarget::Field { table, record, .. }
                    | FindingTarget::Record { table, record } => db
                        .record_meta(RecordRef::new(table, record))
                        .ok()
                        .and_then(|m| m.last_writer),
                    FindingTarget::Range { .. } => None,
                };
                if let Some(pid) = pid {
                    registry.kill(pid, now);
                    api.locks_mut().release_all(pid);
                }
                match target {
                    FindingTarget::Range { offset, len } => {
                        db.restore_static_block(offset, len).expect("range within region");
                        caught.extend(resolve(db, offset, len));
                    }
                    FindingTarget::Header { table, record }
                    | FindingTarget::Field { table, record, .. }
                    | FindingTarget::Record { table, record } => {
                        if let Ok((o, l)) = db.restore_record(RecordRef::new(table, record)) {
                            caught.extend(resolve(db, o, l));
                        }
                    }
                    FindingTarget::Client { .. } => {}
                }
            }
            (Rung::ControllerRestart, _) => {
                // The data half of the global action. Processes are the
                // supervisor's: the engine sees no hang or livelock, and
                // a restart behind the supervisor's back would leave it
                // tracking the old pid.
                db.reload_all();
                let len = db.region_len();
                caught.extend(resolve(db, 0, len));
            }
            (Rung::FieldRepair, FindingTarget::Client { pid })
            | (Rung::RecordReinit, FindingTarget::Client { pid }) => {
                registry.kill(pid, now);
                api.locks_mut().release_all(pid);
            }
        }
        caught
    }

    /// Re-checks the repaired target with the originating element;
    /// `true` when the target is no longer reported.
    fn verify_repair(
        &self,
        db: &mut Database,
        api: &DbApi,
        audit: &mut AuditProcess,
        ticket: &Ticket,
        now: SimTime,
    ) -> bool {
        // Per-table elements find damage in tables; a ticket without
        // one cannot be re-checked, and the only honest answer is "not
        // verified". (Static chunks of the catalog carry no table.)
        if ticket.table.is_none() && ticket.element != AuditElementKind::StaticData {
            return false;
        }
        audit.recheck(db, api, ticket.element, ticket.target, now).findings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtnc_audit::AuditConfig;
    use wtnc_db::{schema, TaintKind};

    fn setup() -> (Database, DbApi, ProcessRegistry, AuditProcess, RecoveryEngine) {
        let db = Database::build(schema::standard_schema()).unwrap();
        let api = DbApi::new();
        let registry = ProcessRegistry::new();
        let mut audit = AuditProcess::new(AuditConfig::default(), &db);
        audit.set_deferred_repair(true);
        let engine = RecoveryEngine::new(RecoveryConfig::default());
        (db, api, registry, audit, engine)
    }

    fn taint(db: &mut Database, offset: usize, id: u64, kind: TaintKind) {
        db.taint_mut().insert(offset, TaintEntry { id, at: SimTime::ZERO, kind });
    }

    #[test]
    fn ladder_is_ordered_and_saturates() {
        for pair in Rung::LADDER.windows(2) {
            assert_eq!(pair[0].next(), pair[1]);
            assert!(pair[0] < pair[1]);
        }
        assert_eq!(Rung::ControllerRestart.next(), Rung::ControllerRestart);
    }

    #[test]
    fn static_corruption_repaired_and_verified() {
        let (mut db, mut api, mut registry, mut audit, mut engine) = setup();
        let rec = RecordRef::new(schema::SYSCONFIG_TABLE, 0);
        let (off, _) = db.field_extent(rec, schema::sysconfig::MAX_CALLS).unwrap();
        db.flip_bit(off, 2).unwrap();
        taint(&mut db, off, 1, TaintKind::StaticData);

        let now = SimTime::from_secs(10);
        let report = audit.run_cycle(&mut db, &mut api, &mut registry, now);
        assert_eq!(report.caught_count(), 0, "detect-only cycle repairs nothing");
        assert!(report.findings.iter().all(|f| f.action == RecoveryAction::Flagged));

        engine.ingest(&report.findings, now);
        let cycle = engine.run_cycle(&mut db, &mut api, &mut registry, &mut audit, now);
        assert_eq!(cycle.verified, 1);
        assert_eq!(cycle.failed, 0);
        assert_eq!(db.taint().latent_count(), 0);
        assert_eq!(db.read_field_raw(rec, schema::sysconfig::MAX_CALLS).unwrap(), 1_000);
        assert_eq!(engine.log()[0].caught, [1]);
        assert!(engine.stats().mean_latency_s() >= 0.0);
    }

    #[test]
    fn block_diff_restores_only_dirty_blocks() {
        let (mut db, ..) = setup();
        let len = db.catalog().catalog_len();
        db.flip_bit(8, 1).unwrap();
        let dirty = db.golden_block_diff(0, len, 16);
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].0, 0);
        assert!(db.golden_block_diff(0, len, len.max(1)).len() == 1);
    }

    #[test]
    fn header_and_range_and_semantic_targets_all_close() {
        let (mut db, mut api, mut registry, mut audit, mut engine) = setup();
        // Structural: break a header.
        let hrec = RecordRef::new(schema::PROCESS_TABLE, 3);
        let base = db.record_offset(hrec).unwrap();
        db.flip_bit(base, 1).unwrap();
        taint(&mut db, base, 1, TaintKind::Structural);
        // Range: out-of-range dynamic field.
        let idx = db.alloc_record_raw(schema::CONNECTION_TABLE).unwrap();
        let crec = RecordRef::new(schema::CONNECTION_TABLE, idx);
        db.write_field_raw(crec, schema::connection::STATE, 77).unwrap();
        let (off, _) = db.field_extent(crec, schema::connection::STATE).unwrap();
        taint(&mut db, off, 2, TaintKind::DynamicRuled);

        let now = SimTime::from_secs(10);
        let report = audit.run_cycle(&mut db, &mut api, &mut registry, now);
        engine.ingest(&report.findings, now);
        let cycle = engine.run_cycle(&mut db, &mut api, &mut registry, &mut audit, now);
        assert!(cycle.verified >= 2, "{cycle:?}");
        assert_eq!(db.taint().latent_count(), 0);
        // The header was rebuilt in place, not reloaded.
        assert!(db.is_active(crec).unwrap(), "field repair keeps the record");
    }

    #[test]
    fn budget_defers_work_to_the_next_cycle() {
        let (mut db, mut api, mut registry, mut audit, _) = setup();
        let mut engine =
            RecoveryEngine::new(RecoveryConfig { cycle_budget: 1, ..RecoveryConfig::default() });
        // Two out-of-range fields → two field-repair tickets of cost 1.
        for _ in 0..2 {
            let idx = db.alloc_record_raw(schema::CONNECTION_TABLE).unwrap();
            let rec = RecordRef::new(schema::CONNECTION_TABLE, idx);
            db.write_field_raw(rec, schema::connection::STATE, 99).unwrap();
        }
        let now = SimTime::from_secs(10);
        let report = audit.run_cycle(&mut db, &mut api, &mut registry, now);
        engine.ingest(&report.findings, now);
        let first = engine.run_cycle(&mut db, &mut api, &mut registry, &mut audit, now);
        assert_eq!(first.attempted, 1);
        assert_eq!(first.deferred, 1);
        assert!(first.busy > SimDuration::ZERO);
        let second = engine.run_cycle(&mut db, &mut api, &mut registry, &mut audit, now);
        assert_eq!(second.attempted, 1);
        assert_eq!(second.deferred, 0);
    }

    #[test]
    fn recurring_target_enters_higher_rung() {
        let (mut db, mut api, mut registry, mut audit, _) = setup();
        let mut engine =
            RecoveryEngine::new(RecoveryConfig { escalate_after: 1, ..RecoveryConfig::default() });
        let idx = db.alloc_record_raw(schema::CONNECTION_TABLE).unwrap();
        let rec = RecordRef::new(schema::CONNECTION_TABLE, idx);
        let now = SimTime::from_secs(10);
        for round in 0..2 {
            db.write_field_raw(rec, schema::connection::STATE, 99).unwrap();
            let report = audit.run_cycle(&mut db, &mut api, &mut registry, now);
            engine.ingest(&report.findings, now);
            engine.run_cycle(&mut db, &mut api, &mut registry, &mut audit, now);
            // The first round's repair keeps the record; the second
            // (RecordReinit) restores the golden free slot.
            if round == 0 {
                assert!(db.is_active(rec).unwrap());
            }
        }
        let rungs: Vec<Rung> = engine.log().iter().map(|e| e.rung).collect();
        assert_eq!(rungs, vec![Rung::FieldRepair, Rung::RecordReinit]);
        assert!(!db.is_active(rec).unwrap(), "reinit restored the free slot");
    }

    #[test]
    fn ingest_deduplicates_queued_targets() {
        let (db, _, _, _, mut engine) = setup();
        let _ = &db;
        let f = Finding {
            element: AuditElementKind::Range,
            at: SimTime::ZERO,
            table: Some(schema::CONNECTION_TABLE),
            record: Some(0),
            detail: "x".into(),
            action: RecoveryAction::Flagged,
            target: Some(FindingTarget::Field {
                table: schema::CONNECTION_TABLE,
                record: 0,
                field: 0,
            }),
            caught: Vec::new(),
        };
        engine.ingest(&[f.clone(), f.clone()], SimTime::ZERO);
        assert_eq!(engine.pending(), 1);
        engine.ingest(&[f], SimTime::ZERO);
        assert_eq!(engine.pending(), 1);
    }

    #[test]
    fn log_is_deterministic_across_identical_runs() {
        let run = || {
            let (mut db, mut api, mut registry, mut audit, mut engine) = setup();
            db.flip_bit(6, 0).unwrap();
            let idx = db.alloc_record_raw(schema::CONNECTION_TABLE).unwrap();
            let rec = RecordRef::new(schema::CONNECTION_TABLE, idx);
            db.write_field_raw(rec, schema::connection::STATE, 99).unwrap();
            let now = SimTime::from_secs(10);
            let report = audit.run_cycle(&mut db, &mut api, &mut registry, now);
            engine.ingest(&report.findings, now);
            engine.run_cycle(&mut db, &mut api, &mut registry, &mut audit, now);
            engine.log().to_vec()
        };
        assert_eq!(run(), run());
    }
}
