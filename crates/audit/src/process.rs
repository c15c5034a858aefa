//! The audit process: main thread, triggers, element registry.
//!
//! One cycle runs its elements in sequence over the shared database,
//! on the calling thread: the static-data audit first, then, table by
//! table, the structural, range and semantic audits and any registered
//! custom elements. A repair made by one element is visible to every
//! element after it. This loop is the only audit engine; DESIGN §4.10
//! records why.

use std::collections::BTreeSet;

use wtnc_db::{Database, DbApi, RecordRef, TableId, TaintEntry};
use wtnc_sim::{ProcessRegistry, SimDuration, SimTime};

use crate::budget::{BudgetConfig, TokenBucket};
use crate::finding::{AuditElementKind, AuditReport, ExecSummary, Finding, RecoveryAction};
use crate::heartbeat::HeartbeatElement;
use crate::progress::ProgressIndicator;
use crate::ranged::RangeAudit;
use crate::scheduler::{AuditScheduler, RoundRobinScheduler};
use crate::semantic::SemanticAudit;
use crate::static_data::StaticDataAudit;
use crate::structural::StructuralAudit;

/// How much of the database one periodic tick covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditScope {
    /// Check every table each tick (the §5.1 experiments: "the entire
    /// database is checked for errors periodically").
    Full,
    /// Check one scheduler-chosen table per tick (the §5.3 prioritized
    /// experiments: "1 table every 5 seconds").
    OneTable,
}

/// Extension point for custom audit techniques: "new error detection
/// and recovery techniques can be implemented, encapsulated in new
/// elements, and added to the system".
pub trait AuditElement {
    /// The element's identity in findings.
    fn kind(&self) -> AuditElementKind;
    /// Audits one table; records skipped when `locked` says a client
    /// transaction is in flight. Returns the number of records
    /// checked.
    fn audit_table(
        &mut self,
        db: &mut Database,
        table: TableId,
        locked: &dyn Fn(RecordRef) -> bool,
        at: SimTime,
        out: &mut Vec<Finding>,
    ) -> u64;
}

/// Audit-process configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditConfig {
    /// Interval of the periodic trigger (the experiments use 10 s for
    /// full audits and 5 s for one-table audits).
    pub periodic_interval: SimDuration,
    /// Grace period before unlinked records are treated as orphans.
    pub orphan_grace: SimDuration,
    /// Per-tick coverage.
    pub scope: AuditScope,
    /// When true, write-class API events queue their table for an
    /// immediate event-triggered audit on the next cycle.
    pub event_triggered: bool,
    /// Change-aware audits: elements consult the dirty-block bitmap and
    /// mutation generations to skip provably unchanged state. On by
    /// default — the parity property guarantees identical findings.
    pub incremental: bool,
    /// Every `n`-th element pass re-checks everything even in
    /// incremental mode, bounding the window for anything that could
    /// slip past the tracking (0 = never force a full sweep).
    pub full_rescan_period: u32,
    /// CPU isolation: a token-bucket budget on virtual time (one token
    /// per record screened). When set, a cycle whose planned tables
    /// exceed the available tokens sheds the excess
    /// highest-dirty-density-last, records an honest
    /// [`AuditElementKind::DegradedCycle`] finding and re-queues the
    /// shed tables at the head of the next cycle. `None` (the default)
    /// keeps the classic unbudgeted engine.
    pub budget: Option<BudgetConfig>,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            periodic_interval: SimDuration::from_secs(10),
            orphan_grace: SimDuration::from_secs(60),
            scope: AuditScope::Full,
            event_triggered: false,
            incremental: true,
            full_rescan_period: 8,
            budget: None,
        }
    }
}

/// The audit process of Figure 1: heartbeat, progress indicator, the
/// audit elements, and the triggers that drive them.
pub struct AuditProcess {
    config: AuditConfig,
    heartbeat: HeartbeatElement,
    progress: ProgressIndicator,
    static_audit: StaticDataAudit,
    structural: StructuralAudit,
    range: RangeAudit,
    semantic: SemanticAudit,
    scheduler: Box<dyn AuditScheduler + Send>,
    extra: Vec<Box<dyn AuditElement + Send>>,
    event_tables: BTreeSet<TableId>,
    catch_log: Vec<(TaintEntry, AuditElementKind, SimTime)>,
    cycles: u64,
    bucket: Option<TokenBucket>,
    shed_backlog: Vec<TableId>,
    starved_for: std::collections::BTreeMap<TableId, u32>,
    degraded_cycles: u64,
}

impl std::fmt::Debug for AuditProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditProcess")
            .field("config", &self.config)
            .field("cycles", &self.cycles)
            .field("pending_event_tables", &self.event_tables.len())
            .field("catches", &self.catch_log.len())
            .finish()
    }
}

impl AuditProcess {
    /// Creates the audit process against a freshly built (pristine)
    /// database — golden checksums are derived from its current image.
    pub fn new(config: AuditConfig, db: &Database) -> Self {
        let mut static_audit = StaticDataAudit::new(db);
        static_audit.incremental = config.incremental;
        static_audit.full_rescan_period = config.full_rescan_period;
        let mut structural = StructuralAudit::default();
        structural.incremental = config.incremental;
        structural.full_rescan_period = config.full_rescan_period;
        let mut range = RangeAudit::new();
        range.incremental = config.incremental;
        range.full_rescan_period = config.full_rescan_period;
        let mut semantic = SemanticAudit::new(config.orphan_grace);
        semantic.incremental = config.incremental;
        semantic.full_rescan_period = config.full_rescan_period;
        AuditProcess {
            config,
            heartbeat: HeartbeatElement::new(),
            progress: ProgressIndicator::new(),
            static_audit,
            structural,
            range,
            semantic,
            scheduler: Box::new(RoundRobinScheduler::new()),
            extra: Vec::new(),
            event_tables: BTreeSet::new(),
            catch_log: Vec::new(),
            cycles: 0,
            bucket: config.budget.map(TokenBucket::new),
            shed_backlog: Vec::new(),
            starved_for: std::collections::BTreeMap::new(),
            degraded_cycles: 0,
        }
    }

    /// Switches the data-audit elements between inline repair (the
    /// paper's default) and detect-only mode: findings are emitted with
    /// `RecoveryAction::Flagged` plus a precise
    /// [`FindingTarget`](crate::FindingTarget), and an external
    /// recovery engine owns repair, escalation and verification.
    pub fn set_deferred_repair(&mut self, deferred: bool) {
        self.static_audit.deferred = deferred;
        self.structural.deferred = deferred;
        self.range.deferred = deferred;
        self.semantic.deferred = deferred;
    }

    /// Re-runs one audit element over one table (or the full static
    /// region when `table` is `None`) without side effects on cycle
    /// counters or the catch log. The recovery engine uses
    /// this to *verify* a repair: a repaired target must no longer be
    /// reported by the element that originally detected it.
    pub fn recheck(
        &mut self,
        db: &mut Database,
        api: &DbApi,
        element: AuditElementKind,
        table: Option<TableId>,
        now: SimTime,
    ) -> Vec<Finding> {
        let mut findings = Vec::new();
        let locked = |r: RecordRef| api.locks().holder(r).is_some();
        match (element, table) {
            (AuditElementKind::StaticData, Some(t)) => {
                self.static_audit.audit_table(db, t, now, &mut findings);
            }
            (AuditElementKind::StaticData, None) => {
                self.static_audit.audit(db, now, &mut findings);
            }
            (AuditElementKind::Structural, Some(t)) => {
                self.structural.audit_table(db, t, now, &mut findings);
            }
            (AuditElementKind::Range, Some(t)) => {
                self.range.audit_table(db, t, &locked, now, &mut findings);
            }
            (AuditElementKind::Semantic, Some(t)) => {
                self.semantic.audit_table(db, t, &locked, now, &mut findings);
            }
            _ => {}
        }
        findings
    }

    /// The configuration in force.
    pub fn config(&self) -> &AuditConfig {
        &self.config
    }

    /// Replaces the table scheduler (round-robin by default).
    pub fn set_scheduler(&mut self, scheduler: Box<dyn AuditScheduler + Send>) {
        self.scheduler = scheduler;
    }

    /// Registers an additional custom element.
    pub fn register_element(&mut self, element: Box<dyn AuditElement + Send>) {
        self.extra.push(element);
    }

    /// The heartbeat element (the manager queries it).
    pub fn heartbeat_mut(&mut self) -> &mut HeartbeatElement {
        &mut self.heartbeat
    }

    /// Re-derives the static-data golden checksums from the current
    /// database image. Must be called after a legitimate operator
    /// reconfiguration (see `DbApi::reconfigure`), or the next cycle
    /// would "repair" the new configuration away.
    pub fn rebaseline_static(&mut self, db: &Database) {
        self.static_audit.rebaseline(db);
    }

    /// Ground-truth corruptions removed so far, attributed to the
    /// element that removed each.
    pub fn catch_log(&self) -> &[(TaintEntry, AuditElementKind, SimTime)] {
        &self.catch_log
    }

    /// Completed audit cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Drains the IPC message queue from the database API: feeds the
    /// progress indicator and collects event triggers.
    pub fn drain_events(&mut self, api: &mut DbApi) {
        for event in api.events_mut().drain() {
            self.progress.observe(&event);
            if self.config.event_triggered && event.op.is_write() {
                if let Some(table) = event.table {
                    self.event_tables.insert(table);
                }
            }
        }
    }

    /// Runs one audit cycle at `now`: progress check, then the audit
    /// elements over the configured scope plus any event-triggered
    /// tables, then recovery side effects (client terminations, lock
    /// releases).
    pub fn run_cycle(
        &mut self,
        db: &mut Database,
        api: &mut DbApi,
        registry: &mut ProcessRegistry,
        now: SimTime,
    ) -> AuditReport {
        self.cycles += 1;
        let pending_events = api.events().len() as u64;
        self.drain_events(api);
        let mut findings: Vec<Finding> = Vec::new();

        // Progress indicator first (it may free wedged locks, letting
        // the data audits see consistent records).
        self.progress.check(api.locks_mut(), registry, now, &mut findings);

        // Decide coverage.
        let fresh: Vec<TableId> = match self.config.scope {
            AuditScope::Full => db.catalog().tables().map(|t| t.id).collect(),
            AuditScope::OneTable => {
                let mut set: BTreeSet<TableId> = std::mem::take(&mut self.event_tables);
                set.insert(self.scheduler.next_table(db));
                set.into_iter().collect()
            }
        };

        // Level-1 admission: charge the planned table screens against
        // the CPU budget, shedding the lowest-priority tail when the
        // bucket runs dry. Everything above this point — IPC drain,
        // progress check, heartbeat availability — is level-0 work and
        // never charged, so supervision preempts bulk screens.
        let (tables, shed) = self.plan_budget(db, fresh, pending_events, now);

        let records_checked = self.run_elements(db, api, now, &tables, &mut findings);

        // Settle the density signal: a dynamic table that was just
        // audited with no findings has its accumulated dirty bits
        // dropped, so the scheduler's dirty-density term tracks *new*
        // mutations. (Static chunks clear their own bits only after
        // CRC verification; their extents are untouched here.)
        if self.config.incremental {
            for &table in &tables {
                if findings.iter().any(|f| f.table == Some(table)) {
                    continue;
                }
                let extent = db.catalog().table(table).ok().map(|tm| {
                    (tm.def.nature == wtnc_db::TableNature::Dynamic, tm.offset, tm.data_len())
                });
                if let Some((true, offset, len)) = extent {
                    db.dirty_mut().clear_contained(offset, len);
                }
            }
        }

        // A degraded cycle is never silent: the shed tables surface as
        // an explicit finding and are re-queued at the head of the
        // next cycle.
        if !shed.is_empty() {
            self.degraded_cycles += 1;
            findings.push(Finding {
                element: AuditElementKind::DegradedCycle,
                at: now,
                table: None,
                record: None,
                detail: format!(
                    "audit CPU budget exhausted: shed {} of {} planned table screen(s); \
                     re-queued for the next cycle",
                    shed.len(),
                    shed.len() + tables.len(),
                ),
                action: RecoveryAction::Flagged,
                target: None,
                caught: Vec::new(),
            });
        }
        self.shed_backlog.clone_from(&shed);

        // Apply process-level recovery actions.
        for f in &findings {
            if let RecoveryAction::TerminatedClient { pid } = f.action {
                registry.kill(pid, now);
                api.locks_mut().release_all(pid);
            }
        }

        // Attribute removed ground-truth corruptions.
        for f in &findings {
            for &taint in &f.caught {
                self.catch_log.push((taint, f.element, now));
            }
        }

        AuditReport {
            findings,
            records_checked,
            tables_checked: tables.len() as u64,
            exec: ExecSummary::default(),
            degraded: !shed.is_empty(),
            tables_audited: tables,
            tables_shed: shed,
        }
    }

    /// Plans the cycle's table screens against the CPU budget.
    ///
    /// Without a budget the fresh list passes through untouched (the
    /// classic engine). With one, the level-0 IPC drain is charged
    /// first (mandatory — it already ran — so a storm of events eats
    /// directly into the screen budget, at [`Self::EVENTS_PER_TOKEN`]
    /// drained events per token), then the candidates (previously shed
    /// tables plus this cycle's fresh scope) are ordered
    /// highest-dirty-density first, with one *starvation promotion*:
    /// the table that has been shed for the most consecutive cycles —
    /// at least [`Self::STARVATION_BOUND`] — jumps to the front, so a
    /// quiet table is audited at least every
    /// `STARVATION_BOUND + table_count` cycles no matter how dirty the
    /// others stay. Each table is charged its record count before it
    /// may run; the first planned table always runs — a starved cycle
    /// still makes forward progress — and once one charge is refused
    /// *every* remaining table is shed, so a degraded cycle's work is
    /// an exact prefix of the full cycle's plan (the ordering never
    /// depends on the bucket's balance).
    fn plan_budget(
        &mut self,
        db: &Database,
        fresh: Vec<TableId>,
        pending_events: u64,
        now: SimTime,
    ) -> (Vec<TableId>, Vec<TableId>) {
        let Some(bucket) = self.bucket.as_mut() else {
            return (fresh, Vec::new());
        };
        bucket.refill(now);
        bucket.charge_saturating(pending_events.div_ceil(Self::EVENTS_PER_TOKEN));
        let mut candidates: Vec<TableId> = std::mem::take(&mut self.shed_backlog);
        for t in fresh {
            if !candidates.contains(&t) {
                candidates.push(t);
            }
        }
        candidates.sort_by(|&a, &b| {
            db.dirty_density(b)
                .partial_cmp(&db.dirty_density(a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let promoted = candidates
            .iter()
            .copied()
            .filter(|t| self.starved_for.get(t).copied().unwrap_or(0) >= Self::STARVATION_BOUND)
            .max_by_key(|&t| (self.starved_for[&t], std::cmp::Reverse(t)));
        if let Some(t) = promoted {
            let pos = candidates.iter().position(|&c| c == t).expect("promoted candidate");
            candidates.remove(pos);
            candidates.insert(0, t);
        }
        let mut kept = Vec::new();
        let mut shed = Vec::new();
        for (i, table) in candidates.into_iter().enumerate() {
            let cost = db
                .catalog()
                .table(table)
                .map(|tm| u64::from(tm.def.record_count))
                .unwrap_or(1)
                .max(1);
            if i == 0 {
                bucket.charge_saturating(cost);
                kept.push(table);
            } else if !shed.is_empty() || !bucket.try_charge(cost) {
                shed.push(table);
            } else {
                kept.push(table);
            }
        }
        for t in &kept {
            self.starved_for.remove(t);
        }
        for &t in &shed {
            *self.starved_for.entry(t).or_insert(0) += 1;
        }
        (kept, shed)
    }

    /// Drained IPC events that cost one budget token (routing an event
    /// is much cheaper than screening a record).
    pub const EVENTS_PER_TOKEN: u64 = 8;

    /// Consecutive shed cycles after which a table jumps the
    /// dirty-density ordering (the anti-starvation promotion).
    pub const STARVATION_BOUND: u32 = 4;

    /// Cycles that shed table screens because the budget ran dry.
    pub fn degraded_cycles(&self) -> u64 {
        self.degraded_cycles
    }

    /// Tables shed by the last cycle, awaiting the next one.
    pub fn shed_backlog(&self) -> &[TableId] {
        &self.shed_backlog
    }

    /// The CPU-budget bucket, when isolation is configured.
    pub fn budget(&self) -> Option<&TokenBucket> {
        self.bucket.as_ref()
    }

    /// Runs the elements over the cycle's tables, in the fixed order.
    /// Returns the number of records checked.
    fn run_elements(
        &mut self,
        db: &mut Database,
        api: &DbApi,
        now: SimTime,
        tables: &[TableId],
        findings: &mut Vec<Finding>,
    ) -> u64 {
        // Static audit: whole static region once per full cycle, or the
        // scoped chunks in one-table mode.
        match self.config.scope {
            AuditScope::Full => self.static_audit.audit(db, now, findings),
            AuditScope::OneTable => {
                for &t in tables {
                    self.static_audit.audit_table(db, t, now, findings);
                }
            }
        }
        let locked = |r: RecordRef| api.locks().holder(r).is_some();
        let mut records_checked = 0;
        for &table in tables {
            // Reset this table's per-cycle error counter now that the
            // scheduler has consumed it.
            db.reset_error_cycle_table(table);
            records_checked += self.structural.audit_table(db, table, now, findings);
            records_checked += self.range.audit_table(db, table, &locked, now, findings);
            records_checked += self.semantic.audit_table(db, table, &locked, now, findings);
            for element in &mut self.extra {
                records_checked += element.audit_table(db, table, &locked, now, findings);
            }
        }
        records_checked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtnc_db::{schema, DbError, TaintKind};
    use wtnc_sim::Pid;

    fn setup() -> (Database, DbApi, ProcessRegistry, AuditProcess) {
        let db = Database::build(schema::standard_schema()).unwrap();
        let api = DbApi::new();
        let registry = ProcessRegistry::new();
        let audit = AuditProcess::new(AuditConfig::default(), &db);
        (db, api, registry, audit)
    }

    #[test]
    fn clean_cycle_produces_no_findings() {
        let (mut db, mut api, mut registry, mut audit) = setup();
        let report = audit.run_cycle(&mut db, &mut api, &mut registry, SimTime::from_secs(10));
        assert!(report.findings.is_empty());
        assert_eq!(report.tables_checked, 5);
        assert_eq!(audit.cycles(), 1);
    }

    #[test]
    fn full_cycle_catches_static_structural_and_range_errors() {
        let (mut db, mut api, mut registry, mut audit) = setup();
        let client = Pid(1);
        api.init(client);
        let at = SimTime::from_secs(1);

        // Range setup first (the API needs a healthy catalog).
        let idx = api.alloc_record(&mut db, client, schema::CONNECTION_TABLE, at).unwrap();
        let crec = RecordRef::new(schema::CONNECTION_TABLE, idx);
        db.write_field_raw(crec, schema::connection::STATE, 200).unwrap();
        let (off, _) = db.field_extent(crec, schema::connection::STATE).unwrap();
        db.taint_mut().insert(off, TaintEntry { id: 3, at, kind: TaintKind::DynamicRuled });

        // Static: flip a catalog byte (all API operations would now
        // fail until the audit repairs it).
        db.flip_bit(6, 0).unwrap();
        db.taint_mut().insert(6, TaintEntry { id: 1, at, kind: TaintKind::StaticData });

        // Structural: damage a header.
        let rec = RecordRef::new(schema::PROCESS_TABLE, 9);
        let base = db.record_offset(rec).unwrap();
        db.flip_bit(base, 3).unwrap();
        db.taint_mut().insert(base, TaintEntry { id: 2, at, kind: TaintKind::Structural });

        let report = audit.run_cycle(&mut db, &mut api, &mut registry, SimTime::from_secs(10));
        let kinds: BTreeSet<AuditElementKind> = report.findings.iter().map(|f| f.element).collect();
        assert!(kinds.contains(&AuditElementKind::StaticData), "{kinds:?}");
        assert!(kinds.contains(&AuditElementKind::Structural));
        assert!(kinds.contains(&AuditElementKind::Range));
        assert_eq!(report.caught_count(), 3);
        assert_eq!(db.taint().latent_count(), 0);
        assert_eq!(audit.catch_log().len(), 3);
        // All three elements attributed.
        let attributed: BTreeSet<AuditElementKind> =
            audit.catch_log().iter().map(|&(_, k, _)| k).collect();
        assert_eq!(attributed.len(), 3);
    }

    #[test]
    fn event_triggered_tables_join_one_table_scope() {
        let (mut db, mut api, mut registry, _) = setup();
        let mut audit = AuditProcess::new(
            AuditConfig {
                scope: AuditScope::OneTable,
                event_triggered: true,
                ..AuditConfig::default()
            },
            &db,
        );
        let client = Pid(1);
        api.init(client);
        // A write to the resource table queues it for audit.
        let idx = api
            .alloc_record(&mut db, client, schema::RESOURCE_TABLE, SimTime::from_secs(1))
            .unwrap();
        api.write_fld(
            &mut db,
            client,
            schema::RESOURCE_TABLE,
            idx,
            schema::resource::STATUS,
            1,
            SimTime::from_secs(1),
        )
        .unwrap();
        let report = audit.run_cycle(&mut db, &mut api, &mut registry, SimTime::from_secs(5));
        // Scheduler table (round-robin: table 0) + event table
        // (resource) — at least 2.
        assert!(report.tables_checked >= 2, "{}", report.tables_checked);
    }

    #[test]
    fn semantic_termination_kills_client_and_releases_locks() {
        let (mut db, mut api, mut registry, mut audit) = setup();
        let client = registry.spawn("cp-thread", SimTime::ZERO);
        api.init(client);
        let at = SimTime::from_secs(1);
        // Build a half-finished loop whose owner then "crashes".
        let p = api.alloc_record(&mut db, client, schema::PROCESS_TABLE, at).unwrap();
        api.write_fld(
            &mut db,
            client,
            schema::PROCESS_TABLE,
            p,
            schema::process::CONNECTION_ID,
            40_000, // broken link
            at,
        )
        .unwrap();
        api.lock(RecordRef::new(schema::RESOURCE_TABLE, 0), client, at).unwrap();

        let report = audit.run_cycle(&mut db, &mut api, &mut registry, SimTime::from_secs(10));
        assert!(report
            .findings
            .iter()
            .any(|f| f.action == RecoveryAction::TerminatedClient { pid: client }));
        assert!(!registry.is_alive(client));
        assert!(api.locks().is_empty());
    }

    #[test]
    fn custom_elements_participate() {
        struct CountingElement(u64);
        impl AuditElement for CountingElement {
            fn kind(&self) -> AuditElementKind {
                AuditElementKind::Selective
            }
            fn audit_table(
                &mut self,
                _db: &mut Database,
                _table: TableId,
                _locked: &dyn Fn(RecordRef) -> bool,
                _at: SimTime,
                _out: &mut Vec<Finding>,
            ) -> u64 {
                self.0 += 1;
                0
            }
        }
        let (mut db, mut api, mut registry, mut audit) = setup();
        audit.register_element(Box::new(CountingElement(0)));
        audit.run_cycle(&mut db, &mut api, &mut registry, SimTime::from_secs(10));
        // The element ran once per table; indirect check via no panic —
        // and the registry accepted it without changes elsewhere.
    }

    #[test]
    fn progress_recovery_unwedges_the_database() {
        let (mut db, mut api, mut registry, mut audit) = setup();
        let wedged = registry.spawn("client", SimTime::ZERO);
        let healthy = registry.spawn("client2", SimTime::ZERO);
        api.init(wedged);
        api.init(healthy);
        let rec = RecordRef::new(schema::CONNECTION_TABLE, 0);
        let idx = api
            .alloc_record(&mut db, wedged, schema::CONNECTION_TABLE, SimTime::from_secs(1))
            .unwrap();
        assert_eq!(idx, 0);
        api.lock(rec, wedged, SimTime::from_secs(1)).unwrap();
        api.crash_client(wedged);
        // The healthy client is blocked.
        assert!(matches!(
            api.write_fld(
                &mut db,
                healthy,
                schema::CONNECTION_TABLE,
                0,
                schema::connection::STATE,
                1,
                SimTime::from_secs(2)
            ),
            Err(DbError::LockHeld { .. })
        ));
        // Long silence, then an audit cycle.
        let report = audit.run_cycle(&mut db, &mut api, &mut registry, SimTime::from_secs(200));
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f.action, RecoveryAction::ReleasedLock { .. })));
        // The wedged client's orphan record was also reclaimed by the
        // semantic audit, so the slot is available again: the healthy
        // client can allocate and use it.
        let idx2 = api
            .alloc_record(&mut db, healthy, schema::CONNECTION_TABLE, SimTime::from_secs(201))
            .unwrap();
        assert_eq!(idx2, 0, "the freed slot is reusable");
        api.write_fld(
            &mut db,
            healthy,
            schema::CONNECTION_TABLE,
            idx2,
            schema::connection::STATE,
            1,
            SimTime::from_secs(201),
        )
        .unwrap();
    }
}
