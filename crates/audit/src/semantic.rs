//! Semantic referential integrity check (§4.3.3).
//!
//! Records servicing one call form a closed loop: the Process record
//! refers to the Connection record, the Connection record to the
//! Resource record, and the Resource record points back to the Process
//! record, "thereby making it 1-detectable". The audit follows these
//! loops for every active record; a broken linkage means "lost"
//! records — a **resource leak**. Recovery frees the zombie records and
//! reports the owning client (identified through the redundant
//! last-writer metadata) for preemptive termination.
//!
//! The element is generic over the schema: any field with a `link`
//! declaration participates; loops are discovered by walking links
//! until the walk returns to its start (consistent) or breaks
//! (violation).

use wtnc_db::layout::LINK_NONE;
use wtnc_db::{Catalog, Database, FieldId, FieldKind, RecordRef, TableId, TaintFate};
use wtnc_sim::{SimDuration, SimTime};

use crate::finding::{AuditElementKind, Finding, FindingTarget, RecoveryAction};
use crate::genskip::SweepCounter;
use crate::process::{AuditElement, ElementPolicy};

/// The first dynamic link field of a table, if any.
fn link_field(catalog: &Catalog, table: TableId) -> Option<(FieldId, TableId)> {
    let tm = catalog.table(table).ok()?;
    tm.def.fields.iter().enumerate().find_map(|(i, f)| {
        (f.kind == FieldKind::Dynamic)
            .then_some(())
            .and(f.link)
            .map(|target| (FieldId(i as u16), target))
    })
}

/// Every record one clean walk visited, with its generation at the
/// time. The walk's verdict depends only on these records' bytes (the
/// catalog the walk consults is guarded by the static-data element,
/// which runs first in a cycle and repairs it inline), so while every
/// generation is unchanged the walk would repeat its clean verdict.
type WalkWitness = Vec<(RecordRef, u64)>;

/// The referential-integrity audit element. In deferred mode broken
/// walks are flagged (targeted at the anchor record) instead of freed;
/// owner termination is likewise left to the recovery engine's ladder.
/// Between forced full sweeps an anchor's walk is skipped while its
/// witness holds; an anchor without one (a young unlinked record among
/// them) is walked on every pass.
#[derive(Debug, Clone)]
pub struct SemanticAudit {
    /// Records whose links are still unset (`LINK_NONE`) are tolerated
    /// for this long after their last access (a client may be mid-setup)
    /// before being treated as orphans.
    pub orphan_grace: SimDuration,
    sweeps: std::collections::BTreeMap<TableId, SweepCounter>,
    /// Per-anchor witnesses of the last clean walk (none under a
    /// full-scan schedule).
    walks: std::collections::BTreeMap<TableId, Vec<Option<WalkWitness>>>,
    visited: u64,
}

impl Default for SemanticAudit {
    fn default() -> Self {
        Self::new(SimDuration::from_secs(60))
    }
}

impl SemanticAudit {
    /// Creates the element with a custom orphan grace period.
    pub fn new(orphan_grace: SimDuration) -> Self {
        SemanticAudit {
            orphan_grace,
            sweeps: std::collections::BTreeMap::new(),
            walks: std::collections::BTreeMap::new(),
            visited: 0,
        }
    }

    /// Anchor slots the element's table passes have visited, in total:
    /// a deterministic work counter. A pass visits only the table's
    /// active slots.
    pub fn slots_visited(&self) -> u64 {
        self.visited
    }
}

impl AuditElement for SemanticAudit {
    fn kind(&self) -> AuditElementKind {
        AuditElementKind::Semantic
    }

    /// Audits the semantic loops anchored at the active records of
    /// `table`, visiting only the active slots the status index lists.
    /// Locked records are skipped (in-flight transactions). Returns the
    /// number of records checked.
    fn audit_table(
        &mut self,
        db: &mut Database,
        table: TableId,
        policy: ElementPolicy,
        locked: &dyn Fn(RecordRef) -> bool,
        at: SimTime,
        out: &mut Vec<Finding>,
    ) -> u64 {
        let Some((start_field, _)) = link_field(db.catalog(), table) else {
            return 0;
        };
        let Ok(tm) = db.catalog().table(table) else {
            return 0;
        };
        let record_count = tm.def.record_count;
        let use_witness = self.sweeps.entry(table).or_default().may_skip(policy);
        let mut checked = 0u64;
        let walks = self.walks.entry(table).or_default();
        walks.resize(record_count as usize, None);

        // A free anchor yields no finding, so only active ones are
        // visited; the index is re-read after each step, so an anchor
        // an inline repair frees is not visited.
        let mut from = 0;
        while let Some(index) = db.next_active(table, from) {
            from = index + 1;
            self.visited += 1;
            let start = RecordRef::new(table, index);
            // Per-anchor witness skip: the last walk from this anchor
            // was clean, and none of the records it visited has been
            // mutated since — re-walking would repeat the verdict.
            if use_witness {
                if let Some(w) = &walks[index as usize] {
                    if w.iter().all(|&(r, g)| db.record_generation(r) == g) {
                        continue;
                    }
                }
            }
            let walk = walk(db, start, start_field, locked, at, self.orphan_grace);
            walks[index as usize] = witness(db, &walk, policy);
            match walk {
                Walk::Free => {}
                Walk::Abstained { at_anchor } => checked += u64::from(!at_anchor),
                Walk::Unlinked | Walk::Clean(_) => checked += 1,
                Walk::Broken(visited, detail) => {
                    checked += 1;
                    free_zombies(policy.deferred, db, &visited, at, out, detail);
                }
            }
        }
        checked
    }

    /// Re-walks the loop from the anchor a [`FindingTarget::Record`]
    /// names, whatever its witness says; any other target checks
    /// nothing. A locked record on the walk abstains (no finding), as
    /// in a pass. Returns the number of records the walk visited.
    fn recheck(
        &mut self,
        db: &mut Database,
        target: FindingTarget,
        policy: ElementPolicy,
        locked: &dyn Fn(RecordRef) -> bool,
        at: SimTime,
        out: &mut Vec<Finding>,
    ) -> u64 {
        let FindingTarget::Record { table, record } = target else {
            return 0;
        };
        let Some((start_field, _)) = link_field(db.catalog(), table) else {
            return 0;
        };
        let record_count = db.catalog().table(table).map_or(0, |tm| tm.def.record_count);
        if record >= record_count {
            return 0;
        }
        self.sweeps.entry(table).or_default().note_recheck(policy);
        let start = RecordRef::new(table, record);
        let walk = walk(db, start, start_field, locked, at, self.orphan_grace);
        let walks = self.walks.entry(table).or_default();
        walks.resize(record_count as usize, None);
        walks[record as usize] = witness(db, &walk, policy);
        match walk {
            Walk::Clean(visited) => visited.len() as u64,
            Walk::Broken(visited, detail) => {
                free_zombies(policy.deferred, db, &visited, at, out, detail);
                visited.len() as u64
            }
            Walk::Free | Walk::Abstained { .. } | Walk::Unlinked => 1,
        }
    }
}

/// How one walk from an anchor ended.
enum Walk {
    /// The anchor is free: no finding.
    Free,
    /// A record on the walk is locked by an in-flight transaction: the
    /// walk is unverified and reports nothing. `at_anchor` when the
    /// anchor itself is locked (the walk never started).
    Abstained { at_anchor: bool },
    /// The anchor is not linked yet but is inside the orphan grace
    /// period.
    Unlinked,
    /// The loop closed at the anchor (or a chain reached its terminal
    /// record) over these records.
    Clean(Vec<RecordRef>),
    /// The walk broke: the records it walked, and why.
    Broken(Vec<RecordRef>, &'static str),
}

/// The walk from one anchor, shared by the pass and the recheck:
/// follow the link fields until the walk returns to the anchor
/// (consistent) or breaks (violation), within one hop per table.
fn walk(
    db: &Database,
    start: RecordRef,
    start_field: FieldId,
    locked: &dyn Fn(RecordRef) -> bool,
    at: SimTime,
    orphan_grace: SimDuration,
) -> Walk {
    if !db.is_active(start).unwrap_or(false) {
        return Walk::Free;
    }
    if locked(start) {
        return Walk::Abstained { at_anchor: true };
    }
    let start_link = db.read_field_raw(start, start_field).expect("field exists");
    if start_link == LINK_NONE as u64 {
        // Not linked yet: tolerate young records, flag orphans.
        let meta = db.record_meta(start).expect("record exists");
        return if at.saturating_since(meta.last_access) > orphan_grace {
            Walk::Broken(vec![start], "orphan record never linked")
        } else {
            Walk::Unlinked
        };
    }
    let mut visited: Vec<RecordRef> = vec![start];
    let mut cur = start;
    let mut cur_field = start_field;
    for _ in 0..db.catalog().table_count() {
        let link_val = db.read_field_raw(cur, cur_field).expect("field exists");
        let (_, target_table) = link_field(db.catalog(), cur.table).expect("walk uses link fields");
        let target_tm = db.catalog().table(target_table).expect("valid link target");
        if link_val == LINK_NONE as u64 || link_val >= target_tm.def.record_count as u64 {
            return Walk::Broken(visited, "broken semantic link");
        }
        let next = RecordRef::new(target_table, link_val as u32);
        if locked(next) {
            // Intervening transaction: invalidate this walk, try again
            // next cycle.
            return Walk::Abstained { at_anchor: false };
        }
        if !db.is_active(next).unwrap_or(false) {
            return Walk::Broken(visited, "link to freed record");
        }
        if next == start {
            return Walk::Clean(visited);
        }
        if visited.contains(&next) {
            // A cycle that skips the start: inconsistent closure.
            return Walk::Broken(visited, "loop does not close at origin");
        }
        visited.push(next);
        let Some((next_field, _)) = link_field(db.catalog(), next.table) else {
            // Chain (not loop) schema: a valid terminal record.
            return Walk::Clean(visited);
        };
        cur = next;
        cur_field = next_field;
    }
    // Never returned to start within the hop budget.
    Walk::Broken(visited, "loop exceeds hop budget")
}

/// The witness a walk leaves: every record of a clean walk, each at
/// its current generation. Any other outcome leaves none, so the anchor
/// is walked again (a free anchor is not walked by a pass at all). A
/// schedule that sweeps every pass (`full_rescan_period` 1) never
/// reads a witness, so it records none.
fn witness(db: &Database, walk: &Walk, policy: ElementPolicy) -> Option<WalkWitness> {
    let Walk::Clean(records) = walk else {
        return None;
    };
    (policy.full_rescan_period != 1)
        .then(|| records.iter().map(|&r| (r, db.record_generation(r))).collect())
}

/// Frees (or, deferred, flags) the records of one broken walk and
/// reports the owner of its anchor, `records[0]`, for termination.
fn free_zombies(
    deferred: bool,
    db: &mut Database,
    records: &[RecordRef],
    at: SimTime,
    out: &mut Vec<Finding>,
    detail: &str,
) {
    let anchor = records[0];
    let owner = db.record_meta(anchor).expect("record exists").last_writer;
    if deferred {
        db.note_errors_detected(anchor.table, 1);
        out.push(Finding {
            element: AuditElementKind::Semantic,
            at,
            table: Some(anchor.table),
            record: Some(anchor.index),
            detail: format!(
                "{detail}: flagged {} record(s) anchored at table {} record {}",
                records.len(),
                anchor.table.0,
                anchor.index
            ),
            action: RecoveryAction::Flagged,
            target: Some(FindingTarget::Record { table: anchor.table, record: anchor.index }),
            caught: Vec::new(),
        });
        return;
    }
    let mut caught = Vec::new();
    for &rec in records {
        db.free_record_raw(rec).expect("record exists");
        let base = db.record_offset(rec).expect("record exists");
        let size = db.record_size(rec.table).expect("table exists");
        caught.extend(db.taint_mut().resolve_range(base, size, TaintFate::Caught { at }));
        db.note_errors_detected(rec.table, 1);
    }
    out.push(Finding {
        element: AuditElementKind::Semantic,
        at,
        table: Some(anchor.table),
        record: Some(anchor.index),
        detail: format!(
            "{detail}: freed {} record(s) anchored at table {} record {}",
            records.len(),
            anchor.table.0,
            anchor.index
        ),
        action: RecoveryAction::FreedRecord { table: anchor.table, record: anchor.index },
        target: Some(FindingTarget::Record { table: anchor.table, record: anchor.index }),
        caught,
    });
    if let Some(pid) = owner {
        out.push(Finding {
            element: AuditElementKind::Semantic,
            at,
            table: Some(anchor.table),
            record: Some(anchor.index),
            detail: format!("terminating client {pid} using zombie records"),
            action: RecoveryAction::TerminatedClient { pid },
            target: Some(FindingTarget::Client { pid }),
            caught: Vec::new(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtnc_db::{schema, TaintEntry, TaintKind};
    use wtnc_sim::Pid;

    const NOT_LOCKED: fn(RecordRef) -> bool = |_| false;
    const INLINE: ElementPolicy = ElementPolicy { deferred: false, full_rescan_period: 1 };

    /// Builds a database with one complete, consistent call loop and
    /// returns the three record indices (process, connection,
    /// resource).
    fn with_call_loop() -> (Database, u32, u32, u32) {
        let mut d = Database::build(schema::standard_schema()).unwrap();
        let p = d.alloc_record_raw(schema::PROCESS_TABLE).unwrap();
        let c = d.alloc_record_raw(schema::CONNECTION_TABLE).unwrap();
        let r = d.alloc_record_raw(schema::RESOURCE_TABLE).unwrap();
        d.write_field_raw(
            RecordRef::new(schema::PROCESS_TABLE, p),
            schema::process::CONNECTION_ID,
            c as u64,
        )
        .unwrap();
        d.write_field_raw(
            RecordRef::new(schema::CONNECTION_TABLE, c),
            schema::connection::CHANNEL_ID,
            r as u64,
        )
        .unwrap();
        d.write_field_raw(
            RecordRef::new(schema::RESOURCE_TABLE, r),
            schema::resource::PROCESS_ID,
            p as u64,
        )
        .unwrap();
        (d, p, c, r)
    }

    #[test]
    fn consistent_loop_passes_from_every_anchor() {
        let (mut d, ..) = with_call_loop();
        let mut audit = SemanticAudit::default();
        let mut out = Vec::new();
        for t in [schema::PROCESS_TABLE, schema::CONNECTION_TABLE, schema::RESOURCE_TABLE] {
            audit.audit_table(&mut d, t, INLINE, &NOT_LOCKED, SimTime::ZERO, &mut out);
        }
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn corrupted_link_detected_and_loop_freed() {
        let (mut d, p, c, r) = with_call_loop();
        // Corrupt the connection→resource link to a bogus index.
        let conn = RecordRef::new(schema::CONNECTION_TABLE, c);
        d.write_field_raw(conn, schema::connection::CHANNEL_ID, 60_000).unwrap();
        let (off, _) = d.field_extent(conn, schema::connection::CHANNEL_ID).unwrap();
        d.taint_mut()
            .insert(off, TaintEntry { id: 3, at: SimTime::ZERO, kind: TaintKind::DynamicRuled });
        let mut audit = SemanticAudit::default();
        let mut out = Vec::new();
        audit.audit_table(
            &mut d,
            schema::PROCESS_TABLE,
            INLINE,
            &NOT_LOCKED,
            SimTime::from_secs(1),
            &mut out,
        );
        assert!(!out.is_empty());
        let freed: Vec<_> =
            out.iter().filter(|f| matches!(f.action, RecoveryAction::FreedRecord { .. })).collect();
        assert_eq!(freed.len(), 1);
        // The walk visited process and connection before breaking; both
        // freed.
        assert!(!d.is_active(RecordRef::new(schema::PROCESS_TABLE, p)).unwrap());
        assert!(!d.is_active(conn).unwrap());
        // The taint was caught by the free.
        assert!(freed[0].caught.iter().any(|t| t.id == 3));
        // The resource record is now unreachable; its own anchor walk
        // will flag it (link to freed record).
        let mut out2 = Vec::new();
        audit.audit_table(
            &mut d,
            schema::RESOURCE_TABLE,
            INLINE,
            &NOT_LOCKED,
            SimTime::from_secs(1),
            &mut out2,
        );
        assert!(!out2.is_empty());
        assert!(!d.is_active(RecordRef::new(schema::RESOURCE_TABLE, r)).unwrap());
    }

    #[test]
    fn owner_reported_for_termination() {
        let (mut d, p, _, _) = with_call_loop();
        let rec = RecordRef::new(schema::PROCESS_TABLE, p);
        d.note_access(rec, Pid(42), SimTime::ZERO, true);
        // Break the loop.
        d.write_field_raw(rec, schema::process::CONNECTION_ID, 50_000).unwrap();
        let mut out = Vec::new();
        SemanticAudit::default().audit_table(
            &mut d,
            schema::PROCESS_TABLE,
            INLINE,
            &NOT_LOCKED,
            SimTime::from_secs(1),
            &mut out,
        );
        assert!(out.iter().any(|f| f.action == RecoveryAction::TerminatedClient { pid: Pid(42) }));
    }

    #[test]
    fn loop_pointing_back_to_wrong_process_detected() {
        let (mut d, _p, _c, r) = with_call_loop();
        // Allocate a second process; point the resource at it instead.
        let p2 = d.alloc_record_raw(schema::PROCESS_TABLE).unwrap();
        d.write_field_raw(
            RecordRef::new(schema::RESOURCE_TABLE, r),
            schema::resource::PROCESS_ID,
            p2 as u64,
        )
        .unwrap();
        let mut out = Vec::new();
        SemanticAudit::default().audit_table(
            &mut d,
            schema::PROCESS_TABLE,
            INLINE,
            &NOT_LOCKED,
            SimTime::ZERO,
            &mut out,
        );
        assert!(!out.is_empty(), "resource pointing at the wrong process must be caught");
    }

    #[test]
    fn young_unlinked_records_tolerated_old_ones_are_orphans() {
        let mut d = Database::build(schema::standard_schema()).unwrap();
        let p = d.alloc_record_raw(schema::PROCESS_TABLE).unwrap();
        let rec = RecordRef::new(schema::PROCESS_TABLE, p);
        d.note_access(rec, Pid(7), SimTime::ZERO, true);
        let mut audit = SemanticAudit::new(SimDuration::from_secs(60));
        // Young: no finding.
        let mut out = Vec::new();
        audit.audit_table(
            &mut d,
            schema::PROCESS_TABLE,
            INLINE,
            &NOT_LOCKED,
            SimTime::from_secs(10),
            &mut out,
        );
        assert!(out.is_empty());
        assert!(d.is_active(rec).unwrap());
        // Old: orphan freed, owner reported.
        let mut out = Vec::new();
        audit.audit_table(
            &mut d,
            schema::PROCESS_TABLE,
            INLINE,
            &NOT_LOCKED,
            SimTime::from_secs(100),
            &mut out,
        );
        assert_eq!(out.len(), 2);
        assert!(!d.is_active(rec).unwrap());
    }

    #[test]
    fn unmutated_closure_rewalks_only_the_young_anchor_until_it_ages_out() {
        let (mut d, ..) = with_call_loop();
        let index = d.alloc_record_raw(schema::PROCESS_TABLE).unwrap();
        let young = RecordRef::new(schema::PROCESS_TABLE, index);
        d.note_access(young, Pid(7), SimTime::ZERO, true);
        let mut audit = SemanticAudit::new(SimDuration::from_secs(60));
        let policy = ElementPolicy { full_rescan_period: 0, ..INLINE };
        let mut pass = |d: &mut Database, secs: u64, out: &mut Vec<Finding>| {
            let at = SimTime::from_secs(secs);
            audit.audit_table(d, schema::PROCESS_TABLE, policy, &NOT_LOCKED, at, out)
        };
        let mut out = Vec::new();
        assert_eq!(pass(&mut d, 10, &mut out), 2, "first pass walks the loop and the young record");
        assert!(out.is_empty(), "{out:?}");
        // The loop's anchor has a walk witness, the unlinked record has
        // none: it is walked again, and is still inside the grace period.
        assert_eq!(pass(&mut d, 20, &mut out), 1, "only the young anchor is re-walked");
        assert!(out.is_empty(), "{out:?}");
        // Still no mutation, but the young record has aged past the
        // grace period: its walk finds the orphan.
        assert_eq!(pass(&mut d, 100, &mut out), 1);
        let freed = RecoveryAction::FreedRecord { table: young.table, record: index };
        assert!(out.iter().any(|f| f.action == freed), "{out:?}");
        assert!(!d.is_active(young).unwrap());
    }

    #[test]
    fn locked_records_skip_the_walk() {
        let (mut d, p, c, _) = with_call_loop();
        // Break the loop, but lock the connection record (transaction in
        // flight): the walk must abstain.
        let conn = RecordRef::new(schema::CONNECTION_TABLE, c);
        d.write_field_raw(conn, schema::connection::CHANNEL_ID, 60_000).unwrap();
        let locked = move |r: RecordRef| r == conn;
        let mut out = Vec::new();
        SemanticAudit::default().audit_table(
            &mut d,
            schema::PROCESS_TABLE,
            INLINE,
            &locked,
            SimTime::ZERO,
            &mut out,
        );
        assert!(out.is_empty());
        assert!(d.is_active(RecordRef::new(schema::PROCESS_TABLE, p)).unwrap());
    }

    #[test]
    fn tables_without_links_are_not_checked() {
        let mut d = Database::build(schema::standard_schema()).unwrap();
        let mut out = Vec::new();
        let checked = SemanticAudit::default().audit_table(
            &mut d,
            schema::SYSCONFIG_TABLE,
            INLINE,
            &NOT_LOCKED,
            SimTime::ZERO,
            &mut out,
        );
        assert_eq!(checked, 0);
    }
}
