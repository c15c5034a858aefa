//! Structural check (§4.3.2).
//!
//! "The structural audit element calculates the offset of each record
//! header from the beginning of the database based on record sizes
//! stored in system tables ... The database structure is checked by
//! comparing all header fields at computed offsets with expected
//! values." A single bad record identifier is correctable "because the
//! correct record ID can be inferred from the offset within the
//! database"; "multiple consecutive corruptions in header fields is
//! considered to be a strong indication that tables or records within
//! the database may be misaligned, and the entire database is then
//! reloaded from the disk".

use wtnc_db::layout::{encode_record_id, LINK_NONE, STATUS_ACTIVE, STATUS_FREE};
use wtnc_db::{Database, RecordHeader, RecordRef, TableId, TaintFate};
use wtnc_sim::SimTime;

use crate::finding::{AuditElementKind, Finding, FindingTarget, RecoveryAction};
use crate::process::{AuditElement, ElementPolicy};

/// Consecutive damaged headers in one table that escalate to a full
/// reload.
const ESCALATION_THRESHOLD: u32 = 3;

/// The structural audit element. In deferred mode damaged headers are
/// flagged (one finding per record, targeted at the header) instead of
/// rebuilt, and the consecutive-damage escalation is left to the
/// recovery engine's ladder. Stateless: every pass checks every
/// header, which costs a few byte compares per slot.
#[derive(Debug, Clone, Default)]
pub struct StructuralAudit;

impl AuditElement for StructuralAudit {
    fn kind(&self) -> AuditElementKind {
        AuditElementKind::Structural
    }

    /// Audits one table's headers, free slots included (a free header
    /// can still hold a bad id or link), in one stride over the table's
    /// bytes; returns the number of records checked. May escalate to a
    /// whole-database reload, reported as a single finding. Headers
    /// are checked whether or not a client holds the record's lock, so
    /// `locked` is ignored.
    fn audit_table(
        &mut self,
        db: &mut Database,
        table: TableId,
        policy: ElementPolicy,
        _locked: &dyn Fn(RecordRef) -> bool,
        at: SimTime,
        out: &mut Vec<Finding>,
    ) -> u64 {
        let Ok(tm) = db.catalog().table(table) else {
            return 0;
        };
        let record_count = tm.def.record_count;
        let record_size = tm.record_size;
        let table_offset = tm.offset;
        let table_bytes = table_offset..table_offset + tm.data_len();
        let mut consecutive = 0u32;
        let mut damaged: Vec<u32> = Vec::new();

        let records = db.region()[table_bytes].chunks_exact(record_size);
        for (index, bytes) in (0..record_count).zip(records) {
            if header_ok(RecordHeader::parse(bytes), table, index, record_count) {
                consecutive = 0;
                continue;
            }
            damaged.push(index);
            consecutive += 1;
            if consecutive >= ESCALATION_THRESHOLD && !policy.deferred {
                break;
            }
        }
        if consecutive >= ESCALATION_THRESHOLD && !policy.deferred {
            // Misalignment suspected: reload everything.
            db.reload_all();
            let region_len = db.region_len();
            let caught = db.taint_mut().resolve_range(0, region_len, TaintFate::Caught { at });
            db.note_errors_detected(table, caught.len().max(1) as u64);
            out.push(Finding {
                element: AuditElementKind::Structural,
                at,
                table: Some(table),
                record: None,
                detail: format!(
                    "{consecutive} consecutive damaged headers in table {}: reloading database",
                    table.0
                ),
                action: RecoveryAction::ReloadedDatabase,
                target: Some(FindingTarget::Range { offset: 0, len: region_len }),
                caught,
            });
            return record_count as u64;
        }

        for index in damaged {
            if policy.deferred {
                flag(db, table, index, at, out);
                continue;
            }
            // Rebuild from computed values, conservatively: the record
            // id is fully inferable; an impossible status is resolved to
            // FREE (losing at most one call, the paper's tolerated
            // recovery); bad links are cleared.
            let (base, len) =
                db.rebuild_header(RecordRef::new(table, index)).expect("index within table");
            let caught = db.taint_mut().resolve_range(base, len, TaintFate::Caught { at });
            db.note_errors_detected(table, caught.len().max(1) as u64);
            out.push(Finding {
                element: AuditElementKind::Structural,
                at,
                table: Some(table),
                record: Some(index),
                detail: format!("damaged header rebuilt for record {index} of table {}", table.0),
                action: RecoveryAction::RebuiltHeader { table, record: index },
                target: Some(FindingTarget::Header { table, record: index }),
                caught,
            });
        }
        record_count as u64
    }

    /// Re-checks the one header a [`FindingTarget::Header`] names; any
    /// other target checks nothing. Returns the number of records
    /// examined.
    fn recheck(
        &mut self,
        db: &mut Database,
        target: FindingTarget,
        _policy: ElementPolicy,
        _locked: &dyn Fn(RecordRef) -> bool,
        at: SimTime,
        out: &mut Vec<Finding>,
    ) -> u64 {
        let FindingTarget::Header { table, record } = target else {
            return 0;
        };
        let Ok(tm) = db.catalog().table(table) else {
            return 0;
        };
        let record_count = tm.def.record_count;
        if record >= record_count {
            return 0;
        }
        let hdr = db.header(RecordRef::new(table, record)).expect("index within table");
        if !header_ok(hdr, table, record, record_count) {
            flag(db, table, record, at, out);
        }
        1
    }
}

/// The per-header test the pass and the recheck share: the record id
/// is the one its offset implies, the status is one of the two legal
/// values, and both links are unset or inside the table.
fn header_ok(hdr: RecordHeader, table: TableId, index: u32, record_count: u32) -> bool {
    let link_ok = |l: u16| l == LINK_NONE || u32::from(l) < record_count;
    hdr.record_id == encode_record_id(table.0, index)
        && (hdr.status == STATUS_ACTIVE || hdr.status == STATUS_FREE)
        && link_ok(hdr.next)
        && link_ok(hdr.prev)
}

/// Flags one damaged header (detect-only mode) and counts the error.
fn flag(db: &mut Database, table: TableId, index: u32, at: SimTime, out: &mut Vec<Finding>) {
    db.note_errors_detected(table, 1);
    out.push(Finding {
        element: AuditElementKind::Structural,
        at,
        table: Some(table),
        record: Some(index),
        detail: format!("damaged header flagged for record {index} of table {}", table.0),
        action: RecoveryAction::Flagged,
        target: Some(FindingTarget::Header { table, record: index }),
        caught: Vec::new(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtnc_db::layout::{HDR_RECORD_ID, HDR_STATUS};
    use wtnc_db::{schema, TaintEntry, TaintKind};

    fn db() -> Database {
        Database::build(schema::standard_schema()).unwrap()
    }

    /// One inline-repair, full-scan pass over `table`.
    fn audit(d: &mut Database, table: TableId, at: SimTime, out: &mut Vec<Finding>) -> u64 {
        StructuralAudit.audit_table(d, table, ElementPolicy::default(), &|_| false, at, out)
    }

    #[test]
    fn clean_table_no_findings() {
        let mut d = db();
        let mut out = Vec::new();
        let checked = audit(&mut d, schema::PROCESS_TABLE, SimTime::ZERO, &mut out);
        assert_eq!(checked, schema::STANDARD_DYNAMIC_SLOTS as u64);
        assert!(out.is_empty());
    }

    #[test]
    fn single_record_id_corruption_is_corrected_in_place() {
        let mut d = db();
        let rec = RecordRef::new(schema::PROCESS_TABLE, 5);
        let base = d.record_offset(rec).unwrap();
        d.flip_bit(base + HDR_RECORD_ID, 2).unwrap();
        d.taint_mut().insert(
            base + HDR_RECORD_ID,
            TaintEntry { id: 9, at: SimTime::ZERO, kind: TaintKind::Structural },
        );
        let mut out = Vec::new();
        audit(&mut d, schema::PROCESS_TABLE, SimTime::from_secs(1), &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].action, RecoveryAction::RebuiltHeader { record: 5, .. }));
        assert_eq!(out[0].caught.len(), 1);
        let hdr = d.header(rec).unwrap();
        assert_eq!(hdr.record_id, encode_record_id(schema::PROCESS_TABLE.0, 5));
    }

    #[test]
    fn garbage_status_resolves_to_free() {
        let mut d = db();
        let rec = RecordRef::new(schema::CONNECTION_TABLE, 2);
        let base = d.record_offset(rec).unwrap();
        d.poke(base + HDR_STATUS, &[0x3C]).unwrap();
        let mut out = Vec::new();
        audit(&mut d, schema::CONNECTION_TABLE, SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(d.header(rec).unwrap().status, STATUS_FREE);
    }

    #[test]
    fn out_of_range_links_cleared() {
        let mut d = db();
        let rec = RecordRef::new(schema::RESOURCE_TABLE, 0);
        let mut hdr = d.header(rec).unwrap();
        hdr.next = 9_999;
        d.write_header(rec, hdr).unwrap();
        let mut out = Vec::new();
        audit(&mut d, schema::RESOURCE_TABLE, SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(d.header(rec).unwrap().next, LINK_NONE);
    }

    #[test]
    fn consecutive_damage_escalates_to_full_reload() {
        let mut d = db();
        // Smash three consecutive headers (misalignment pattern).
        for i in 0..3 {
            let base = d.record_offset(RecordRef::new(schema::PROCESS_TABLE, i)).unwrap();
            d.poke(base + HDR_RECORD_ID, &[0xFF, 0xFF, 0xFF, 0xFF]).unwrap();
        }
        // Also corrupt an unrelated dynamic byte: the full reload should
        // sweep it up too.
        let far = d.record_offset(RecordRef::new(schema::RESOURCE_TABLE, 7)).unwrap();
        d.flip_bit(far + HDR_STATUS, 0).unwrap();
        d.taint_mut().insert(
            far + HDR_STATUS,
            TaintEntry { id: 1, at: SimTime::ZERO, kind: TaintKind::Structural },
        );
        let mut out = Vec::new();
        audit(&mut d, schema::PROCESS_TABLE, SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].action, RecoveryAction::ReloadedDatabase);
        assert_eq!(d.region(), d.golden());
        assert_eq!(d.taint().latent_count(), 0);
    }

    #[test]
    fn scattered_damage_repairs_individually() {
        let mut d = db();
        // Damage records 0, 2, 4 (not consecutive).
        for i in [0u32, 2, 4] {
            let base = d.record_offset(RecordRef::new(schema::PROCESS_TABLE, i)).unwrap();
            d.flip_bit(base + HDR_RECORD_ID, 0).unwrap();
        }
        let mut out = Vec::new();
        audit(&mut d, schema::PROCESS_TABLE, SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|f| matches!(f.action, RecoveryAction::RebuiltHeader { .. })));
    }
}
