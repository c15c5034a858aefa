//! Dynamic data range check (§4.3.1).
//!
//! "The range of allowable values for database fields are stored in
//! the database system catalog. This information allows the audit
//! program to do a range check on the dynamic fields ... If the audit
//! detects an error, the field is reset to its default value, which is
//! also specified in the system catalog. In addition, if the table
//! where the error occurred is dynamic, the record is freed as a
//! preemptive measure to stop error propagation."
//!
//! Fields with no range rule cannot be checked here — that gap is the
//! paper's "escape due to lack of rule" category, which the semantic
//! audit partially closes.

use wtnc_db::{Catalog, Database, FieldId, FieldKind, RecordRef, TableId, TableNature, TaintFate};
use wtnc_sim::SimTime;

use crate::finding::{AuditElementKind, Finding, FindingTarget, RecoveryAction};
use crate::genskip::GenSkip;

/// The range-checkable fields of a table: `(field, lo, hi, default)`
/// for every dynamic field carrying a catalog range rule.
fn ruled_fields(catalog: &Catalog, table: TableId) -> Vec<(u16, u64, u64, u64)> {
    let Ok(tm) = catalog.table(table) else {
        return Vec::new();
    };
    tm.def
        .fields
        .iter()
        .enumerate()
        .filter(|(_, f)| f.kind == FieldKind::Dynamic)
        .filter_map(|(i, f)| f.range.map(|(lo, hi)| (i as u16, lo, hi, f.default)))
        .collect()
}

/// The range-check audit element. An out-of-range field is reset to
/// its catalog default; in a dynamic table the whole record is then
/// freed preemptively (§4.3.1).
#[derive(Debug, Clone, Default)]
pub struct RangeAudit {
    /// Detect-only mode: out-of-range fields are flagged (targeted at
    /// the field) instead of reset/freed.
    pub deferred: bool,
    /// Change-aware mode: skip records whose generation is unchanged
    /// since they were last verified clean. Off by default.
    pub incremental: bool,
    /// Every `n`-th pass over a table ignores generations even in
    /// incremental mode (0 = never force a full sweep).
    pub full_rescan_period: u32,
    skip: GenSkip,
}

impl RangeAudit {
    /// Creates the element.
    pub fn new() -> Self {
        RangeAudit::default()
    }

    /// Audits the dynamic ranged fields of every active record of one
    /// table. Returns the number of records checked. Records currently
    /// locked by a client are skipped (an intervening update would
    /// invalidate the result; the paper re-runs such audits later).
    pub fn audit_table(
        &mut self,
        db: &mut Database,
        table: TableId,
        locked: &dyn Fn(RecordRef) -> bool,
        at: SimTime,
        out: &mut Vec<Finding>,
    ) -> u64 {
        let Ok(tm) = db.catalog().table(table) else {
            return 0;
        };
        let record_count = tm.def.record_count;
        let is_dynamic_table = tm.def.nature == TableNature::Dynamic;
        // Collect the checkable fields once.
        let ruled = ruled_fields(db.catalog(), table);
        if ruled.is_empty() {
            return 0;
        }

        let due_full = self.skip.begin_pass(table, record_count as usize, self.full_rescan_period);
        let use_gen = self.incremental && !due_full;
        let mut checked = 0u64;
        for index in 0..record_count {
            let rec = RecordRef::new(table, index);
            let gen = db.record_generation(rec);
            if use_gen && self.skip.is_clean(table, index, gen) {
                continue;
            }
            if !db.is_active(rec).unwrap_or(false) {
                // A free record produces no range findings, and any
                // reactivation mutates the header: safe to skip until
                // the generation moves.
                self.skip.set_clean(table, index, gen);
                continue;
            }
            if locked(rec) {
                // Not verified — stays checkable next cycle.
                continue;
            }
            checked += 1;
            let mut clean = true;
            let mut freed = false;
            for &(field, lo, hi, default) in &ruled {
                if freed {
                    break;
                }
                let fid = FieldId(field);
                let value = db.read_field_raw(rec, fid).expect("field exists");
                if value >= lo && value <= hi {
                    continue;
                }
                clean = false;
                if self.deferred {
                    db.note_errors_detected(table, 1);
                    out.push(Finding {
                        element: AuditElementKind::Range,
                        at,
                        table: Some(table),
                        record: Some(index),
                        detail: format!(
                            "field {field} of record {index} in table {} out of range: {value} not in [{lo}, {hi}]",
                            table.0
                        ),
                        action: RecoveryAction::Flagged,
                        target: Some(FindingTarget::Field { table, record: index, field }),
                        caught: Vec::new(),
                    });
                    continue;
                }
                // Reset to default…
                db.write_field_raw(rec, fid, default).expect("field exists");
                let (off, len) = db.field_extent(rec, fid).expect("field exists");
                let mut caught = db.taint_mut().resolve_range(off, len, TaintFate::Caught { at });
                let action = if is_dynamic_table {
                    // …and free the record preemptively.
                    db.free_record_raw(rec).expect("record exists");
                    let base = db.record_offset(rec).expect("record exists");
                    let size = db.record_size(table).expect("table exists");
                    caught.extend(db.taint_mut().resolve_range(
                        base,
                        size,
                        TaintFate::Caught { at },
                    ));
                    freed = true;
                    RecoveryAction::FreedRecord { table, record: index }
                } else {
                    RecoveryAction::ResetField { table, record: index, field }
                };
                db.note_errors_detected(table, caught.len().max(1) as u64);
                let target = if freed {
                    FindingTarget::Record { table, record: index }
                } else {
                    FindingTarget::Field { table, record: index, field }
                };
                out.push(Finding {
                    element: AuditElementKind::Range,
                    at,
                    table: Some(table),
                    record: Some(index),
                    detail: format!(
                        "field {field} of record {index} in table {} out of range: {value} not in [{lo}, {hi}]",
                        table.0
                    ),
                    action,
                    target: Some(target),
                    caught,
                });
            }
            if clean {
                self.skip.set_clean(table, index, gen);
            }
        }
        checked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtnc_db::{schema, TaintEntry, TaintKind};

    fn setup() -> (Database, u32) {
        let mut d = Database::build(schema::standard_schema()).unwrap();
        let idx = d.alloc_record_raw(schema::CONNECTION_TABLE).unwrap();
        (d, idx)
    }

    const NOT_LOCKED: fn(RecordRef) -> bool = |_| false;

    #[test]
    fn in_range_values_pass() {
        let (mut d, idx) = setup();
        let rec = RecordRef::new(schema::CONNECTION_TABLE, idx);
        d.write_field_raw(rec, schema::connection::CALLER_ID, 5_234).unwrap();
        d.write_field_raw(rec, schema::connection::STATE, 2).unwrap();
        let mut out = Vec::new();
        let checked = RangeAudit::new().audit_table(
            &mut d,
            schema::CONNECTION_TABLE,
            &NOT_LOCKED,
            SimTime::ZERO,
            &mut out,
        );
        assert_eq!(checked, 1);
        assert!(out.is_empty());
    }

    #[test]
    fn out_of_range_resets_and_frees_dynamic_record() {
        let (mut d, idx) = setup();
        let rec = RecordRef::new(schema::CONNECTION_TABLE, idx);
        // STATE range is 0..=4; write garbage directly (client bug).
        d.write_field_raw(rec, schema::connection::STATE, 99).unwrap();
        let (off, _) = d.field_extent(rec, schema::connection::STATE).unwrap();
        d.taint_mut()
            .insert(off, TaintEntry { id: 1, at: SimTime::ZERO, kind: TaintKind::DynamicRuled });
        let mut out = Vec::new();
        RangeAudit::new().audit_table(
            &mut d,
            schema::CONNECTION_TABLE,
            &NOT_LOCKED,
            SimTime::from_secs(2),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].action, RecoveryAction::FreedRecord { .. }));
        assert!(!out[0].caught.is_empty());
        assert!(!d.is_active(rec).unwrap());
        // Field was reset before the free.
        assert_eq!(d.read_field_raw(rec, schema::connection::STATE).unwrap(), 0);
    }

    #[test]
    fn non_dynamic_table_resets_without_freeing() {
        use wtnc_db::{FieldDef, FieldWidth, TableDef};
        // A config table carrying one ranged dynamic field: the range
        // audit resets it, and the (always active) record stays.
        let mut d = Database::build(vec![TableDef::new(
            "limits",
            TableNature::Config,
            2,
            vec![FieldDef::dynamic("load", FieldWidth::U16).with_range(0, 100).with_default(7)],
        )])
        .unwrap();
        let table = TableId(0);
        let rec = RecordRef::new(table, 1);
        d.write_field_raw(rec, FieldId(0), 999).unwrap();
        let mut out = Vec::new();
        RangeAudit::new().audit_table(&mut d, table, &NOT_LOCKED, SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].action, RecoveryAction::ResetField { table, record: 1, field: 0 });
        assert!(d.is_active(rec).unwrap());
        // Reset to the catalog default.
        assert_eq!(d.read_field_raw(rec, FieldId(0)).unwrap(), 7);
    }

    #[test]
    fn unruled_fields_are_invisible_to_range_check() {
        let (mut d, idx) = setup();
        let rec = RecordRef::new(schema::CONNECTION_TABLE, idx);
        // BILLING_UNITS has no range rule; garbage passes.
        d.write_field_raw(rec, schema::connection::BILLING_UNITS, u64::MAX).unwrap();
        let mut out = Vec::new();
        RangeAudit::new().audit_table(
            &mut d,
            schema::CONNECTION_TABLE,
            &NOT_LOCKED,
            SimTime::ZERO,
            &mut out,
        );
        assert!(out.is_empty(), "no rule, no detection — the paper's escape category");
    }

    #[test]
    fn locked_records_are_skipped() {
        let (mut d, idx) = setup();
        let rec = RecordRef::new(schema::CONNECTION_TABLE, idx);
        d.write_field_raw(rec, schema::connection::STATE, 99).unwrap();
        let locked = move |r: RecordRef| r == rec;
        let mut out = Vec::new();
        let checked = RangeAudit::new().audit_table(
            &mut d,
            schema::CONNECTION_TABLE,
            &locked,
            SimTime::ZERO,
            &mut out,
        );
        assert_eq!(checked, 0);
        assert!(out.is_empty());
        assert!(d.is_active(rec).unwrap());
    }

    #[test]
    fn free_records_are_skipped() {
        let (mut d, idx) = setup();
        let rec = RecordRef::new(schema::CONNECTION_TABLE, idx);
        d.write_field_raw(rec, schema::connection::STATE, 99).unwrap();
        d.free_record_raw(rec).unwrap();
        let mut out = Vec::new();
        RangeAudit::new().audit_table(
            &mut d,
            schema::CONNECTION_TABLE,
            &NOT_LOCKED,
            SimTime::ZERO,
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn config_tables_have_no_dynamic_ruled_fields() {
        let mut d = Database::build(schema::standard_schema()).unwrap();
        let mut out = Vec::new();
        let checked = RangeAudit::new().audit_table(
            &mut d,
            schema::SYSCONFIG_TABLE,
            &NOT_LOCKED,
            SimTime::ZERO,
            &mut out,
        );
        assert_eq!(checked, 0);
    }
}
