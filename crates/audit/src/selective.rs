//! Selective monitoring of attributes (§4.4.2).
//!
//! Some attributes have no usable static range rule. This element
//! derives invariants from the running system instead: it periodically
//! samples the values of monitored attributes across all active
//! records, builds per-attribute value histograms, and marks as
//! **suspect** any value observed less often than a configurable
//! fraction of the mean occurrence count. Suspects are not repaired
//! directly — "further actions, such as semantic audit, are triggered
//! to make a final decision" — so the finding carries
//! [`RecoveryAction::Flagged`].

use std::collections::BTreeMap;

use wtnc_db::{Database, FieldId, RecordRef, TableId};
use wtnc_sim::stats::ValueHistogram;
use wtnc_sim::SimTime;

use crate::finding::{AuditElementKind, Finding, RecoveryAction};

/// Configuration for [`SelectiveMonitor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectiveConfig {
    /// A value is suspect when its occurrence count falls below
    /// `suspect_fraction × mean occurrences`.
    pub suspect_fraction: f64,
    /// Minimum total observations before suspects are reported (avoids
    /// flagging everything during warm-up).
    pub min_observations: u64,
    /// When true, a suspect value that has **never** been observed
    /// during monitoring is treated as confirmed-corrupt and reset to
    /// the attribute's modal (most frequent) value. This is the
    /// "further action to make a final decision" of §4.4.2, realized
    /// as a derived-invariant repair; with `false` the element only
    /// flags.
    pub repair_unseen: bool,
}

impl Default for SelectiveConfig {
    fn default() -> Self {
        SelectiveConfig { suspect_fraction: 0.25, min_observations: 50, repair_unseen: false }
    }
}

/// The selective-monitoring element.
#[derive(Debug, Clone)]
pub struct SelectiveMonitor {
    config: SelectiveConfig,
    monitored: Vec<(TableId, FieldId)>,
    histograms: BTreeMap<(TableId, FieldId), ValueHistogram>,
}

impl SelectiveMonitor {
    /// Creates a monitor over the given `(table, field)` attributes.
    pub fn new(config: SelectiveConfig, monitored: Vec<(TableId, FieldId)>) -> Self {
        SelectiveMonitor { config, monitored, histograms: BTreeMap::new() }
    }

    /// The histogram collected so far for an attribute.
    pub fn histogram(&self, table: TableId, field: FieldId) -> Option<&ValueHistogram> {
        self.histograms.get(&(table, field))
    }

    /// Samples the monitored attributes of every active record ("the
    /// audit program periodically examines the values of that attribute
    /// in all active records of the relevant table").
    pub fn observe(&mut self, db: &Database) {
        for &(table, field) in &self.monitored {
            let Ok(tm) = db.catalog().table(table) else { continue };
            let count = tm.def.record_count;
            for index in 0..count {
                let rec = RecordRef::new(table, index);
                if !db.is_active(rec).unwrap_or(false) {
                    continue;
                }
                if let Ok(value) = db.read_field_raw(rec, field) {
                    self.histograms.entry((table, field)).or_default().observe(value);
                }
            }
        }
    }

    /// Reports suspect values as [`RecoveryAction::Flagged`] findings.
    /// Active records currently holding a suspect value are named so a
    /// follow-up audit can examine them.
    pub fn audit(&self, db: &Database, at: SimTime, out: &mut Vec<Finding>) {
        for (&(table, field), hist) in &self.histograms {
            if hist.total() < self.config.min_observations {
                continue;
            }
            let suspects = hist.suspects(self.config.suspect_fraction);
            if suspects.is_empty() {
                continue;
            }
            let Ok(tm) = db.catalog().table(table) else { continue };
            for index in 0..tm.def.record_count {
                let rec = RecordRef::new(table, index);
                if !db.is_active(rec).unwrap_or(false) {
                    continue;
                }
                let Ok(value) = db.read_field_raw(rec, field) else { continue };
                if suspects.contains(&value) {
                    out.push(Finding {
                        element: AuditElementKind::Selective,
                        at,
                        table: Some(table),
                        record: Some(index),
                        detail: format!(
                            "value {value} of field {} in table {} seen only {} of {} times: suspect",
                            field.0,
                            table.0,
                            hist.count(value),
                            hist.total()
                        ),
                        action: RecoveryAction::Flagged,
                        target: None,
                        caught: Vec::new(),
                    });
                }
            }
        }
    }

    /// Drops the learned histograms (e.g. after reconfiguration).
    pub fn reset(&mut self) {
        self.histograms.clear();
    }

    /// The modal (most frequently observed) value of an attribute.
    pub fn modal_value(&self, table: TableId, field: FieldId) -> Option<u64> {
        self.histograms
            .get(&(table, field))?
            .iter()
            .max_by_key(|&(_, count)| count)
            .map(|(value, _)| value)
    }
}

/// [`AuditElement`](crate::AuditElement) integration: when the audit
/// process visits a monitored table, the element samples the current
/// values (building its histograms) and reports suspects. With
/// [`SelectiveConfig::repair_unseen`] it additionally *repairs* values
/// never observed during monitoring, resetting them to the attribute's
/// modal value — the reconstruction of §4.4.2's deferred "final
/// decision". The element's own [`SelectiveConfig`] decides that, so it
/// ignores the process's [`ElementPolicy`](crate::ElementPolicy).
impl crate::AuditElement for SelectiveMonitor {
    fn kind(&self) -> AuditElementKind {
        AuditElementKind::Selective
    }

    fn audit_table(
        &mut self,
        db: &mut Database,
        table: TableId,
        _policy: crate::ElementPolicy,
        locked: &dyn Fn(RecordRef) -> bool,
        at: SimTime,
        out: &mut Vec<Finding>,
    ) -> u64 {
        let monitored_here: Vec<FieldId> =
            self.monitored.iter().filter(|&&(t, _)| t == table).map(|&(_, f)| f).collect();
        if monitored_here.is_empty() {
            return 0;
        }
        let Ok(tm) = db.catalog().table(table) else { return 0 };
        let record_count = tm.def.record_count;
        let mut checked = 0u64;

        for index in 0..record_count {
            let rec = RecordRef::new(table, index);
            if !db.is_active(rec).unwrap_or(false) || locked(rec) {
                continue;
            }
            checked += 1;
            for &field in &monitored_here {
                let Ok(value) = db.read_field_raw(rec, field) else { continue };
                let hist = self.histograms.entry((table, field)).or_default();
                if hist.total() >= self.config.min_observations && hist.count(value) == 0 {
                    // Never-seen value on a mature attribute: suspect.
                    if self.config.repair_unseen {
                        let modal =
                            self.modal_value(table, field).expect("mature histogram has a mode");
                        db.write_field_raw(rec, field, modal).expect("field exists");
                        let (off, len) = db.field_extent(rec, field).expect("field exists");
                        let caught = db.taint_mut().resolve_range(
                            off,
                            len,
                            wtnc_db::TaintFate::Caught { at },
                        );
                        db.note_errors_detected(table, caught.len().max(1) as u64);
                        out.push(Finding {
                            element: AuditElementKind::Selective,
                            at,
                            table: Some(table),
                            record: Some(index),
                            detail: format!(
                                "never-observed value {value} in field {} of record {index}: reset to modal {modal}",
                                field.0
                            ),
                            action: RecoveryAction::ResetField {
                                table,
                                record: index,
                                field: field.0,
                            },
                            target: Some(crate::FindingTarget::Field {
                                table,
                                record: index,
                                field: field.0,
                            }),
                            caught,
                        });
                    } else {
                        out.push(Finding {
                            element: AuditElementKind::Selective,
                            at,
                            table: Some(table),
                            record: Some(index),
                            detail: format!(
                                "never-observed value {value} in field {} of record {index}: suspect",
                                field.0
                            ),
                            action: RecoveryAction::Flagged,
                            target: Some(crate::FindingTarget::Field {
                                table,
                                record: index,
                                field: field.0,
                            }),
                            caught: Vec::new(),
                        });
                        // Keep learning from flagged-only values.
                        self.histograms.entry((table, field)).or_default().observe(value);
                    }
                } else {
                    self.histograms.entry((table, field)).or_default().observe(value);
                }
            }
        }
        checked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtnc_db::schema;

    #[test]
    fn learns_common_values_and_flags_rare_ones() {
        let mut d = Database::build(schema::standard_schema()).unwrap();
        let table = schema::RESOURCE_TABLE;
        let field = schema::resource::POWER_MW; // no static range rule
        let mut mon = SelectiveMonitor::new(
            SelectiveConfig { suspect_fraction: 0.5, min_observations: 20, ..Default::default() },
            vec![(table, field)],
        );
        // Ten records all holding the customary value 250.
        for _ in 0..10 {
            let i = d.alloc_record_raw(table).unwrap();
            d.write_field_raw(RecordRef::new(table, i), field, 250).unwrap();
        }
        for _ in 0..5 {
            mon.observe(&d);
        }
        let mut out = Vec::new();
        mon.audit(&d, SimTime::ZERO, &mut out);
        assert!(out.is_empty(), "uniform values are never suspect");

        // A corrupted record now holds a value never seen before.
        let weird = d.alloc_record_raw(table).unwrap();
        d.write_field_raw(RecordRef::new(table, weird), field, 987_654).unwrap();
        mon.observe(&d);
        let mut out = Vec::new();
        mon.audit(&d, SimTime::from_secs(1), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].record, Some(weird));
        assert_eq!(out[0].action, RecoveryAction::Flagged);
        assert!(out[0].detail.contains("987654"));
    }

    #[test]
    fn warm_up_threshold_suppresses_early_flags() {
        let mut d = Database::build(schema::standard_schema()).unwrap();
        let table = schema::RESOURCE_TABLE;
        let field = schema::resource::POWER_MW;
        let mut mon = SelectiveMonitor::new(
            SelectiveConfig {
                suspect_fraction: 0.5,
                min_observations: 1_000,
                ..Default::default()
            },
            vec![(table, field)],
        );
        let i = d.alloc_record_raw(table).unwrap();
        d.write_field_raw(RecordRef::new(table, i), field, 1).unwrap();
        mon.observe(&d);
        let mut out = Vec::new();
        mon.audit(&d, SimTime::ZERO, &mut out);
        assert!(out.is_empty());
        assert!(mon.histogram(table, field).is_some());
    }

    #[test]
    fn reset_clears_learned_state() {
        let mut d = Database::build(schema::standard_schema()).unwrap();
        let table = schema::RESOURCE_TABLE;
        let field = schema::resource::POWER_MW;
        let mut mon = SelectiveMonitor::new(SelectiveConfig::default(), vec![(table, field)]);
        let i = d.alloc_record_raw(table).unwrap();
        d.write_field_raw(RecordRef::new(table, i), field, 5).unwrap();
        mon.observe(&d);
        assert!(mon.histogram(table, field).is_some());
        mon.reset();
        assert!(mon.histogram(table, field).is_none());
    }
}

#[cfg(test)]
mod element_tests {
    use super::*;
    use crate::{AuditElement, ElementPolicy};
    use wtnc_db::{schema, TaintEntry, TaintKind};

    const NOT_LOCKED: fn(RecordRef) -> bool = |_| false;

    #[test]
    fn element_learns_then_repairs_unseen_values() {
        let mut d = Database::build(schema::standard_schema()).unwrap();
        let table = schema::RESOURCE_TABLE;
        let field = schema::resource::POWER_MW;
        let mut mon = SelectiveMonitor::new(
            SelectiveConfig { suspect_fraction: 0.5, min_observations: 30, repair_unseen: true },
            vec![(table, field)],
        );
        // Steady state: ten records, customary value 250.
        for _ in 0..10 {
            let i = d.alloc_record_raw(table).unwrap();
            d.write_field_raw(RecordRef::new(table, i), field, 250).unwrap();
        }
        // Several audit visits build a mature histogram.
        let mut out = Vec::new();
        for s in 0..4 {
            mon.audit_table(
                &mut d,
                table,
                ElementPolicy::default(),
                &NOT_LOCKED,
                SimTime::from_secs(s),
                &mut out,
            );
        }
        assert!(out.is_empty(), "steady state must not be flagged: {out:?}");
        assert_eq!(mon.modal_value(table, field), Some(250));

        // A corruption lands in the unruled field.
        let victim = RecordRef::new(table, 3);
        let (off, _) = d.field_extent(victim, field).unwrap();
        d.flip_bit(off + 2, 4).unwrap();
        d.taint_mut().insert(
            off + 2,
            TaintEntry { id: 1, at: SimTime::from_secs(5), kind: TaintKind::DynamicUnruled },
        );
        // The range audit is blind here; the selective element is not.
        let mut out = Vec::new();
        mon.audit_table(
            &mut d,
            table,
            ElementPolicy::default(),
            &NOT_LOCKED,
            SimTime::from_secs(6),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].action, RecoveryAction::ResetField { .. }));
        assert_eq!(out[0].caught.len(), 1);
        assert_eq!(d.read_field_raw(victim, field).unwrap(), 250);
        assert_eq!(d.taint().latent_count(), 0);
    }

    #[test]
    fn element_only_flags_when_repair_disabled() {
        let mut d = Database::build(schema::standard_schema()).unwrap();
        let table = schema::RESOURCE_TABLE;
        let field = schema::resource::POWER_MW;
        let mut mon = SelectiveMonitor::new(
            SelectiveConfig { suspect_fraction: 0.5, min_observations: 20, repair_unseen: false },
            vec![(table, field)],
        );
        for _ in 0..10 {
            let i = d.alloc_record_raw(table).unwrap();
            d.write_field_raw(RecordRef::new(table, i), field, 250).unwrap();
        }
        let mut out = Vec::new();
        for s in 0..3 {
            mon.audit_table(
                &mut d,
                table,
                ElementPolicy::default(),
                &NOT_LOCKED,
                SimTime::from_secs(s),
                &mut out,
            );
        }
        let victim = RecordRef::new(table, 0);
        d.write_field_raw(victim, field, 777_777).unwrap();
        let mut out = Vec::new();
        mon.audit_table(
            &mut d,
            table,
            ElementPolicy::default(),
            &NOT_LOCKED,
            SimTime::from_secs(9),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].action, RecoveryAction::Flagged);
        // Value untouched.
        assert_eq!(d.read_field_raw(victim, field).unwrap(), 777_777);
    }
}
