//! Property-based tests of the audit elements' detection guarantees.

use proptest::prelude::*;
use wtnc_audit::{RangeAudit, SemanticAudit, StaticDataAudit, StructuralAudit};
use wtnc_db::layout::RECORD_HEADER_SIZE;
use wtnc_db::{schema, Database, RecordRef};
use wtnc_sim::SimTime;

const NOT_LOCKED: fn(RecordRef) -> bool = |_| false;

fn db() -> Database {
    Database::build(schema::standard_schema()).unwrap()
}

proptest! {
    /// The static-data audit detects ANY single bit flip anywhere in
    /// the catalog or the config tables, and repairs it exactly.
    #[test]
    fn static_audit_catches_any_static_flip(frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut d = db();
        let mut audit = StaticDataAudit::new(&d);
        // Pick an offset in the static set: catalog or a config table.
        let cat_len = d.catalog().catalog_len();
        let cfg = d.catalog().table(schema::CHANNEL_CONFIG_TABLE).unwrap();
        let static_bytes = cat_len + cfg.data_len();
        let k = ((static_bytes - 1) as f64 * frac) as usize;
        let offset = if k < cat_len { k } else { cfg.offset + (k - cat_len) };
        let before = d.region().to_vec();
        d.flip_bit(offset, bit).unwrap();
        let mut out = Vec::new();
        audit.audit(&mut d, SimTime::from_secs(1), &mut out);
        prop_assert!(!out.is_empty(), "flip at {offset} undetected");
        prop_assert_eq!(d.region(), &before[..], "bytes not fully repaired");
    }

    /// The structural audit detects any corruption of a record id or
    /// status byte and restores a valid header.
    #[test]
    fn structural_audit_catches_header_damage(
        index in 0u32..schema::STANDARD_DYNAMIC_SLOTS,
        byte in 0usize..5, // record id (0..4) or status (4)
        bit in 0u8..8,
    ) {
        let mut d = db();
        let mut audit = StructuralAudit::default();
        let rec = RecordRef::new(schema::PROCESS_TABLE, index);
        let base = d.record_offset(rec).unwrap();
        d.flip_bit(base + byte, bit).unwrap();
        let mut out = Vec::new();
        audit.audit_table(&mut d, schema::PROCESS_TABLE, SimTime::from_secs(1), &mut out);
        prop_assert!(!out.is_empty(), "header damage at byte {byte} bit {bit} undetected");
        // The rebuilt header passes a second audit.
        let mut out2 = Vec::new();
        audit.audit_table(&mut d, schema::PROCESS_TABLE, SimTime::from_secs(2), &mut out2);
        prop_assert!(out2.is_empty(), "repair did not converge: {out2:?}");
        let _ = RECORD_HEADER_SIZE;
    }

    /// The range audit never flags values that are inside their rules.
    #[test]
    fn range_audit_has_no_false_positives(
        caller in 0u64..10_000,
        state in 0u64..5,
        codec in 0u64..4,
        slot in 0u64..32,
    ) {
        let mut d = db();
        let idx = d.alloc_record_raw(schema::CONNECTION_TABLE).unwrap();
        let rec = RecordRef::new(schema::CONNECTION_TABLE, idx);
        d.write_field_raw(rec, schema::connection::CALLER_ID, caller).unwrap();
        d.write_field_raw(rec, schema::connection::STATE, state).unwrap();
        d.write_field_raw(rec, schema::connection::CODEC, codec).unwrap();
        d.write_field_raw(rec, schema::connection::TIMESLOT, slot).unwrap();
        let mut out = Vec::new();
        RangeAudit::new().audit_table(
            &mut d,
            schema::CONNECTION_TABLE,
            &NOT_LOCKED,
            SimTime::ZERO,
            &mut out,
        );
        prop_assert!(out.is_empty(), "false positive: {out:?}");
        prop_assert!(d.is_active(rec).unwrap());
    }

    /// The range audit flags every out-of-range value.
    #[test]
    fn range_audit_catches_every_violation(excess in 1u64..200) {
        let mut d = db();
        let idx = d.alloc_record_raw(schema::CONNECTION_TABLE).unwrap();
        let rec = RecordRef::new(schema::CONNECTION_TABLE, idx);
        d.write_field_raw(rec, schema::connection::STATE, 4 + excess).unwrap();
        let mut out = Vec::new();
        RangeAudit::new().audit_table(
            &mut d,
            schema::CONNECTION_TABLE,
            &NOT_LOCKED,
            SimTime::ZERO,
            &mut out,
        );
        prop_assert_eq!(out.len(), 1);
    }

    /// The semantic audit detects any single corruption of a loop link
    /// — whether it points out of the table, at a free record, or at
    /// the wrong active record.
    #[test]
    fn semantic_audit_catches_any_link_corruption(new_link in 0u64..65_535) {
        let mut d = db();
        // Two healthy call loops.
        let mut recs = Vec::new();
        for _ in 0..2 {
            let p = d.alloc_record_raw(schema::PROCESS_TABLE).unwrap();
            let c = d.alloc_record_raw(schema::CONNECTION_TABLE).unwrap();
            let r = d.alloc_record_raw(schema::RESOURCE_TABLE).unwrap();
            d.write_field_raw(RecordRef::new(schema::PROCESS_TABLE, p), schema::process::CONNECTION_ID, c as u64).unwrap();
            d.write_field_raw(RecordRef::new(schema::CONNECTION_TABLE, c), schema::connection::CHANNEL_ID, r as u64).unwrap();
            d.write_field_raw(RecordRef::new(schema::RESOURCE_TABLE, r), schema::resource::PROCESS_ID, p as u64).unwrap();
            recs.push((p, c, r));
        }
        let (_, c0, r0) = recs[0];
        // Corrupt loop 0's connection→resource link, unless the draw
        // happens to be the correct value.
        prop_assume!(new_link != r0 as u64);
        prop_assume!(new_link != wtnc_db::layout::LINK_NONE as u64);
        d.write_field_raw(
            RecordRef::new(schema::CONNECTION_TABLE, c0),
            schema::connection::CHANNEL_ID,
            new_link,
        ).unwrap();
        let mut out = Vec::new();
        let mut audit = SemanticAudit::default();
        for t in [schema::PROCESS_TABLE, schema::CONNECTION_TABLE, schema::RESOURCE_TABLE] {
            audit.audit_table(&mut d, t, &NOT_LOCKED, SimTime::from_secs(1), &mut out);
        }
        prop_assert!(!out.is_empty(), "corrupted link {new_link} undetected");
        // The second, healthy loop is untouched.
        let (p1, c1, r1) = recs[1];
        prop_assert!(d.is_active(RecordRef::new(schema::PROCESS_TABLE, p1)).unwrap());
        prop_assert!(d.is_active(RecordRef::new(schema::CONNECTION_TABLE, c1)).unwrap());
        prop_assert!(d.is_active(RecordRef::new(schema::RESOURCE_TABLE, r1)).unwrap());
    }
}
