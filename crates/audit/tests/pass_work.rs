//! Pass work gate: on a 32,768-slot image at ~1% occupancy, one range
//! pass and one semantic pass visit only the active slots the status
//! index lists — never more slots than are active — decode no header,
//! and still check every active record. The structural pass checks
//! every header, free ones included. The counts are exact, so the gate
//! fires on any host.

use wtnc_audit::{AuditElement, ElementPolicy, RangeAudit, SemanticAudit, StructuralAudit};
use wtnc_db::layout::{encode_record_id, LINK_NONE, STATUS_ACTIVE};
use wtnc_db::{schema, Database, RecordHeader, RecordRef, TableId};
use wtnc_sim::SimTime;

const SLOTS: u32 = 32_768;
/// Closed call loops in the image: ~1% of the slots of each table.
const LOOPS: u32 = 328;
/// Ceiling on slots a range or semantic pass visits per active slot.
const VISITS_PER_ACTIVE_SLOT: u64 = 1;

const NOT_LOCKED: fn(RecordRef) -> bool = |_| false;

/// `LOOPS` closed `(process, connection, resource)` loops, spread over
/// the tables (every 99th slot) so the active slots share few words of
/// the index.
fn world() -> Database {
    let mut db = Database::build(schema::standard_schema_with_slots(SLOTS)).unwrap();
    let tables = [schema::PROCESS_TABLE, schema::CONNECTION_TABLE, schema::RESOURCE_TABLE];
    let links = [
        schema::process::CONNECTION_ID,
        schema::connection::CHANNEL_ID,
        schema::resource::PROCESS_ID,
    ];
    for k in 0..LOOPS {
        let index = k * 99;
        for (i, &table) in tables.iter().enumerate() {
            let rec = RecordRef::new(table, index);
            let header = RecordHeader {
                record_id: encode_record_id(table.0, index),
                status: STATUS_ACTIVE,
                group: 0,
                next: LINK_NONE,
                prev: LINK_NONE,
            };
            db.write_header(rec, header).unwrap();
            db.write_field_raw(rec, links[i], u64::from(index)).unwrap();
        }
    }
    db
}

/// One inline-repair, full-scan pass of `element` over `table`;
/// returns the records it checked and the headers it decoded.
fn pass(element: &mut dyn AuditElement, db: &mut Database, table: TableId) -> (u64, u64) {
    let before = db.headers_decoded();
    let mut out = Vec::new();
    let checked = element.audit_table(
        db,
        table,
        ElementPolicy::default(),
        &NOT_LOCKED,
        SimTime::from_secs(1),
        &mut out,
    );
    assert!(out.is_empty(), "{out:?}");
    (checked, db.headers_decoded() - before)
}

#[test]
fn range_and_semantic_passes_visit_only_active_slots() {
    let mut db = world();
    for table in [schema::PROCESS_TABLE, schema::CONNECTION_TABLE, schema::RESOURCE_TABLE] {
        let active = u64::from(db.active_count(table).unwrap());
        assert_eq!(active, u64::from(LOOPS));

        let mut range = RangeAudit::default();
        let (checked, decoded) = pass(&mut range, &mut db, table);
        assert!(
            range.slots_visited() <= active * VISITS_PER_ACTIVE_SLOT,
            "range pass over table {} visited {} slots, {active} active",
            table.0,
            range.slots_visited()
        );
        assert_eq!(decoded, 0, "the range pass decodes no header");
        assert!(checked == 0 || checked == active, "ruled tables check every active record");

        let mut semantic = SemanticAudit::default();
        let (checked, decoded) = pass(&mut semantic, &mut db, table);
        assert!(
            semantic.slots_visited() <= active * VISITS_PER_ACTIVE_SLOT,
            "semantic pass over table {} visited {} slots, {active} active",
            table.0,
            semantic.slots_visited()
        );
        assert_eq!(decoded, 0, "the semantic pass decodes no header");
        assert_eq!(checked, active, "every anchor's loop is walked");

        let (checked, _) = pass(&mut StructuralAudit::default(), &mut db, table);
        assert_eq!(checked, u64::from(SLOTS), "the structural pass checks every header");
    }
    let (checked, _) = pass(&mut RangeAudit::default(), &mut db, schema::CONNECTION_TABLE);
    assert_eq!(checked, u64::from(LOOPS), "the connection table carries range rules");
}
