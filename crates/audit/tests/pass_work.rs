//! Pass work gates, exact counts that fire on any host.
//!
//! - On a 32,768-slot image at ~1% occupancy, one range pass and one
//!   semantic pass visit only the active slots the status index lists —
//!   never more slots than are active — decode no header, and still
//!   check every active record. The structural pass checks every
//!   header, free ones included.
//! - Records screened per cycle: a fixed world with young unlinked
//!   anchors runs a fixed op sequence, and the `records_checked` of
//!   every whole cycle is pinned at `full_rescan_period` 1 and 8. A
//!   semantic pass visits exactly the active anchors on every pass,
//!   over an unmutated closure too, and the structural element holds
//!   no state: a skip over clean headers would be invisible in
//!   `records_checked` (a skipped header counts as checked), so the
//!   gate pins that there is nothing to keep one in.

use wtnc_audit::{
    AuditConfig, AuditElement, AuditProcess, ElementPolicy, RangeAudit, SemanticAudit,
    StructuralAudit,
};
use wtnc_db::layout::{encode_record_id, LINK_NONE, STATUS_ACTIVE};
use wtnc_db::{schema, Database, DbApi, RecordHeader, RecordRef, TableId};
use wtnc_sim::{Pid, ProcessRegistry, SimTime};

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

        let (checked, _) = pass(&mut StructuralAudit, &mut db, table);
        assert_eq!(checked, u64::from(SLOTS), "the structural pass checks every header");
    }
    let (checked, _) = pass(&mut RangeAudit::default(), &mut db, schema::CONNECTION_TABLE);
    assert_eq!(checked, u64::from(LOOPS), "the connection table carries range rules");
}

/// Closed call loops in the records-per-cycle world.
const CYCLE_LOOPS: u32 = 24;
/// Cycles the op sequence runs, 10 s apart.
const CYCLES: u64 = 12;

/// `CYCLE_LOOPS` closed call loops, then four young unlinked process
/// anchors last accessed at time 0: they age past the default 60-s
/// orphan grace at the cycle at 70 s.
fn cycle_world() -> Database {
    let mut db = Database::build(schema::standard_schema()).unwrap();
    for _ in 0..CYCLE_LOOPS {
        let p = db.alloc_record_raw(schema::PROCESS_TABLE).unwrap();
        let c = db.alloc_record_raw(schema::CONNECTION_TABLE).unwrap();
        let r = db.alloc_record_raw(schema::RESOURCE_TABLE).unwrap();
        for (table, index, field, to) in [
            (schema::PROCESS_TABLE, p, schema::process::CONNECTION_ID, c),
            (schema::CONNECTION_TABLE, c, schema::connection::CHANNEL_ID, r),
            (schema::RESOURCE_TABLE, r, schema::resource::PROCESS_ID, p),
        ] {
            db.write_field_raw(RecordRef::new(table, index), field, u64::from(to)).unwrap();
        }
    }
    add_young_anchors(&mut db, 4, SimTime::ZERO);
    db
}

fn add_young_anchors(db: &mut Database, count: u32, at: SimTime) {
    for _ in 0..count {
        let index = db.alloc_record_raw(schema::PROCESS_TABLE).unwrap();
        db.note_access(RecordRef::new(schema::PROCESS_TABLE, index), Pid(7), at, true);
    }
}

/// The fixed op sequence's step before the cycle at `at`: every fourth
/// cycle rewrites one loop's link with its own value (a mutation that
/// leaves the loop closed), the fourth adds two young anchors that age
/// out at 110 s, and the cycles in between mutate nothing.
fn step(db: &mut Database, cycle: u64, at: SimTime) {
    if cycle % 4 == 1 {
        let rec = RecordRef::new(schema::PROCESS_TABLE, cycle as u32);
        let link = db.read_field_raw(rec, schema::process::CONNECTION_ID).unwrap();
        db.write_field_raw(rec, schema::process::CONNECTION_ID, link).unwrap();
    }
    if cycle == 3 {
        add_young_anchors(db, 2, at);
    }
}

/// `(records checked, findings)` per cycle of the op sequence under
/// `full_rescan_period`.
fn cycles(full_rescan_period: u32) -> Vec<(u64, usize)> {
    let mut db = cycle_world();
    let mut api = DbApi::new();
    let mut registry = ProcessRegistry::new();
    let config = AuditConfig { full_rescan_period, ..AuditConfig::default() };
    let mut audit = AuditProcess::new(config, &db);
    (0..CYCLES)
        .map(|cycle| {
            let at = SimTime::from_secs(10 * (cycle + 1));
            step(&mut db, cycle, at);
            let report = audit.run_cycle(&mut db, &mut api, &mut registry, at);
            (report.records_checked, report.findings.len())
        })
        .collect()
}

#[test]
fn records_screened_per_cycle_are_pinned() {
    let full = cycles(1);
    let incremental = cycles(8);
    let findings = |c: &[(u64, usize)]| c.iter().map(|&(_, f)| f).collect::<Vec<_>>();
    assert_eq!(findings(&full), findings(&incremental), "both schedules find the same");
    assert_eq!(
        full,
        [
            (364, 0),
            (364, 0),
            (364, 0),
            (368, 0),
            (368, 0),
            (368, 0),
            (368, 8),
            (360, 0),
            (360, 0),
            (360, 0),
            (360, 4),
            (356, 0),
        ],
        "(records checked, findings) per cycle, full_rescan_period 1"
    );
    assert_eq!(
        incremental,
        [
            (364, 0),
            (220, 0),
            (216, 0),
            (220, 0),
            (218, 0),
            (222, 0),
            (218, 8),
            (360, 0),
            (214, 0),
            (218, 0),
            (214, 4),
            (212, 0),
        ],
        "(records checked, findings) per cycle, full_rescan_period 8"
    );
}

#[test]
fn semantic_passes_visit_every_active_anchor_and_structural_keeps_no_state() {
    assert_eq!(std::mem::size_of::<StructuralAudit>(), 0, "a structural skip needs state");
    let mut db = cycle_world();
    let mut semantic = SemanticAudit::default();
    let policy = ElementPolicy { full_rescan_period: 8, ..ElementPolicy::default() };
    let table = schema::PROCESS_TABLE;
    let mut checked = Vec::new();
    for cycle in 0..CYCLES {
        let at = SimTime::from_secs(10 * (cycle + 1));
        step(&mut db, cycle, at);
        let active = u64::from(db.active_count(table).unwrap());
        let before = semantic.slots_visited();
        let mut out = Vec::new();
        checked.push(semantic.audit_table(&mut db, table, policy, &NOT_LOCKED, at, &mut out));
        assert_eq!(semantic.slots_visited() - before, active, "cycle {cycle}: every active anchor");
    }
    // The first pass walks every anchor, and so does the forced sweep
    // at the eighth. In between a pass re-walks the young anchors (they
    // leave no witness) and a mutated loop; the cycles at 70 s and
    // 110 s free the anchors that aged out, and the last pass walks
    // nothing.
    assert_eq!(
        checked,
        [28, 5, 4, 6, 6, 7, 6, 26, 2, 3, 2, 0],
        "records checked per process-table pass"
    );
}
