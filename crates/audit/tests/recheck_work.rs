//! Recheck work gate: on a 32,768-slot table, one scoped recheck
//! examines the target and nothing else — one record for a header or
//! field, the loop for a semantic anchor, the overlapping chunks for a
//! static range — and counts errors only for what it finds on the
//! target. The counts are exact, so the gate fires on any host.

use wtnc_audit::{AuditConfig, AuditElementKind, AuditProcess, FindingTarget};
use wtnc_db::{schema, Database, DbApi, RecordRef, TableId};
use wtnc_sim::{ProcessRegistry, SimTime};

const SLOTS: u32 = 32_768;

/// A deferred audit process over a database holding `loops` closed
/// call loops, each `(process, connection, resource)` at the same
/// index, after one clean cycle.
fn world(loops: u32) -> (Database, DbApi, AuditProcess) {
    let mut db = Database::build(schema::standard_schema_with_slots(SLOTS)).unwrap();
    for _ in 0..loops {
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
    let mut api = DbApi::new();
    let mut audit = AuditProcess::new(AuditConfig::default(), &db);
    audit.set_deferred_repair(true);
    let report = audit.run_cycle(&mut db, &mut api, &mut ProcessRegistry::new(), at());
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    (db, api, audit)
}

fn at() -> SimTime {
    SimTime::from_secs(10)
}

fn errors(db: &Database, table: TableId) -> u64 {
    db.table_stats(table).unwrap().errors_last_cycle
}

#[test]
fn one_scoped_recheck_examines_only_its_target() {
    let (mut db, api, mut audit) = world(4);
    let config = db.catalog().table(schema::SYSCONFIG_TABLE).unwrap();
    let sysconfig = FindingTarget::Range { offset: config.offset, len: config.data_len() };
    let catalog_and_sysconfig =
        FindingTarget::Range { offset: 0, len: config.offset + config.data_len() };
    let cases = [
        (
            AuditElementKind::Structural,
            FindingTarget::Header { table: schema::PROCESS_TABLE, record: 2 },
            1,
        ),
        (
            AuditElementKind::Range,
            FindingTarget::Field {
                table: schema::CONNECTION_TABLE,
                record: 2,
                field: schema::connection::STATE.0,
            },
            1,
        ),
        // The loop: process → connection → resource → process.
        (
            AuditElementKind::Semantic,
            FindingTarget::Record { table: schema::PROCESS_TABLE, record: 2 },
            3,
        ),
        // A free anchor: only the anchor is read.
        (
            AuditElementKind::Semantic,
            FindingTarget::Record { table: schema::RESOURCE_TABLE, record: 9 },
            1,
        ),
        (AuditElementKind::StaticData, sysconfig, 1),
        (AuditElementKind::StaticData, catalog_and_sysconfig, 2),
    ];
    for (element, target, examined) in cases {
        let recheck = audit.recheck(&mut db, &api, element, target, at());
        assert!(recheck.findings.is_empty(), "{element:?} {target:?}: {:?}", recheck.findings);
        assert_eq!(recheck.examined, examined, "{element:?} {target:?}");
    }
}

#[test]
fn a_deferred_recheck_counts_errors_only_on_its_target() {
    let (mut db, api, mut audit) = world(4);
    // Two damaged headers in the process table and two out-of-range
    // fields in the connection table; each recheck targets one of them
    // or a clean record.
    let table = schema::PROCESS_TABLE;
    for record in [1, 3] {
        let base = db.record_offset(RecordRef::new(table, record)).unwrap();
        db.flip_bit(base, 0).unwrap();
    }
    let conn = schema::CONNECTION_TABLE;
    for record in [0, 2] {
        db.write_field_raw(RecordRef::new(conn, record), schema::connection::STATE, 99).unwrap();
    }

    let cases = [
        (AuditElementKind::Structural, FindingTarget::Header { table, record: 1 }, table, 1),
        (AuditElementKind::Structural, FindingTarget::Header { table, record: 2 }, table, 0),
        (
            AuditElementKind::Range,
            FindingTarget::Field { table: conn, record: 2, field: schema::connection::STATE.0 },
            conn,
            1,
        ),
        (
            AuditElementKind::Range,
            FindingTarget::Field { table: conn, record: 1, field: schema::connection::STATE.0 },
            conn,
            0,
        ),
    ];
    for (element, target, table, found) in cases {
        let before = errors(&db, table);
        let recheck = audit.recheck(&mut db, &api, element, target, at());
        assert_eq!(recheck.findings.len(), found, "{element:?} {target:?}");
        assert!(recheck.findings.iter().all(|f| f.target == Some(target)));
        assert_eq!(errors(&db, table) - before, found as u64, "{element:?} {target:?}");
        assert_eq!(recheck.examined, 1);
    }
    // Detect-only: nothing was repaired.
    let hdr = db.header(RecordRef::new(table, 1)).unwrap();
    assert_ne!(hdr.record_id, wtnc_db::layout::encode_record_id(table.0, 1));
}
