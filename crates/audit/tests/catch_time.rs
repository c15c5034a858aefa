//! Catch times: every element resolves the corruption it removes at the
//! cycle's `now`.
//!
//! Campaigns take a caught corruption's detection time from its taint
//! fate (`TaintFate::Caught { at }`) and the catching element from the
//! cycle report's `Finding::caught` lists. That is sound only while
//! each element resolves its taints at the time the cycle runs: after
//! `AuditProcess::run_cycle` at `now`, every taint in any finding's
//! `caught` must read `Caught { at: now }` in the ledger. An element
//! that resolved at some other time would shift campaign detection
//! latencies without any other test noticing.

use std::collections::{BTreeSet, HashMap};

use wtnc_audit::{AuditConfig, AuditElementKind, AuditProcess, AuditReport, RecoveryAction};
use wtnc_db::{schema, Database, DbApi, RecordRef, TaintEntry, TaintFate, TaintKind};
use wtnc_sim::{ProcessRegistry, SimTime};

const PLANTED_AT: SimTime = SimTime::from_secs(1);
const NOW: SimTime = SimTime::from_secs(10);

fn setup() -> (Database, DbApi, ProcessRegistry, AuditProcess) {
    let db = Database::build(schema::standard_schema()).unwrap();
    let audit = AuditProcess::new(AuditConfig::default(), &db);
    (db, DbApi::new(), ProcessRegistry::new(), audit)
}

fn plant(db: &mut Database, offset: usize, id: u64, kind: TaintKind) {
    db.taint_mut().insert(offset, TaintEntry { id, at: PLANTED_AT, kind });
}

/// Asserts that every taint a finding of `report` caught is resolved
/// `Caught { at: now }`, and returns the elements that caught any.
fn caught_at_now(db: &Database, report: &AuditReport, now: SimTime) -> BTreeSet<AuditElementKind> {
    let fates: HashMap<u64, TaintFate> =
        db.taint().resolved().iter().map(|&(_, entry, fate)| (entry.id, fate)).collect();
    let mut elements = BTreeSet::new();
    for f in &report.findings {
        for taint in &f.caught {
            assert_eq!(
                fates.get(&taint.id),
                Some(&TaintFate::Caught { at: now }),
                "taint {} caught by {:?}",
                taint.id,
                f.element
            );
            elements.insert(f.element);
        }
    }
    elements
}

#[test]
fn each_repair_resolves_its_taints_at_the_cycle_time() {
    let (mut db, mut api, mut registry, mut audit) = setup();

    // Static: a catalog byte.
    db.flip_bit(6, 0).unwrap();
    plant(&mut db, 6, 1, TaintKind::StaticData);

    // Structural: one damaged header.
    let base = db.record_offset(RecordRef::new(schema::PROCESS_TABLE, 9)).unwrap();
    db.flip_bit(base, 3).unwrap();
    plant(&mut db, base, 2, TaintKind::Structural);

    // Range: an out-of-range connection state.
    let conn = db.alloc_record_raw(schema::CONNECTION_TABLE).unwrap();
    let conn = RecordRef::new(schema::CONNECTION_TABLE, conn);
    db.write_field_raw(conn, schema::connection::STATE, 200).unwrap();
    let (off, _) = db.field_extent(conn, schema::connection::STATE).unwrap();
    plant(&mut db, off, 3, TaintKind::DynamicRuled);

    // Semantic: a complete call loop whose resource points back at a
    // different (valid) process.
    let p = db.alloc_record_raw(schema::PROCESS_TABLE).unwrap();
    let c = db.alloc_record_raw(schema::CONNECTION_TABLE).unwrap();
    let r = db.alloc_record_raw(schema::RESOURCE_TABLE).unwrap();
    let other = db.alloc_record_raw(schema::PROCESS_TABLE).unwrap();
    let link = |table, index, field, to: u32| (RecordRef::new(table, index), field, u64::from(to));
    for (rec, field, value) in [
        link(schema::PROCESS_TABLE, p, schema::process::CONNECTION_ID, c),
        link(schema::CONNECTION_TABLE, c, schema::connection::CHANNEL_ID, r),
        link(schema::RESOURCE_TABLE, r, schema::resource::PROCESS_ID, other),
    ] {
        db.write_field_raw(rec, field, value).unwrap();
    }
    let res = RecordRef::new(schema::RESOURCE_TABLE, r);
    let (off, _) = db.field_extent(res, schema::resource::PROCESS_ID).unwrap();
    plant(&mut db, off, 4, TaintKind::DynamicRuled);

    let report = audit.run_cycle(&mut db, &mut api, &mut registry, NOW);
    let elements = caught_at_now(&db, &report, NOW);
    for kind in [
        AuditElementKind::StaticData,
        AuditElementKind::Structural,
        AuditElementKind::Range,
        AuditElementKind::Semantic,
    ] {
        assert!(elements.contains(&kind), "{kind:?} caught nothing: {:?}", report.findings);
    }
    assert_eq!(report.caught_count(), 4);
    assert_eq!(db.taint().latent_count(), 0);
}

#[test]
fn a_whole_database_reload_resolves_every_taint_at_the_cycle_time() {
    let (mut db, mut api, mut registry, mut audit) = setup();

    // Three consecutive damaged headers: the structural element
    // suspects misalignment and reloads the whole database.
    for (id, index) in [(1, 4), (2, 5), (3, 6)] {
        let base = db.record_offset(RecordRef::new(schema::PROCESS_TABLE, index)).unwrap();
        db.flip_bit(base, 3).unwrap();
        plant(&mut db, base, id, TaintKind::Structural);
    }
    // A dynamic taint elsewhere, swept up by the reload.
    let conn = db.alloc_record_raw(schema::CONNECTION_TABLE).unwrap();
    let conn = RecordRef::new(schema::CONNECTION_TABLE, conn);
    let (off, _) = db.field_extent(conn, schema::connection::STATE).unwrap();
    plant(&mut db, off, 4, TaintKind::DynamicUnruled);

    let report = audit.run_cycle(&mut db, &mut api, &mut registry, NOW);
    let reload = report
        .findings
        .iter()
        .find(|f| f.action == RecoveryAction::ReloadedDatabase)
        .expect("the structural element reloads the database");
    assert_eq!(reload.element, AuditElementKind::Structural);
    assert_eq!(caught_at_now(&db, &report, NOW), BTreeSet::from([AuditElementKind::Structural]));
    assert_eq!(report.caught_count(), 4);
    assert_eq!(db.taint().latent_count(), 0);
}
