//! Selective monitoring of attributes (§4.4.2): the audit learns the
//! value distribution of fields that have no static range rule, then
//! flags — and optionally repairs — values it has never seen.
//!
//! ```sh
//! cargo run --example selective_monitoring
//! ```

use wtnc::audit::{AuditElement, ElementPolicy, SelectiveConfig, SelectiveMonitor};
use wtnc::db::{schema, Database, RecordRef};
use wtnc::sim::SimTime;

fn main() {
    let mut db = Database::build(schema::standard_schema()).unwrap();
    let table = schema::RESOURCE_TABLE;
    let field = schema::resource::POWER_MW; // no range rule in the catalog

    // The radio only ever transmits at its four power steps.
    let steps = [250u64, 500, 1_000, 2_000];
    for i in 0..12u64 {
        let idx = db.alloc_record_raw(table).unwrap();
        db.write_field_raw(RecordRef::new(table, idx), field, steps[(i % 4) as usize]).unwrap();
    }
    println!("12 resource records populated with the radio's power steps {steps:?}");

    let mut monitor = SelectiveMonitor::new(
        SelectiveConfig { suspect_fraction: 0.25, min_observations: 30, repair_unseen: true },
        vec![(table, field)],
    );

    // A few audit visits let the element learn the distribution. The
    // monitor's own config decides repair, so the default policy does.
    let policy = ElementPolicy::default();
    let not_locked = |_: RecordRef| false;
    let mut findings = Vec::new();
    for s in 0..3 {
        monitor.audit_table(
            &mut db,
            table,
            policy,
            &not_locked,
            SimTime::from_secs(s),
            &mut findings,
        );
    }
    println!(
        "after 3 audit visits: histogram has {} observations over {} distinct values; \
         modal value = {:?}",
        monitor.histogram(table, field).unwrap().total(),
        monitor.histogram(table, field).unwrap().distinct(),
        monitor.modal_value(table, field),
    );
    assert!(findings.is_empty(), "steady state is never flagged");

    // A bit flip lands in the unruled field — the range check is blind
    // to it, but the learned invariant is not.
    let victim = RecordRef::new(table, 5);
    let (offset, _) = db.field_extent(victim, field).unwrap();
    db.flip_bit(offset + 1, 6).unwrap();
    println!(
        "\ncorrupted record 5: power_mw is now {} (never observed before)",
        db.read_field_raw(victim, field).unwrap()
    );

    let mut findings = Vec::new();
    monitor.audit_table(&mut db, table, policy, &not_locked, SimTime::from_secs(10), &mut findings);
    for f in &findings {
        println!("  [{:?}] {} -> {:?}", f.element, f.detail, f.action);
    }
    println!(
        "record 5 after derived-invariant repair: power_mw = {}",
        db.read_field_raw(victim, field).unwrap()
    );
}
