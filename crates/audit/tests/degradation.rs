//! Property-based tests of the audit CPU budget: graceful degradation
//! under an exhausted token bucket must be *honest* (a degraded cycle's
//! work is a prefix of the full cycle's plan and every shed screen is
//! announced by an explicit `DegradedCycle` finding — no fail-silence)
//! and *fair over time* (a shed table is never starved forever).

use proptest::prelude::*;
use wtnc_audit::{AuditConfig, AuditElementKind, AuditProcess, BudgetConfig};
use wtnc_db::{schema, Database, DbApi, RecordRef, TableId};
use wtnc_sim::{ProcessRegistry, SimDuration, SimTime};

fn budgeted_config(budget: BudgetConfig) -> AuditConfig {
    AuditConfig {
        // A full scan every cycle: the shed/kept split is decided by
        // the budget alone, not by the change-tracking window.
        full_rescan_period: 1,
        // Raw-allocated test records have no owning process; keep the
        // orphan sweep out of the picture.
        orphan_grace: SimDuration::from_secs(1_000_000),
        budget: Some(budget),
        ..AuditConfig::default()
    }
}

/// Plants an identical, deterministic corruption pattern: out-of-range
/// connection fields (range-audit food) and damaged record headers in
/// the process and resource tables (structural-audit food).
fn corrupt(db: &mut Database, picks: &[(u32, u8)]) {
    for &(index, kind) in picks {
        match kind % 3 {
            0 => {
                let idx = db.alloc_record_raw(schema::CONNECTION_TABLE).unwrap();
                let rec = RecordRef::new(schema::CONNECTION_TABLE, idx);
                db.write_field_raw(rec, schema::connection::CALLER_ID, 60_000).unwrap();
            }
            1 => {
                let rec = RecordRef::new(schema::PROCESS_TABLE, index);
                let base = db.record_offset(rec).unwrap();
                db.flip_bit(base, 3).unwrap();
            }
            _ => {
                let rec = RecordRef::new(schema::RESOURCE_TABLE, index);
                let base = db.record_offset(rec).unwrap();
                db.flip_bit(base + 1, 6).unwrap();
            }
        }
    }
}

type FindingKey = (AuditElementKind, Option<TableId>, Option<u32>);

/// Table-attributed finding keys, the `DegradedCycle` marker excluded.
fn keys(report: &wtnc_audit::AuditReport) -> Vec<FindingKey> {
    let mut v: Vec<FindingKey> = report
        .findings
        .iter()
        .filter(|f| f.element != AuditElementKind::DegradedCycle && f.table.is_some())
        .map(|f| (f.element, f.table, f.record))
        .collect();
    v.sort();
    v
}

proptest! {
    /// A degraded cycle is a *prefix* of the full cycle: from identical
    /// database states, the starved auditor screens an ordered prefix
    /// of exactly the tables the unconstrained auditor screens, reports
    /// the same findings for those tables, and announces the shedding
    /// with a single explicit `DegradedCycle` finding. Nothing is
    /// silently skipped, nothing is invented.
    #[test]
    fn degraded_cycle_is_an_honest_prefix_of_the_full_cycle(
        picks in proptest::collection::vec(
            (0u32..schema::STANDARD_DYNAMIC_SLOTS, 0u8..3),
            1..12,
        ),
        burst in 0u64..30,
    ) {
        let starved = BudgetConfig { refill_per_sec: 0, burst };
        let generous = BudgetConfig { refill_per_sec: 1_000_000, burst: 1_000_000 };

        let mut reports = Vec::new();
        for budget in [starved, generous] {
            let mut db = Database::build(schema::standard_schema()).unwrap();
            let mut api = DbApi::new();
            let mut registry = ProcessRegistry::new();
            corrupt(&mut db, &picks);
            let mut audit = AuditProcess::new(budgeted_config(budget), &db);
            reports.push(audit.run_cycle(&mut db, &mut api, &mut registry, SimTime::from_secs(5)));
        }
        let (tiny, full) = (&reports[0], &reports[1]);

        prop_assert!(full.tables_shed.is_empty(), "a generous budget never degrades");
        // The starved plan is an exact ordered prefix of the full plan.
        prop_assert!(tiny.tables_audited.len() <= full.tables_audited.len());
        prop_assert_eq!(
            &tiny.tables_audited[..],
            &full.tables_audited[..tiny.tables_audited.len()],
            "degraded work must be a prefix of the full plan"
        );
        prop_assert!(!tiny.tables_audited.is_empty(), "a starved cycle still makes progress");
        // Shed + audited partition the full plan — no table vanishes.
        let mut recombined = tiny.tables_audited.clone();
        recombined.extend(tiny.tables_shed.iter().copied());
        recombined.sort();
        let mut full_plan = full.tables_audited.clone();
        full_plan.sort();
        prop_assert_eq!(recombined, full_plan, "shed tables are accounted, not dropped");
        // No fail-silence: shedding ⇔ exactly one marker.
        let markers = tiny.by_element(AuditElementKind::DegradedCycle).count();
        prop_assert_eq!(markers, usize::from(!tiny.tables_shed.is_empty()));
        // On the audited prefix, findings agree exactly with the full run.
        let audited: Vec<TableId> = tiny.tables_audited.clone();
        let full_on_prefix: Vec<FindingKey> = keys(full)
            .into_iter()
            .filter(|(_, t, _)| t.map(|t| audited.contains(&t)).unwrap_or(false))
            .collect();
        prop_assert_eq!(keys(tiny), full_on_prefix, "prefix findings must match the full run");
    }

    /// No permanent starvation: even under a budget that admits exactly
    /// one table screen per cycle, the starvation promotion bounds the
    /// gap between consecutive audits of every table by
    /// `STARVATION_BOUND + table_count` cycles.
    #[test]
    fn every_table_is_scheduled_within_the_starvation_bound(
        churn_record in 0u32..schema::STANDARD_DYNAMIC_SLOTS,
        burst in 0u64..2,
    ) {
        let mut db = Database::build(schema::standard_schema()).unwrap();
        let mut api = DbApi::new();
        let mut registry = ProcessRegistry::new();
        let pid = registry.spawn("churn", SimTime::ZERO);
        api.init_at(pid, SimTime::ZERO);
        let mut audit = AuditProcess::new(
            budgeted_config(BudgetConfig { refill_per_sec: 0, burst }),
            &db,
        );

        let tables: Vec<TableId> = db.catalog().tables().map(|tm| tm.id).collect();
        let bound = AuditProcess::STARVATION_BOUND as usize + tables.len();
        let cycles = 3 * bound;
        let mut last_seen: std::collections::BTreeMap<TableId, usize> = Default::default();

        for cycle in 0..cycles {
            // Keep the connection table the dirtiest so density alone
            // would hog the whole (one-table) budget forever.
            let _ = api.write_fld(
                &mut db,
                pid,
                schema::CONNECTION_TABLE,
                churn_record,
                schema::connection::STATE,
                u64::from(churn_record) % 5,
                SimTime::from_secs(5 * (cycle as u64 + 1)),
            );
            let report = audit.run_cycle(
                &mut db,
                &mut api,
                &mut registry,
                SimTime::from_secs(5 * (cycle as u64 + 1)),
            );
            prop_assert!(!report.tables_audited.is_empty(), "cycle {cycle} made no progress");
            for &t in &report.tables_audited {
                last_seen.insert(t, cycle);
            }
            for &t in &tables {
                let gap = cycle as i64 - last_seen.get(&t).map(|&c| c as i64).unwrap_or(-1);
                prop_assert!(
                    gap as usize <= bound,
                    "table {t:?} unaudited for {gap} cycles (bound {bound}) at cycle {cycle}"
                );
            }
        }
        // And every table really was audited at least once (twice, for
        // any run long enough — 3× the bound).
        for &t in &tables {
            prop_assert!(last_seen.contains_key(&t), "table {t:?} never audited");
        }
    }
}
