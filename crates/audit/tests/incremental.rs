//! Parity property: the incremental audit engine (dirty-block bitmap,
//! generation skipping, static chunks skipped while clean) must report
//! *exactly* the same findings as a full scan, under arbitrary
//! interleavings of API traffic, raw corruptions, repairs and
//! legitimate reconfigurations.
//!
//! Two identical worlds run the same operation stream; one audits
//! incrementally (with an aggressive full-rescan period to exercise
//! both code paths), the other scans everything every pass
//! (`full_rescan_period: 1`). The worlds also hash on different CRC
//! kernels: the full scan on the portable slice-by-8 kernel, the
//! incremental audit on the hardware kernel (which falls back to
//! slice-by-8 on hosts without it). After every cycle the findings must
//! match field-for-field, and at the end the two database images must
//! be byte-identical.

use proptest::prelude::*;
use wtnc_audit::{AuditConfig, AuditElementKind, AuditProcess, FindingTarget};
use wtnc_db::{
    schema, set_crc_kernel_override, CrcKernel, Database, DbApi, FieldId, RecordRef, TableId,
};
use wtnc_sim::{Pid, ProcessRegistry, SimRng, SimTime};

/// One step of the randomized workload. Raw variants bypass the API —
/// they model injector corruptions and operator repairs.
#[derive(Debug, Clone)]
enum Op {
    /// `DBalloc` on one of the dynamic tables.
    Alloc { table: u8 },
    /// `DBwrite_fld` with an arbitrary (possibly out-of-range) value.
    Write { table: u8, index: u32, field: u8, value: u64 },
    /// `DBfree`.
    Free { table: u8, index: u32 },
    /// Raw bit flip anywhere in the region (fault injection).
    Flip { frac: f64, bit: u8 },
    /// Reload a span from the golden image (external repair).
    Repair { frac: f64, len: usize },
    /// Operator reconfiguration of a config-table field, followed by
    /// the static-data rebaseline it requires.
    Reconfigure { table: u8, index: u32, field: u8, value: u64 },
}

fn dynamic_table(choice: u8) -> TableId {
    [schema::PROCESS_TABLE, schema::CONNECTION_TABLE, schema::RESOURCE_TABLE][choice as usize % 3]
}

/// Applies one op to one world. Results are ignored: a failing API
/// call fails identically in both worlds, which is all parity needs.
fn apply(
    op: &Op,
    db: &mut Database,
    api: &mut DbApi,
    audit: &mut AuditProcess,
    pid: Pid,
    at: SimTime,
) {
    match *op {
        Op::Alloc { table } => {
            let _ = api.alloc_record(db, pid, dynamic_table(table), at);
        }
        Op::Write { table, index, field, value } => {
            let t = dynamic_table(table);
            let nfields = db.catalog().table(t).map(|tm| tm.def.fields.len()).unwrap_or(1);
            let fid = FieldId((field as usize % nfields.max(1)) as u16);
            let idx = index % schema::STANDARD_DYNAMIC_SLOTS;
            let _ = api.write_fld(db, pid, t, idx, fid, value, at);
        }
        Op::Free { table, index } => {
            let idx = index % schema::STANDARD_DYNAMIC_SLOTS;
            let _ = api.free_record(db, pid, dynamic_table(table), idx, at);
        }
        Op::Flip { frac, bit } => {
            let offset = ((db.region_len() - 1) as f64 * frac) as usize;
            let _ = db.flip_bit(offset, bit);
        }
        Op::Repair { frac, len } => {
            let offset = ((db.region_len() - 1) as f64 * frac) as usize;
            let len = len.min(db.region_len() - offset);
            let _ = db.reload_range(offset, len);
        }
        Op::Reconfigure { table, index, field, value } => {
            let t = [schema::SYSCONFIG_TABLE, schema::CHANNEL_CONFIG_TABLE][table as usize % 2];
            let tm = db.catalog().table(t).unwrap();
            let fid = FieldId((field as usize % tm.def.fields.len()) as u16);
            let idx = index % tm.def.record_count;
            if api.reconfigure(db, pid, t, idx, fid, value, at).is_ok() {
                audit.rebaseline_static(db);
            }
        }
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..3).prop_map(|table| Op::Alloc { table }),
        (0u8..3, 0u32..schema::STANDARD_DYNAMIC_SLOTS, 0u8..16, 0u64..300)
            .prop_map(|(table, index, field, value)| Op::Write { table, index, field, value }),
        (0u8..3, 0u32..schema::STANDARD_DYNAMIC_SLOTS)
            .prop_map(|(table, index)| Op::Free { table, index }),
        (0.0f64..1.0, 0u8..8).prop_map(|(frac, bit)| Op::Flip { frac, bit }),
        (0.0f64..1.0, 1usize..128).prop_map(|(frac, len)| Op::Repair { frac, len }),
        (0u8..2, 0u32..16, 0u8..4, 0u64..1_000_000).prop_map(|(table, index, field, value)| {
            Op::Reconfigure { table, index, field, value }
        }),
    ]
}

/// 64 cases, or the number the `PROPTEST_CASES` environment variable
/// names (CI runs 1,024).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Per-cycle findings and the final image are identical between
    /// incremental auditing on the hardware CRC kernel and full-scan
    /// auditing on the portable one.
    #[test]
    fn incremental_audit_matches_full_scan(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        ops_per_cycle in 1usize..12,
    ) {
        let db = Database::build(schema::standard_schema()).unwrap();
        let mut worlds = Vec::new();
        // Period 3 is small, so forced full sweeps interleave with
        // generation-skipping passes; period 1 sweeps every pass.
        for (full_rescan_period, kernel) in [(3, CrcKernel::Hardware), (1, CrcKernel::Slice8)] {
            let db = db.clone();
            let mut api = DbApi::new();
            let registry = ProcessRegistry::new();
            let audit =
                AuditProcess::new(AuditConfig { full_rescan_period, ..AuditConfig::default() }, &db);
            api.init(Pid(1));
            worlds.push((kernel, db, api, registry, audit));
        }

        let mut cycle = 0u64;
        for batch in ops.chunks(ops_per_cycle) {
            let at = SimTime::from_secs(cycle * 10);
            cycle += 1;
            let mut reports = Vec::new();
            for (kernel, db, api, registry, audit) in &mut worlds {
                set_crc_kernel_override(Some(*kernel));
                for op in batch {
                    apply(op, db, api, audit, Pid(1), at);
                }
                reports.push(audit.run_cycle(db, api, registry, at));
            }
            set_crc_kernel_override(None);
            prop_assert_eq!(
                &reports[0].findings,
                &reports[1].findings,
                "cycle {} diverged (incremental vs full)",
                cycle
            );
        }

        // A few quiet trailing cycles: deferred aging effects (orphan
        // grace) must fire at the same time in both worlds.
        for extra in 0..3 {
            let at = SimTime::from_secs((cycle + extra) * 10 + 100);
            let mut reports = Vec::new();
            for (kernel, db, api, registry, audit) in &mut worlds {
                set_crc_kernel_override(Some(*kernel));
                reports.push(audit.run_cycle(db, api, registry, at));
            }
            set_crc_kernel_override(None);
            prop_assert_eq!(
                &reports[0].findings,
                &reports[1].findings,
                "quiet cycle {} diverged",
                extra
            );
        }

        prop_assert_eq!(
            worlds[0].1.region(),
            worlds[1].1.region(),
            "final database images differ"
        );
    }
}

/// Pins the full-sweep schedule of a deferred, incremental audit with
/// `full_rescan_period: 3`, rechecks included: each one counts as a
/// pass of its table or chunk, but leaves the forced sweep to the next
/// cycle pass.
/// Range and semantic count only the records they actually screen, so
/// `records_checked` moves if either bumps its pass counter at a
/// different point; the finding counts pin the deferred re-flagging,
/// and a recheck reports only the findings on its target.
/// The structural and static-data schedules show in no output: by the
/// parity property above, a forced sweep finds what a skipping pass
/// finds.
#[test]
fn sweep_schedule_is_pinned() {
    const LOOPS: u32 = 24;
    let mut db = Database::build(schema::standard_schema()).unwrap();
    for _ in 0..LOOPS {
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
    let mut registry = ProcessRegistry::new();
    let config = AuditConfig { full_rescan_period: 3, ..AuditConfig::default() };
    let mut audit = AuditProcess::new(config, &db);
    audit.set_deferred_repair(true);

    let dynamic = [schema::PROCESS_TABLE, schema::CONNECTION_TABLE, schema::RESOURCE_TABLE];
    let kinds = [
        AuditElementKind::Structural,
        AuditElementKind::Range,
        AuditElementKind::Semantic,
        AuditElementKind::StaticData,
    ];
    // Flips land past the catalog: config tables and dynamic tables.
    let flip_from = db.catalog().table(schema::SYSCONFIG_TABLE).unwrap().offset;
    let flip_span = db.region_len() - flip_from;
    let mut rng = SimRng::seed_from(21);
    let mut seen = Vec::new();
    for cycle in 0..12u64 {
        let at = SimTime::from_secs(10 * (cycle + 1));
        for _ in 0..3 {
            if rng.chance(0.6) {
                let rec = RecordRef::new(dynamic[rng.index(3)], rng.index(LOOPS as usize) as u32);
                let field = FieldId(rng.index(5) as u16);
                db.write_field_raw(rec, field, rng.range_u64(0, 8)).unwrap();
            } else {
                db.flip_bit(flip_from + rng.index(flip_span), rng.index(8) as u8).unwrap();
            }
        }
        let report = audit.run_cycle(&mut db, &mut api, &mut registry, at);
        // Recheck a target the cycle flagged for the chosen element in
        // the chosen table, or else one of the table's loop records.
        let kind = kinds[cycle as usize % kinds.len()];
        let (table, record) = (dynamic[cycle as usize % 3], cycle as u32 % LOOPS);
        let (table, fallback) = match kind {
            AuditElementKind::Structural => (Some(table), FindingTarget::Header { table, record }),
            AuditElementKind::Range => {
                (Some(table), FindingTarget::Field { table, record, field: 0 })
            }
            AuditElementKind::Semantic => (Some(table), FindingTarget::Record { table, record }),
            _ => (None, FindingTarget::Range { offset: flip_from, len: flip_span }),
        };
        let target = report
            .findings
            .iter()
            .find(|f| f.element == kind && f.table == table)
            .and_then(|f| f.target)
            .unwrap_or(fallback);
        let rechecked = audit.recheck(&mut db, &api, kind, target, at);
        seen.push((report.records_checked, report.findings.len(), rechecked.findings.len()));
    }
    let expected = vec![
        (356, 1, 0),
        (221, 4, 0),
        (356, 5, 1),
        (221, 5, 0),
        (247, 8, 0),
        (337, 9, 1),
        (229, 13, 1),
        (292, 20, 0),
        (300, 23, 1),
        (241, 27, 0),
        (320, 27, 1),
        (279, 27, 0),
    ];
    assert_eq!(seen, expected, "(records checked, findings, recheck findings) per cycle");
}
