//! Parity property: a scoped recheck (`AuditProcess::recheck`, which
//! the recovery engine uses to verify every repair) reports exactly the
//! findings that a fresh whole-table audit, filtered to the target,
//! reports — under random API traffic, raw corruptions, golden-image
//! repairs, targeted repairs and locks, with the engine repairing and
//! verifying in between.
//!
//! The oracle for a per-table element is the trait's default
//! [`AuditElement::recheck`]: a fresh element behind a wrapper that
//! does not override it, so it runs `audit_table` over the target's
//! table with no change tracking and keeps the findings on the target.
//! The static-data oracle is a full scan by a copy of the element built
//! from the pristine image. Both run on a copy of the database, so they
//! leave the world untouched.

use proptest::prelude::*;
use wtnc_audit::{
    AuditConfig, AuditElement, AuditElementKind, AuditProcess, ElementPolicy, Finding,
    FindingTarget, RangeAudit, RecoveryAction, SemanticAudit, StaticDataAudit, StructuralAudit,
};
use wtnc_db::{schema, Database, DbApi, FieldId, RecordRef, TableId};
use wtnc_recovery::{RecoveryConfig, RecoveryEngine};
use wtnc_sim::{Pid, ProcessRegistry, SimDuration, SimTime};

/// A fresh element whose `recheck` is the trait's whole-table default.
struct WholeTable(Box<dyn AuditElement>);

impl AuditElement for WholeTable {
    fn kind(&self) -> AuditElementKind {
        self.0.kind()
    }

    fn audit_table(
        &mut self,
        db: &mut Database,
        table: TableId,
        policy: ElementPolicy,
        locked: &dyn Fn(RecordRef) -> bool,
        at: SimTime,
        out: &mut Vec<Finding>,
    ) -> u64 {
        self.0.audit_table(db, table, policy, locked, at, out)
    }
}

/// What a fresh full-table audit reports on `target`.
fn oracle(
    db: &Database,
    api: &DbApi,
    pristine_static: &StaticDataAudit,
    element: AuditElementKind,
    target: FindingTarget,
    at: SimTime,
) -> Vec<Finding> {
    let mut db = db.clone();
    let policy = ElementPolicy { deferred: true, full_rescan_period: 1 };
    let locked = |r: RecordRef| api.locks().holder(r).is_some();
    let mut out = Vec::new();
    let fresh: Box<dyn AuditElement> = match element {
        AuditElementKind::Structural => Box::new(StructuralAudit),
        AuditElementKind::Range => Box::new(RangeAudit::default()),
        AuditElementKind::Semantic => {
            Box::new(SemanticAudit::new(AuditConfig::default().orphan_grace))
        }
        AuditElementKind::StaticData => {
            let mut all = Vec::new();
            pristine_static.clone().audit(&mut db, policy, at, &mut all);
            return all
                .into_iter()
                .filter(|f| f.target.is_some_and(|t| t.overlaps(&target)))
                .collect();
        }
        other => panic!("no oracle for {other:?}"),
    };
    WholeTable(fresh).recheck(&mut db, target, policy, &locked, at, &mut out);
    out
}

#[derive(Debug, Clone)]
enum Op {
    Alloc { table: u8 },
    Write { table: u8, index: u32, field: u8, value: u64, raw: bool },
    Free { table: u8, index: u32 },
    Call { field: u8, value: u64, damage: bool },
    Flip { frac: f64, bit: u8 },
    Repair { frac: f64, len: usize },
    Lock { table: u8, index: u32 },
    Unlock { table: u8, index: u32 },
}

const PID: Pid = Pid(1);
/// Slots the ops aim at: allocation takes the lowest free slot, so the
/// live records sit in the low slots.
const HOT: u32 = 8;

fn dynamic_table(choice: u8) -> TableId {
    [schema::PROCESS_TABLE, schema::CONNECTION_TABLE, schema::RESOURCE_TABLE][choice as usize % 3]
}

fn apply(op: &Op, db: &mut Database, api: &mut DbApi, at: SimTime) {
    match *op {
        Op::Alloc { table } => {
            let _ = api.alloc_record(db, PID, dynamic_table(table), at);
        }
        Op::Write { table, index, field, value, raw } => {
            let t = dynamic_table(table);
            let nfields = db.catalog().table(t).map(|tm| tm.def.fields.len()).unwrap_or(1);
            let fid = FieldId((field as usize % nfields.max(1)) as u16);
            if raw {
                // A client bug: no range rule stops it.
                let _ = db.write_field_raw(RecordRef::new(t, index), fid, value);
            } else {
                let _ = api.write_fld(db, PID, t, index, fid, value, at);
            }
        }
        Op::Free { table, index } => {
            let _ = api.free_record(db, PID, dynamic_table(table), index, at);
        }
        Op::Call { field, value, damage } => {
            // Set up a call's loop (process → connection → resource →
            // process), optionally writing a raw value into two
            // connection fields as a client bug would.
            let tables = [schema::PROCESS_TABLE, schema::CONNECTION_TABLE, schema::RESOURCE_TABLE];
            let mut loop_records = Vec::new();
            for table in tables {
                match api.alloc_record(db, PID, table, at) {
                    Ok(index) => loop_records.push(RecordRef::new(table, index)),
                    Err(_) => return,
                }
            }
            let links = [
                schema::process::CONNECTION_ID,
                schema::connection::CHANNEL_ID,
                schema::resource::PROCESS_ID,
            ];
            for (i, field) in links.into_iter().enumerate() {
                let to = loop_records[(i + 1) % 3].index;
                let _ = db.write_field_raw(loop_records[i], field, u64::from(to));
            }
            if damage {
                for f in [field, field + 1] {
                    let _ = db.write_field_raw(loop_records[1], FieldId(u16::from(f % 16)), value);
                }
            }
        }
        Op::Flip { frac, bit } => {
            let offset = ((db.region_len() - 1) as f64 * frac) as usize;
            let _ = db.flip_bit(offset, bit);
        }
        Op::Repair { frac, len } => {
            let offset = ((db.region_len() - 1) as f64 * frac) as usize;
            let _ = db.reload_range(offset, len.min(db.region_len() - offset));
        }
        Op::Lock { table, index } => {
            let _ = api.lock(db, RecordRef::new(dynamic_table(table), index), PID, at);
        }
        Op::Unlock { table, index } => {
            api.unlock(RecordRef::new(dynamic_table(table), index), PID);
        }
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..3).prop_map(|table| Op::Alloc { table }),
        (0u8..3, 0u32..HOT, 0u8..16, 0u64..300, any::<bool>()).prop_map(
            |(table, index, field, value, raw)| Op::Write { table, index, field, value, raw }
        ),
        (0u8..3, 0u32..HOT).prop_map(|(table, index)| Op::Free { table, index }),
        (0u8..16, 0u64..300, any::<bool>()).prop_map(|(field, value, damage)| Op::Call {
            field,
            value,
            damage
        }),
        (0.0f64..1.0, 0u8..8).prop_map(|(frac, bit)| Op::Flip { frac, bit }),
        (0.0f64..1.0, 1usize..128).prop_map(|(frac, len)| Op::Repair { frac, len }),
        (0u8..3, 0u32..HOT).prop_map(|(table, index)| Op::Lock { table, index }),
        (0u8..3, 0u32..HOT).prop_map(|(table, index)| Op::Unlock { table, index }),
    ]
}

/// Repairs `target` the way the engine's first rung would, or leaves
/// it (`how == 0`), or reinitializes the whole record (`how == 2`).
fn repair(db: &mut Database, target: FindingTarget, how: u8) {
    let _ = match (how % 3, target) {
        (0, _) => return,
        (_, FindingTarget::Range { offset, len }) => db.restore_static_block(offset, len).map(drop),
        (1, FindingTarget::Header { table, record }) => {
            db.rebuild_header(RecordRef::new(table, record)).map(drop)
        }
        (1, FindingTarget::Field { table, record, field }) => {
            db.reset_field_to_default(RecordRef::new(table, record), FieldId(field)).map(drop)
        }
        (1, FindingTarget::Record { table, record }) => {
            db.free_record_raw(RecordRef::new(table, record))
        }
        (
            _,
            FindingTarget::Header { table, record }
            | FindingTarget::Field { table, record, .. }
            | FindingTarget::Record { table, record },
        ) => db.restore_record(RecordRef::new(table, record)).map(drop),
        (_, FindingTarget::Client { .. }) => return,
    };
}

/// One target of each element's shape, on record `index` of `table`.
fn probes(
    table: TableId,
    index: u32,
    field: u16,
    db: &Database,
) -> [(AuditElementKind, FindingTarget); 4] {
    let sysconfig = db.catalog().table(schema::SYSCONFIG_TABLE).expect("standard schema");
    [
        (AuditElementKind::Structural, FindingTarget::Header { table, record: index }),
        (AuditElementKind::Range, FindingTarget::Field { table, record: index, field }),
        (AuditElementKind::Semantic, FindingTarget::Record { table, record: index }),
        (
            AuditElementKind::StaticData,
            FindingTarget::Range { offset: sysconfig.offset, len: sysconfig.data_len() },
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every flagged target, and one probe of each element per cycle,
    /// gets the same findings from the scoped recheck as from a fresh
    /// whole-table audit filtered to it.
    #[test]
    fn scoped_recheck_matches_a_fresh_whole_table_audit(
        ops in prop::collection::vec(op_strategy(), 1..100),
        ops_per_cycle in 1usize..10,
        repairs in prop::collection::vec(0u8..3, 16..17),
        probe in (0u8..3, 0u32..HOT, 0u16..6),
    ) {
        let mut db = Database::build(schema::standard_schema()).unwrap();
        let pristine_static = StaticDataAudit::new(&db);
        let mut api = DbApi::new();
        api.init(PID);
        let mut registry = ProcessRegistry::new();
        let config = AuditConfig { full_rescan_period: 3, ..AuditConfig::default() };
        let mut audit = AuditProcess::new(config, &db);
        audit.set_deferred_repair(true);
        let mut engine = RecoveryEngine::new(RecoveryConfig::default());

        let mut verdicts = 0u32;
        for (cycle, batch) in ops.chunks(ops_per_cycle).enumerate() {
            // 25 s apart, so unlinked records age past the orphan grace.
            let at = SimTime::ZERO + SimDuration::from_secs(25 * (cycle as u64 + 1));
            for op in batch {
                apply(op, &mut db, &mut api, at);
            }
            let report = audit.run_cycle(&mut db, &mut api, &mut registry, at);
            let flagged = report
                .findings
                .iter()
                .filter(|f| f.action == RecoveryAction::Flagged)
                .filter_map(|f| Some((f.element, f.target?)));
            let (t, i, field) = probe;
            let probed = probes(dynamic_table(t), (i + cycle as u32) % HOT, field, &db);
            let checks: Vec<_> = flagged.chain(probed).collect();
            for (n, (element, target)) in checks.into_iter().enumerate() {
                repair(&mut db, target, repairs[n % repairs.len()]);
                let want = oracle(&db, &api, &pristine_static, element, target, at);
                let got = audit.recheck(&mut db, &api, element, target, at).findings;
                prop_assert_eq!(&got, &want, "cycle {} {:?} {:?}", cycle, element, target);
                verdicts += 1;
            }
            engine.ingest(&report.findings, at);
            engine.run_cycle(&mut db, &mut api, &mut registry, &mut audit, at);
        }
        prop_assert!(verdicts > 0);
    }
}
