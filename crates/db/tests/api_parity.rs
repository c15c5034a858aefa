//! API parity snapshot.
//!
//! Every `DbApi` record operation runs the same access protocol:
//! admission (cost, connection, in-region catalog, bounds), a lock rule,
//! the operation's own body, then the shadow-metadata update and the
//! audit event. A refactor of that protocol that means to keep
//! behaviour must keep each operation's order of checks, its error
//! precedence and every side effect. This test drives seeded random
//! sequences of all eight record operations plus `init_at`, `close`,
//! `lock`, `unlock` and `post_event` from two clients, with injected
//! catalog, status-byte and field flips (each tainted) and wrong-arity
//! `write_rec` calls, and renders one transcript line per step:
//!
//! - the step's `Ok` value or `DbError`;
//! - the events drained (on the steps that drain), the queue length and
//!   the shed and backpressure totals;
//! - a CRC and length of the journal bytes the step captured;
//! - the lock holders of both clients and the step's `take_cost`;
//! - the touched record's `RecordMeta` and its table's `TableStats`;
//! - the latent and resolved taint counts.
//!
//! The text is compared with the committed snapshot
//! `snapshots/api_parity.txt`. A change that means to move these
//! outputs edits the snapshot and says why. On a mismatch the rendered
//! text is written next to the test binary's scratch files so it can be
//! diffed against the snapshot.

use std::fmt::Write as _;

use wtnc_db::layout::{FIELD_DESC_SIZE, HDR_STATUS, TABLE_DESC_SIZE};
use wtnc_db::{
    crc32, schema, Database, DbApi, DbEvent, DbOp, FieldId, IpcConfig, RecordRef, TableId,
    TaintEntry, TaintKind,
};
use wtnc_sim::{Pid, SimDuration, SimTime};

const SNAPSHOT: &str = include_str!("snapshots/api_parity.txt");

/// Slots per dynamic table: small, so allocations fill tables, clients
/// collide on records and some indices fall out of range.
const SLOTS: u32 = 4;
const PIDS: [Pid; 2] = [Pid(1), Pid(2)];
const DYNAMIC: [TableId; 3] =
    [schema::PROCESS_TABLE, schema::CONNECTION_TABLE, schema::RESOURCE_TABLE];
const ALL_TABLES: [TableId; 5] = [
    schema::SYSCONFIG_TABLE,
    schema::CHANNEL_CONFIG_TABLE,
    schema::PROCESS_TABLE,
    schema::CONNECTION_TABLE,
    schema::RESOURCE_TABLE,
];
const OPS: [DbOp; 9] = [
    DbOp::Init,
    DbOp::Close,
    DbOp::ReadRec,
    DbOp::ReadFld,
    DbOp::WriteRec,
    DbOp::WriteFld,
    DbOp::Move,
    DbOp::Alloc,
    DbOp::Free,
];

/// SplitMix64: a fixed, dependency-free sequence per seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

fn fmt_result<T: std::fmt::Debug, E: std::fmt::Debug>(r: &Result<T, E>) -> String {
    match r {
        Ok(v) => format!("Ok({v:?})"),
        Err(e) => format!("Err({e:?})"),
    }
}

fn fmt_event(e: &DbEvent) -> String {
    let table = e.table.map_or("-".to_string(), |t| t.0.to_string());
    let record = e.record.map_or("-".to_string(), |r| r.to_string());
    format!("{:?}/p{}/{table}.{record}@{}", e.op, e.pid.0, e.at.as_micros())
}

fn fmt_locks(api: &DbApi, pid: Pid) -> String {
    let held: Vec<String> =
        api.locks().held_by(pid).iter().map(|r| format!("{}.{}", r.table.0, r.index)).collect();
    held.join(",")
}

/// Flips bit `bit` of `offset` and taints the byte, as an injector
/// does.
fn inject(db: &mut Database, offset: usize, bit: u8, kind: TaintKind, id: u64, at: SimTime) {
    db.flip_bit(offset, bit).expect("flip inside the region");
    db.taint_mut().insert(offset, TaintEntry { id, at, kind });
}

/// Runs one seeded sequence of `steps` operations and appends its
/// transcript to `out`.
fn run(out: &mut String, seed: u64, steps: u64, instrumented: bool) {
    let mut rng = Rng(seed);
    let mut db = Database::build(schema::standard_schema_with_slots(SLOTS)).expect("schema builds");
    db.set_capture(true);
    let mut api = if instrumented {
        DbApi::with_ipc(IpcConfig {
            capacity: 5,
            lane_capacity: 3,
            retry_after: SimDuration::from_millis(5),
        })
    } else {
        DbApi::without_instrumentation()
    };
    writeln!(out, "# seed {seed} instrumented={instrumented}").unwrap();
    for pid in PIDS {
        api.init_at(pid, SimTime::ZERO);
    }
    let mut taint_id = 0u64;
    // A catalog flip is undone five steps later, as a reload would:
    // left in place it would fail every later call on the table.
    let mut catalog_undo: Option<(u64, usize, u8)> = None;
    for step in 0..steps {
        let at = SimTime::from_millis(step * 7);
        let mut line = format!("{step}");
        if let Some((due, offset, bit)) = catalog_undo {
            if due == step {
                db.flip_bit(offset, bit).expect("flip inside the region");
                catalog_undo = None;
                line.push_str(" (catalog restored)");
            }
        }
        let pid = rng.pick(&PIDS);
        let table = rng.pick(&DYNAMIC);
        let index = rng.below(SLOTS as usize + 1) as u32;
        let mut touched = Some(RecordRef::new(table, index));
        let (what, result) = match rng.below(35) {
            0..=3 => {
                api.init_at(pid, at);
                ("init_at".to_string(), "()".to_string())
            }
            4 => {
                api.close(pid, at);
                ("close".to_string(), "()".to_string())
            }
            5..=7 => {
                let r = api.lock(&db, RecordRef::new(table, index), pid, at);
                (format!("lock {}.{index}", table.0), fmt_result(&r))
            }
            8 => {
                let r = api.unlock(RecordRef::new(table, index), pid);
                (format!("unlock {}.{index}", table.0), format!("{r}"))
            }
            9..=11 => {
                let op = rng.pick(&OPS);
                let named = rng.below(2) == 0;
                let (t, i) = if named { (Some(table), Some(index)) } else { (None, None) };
                touched = None;
                let r = api.post_event(pid, op, t, i, at);
                (format!("post_event {op:?} named={named}"), format!("{r:?}"))
            }
            12..=14 => {
                let r = api.read_rec(&mut db, pid, table, index, at);
                (format!("read_rec {}.{index}", table.0), fmt_result(&r))
            }
            15..=17 => {
                let field = FieldId(rng.below(16) as u16);
                let r = api.read_fld(&mut db, pid, table, index, field, at);
                (format!("read_fld {}.{index} f{}", table.0, field.0), fmt_result(&r))
            }
            18..=20 => {
                let fields = db.catalog().table(table).expect("known table").def.fields.len();
                let arity = if rng.below(3) == 0 { rng.below(fields * 2) } else { fields };
                let values: Vec<u64> = (0..arity).map(|_| rng.next() % 1_000).collect();
                let r = api.write_rec(&mut db, pid, table, index, &values, at);
                (format!("write_rec {}.{index} n{arity}", table.0), fmt_result(&r))
            }
            21..=23 => {
                let field = FieldId(rng.below(16) as u16);
                let value = rng.next() % 100_000;
                let r = api.write_fld(&mut db, pid, table, index, field, value, at);
                (format!("write_fld {}.{index} f{} v{value}", table.0, field.0), fmt_result(&r))
            }
            24..=25 => {
                let group = rng.below(4) as u8;
                let r = api.move_rec(&mut db, pid, table, index, group, at);
                (format!("move_rec {}.{index} g{group}", table.0), fmt_result(&r))
            }
            26..=29 => {
                let r = api.alloc_record(&mut db, pid, table, at);
                touched = r.as_ref().ok().map(|&i| RecordRef::new(table, i));
                (format!("alloc_record {}", table.0), fmt_result(&r))
            }
            30 => {
                let r = api.free_record(&mut db, pid, table, index, at);
                (format!("free_record {}.{index}", table.0), fmt_result(&r))
            }
            31 => {
                let table = rng.pick(&ALL_TABLES);
                let records = db.catalog().table(table).expect("known table").def.record_count;
                let index = rng.below(records as usize + 1) as u32;
                let field = FieldId(rng.below(5) as u16);
                let value = rng.next() % 1_000;
                touched = Some(RecordRef::new(table, index));
                let r = api.reconfigure(&mut db, pid, table, index, field, value, at);
                (format!("reconfigure {}.{index} f{} v{value}", table.0, field.0), fmt_result(&r))
            }
            32 if catalog_undo.is_none() => {
                // The catalog header or this table's descriptors: the
                // bytes the API validates on every call.
                let tm = db.catalog().table(table).expect("known table");
                let (desc, fdesc, nf) = (tm.desc_offset, tm.field_desc_offset, tm.def.fields.len());
                let offset = match rng.below(3) {
                    0 => rng.below(16),
                    1 => desc + rng.below(TABLE_DESC_SIZE),
                    _ => fdesc + rng.below(nf * FIELD_DESC_SIZE),
                };
                let bit = rng.below(8) as u8;
                taint_id += 1;
                inject(&mut db, offset, bit, TaintKind::StaticData, taint_id, at);
                catalog_undo = Some((step + 5, offset, bit));
                touched = None;
                (format!("flip catalog {offset}:{bit}"), "()".to_string())
            }
            32..=33 => {
                let index = index % SLOTS;
                let offset = db.catalog().table(table).expect("known table").record_offset(index)
                    + HDR_STATUS;
                let bit = rng.below(8) as u8;
                taint_id += 1;
                inject(&mut db, offset, bit, TaintKind::Structural, taint_id, at);
                touched = Some(RecordRef::new(table, index));
                (format!("flip status {}.{index} {offset}:{bit}", table.0), "()".to_string())
            }
            _ => {
                let index = index % SLOTS;
                let tm = db.catalog().table(table).expect("known table");
                let field = FieldId(rng.below(tm.def.fields.len()) as u16);
                let (off, len) =
                    db.field_extent(RecordRef::new(table, index), field).expect("field in range");
                let offset = off + rng.below(len);
                let bit = rng.below(8) as u8;
                taint_id += 1;
                inject(&mut db, offset, bit, TaintKind::DynamicUnruled, taint_id, at);
                touched = Some(RecordRef::new(table, index));
                (
                    format!("flip field {}.{index} f{} {offset}:{bit}", table.0, field.0),
                    "()".to_string(),
                )
            }
        };

        write!(line, " p{} {what} -> {result}", pid.0).unwrap();
        if rng.below(4) == 0 {
            let drained: Vec<String> = api.events_mut().drain().map(|e| fmt_event(&e)).collect();
            write!(line, " | ev[{}]", drained.join(" ")).unwrap();
        }
        write!(
            line,
            " | q{} s{} b{}",
            api.events().len(),
            api.events_shed(),
            api.events_backpressured()
        )
        .unwrap();
        let captured = db.captured();
        write!(line, " | cap {:08x}/{}", crc32(captured), captured.len()).unwrap();
        db.clear_captured();
        write!(
            line,
            " | locks p1[{}] p2[{}] | cost {}",
            fmt_locks(&api, PIDS[0]),
            fmt_locks(&api, PIDS[1]),
            api.take_cost().as_micros()
        )
        .unwrap();
        if let Some(rec) = touched {
            match db.record_meta(rec) {
                Ok(m) => write!(
                    line,
                    " | meta {}.{} w{:?}@{}",
                    rec.table.0,
                    rec.index,
                    m.last_writer.map(|p| p.0),
                    m.last_access.as_micros()
                )
                .unwrap(),
                Err(e) => write!(line, " | meta {e:?}").unwrap(),
            }
            let s = db.table_stats(rec.table).expect("known table");
            write!(line, " stats a{} e{}", s.accesses, s.errors_last_cycle).unwrap();
        }
        write!(line, " | taint {}/{}", db.taint().latent_count(), db.taint().resolved().len())
            .unwrap();
        writeln!(out, "{line}").unwrap();
    }
}

fn render() -> String {
    let mut out = String::new();
    for seed in 1..=3 {
        run(&mut out, seed, 150, true);
    }
    run(&mut out, 4, 100, false);
    out
}

#[test]
fn api_transcript_matches_the_committed_snapshot() {
    let actual = render();
    if actual == SNAPSHOT {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("api_parity.actual.txt");
    std::fs::write(&path, &actual).expect("write the rendered API transcript");
    let first = actual
        .lines()
        .zip(SNAPSHOT.lines())
        .position(|(a, e)| a != e)
        .unwrap_or_else(|| actual.lines().count().min(SNAPSHOT.lines().count()));
    panic!(
        "API transcript differs from tests/snapshots/api_parity.txt at line {}:\n  \
         actual:   {}\n  expected: {}\nfull rendering written to {}",
        first + 1,
        actual.lines().nth(first).unwrap_or("<end of output>"),
        SNAPSHOT.lines().nth(first).unwrap_or("<end of snapshot>"),
        path.display()
    );
}
