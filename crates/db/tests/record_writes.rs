//! Differential test of the record-level write path: an allocation
//! formats its slot in place and `DbApi::write_rec` writes its fields,
//! each noting one mutation over the span it wrote. The reference is
//! the per-field path, kept here: an allocation writes the header and
//! then each field default as mutations of their own, and `write_rec`
//! pokes field by field.
//!
//! Random mixes of allocations, `write_rec`s (with good and bad arity,
//! on active and free slots), `write_fld`s, frees, tainted bit flips and
//! corrupted or reloaded field descriptors run on both. After every
//! operation the region, the golden image, both dirty bitmaps, the
//! status index and the taint ledger must be equal. The frames the
//! record-level side captured must replay onto a fresh build to its
//! image, and a replay cut at any frame boundary must give the image
//! after a whole number of operations.
//!
//! `PROPTEST_CASES` sets the number of cases (256 by default).

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use wtnc_db::layout::{
    write_le, FIELD_DESC_SIZE, HDR_GROUP, HDR_NEXT, HDR_PREV, HDR_RECORD_ID, HDR_STATUS, LINK_NONE,
    STATUS_ACTIVE, STATUS_FREE,
};
use wtnc_db::{
    frames, Catalog, Database, DbApi, DbError, FieldDef, FieldId, FieldWidth, RecordHeader,
    RecordRef, TableDef, TableId, TableNature, TaintEntry, TaintFate,
};
use wtnc_sim::{Pid, SimTime};

/// Layouts with alignment padding inside a record and after its last
/// field, and records that straddle dirty blocks.
fn schema() -> Vec<TableDef> {
    vec![
        TableDef::new(
            "config",
            TableNature::Config,
            3,
            vec![
                FieldDef::static_value("freq", FieldWidth::U32, 850_000),
                FieldDef::static_value("power", FieldWidth::U8, 7),
            ],
        ),
        TableDef::new(
            "calls",
            TableNature::Dynamic,
            37,
            vec![
                FieldDef::dynamic("state", FieldWidth::U8).with_range(0, 4).with_default(1),
                FieldDef::dynamic("caller", FieldWidth::U32),
                FieldDef::dynamic("channel", FieldWidth::U16).with_default(0xBEEF),
                FieldDef::dynamic("flags", FieldWidth::U8),
            ],
        ),
        TableDef::new(
            "wide",
            TableNature::Dynamic,
            19,
            vec![
                FieldDef::dynamic("a", FieldWidth::U16).with_default(3),
                FieldDef::dynamic("stamp", FieldWidth::U64).with_default(0x0506_0708),
                FieldDef::dynamic("b", FieldWidth::U8).with_default(0x5A),
            ],
        ),
        TableDef::new(
            "tiny",
            TableNature::Dynamic,
            4,
            vec![FieldDef::dynamic("x", FieldWidth::U8)],
        ),
    ]
}

const PID: Pid = Pid(1);

/// The dynamic tables, with their slot counts.
fn dynamic_tables(db: &Database) -> Vec<(TableId, u32)> {
    db.catalog()
        .tables()
        .filter(|tm| tm.def.nature == TableNature::Dynamic)
        .map(|tm| (tm.id, tm.def.record_count))
        .collect()
}

fn pick_record(db: &Database, r: u64) -> RecordRef {
    let tables = dynamic_tables(db);
    let (table, count) = tables[(r % tables.len() as u64) as usize];
    RecordRef::new(table, ((r >> 8) % u64::from(count)) as u32)
}

/// Mostly an active record (the first at or after a random slot), so
/// that writes get past the status check; else any slot.
fn pick_target(db: &Database, r: u64) -> RecordRef {
    let rec = pick_record(db, r);
    if r >> 60 == 0 {
        return rec;
    }
    match db.next_active(rec.table, rec.index).or_else(|| db.next_active(rec.table, 0)) {
        Some(index) => RecordRef::new(rec.table, index),
        None => rec,
    }
}

/// The per-field allocation, the reference: the first free slot
/// from the hint (then from 0), its header written, then each field
/// default written as a mutation of its own.
fn reference_alloc(db: &mut Database, table: TableId, hint: u32) -> Result<u32, DbError> {
    let count = db.catalog().table(table)?.def.record_count;
    let status = |db: &Database, i: u32| db.header(RecordRef::new(table, i)).unwrap().status;
    let Some(index) =
        (hint.min(count)..count).chain(0..hint.min(count)).find(|&i| status(db, i) == STATUS_FREE)
    else {
        return Err(DbError::TableFull(table));
    };
    let rec = RecordRef::new(table, index);
    let hdr = RecordHeader {
        record_id: wtnc_db::layout::encode_record_id(table.0, index),
        status: STATUS_ACTIVE,
        group: 0,
        next: LINK_NONE,
        prev: LINK_NONE,
    };
    db.write_header(rec, hdr)?;
    let defaults: Vec<u64> =
        db.catalog().table(table)?.def.fields.iter().map(|f| f.default).collect();
    for (fi, default) in defaults.into_iter().enumerate() {
        db.write_field_raw(rec, FieldId(fi as u16), default)?;
    }
    Ok(index)
}

/// The per-field `write_rec`, the reference, as far as it touches
/// the compared state (the lock, connection and event upkeep leave it
/// alone): validate the in-region table entry, the index, the arity and
/// the status byte, then per field validate the descriptor, resolve its
/// taint and poke its bytes as a mutation of its own.
fn reference_write_rec(
    db: &mut Database,
    rec: RecordRef,
    values: &[u64],
    at: SimTime,
) -> Result<(), DbError> {
    let entry = Catalog::read_region_entry(db.region(), rec.table)?;
    if rec.index >= entry.record_count {
        return Err(DbError::BadRecordIndex {
            table: rec.table,
            index: rec.index,
            capacity: entry.record_count,
        });
    }
    let base = entry.offset + entry.record_size * rec.index as usize;
    if values.len() != entry.field_count {
        return Err(DbError::BadSchema(format!(
            "write_rec got {} values for {} fields",
            values.len(),
            entry.field_count
        )));
    }
    if db.peek(base + HDR_STATUS, 1)?[0] != STATUS_ACTIVE {
        db.taint_mut().resolve_range(base + HDR_STATUS, 1, TaintFate::Escaped { at });
        return Err(DbError::RecordFree(rec.table, rec.index));
    }
    for (fi, &v) in values.iter().enumerate() {
        let f = Catalog::read_region_field(db.region(), rec.table, &entry, FieldId(fi as u16))?;
        let (off, w) = (base + f.offset_in_record, f.width.bytes());
        db.taint_mut().resolve_range(off, w, TaintFate::Overwritten { at });
        let mut buf = [0u8; 8];
        write_le(&mut buf, w, v);
        db.poke(off, &buf[..w])?;
    }
    Ok(())
}

/// Every slot a fresh allocation loop hands out, in order, on a copy.
fn allocation_order(db: &Database, table: TableId) -> Vec<u32> {
    let mut copy = db.clone();
    std::iter::from_fn(|| copy.alloc_record_raw(table).ok()).collect()
}

/// The compared state is equal, and the record-level side's allocator
/// hands out the reference's free slots in hint-then-wrap order.
fn check_equal(db: &Database, reference: &Database, hints: &[u32]) -> Result<(), TestCaseError> {
    prop_assert!(db.region() == reference.region(), "regions differ");
    prop_assert!(db.golden() == reference.golden(), "golden images differ");
    prop_assert_eq!(db.dirty(), reference.dirty());
    prop_assert_eq!(db.checkpoint_dirty(), reference.checkpoint_dirty());
    for tm in db.catalog().tables() {
        let (table, count) = (tm.id, tm.def.record_count);
        let active = |d: &Database| -> Vec<u32> {
            let mut listed = Vec::new();
            while let Some(i) = d.next_active(table, listed.last().map_or(0, |&i| i + 1)) {
                listed.push(i);
            }
            listed
        };
        prop_assert_eq!(active(db), active(reference));
        prop_assert_eq!(db.active_count(table).unwrap(), reference.active_count(table).unwrap());
        let status = |i: u32| reference.header(RecordRef::new(table, i)).unwrap().status;
        let hint = hints[table.0 as usize].min(count);
        let expected: Vec<u32> =
            (hint..count).chain(0..hint).filter(|&i| status(i) == STATUS_FREE).collect();
        prop_assert_eq!(allocation_order(db, table), expected.clone());
        let mut reference_free = allocation_order(reference, table);
        reference_free.sort_unstable();
        let mut expected_free = expected;
        expected_free.sort_unstable();
        prop_assert_eq!(reference_free, expected_free);
    }
    let latent = |d: &Database| d.taint().latent().collect::<Vec<_>>();
    prop_assert_eq!(latent(db), latent(reference));
    prop_assert_eq!(db.taint().resolved(), reference.taint().resolved());
    Ok(())
}

proptest! {
    #[test]
    fn record_operations_match_the_per_field_path(
        ops in prop::collection::vec((0u8..12, any::<u64>(), any::<u64>()), 1..40),
    ) {
        let mut db = Database::build(schema()).unwrap();
        db.set_capture(true);
        let mut reference = db.clone();
        let (mut api, mut reference_api) = (DbApi::new(), DbApi::new());
        api.init(PID);
        reference_api.init(PID);
        let mut hints = vec![0u32; db.catalog().table_count()];
        // The image after each whole operation, and the frames captured
        // by then.
        let mut images = vec![db.region().to_vec()];
        let mut frames_after = vec![0usize];
        for (step, (op, a, b)) in ops.into_iter().enumerate() {
            let at = SimTime::from_millis(step as u64 + 1);
            match op {
                0..=2 => {
                    let (table, _) = dynamic_tables(&db)[(a % 3) as usize];
                    let got = db.alloc_record_raw(table);
                    let want = reference_alloc(&mut reference, table, hints[table.0 as usize]);
                    prop_assert_eq!(&got, &want);
                    if let Ok(index) = got {
                        hints[table.0 as usize] = index + 1;
                    }
                }
                3..=5 => {
                    let rec = pick_target(&db, a);
                    let fields = db.catalog().table(rec.table).unwrap().def.fields.len();
                    // Now and then the wrong arity.
                    let arity = if b % 11 == 0 { fields + 1 } else { fields };
                    let values: Vec<u64> =
                        (0..arity).map(|k| b.rotate_left(k as u32 * 13) ^ k as u64).collect();
                    let got = api.write_rec(&mut db, PID, rec.table, rec.index, &values, at);
                    let want = reference_write_rec(&mut reference, rec, &values, at);
                    prop_assert_eq!(got, want);
                }
                6 => {
                    let rec = pick_target(&db, a);
                    let fields = db.catalog().table(rec.table).unwrap().def.fields.len() as u64;
                    let field = FieldId((b % fields) as u16);
                    let value = b >> 8;
                    let got = api.write_fld(&mut db, PID, rec.table, rec.index, field, value, at);
                    let want = reference_api
                        .write_fld(&mut reference, PID, rec.table, rec.index, field, value, at);
                    prop_assert_eq!(got, want);
                }
                7 => {
                    let rec = pick_record(&db, a);
                    let got = api.free_record(&mut db, PID, rec.table, rec.index, at);
                    let want =
                        reference_api.free_record(&mut reference, PID, rec.table, rec.index, at);
                    if got.is_ok() {
                        hints[rec.table.0 as usize] = hints[rec.table.0 as usize].min(rec.index);
                    }
                    prop_assert_eq!(got, want);
                }
                8 | 9 => {
                    // A tainted bit flip in the record area: mostly a
                    // header byte (status, id, links), else any byte.
                    let rec = pick_record(&db, a);
                    let base = db.record_offset(rec).unwrap();
                    let size = db.record_size(rec.table).unwrap();
                    let header = [HDR_STATUS, HDR_RECORD_ID, HDR_GROUP, HDR_NEXT, HDR_PREV];
                    let offset = if b % 2 == 0 {
                        base + header[(b >> 1) as usize % header.len()]
                    } else {
                        base + (b >> 8) as usize % size
                    };
                    let bit = (b >> 4) as u8 % 8;
                    let kind = db.classify_injection(offset, bit);
                    let entry = TaintEntry { id: step as u64, at, kind };
                    for d in [&mut db, &mut reference] {
                        d.taint_mut().insert(offset, entry);
                        d.flip_bit(offset, bit).unwrap();
                    }
                }
                10 => {
                    // Corrupt a field descriptor: its width code or its
                    // offset in the record, to a value that may still
                    // validate (moving the field, even onto the header)
                    // or may not.
                    let rec = pick_record(&db, a);
                    let tm = db.catalog().table(rec.table).unwrap();
                    let field = (b % tm.def.fields.len() as u64) as usize;
                    let desc = tm.field_desc_offset + field * FIELD_DESC_SIZE;
                    let (offset, bytes) = if b & 0x100 == 0 {
                        (desc + 2, vec![(b >> 16) as u8 % 6])
                    } else {
                        let within = (b >> 16) as u32 % (tm.record_size as u32 + 4);
                        (desc + 20, within.to_le_bytes().to_vec())
                    };
                    for d in [&mut db, &mut reference] {
                        d.poke(offset, &bytes).unwrap();
                    }
                }
                _ => {
                    // Reload a field descriptor from the golden image.
                    let rec = pick_record(&db, a);
                    let tm = db.catalog().table(rec.table).unwrap();
                    let field = (b % tm.def.fields.len() as u64) as usize;
                    let desc = tm.field_desc_offset + field * FIELD_DESC_SIZE;
                    for d in [&mut db, &mut reference] {
                        d.reload_range(desc, FIELD_DESC_SIZE).unwrap();
                    }
                }
            }
            check_equal(&db, &reference, &hints)?;
            let captured = frames(db.captured()).count();
            prop_assert!(
                captured - frames_after.last().unwrap() <= 1,
                "operation {op} captured {} frames",
                captured - frames_after.last().unwrap()
            );
            images.push(db.region().to_vec());
            frames_after.push(captured);
        }

        // Replay frame by frame onto a fresh build: every cut lands on
        // the image after a whole number of operations, and the whole
        // journal rebuilds the live image.
        let mut replayed = Database::build(schema()).unwrap();
        for (cut, frame) in frames(db.captured()).enumerate() {
            replayed.apply_frame(&frame).unwrap();
            let ops_done = frames_after.iter().rposition(|&n| n == cut + 1);
            prop_assert!(ops_done.is_some(), "a cut after frame {} splits an operation", cut + 1);
            prop_assert!(
                replayed.region() == &images[ops_done.unwrap()][..],
                "a cut after frame {} is not the image after {:?} operations",
                cut + 1,
                ops_done
            );
        }
        prop_assert!(replayed.region() == db.region(), "a full replay differs from the live image");
        prop_assert!(replayed.golden() == db.golden(), "a full replay differs in the golden image");
    }
}
