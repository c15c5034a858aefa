//! Differential test of the record-status index: random region
//! writes, bit flips, golden reloads, record restores, replayed frames,
//! whole-image loads, allocations and frees. After every operation the
//! index must agree with a scan of the headers, and every allocation
//! must pick the slot the linear hint-then-wrap scan (kept here as the
//! reference) picks.
//!
//! `PROPTEST_CASES` sets the number of cases (256 by default).

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use wtnc_db::layout::{HDR_STATUS, STATUS_ACTIVE, STATUS_FREE};
use wtnc_db::{
    frames, push_frame, Database, DbError, FieldDef, FieldWidth, FrameKind, RecordRef, TableDef,
    TableId, TableNature,
};

/// Slot counts that straddle, fill and fall short of a 64-slot word.
fn schema() -> Vec<TableDef> {
    let fields = || {
        vec![
            FieldDef::dynamic("a", FieldWidth::U16).with_range(0, 9),
            FieldDef::dynamic("b", FieldWidth::U8),
        ]
    };
    vec![
        TableDef::new("config", TableNature::Config, 3, fields()),
        TableDef::new("wide", TableNature::Dynamic, 130, fields()),
        TableDef::new("word", TableNature::Dynamic, 64, fields()),
        TableDef::new("tiny", TableNature::Dynamic, 5, fields()),
    ]
}

fn tables(db: &Database) -> Vec<(TableId, u32)> {
    db.catalog().tables().map(|tm| (tm.id, tm.def.record_count)).collect()
}

fn status(db: &Database, rec: RecordRef) -> u8 {
    db.header(rec).unwrap().status
}

/// The allocator this index replaced: decode every header from the
/// hint to the end, then from the start up to the hint.
fn reference_alloc(db: &Database, table: TableId, count: u32, hint: u32) -> Option<u32> {
    let hint = hint.min(count - 1);
    (hint..count).chain(0..hint).find(|&i| status(db, RecordRef::new(table, i)) == STATUS_FREE)
}

/// The index equals a header scan: the active set answers `is_active`,
/// `next_active` and `active_count` exactly, and the free set yields,
/// allocation after allocation on a copy, every free slot in the
/// reference order and then [`DbError::TableFull`].
fn check_index(db: &Database, hints: &[u32]) -> Result<(), TestCaseError> {
    for (table, count) in tables(db) {
        let statuses: Vec<u8> = (0..count).map(|i| status(db, RecordRef::new(table, i))).collect();
        let active: Vec<u32> =
            (0..count).filter(|&i| statuses[i as usize] == STATUS_ACTIVE).collect();
        for i in 0..count {
            let rec = RecordRef::new(table, i);
            prop_assert_eq!(db.is_active(rec).unwrap(), statuses[i as usize] == STATUS_ACTIVE);
        }
        let mut listed = Vec::new();
        let mut from = 0;
        while let Some(i) = db.next_active(table, from) {
            listed.push(i);
            from = i + 1;
        }
        prop_assert_eq!(&listed, &active);
        prop_assert_eq!(db.active_count(table).unwrap(), active.len() as u32);

        let hint = hints[table.0 as usize].min(count - 1);
        let free = |i: &u32| statuses[*i as usize] == STATUS_FREE;
        let expected: Vec<u32> = (hint..count).chain(0..hint).filter(free).collect();
        let mut copy = db.clone();
        let mut allocated = Vec::new();
        loop {
            match copy.alloc_record_raw(table) {
                Ok(i) => allocated.push(i),
                Err(e) => {
                    prop_assert_eq!(e, DbError::TableFull(table));
                    break;
                }
            }
            prop_assert!(allocated.len() <= count as usize, "allocated past the table's size");
        }
        prop_assert_eq!(allocated, expected);
    }
    Ok(())
}

/// A byte for a status position: mostly one of the two legal values.
fn status_byte(r: u64) -> u8 {
    match r % 4 {
        0 | 1 => STATUS_FREE,
        2 => STATUS_ACTIVE,
        _ => (r >> 8) as u8,
    }
}

/// A random record slot and the offset of its status byte.
fn pick_slot(db: &Database, r: u64) -> (TableId, u32, usize) {
    let ts = tables(db);
    let (table, count) = ts[(r % ts.len() as u64) as usize];
    let index = ((r >> 8) % u64::from(count)) as u32;
    let base = db.record_offset(RecordRef::new(table, index)).unwrap();
    (table, index, base + HDR_STATUS)
}

/// Bytes for a write at a random extent around a status byte: up to
/// three records wide, so writes cover several status bytes, one, or
/// none.
fn extent(db: &Database, a: u64, b: u64) -> (usize, Vec<u8>) {
    let (_, _, at) = pick_slot(db, a);
    let start = at.saturating_sub((b % 24) as usize);
    let len = (((b >> 8) % 40) as usize + 1).min(db.region_len() - start);
    let bytes = (0..len).map(|k| status_byte(b.rotate_left(k as u32 * 7) ^ k as u64)).collect();
    (start, bytes)
}

proptest! {
    #[test]
    fn index_equals_a_header_scan_after_every_operation(
        ops in prop::collection::vec((0u8..10, any::<u64>(), any::<u64>()), 1..24),
    ) {
        let mut db = Database::build(schema()).unwrap();
        let mut hints = vec![0u32; db.catalog().table_count()];
        check_index(&db, &hints)?;
        for (op, a, b) in ops {
            match op {
                0 => {
                    let (offset, bytes) = extent(&db, a, b);
                    db.poke(offset, &bytes).unwrap();
                }
                1 => {
                    // Mostly status bytes, which an ACTIVE/FREE flip
                    // turns into a third value; sometimes any byte.
                    let (_, _, at) = pick_slot(&db, a);
                    let offset = if b % 3 == 0 { (b >> 8) as usize % db.region_len() } else { at };
                    db.flip_bit(offset, (b >> 2) as u8 % 8).unwrap();
                }
                2 => {
                    let (offset, bytes) = extent(&db, a, b);
                    db.reload_range(offset, bytes.len()).unwrap();
                }
                3 => db.reload_all(),
                4 => {
                    let (table, index, _) = pick_slot(&db, a);
                    db.restore_record(RecordRef::new(table, index)).unwrap();
                    hints[table.0 as usize] = hints[table.0 as usize].min(index);
                }
                5 => {
                    let (offset, bytes) = extent(&db, a, b);
                    let kind = if b % 5 == 0 { FrameKind::Golden } else { FrameKind::Region };
                    let mut buf = Vec::new();
                    push_frame(&mut buf, kind, db.mutation_generation() + 1, offset, &bytes);
                    for frame in frames(&buf) {
                        db.apply_frame(&frame).unwrap();
                    }
                }
                6 => {
                    // A recovered image differing from the live one in
                    // a few status bytes.
                    let mut region = db.region().to_vec();
                    for k in 0..(b % 8) {
                        let (_, _, at) = pick_slot(&db, a.rotate_left(k as u32 * 11) ^ k);
                        region[at] = status_byte(b.rotate_left(k as u32 * 5));
                    }
                    let golden = db.golden().to_vec();
                    db.load_image(&region, &golden, db.mutation_generation() + 1).unwrap();
                }
                7 | 8 => {
                    let (table, _, _) = pick_slot(&db, a);
                    let count = db.catalog().table(table).unwrap().def.record_count;
                    let expected = reference_alloc(&db, table, count, hints[table.0 as usize]);
                    match db.alloc_record_raw(table) {
                        Ok(index) => {
                            prop_assert_eq!(Some(index), expected);
                            hints[table.0 as usize] = index + 1;
                        }
                        Err(e) => {
                            prop_assert_eq!(expected, None);
                            prop_assert_eq!(e, DbError::TableFull(table));
                        }
                    }
                }
                _ => {
                    let (table, index, _) = pick_slot(&db, a);
                    db.free_record_raw(RecordRef::new(table, index)).unwrap();
                    hints[table.0 as usize] = hints[table.0 as usize].min(index);
                }
            }
            check_index(&db, &hints)?;
        }
    }
}
