//! Property-based tests of the database substrate.

use proptest::prelude::*;
use wtnc_db::{
    crc32, schema, Catalog, Database, FieldDef, FieldId, FieldWidth, RecordRef, TableDef, TableId,
    TableNature, TaintKind,
};

fn arb_width() -> impl Strategy<Value = FieldWidth> {
    prop_oneof![
        Just(FieldWidth::U8),
        Just(FieldWidth::U16),
        Just(FieldWidth::U32),
        Just(FieldWidth::U64),
    ]
}

fn arb_field() -> impl Strategy<Value = FieldDef> {
    (arb_width(), any::<bool>(), 0u64..1_000).prop_map(|(width, ruled, hi)| {
        let mut f = FieldDef::dynamic("f", width);
        // 64-bit fields cannot carry range rules (catalog constraint).
        if ruled && width != FieldWidth::U64 {
            let hi = hi.min(width.max_value());
            f = f.with_range(0, hi).with_default(0);
        }
        f
    })
}

fn arb_schema() -> impl Strategy<Value = Vec<TableDef>> {
    prop::collection::vec((prop::collection::vec(arb_field(), 1..6), 1u32..12, any::<bool>()), 1..5)
        .prop_map(|tables| {
            tables
                .into_iter()
                .enumerate()
                .map(|(i, (fields, records, config))| {
                    TableDef::new(
                        &format!("t{i}"),
                        if config { TableNature::Config } else { TableNature::Dynamic },
                        records,
                        fields,
                    )
                })
                .collect()
        })
}

proptest! {
    /// CRC-32 detects any single bit flip in any buffer.
    #[test]
    fn crc_detects_single_flips(
        mut data in prop::collection::vec(any::<u8>(), 1..256),
        pos in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let golden = crc32(&data);
        let i = pos.index(data.len());
        data[i] ^= 1 << bit;
        prop_assert_ne!(crc32(&data), golden);
    }

    /// Any valid random schema builds a database whose in-region
    /// catalog round-trips: every descriptor read back matches the
    /// builder's layout.
    #[test]
    fn catalog_region_round_trips(schema in arb_schema()) {
        let catalog = Catalog::build(schema).unwrap();
        let mut region = vec![0u8; catalog.region_len()];
        catalog.write_region(&mut region);
        for tm in catalog.tables() {
            let entry = Catalog::read_region_entry(&region, tm.id).unwrap();
            prop_assert_eq!(entry.offset, tm.offset);
            prop_assert_eq!(entry.record_size, tm.record_size);
            prop_assert_eq!(entry.record_count, tm.def.record_count);
            for (fi, f) in tm.def.fields.iter().enumerate() {
                let fe = Catalog::read_region_field(&region, tm.id, &entry, FieldId(fi as u16))
                    .unwrap();
                prop_assert_eq!(fe.width, f.width);
                prop_assert_eq!(fe.offset_in_record, tm.field_offsets[fi]);
                prop_assert_eq!(fe.has_range, f.range.is_some());
            }
        }
    }

    /// Field values round-trip through the region bytes at every width
    /// (mod truncation to the field width).
    #[test]
    fn field_values_round_trip(schema in arb_schema(), value in any::<u64>()) {
        let mut db = Database::build(schema).unwrap();
        let tables: Vec<TableId> = db.catalog().tables().map(|t| t.id).collect();
        for table in tables {
            let rec = RecordRef::new(table, 0);
            let field_count = db.catalog().table(table).unwrap().def.fields.len();
            for fi in 0..field_count {
                let fid = FieldId(fi as u16);
                let width = db.catalog().field(table, fid).unwrap().width;
                db.write_field_raw(rec, fid, value).unwrap();
                prop_assert_eq!(
                    db.read_field_raw(rec, fid).unwrap(),
                    value & width.max_value()
                );
            }
        }
    }

    /// Every byte of the region classifies without panicking, and
    /// catalog bytes always classify as static data.
    #[test]
    fn classification_is_total(offset_frac in 0.0f64..1.0, bit in 0u8..8) {
        let db = Database::build(schema::standard_schema()).unwrap();
        let offset = ((db.region_len() - 1) as f64 * offset_frac) as usize;
        let by_injection = db.classify_injection(offset, bit);
        if offset < db.catalog().catalog_len() {
            prop_assert_eq!(by_injection, TaintKind::StaticData);
        }
    }

    /// Alloc/free sequences keep the active count and first-free
    /// invariants: alloc returns a previously free slot, free makes it
    /// reusable, and the count matches a reference model.
    #[test]
    fn alloc_free_matches_reference_model(ops in prop::collection::vec(any::<bool>(), 1..200)) {
        let mut db = Database::build(schema::standard_schema_with_slots(8)).unwrap();
        let table = schema::CONNECTION_TABLE;
        let mut model: Vec<u32> = Vec::new(); // allocated indices
        for alloc in ops {
            if alloc {
                match db.alloc_record_raw(table) {
                    Ok(idx) => {
                        prop_assert!(!model.contains(&idx), "slot {idx} double-allocated");
                        model.push(idx);
                    }
                    Err(_) => prop_assert_eq!(model.len(), 8, "full only when model is full"),
                }
            } else if let Some(idx) = model.pop() {
                db.free_record_raw(RecordRef::new(table, idx)).unwrap();
            }
            prop_assert_eq!(db.active_count(table).unwrap() as usize, model.len());
        }
    }

    /// Reloading the full image always restores byte equality with the
    /// golden copy, no matter what was corrupted.
    #[test]
    fn reload_all_is_idempotent_restore(
        flips in prop::collection::vec((any::<prop::sample::Index>(), 0u8..8), 1..64),
    ) {
        let mut db = Database::build(schema::standard_schema()).unwrap();
        let len = db.region_len();
        for (pos, bit) in flips {
            db.flip_bit(pos.index(len), bit).unwrap();
        }
        db.reload_all();
        prop_assert_eq!(db.region(), db.golden());
    }
}

mod api_sequences {
    use proptest::prelude::*;
    use wtnc_db::{schema, Database, DbApi, DbError, FieldId};
    use wtnc_sim::{Pid, SimTime};

    /// One step of a random client workload.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Alloc(u8),
        Free(u8, u8),
        ReadRec(u8, u8),
        ReadFld(u8, u8, u8),
        WriteFld(u8, u8, u8, u64),
        Move(u8, u8, u8),
        Lock(u8, u8),
        Unlock(u8, u8),
        Close,
        Reconnect,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..3).prop_map(Op::Alloc),
            (0u8..3, any::<u8>()).prop_map(|(t, i)| Op::Free(t, i)),
            (0u8..3, any::<u8>()).prop_map(|(t, i)| Op::ReadRec(t, i)),
            (0u8..3, any::<u8>(), 0u8..8).prop_map(|(t, i, f)| Op::ReadFld(t, i, f)),
            (0u8..3, any::<u8>(), 0u8..8, any::<u64>())
                .prop_map(|(t, i, f, v)| Op::WriteFld(t, i, f, v)),
            (0u8..3, any::<u8>(), any::<u8>()).prop_map(|(t, i, g)| Op::Move(t, i, g)),
            (0u8..3, any::<u8>()).prop_map(|(t, i)| Op::Lock(t, i)),
            (0u8..3, any::<u8>()).prop_map(|(t, i)| Op::Unlock(t, i)),
            Just(Op::Close),
            Just(Op::Reconnect),
        ]
    }

    /// 64 cases, or the number the `PROPTEST_CASES` environment
    /// variable names (CI runs 1,024).
    fn cases() -> u32 {
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        /// Arbitrary interleaved API call sequences never panic, never
        /// corrupt catalog validation, and keep the lock table
        /// balanced once every client closes.
        #[test]
        fn random_api_sequences_preserve_invariants(
            ops in prop::collection::vec(arb_op(), 1..120),
        ) {
            let mut db = Database::build(schema::standard_schema_with_slots(6)).unwrap();
            let mut api = DbApi::new();
            let pid = Pid(1);
            api.init(pid);
            let dyn_tables = [
                schema::PROCESS_TABLE,
                schema::CONNECTION_TABLE,
                schema::RESOURCE_TABLE,
            ];
            let now = SimTime::from_secs(1);
            for op in ops {
                // Every operation must return Ok or a *classified*
                // error, never panic.
                let result: Result<(), DbError> = match op {
                    Op::Alloc(t) => api
                        .alloc_record(&mut db, pid, dyn_tables[t as usize], now)
                        .map(|_| ()),
                    Op::Free(t, i) => {
                        api.free_record(&mut db, pid, dyn_tables[t as usize], i as u32, now)
                    }
                    Op::ReadRec(t, i) => api
                        .read_rec(&mut db, pid, dyn_tables[t as usize], i as u32, now)
                        .map(|_| ()),
                    Op::ReadFld(t, i, f) => api
                        .read_fld(&mut db, pid, dyn_tables[t as usize], i as u32, FieldId(f as u16), now)
                        .map(|_| ()),
                    Op::WriteFld(t, i, f, v) => api.write_fld(
                        &mut db,
                        pid,
                        dyn_tables[t as usize],
                        i as u32,
                        FieldId(f as u16),
                        v,
                        now,
                    ),
                    Op::Move(t, i, g) => {
                        api.move_rec(&mut db, pid, dyn_tables[t as usize], i as u32, g, now)
                    }
                    Op::Lock(t, i) => api.lock(
                        &db,
                        wtnc_db::RecordRef::new(dyn_tables[t as usize], i as u32 % 6),
                        pid,
                        now,
                    ),
                    Op::Unlock(t, i) => {
                        api.unlock(
                            wtnc_db::RecordRef::new(dyn_tables[t as usize], i as u32 % 6),
                            pid,
                        );
                        Ok(())
                    }
                    Op::Close => {
                        api.close(pid, now);
                        Ok(())
                    }
                    Op::Reconnect => {
                        api.init_at(pid, now);
                        Ok(())
                    }
                };
                let _ = result;
                // The in-region catalog stays valid under legitimate
                // API traffic (no operation may scribble on it).
                for tm in db.catalog().tables() {
                    prop_assert!(
                        wtnc_db::Catalog::read_region_entry(db.region(), tm.id).is_ok()
                    );
                }
            }
            // After the client closes, no locks remain.
            api.close(pid, SimTime::from_secs(2));
            prop_assert!(api.locks().is_empty());
            // Group chains left by moves stay mutually consistent.
            for &t in &dyn_tables {
                let cap = db.catalog().table(t).unwrap().def.record_count;
                for i in 0..cap {
                    let hdr = db.header(wtnc_db::RecordRef::new(t, i)).unwrap();
                    if hdr.status != wtnc_db::layout::STATUS_ACTIVE {
                        continue;
                    }
                    if hdr.next != wtnc_db::layout::LINK_NONE {
                        let nb = db
                            .header(wtnc_db::RecordRef::new(t, hdr.next as u32))
                            .unwrap();
                        prop_assert_eq!(nb.prev, i as u16, "broken chain in table {}", t.0);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// LockTable reclamation properties
// ---------------------------------------------------------------------------

use wtnc_db::LockTable;
use wtnc_sim::{Pid, SimDuration, SimTime};

proptest! {
    /// Reclaiming a crashed client's locks removes every lock it held
    /// (and only those): afterwards no record reports it as holder,
    /// the returned count matches what it held, and every other
    /// client's locks survive untouched.
    #[test]
    fn release_all_leaves_no_holder_behind(
        grants in proptest::collection::vec((0u32..40, 1u32..5), 1..60),
        victim in 1u32..5,
    ) {
        let mut locks = LockTable::new();
        let table = schema::CONNECTION_TABLE;
        let mut held: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        for (i, &(index, pid)) in grants.iter().enumerate() {
            let rec = RecordRef::new(table, index);
            if locks
                .acquire(rec, Pid(pid), SimTime::from_secs(i as u64))
                .is_ok()
            {
                held.entry(index).or_insert(pid);
            }
        }
        let victim_count = held.values().filter(|&&p| p == victim).count();
        let released = locks.release_all(Pid(victim));
        prop_assert_eq!(released, victim_count);
        for (&index, &pid) in &held {
            let holder = locks.holder(RecordRef::new(table, index));
            if pid == victim {
                prop_assert_eq!(holder, None, "record {index} still held by the crashed client");
            } else {
                prop_assert_eq!(holder, Some(Pid(pid)), "bystander lock on {index} lost");
            }
        }
        // Reclaiming again finds nothing.
        prop_assert_eq!(locks.release_all(Pid(victim)), 0);
    }

    /// `stale` reports exactly the locks held longer than the
    /// threshold, sorted by record, and never the fresh ones.
    #[test]
    fn stale_reports_exactly_the_old_locks(
        ages in proptest::collection::vec(0u64..100, 1..30),
        threshold in 0u64..100,
    ) {
        let mut locks = LockTable::new();
        let table = schema::CONNECTION_TABLE;
        let now = SimTime::from_secs(100);
        for (i, &age) in ages.iter().enumerate() {
            let rec = RecordRef::new(table, i as u32);
            locks
                .acquire(rec, Pid(7), SimTime::from_secs(100 - age))
                .unwrap();
        }
        let stale = locks.stale(now, SimDuration::from_secs(threshold));
        let expected: Vec<u32> = ages
            .iter()
            .enumerate()
            .filter(|&(_, &age)| age > threshold)
            .map(|(i, _)| i as u32)
            .collect();
        let got: Vec<u32> = stale.iter().map(|&(r, _, _)| r.index).collect();
        prop_assert_eq!(got, expected, "stale set mismatch at threshold {threshold}");
        for &(rec, pid, since) in &stale {
            prop_assert_eq!(pid, Pid(7));
            prop_assert!(now.saturating_since(since) > SimDuration::from_secs(threshold));
            prop_assert_eq!(locks.holder(rec), Some(pid), "stale lock not actually held");
        }
    }
}
