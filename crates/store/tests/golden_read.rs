//! The demand-driven durable golden: `Store::durable_golden_detail`
//! hands out a handle that reads only the checkpoint leaves a range
//! covers and proves them against the store's in-memory lineage tree.
//!
//! - parity: the handle serves exactly what the whole-image fold
//!   (newest image + journal overlay, rebuilt here from the files)
//!   serves, across random delta lineages, golden commits, compactions
//!   and ranges;
//! - tamper: a damaged leaf inside a range is never served — the read
//!   gives what the whole-image fallback gives — and a damaged leaf
//!   outside it does not disturb the read;
//! - work: serving k record ranges reads at most two leaves each, and a
//!   handle nobody reads reads nothing;
//! - a checkpoint older than the compaction horizon is never served.

use proptest::prelude::*;
use std::ops::Range;
use std::path::Path;
use wtnc_db::{
    frames, schema, Database, FieldDef, FieldWidth, FrameKind, GoldenBlocks, RecordRef, TableDef,
    TableNature,
};
use wtnc_store::{
    checkpoint_file_name, decode_checkpoint, decode_delta_checkpoint, parse_checkpoint_file_name,
    parse_delta_file_name, scan_journal, ScratchDir, Store, StoreConfig, StoreFindingKind,
    JOURNAL_FILE, LEAF_BLOCK_SIZE,
};

/// Where content leaves start in the checkpoint files (see the format
/// in `wtnc_store::checkpoint`): after magic, meta length and a 40-byte
/// (full) or 56-byte (delta) header; each delta block carries a 4-byte
/// leaf index before its bytes.
const FULL_CONTENT_AT: usize = 12 + 40;
const DELTA_BLOCKS_AT: usize = 12 + 56;

fn small_schema() -> Vec<TableDef> {
    vec![
        TableDef::new(
            "config",
            TableNature::Config,
            2,
            vec![
                FieldDef::static_value("n_cpus", FieldWidth::U8, 4),
                FieldDef::static_value("max_calls", FieldWidth::U32, 1000),
            ],
        ),
        TableDef::new(
            "conn",
            TableNature::Dynamic,
            64,
            vec![
                FieldDef::dynamic("caller", FieldWidth::U32).with_range(0, 99_999),
                FieldDef::dynamic("state", FieldWidth::U16),
            ],
        ),
    ]
}

/// A splitmix64 stream: the scenarios below are fixed by their seed.
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
}

/// Region writes through the raw record paths (each bumps the
/// generation).
fn mutate(db: &mut Database, rounds: usize, salt: u64) {
    let conn = wtnc_db::TableId(1);
    for i in 0..rounds {
        let idx = db.alloc_record_raw(conn).expect("alloc");
        let rec = RecordRef::new(conn, idx);
        let value = (salt % 99_999 * 31 + i as u64) % 99_999;
        db.write_field_raw(rec, wtnc_db::FieldId(0), value).expect("write");
        if i % 3 == 2 {
            db.free_record_raw(rec).expect("free");
        }
    }
}

/// Golden commits of 1–8 random bytes at random offsets.
fn golden_commits(db: &mut Database, rng: &mut Rng, n: usize) {
    for _ in 0..n {
        let len = 1 + rng.below(8);
        let at = rng.below(db.region_len() - len);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        db.restore_golden_range(at, &bytes).expect("golden commit");
    }
}

/// The whole-image durable golden rebuilt from the files: the newest
/// checkpoint (its full base plus every delta of the lineage up to it)
/// and the journal's golden commits newer than it. `None` when the
/// journal was compacted past the image. Returns the image generation,
/// the golden bytes and the per-leaf-block attestation.
fn eager_reference(dir: &Path, key: &[u8; 16]) -> Option<(u64, Vec<u8>, Vec<bool>)> {
    let mut fulls = Vec::new();
    let mut deltas = Vec::new();
    for e in std::fs::read_dir(dir).unwrap() {
        let e = e.unwrap();
        let name = e.file_name().to_string_lossy().into_owned();
        if let Some(gen) = parse_checkpoint_file_name(&name) {
            fulls.push(gen);
        } else if let Some(gen) = parse_delta_file_name(&name) {
            let bytes = std::fs::read(e.path()).unwrap();
            deltas.push((gen, decode_delta_checkpoint(&bytes, key).expect("untampered delta")));
        }
    }
    deltas.sort_by_key(|(gen, _)| *gen);
    let newest_full = fulls.iter().copied().max()?;
    let newest_delta = deltas.last().map(|(gen, d)| (*gen, d.meta.base_gen));
    let (gen, base) = match newest_delta {
        Some((gen, base)) if gen > newest_full => (gen, base),
        _ => (newest_full, newest_full),
    };
    let bytes = std::fs::read(dir.join(checkpoint_file_name(base))).unwrap();
    let full = decode_checkpoint(&bytes, key).expect("untampered base");
    let (mut region, mut golden) = (full.region, full.golden);
    for (_, d) in deltas.iter().filter(|(g, d)| d.meta.base_gen == base && *g > base && *g <= gen) {
        d.apply_blocks(&mut region, &mut golden);
    }
    let journal = scan_journal(&dir.join(JOURNAL_FILE)).unwrap();
    if journal.compacted_through > gen {
        return None;
    }
    let mut attested = vec![true; golden.len().div_ceil(LEAF_BLOCK_SIZE)];
    for m in frames(&journal.frames).filter(|m| m.kind == FrameKind::Golden && m.gen > gen) {
        if m.offset < golden.len() {
            let end = (m.offset + m.bytes.len()).min(golden.len());
            golden[m.offset..end].copy_from_slice(&m.bytes[..end - m.offset]);
            attested[m.offset / LEAF_BLOCK_SIZE..end.div_ceil(LEAF_BLOCK_SIZE)].fill(false);
        }
    }
    Some((gen, golden, attested))
}

/// Content leaves covering golden `range` of an image whose region is
/// `region_len` bytes.
fn covering_leaves(region_len: usize, range: &Range<usize>) -> usize {
    (region_len + range.end - 1) / LEAF_BLOCK_SIZE - (region_len + range.start) / LEAF_BLOCK_SIZE
        + 1
}

/// A random range, from a few bytes to a table's worth to the whole
/// image.
fn random_range(rng: &mut Rng, len: usize) -> Range<usize> {
    let size = match rng.below(4) {
        0 => 1 + rng.below(8),
        1 => 8 + rng.below(64),
        2 => 256 + rng.below(1024),
        _ => len,
    }
    .min(len);
    let start = rng.below(len - size + 1);
    start..start + size
}

/// Compares the store's durable golden with the reference over random
/// ranges, and the reference with `live`, the in-memory golden image
/// of a database whose every golden commit was synced. With a warm
/// lineage the handle must serve every range from its covering leaves
/// alone.
fn assert_parity(store: &Store, rng: &mut Rng, live: &[u8], warm: bool) {
    let region_len = live.len();
    let reference = eager_reference(store.dir(), &store.config().key);
    let detail = store.durable_golden_detail().expect("golden read");
    let (d, (gen, golden, attested)) = match (detail, reference) {
        (None, None) => return,
        (Some(d), Some(r)) => (d, r),
        (d, r) => panic!("served {:?}, reference {:?}", d.map(|d| d.base_gen), r.map(|r| r.0)),
    };
    assert_eq!(golden, live, "the durable golden is the synced in-memory golden");
    assert_eq!(d.base_gen, gen);
    assert_eq!(d.attested, attested);
    assert_eq!(d.block_size, LEAF_BLOCK_SIZE);
    assert_eq!(d.golden.golden_len(), golden.len());
    let mut leaves = 0;
    for _ in 0..12 {
        let range = random_range(rng, golden.len());
        let got = d.golden.read_golden(range.clone()).expect("an untampered store serves");
        assert_eq!(*got, golden[range.clone()], "range {range:?}");
        leaves += covering_leaves(region_len, &range);
    }
    if warm {
        assert!(
            d.golden.bytes_read() <= (leaves * LEAF_BLOCK_SIZE) as u64,
            "read {} bytes for {leaves} leaves: a whole-image fold",
            d.golden.bytes_read()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bytes and attestation equal the whole-image fold, before and
    /// after compaction, warm and freshly reopened.
    #[test]
    fn lazy_reads_equal_the_whole_image_fold(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let scratch = ScratchDir::new("golden-parity");
        let config = StoreConfig { full_every: 1 + rng.below(4) as u32, ..StoreConfig::default() };
        let mut db = Database::build(small_schema()).expect("db");
        let mut store = Store::open(scratch.path(), config).expect("open");
        store.attach(&mut db);
        for _ in 0..1 + rng.below(6) {
            let rounds = 1 + rng.below(6);
            mutate(&mut db, rounds, rng.next());
            let n = rng.below(3);
            golden_commits(&mut db, &mut rng, n);
            store.checkpoint(&mut db).expect("checkpoint");
            if rng.below(3) == 0 {
                store.compact().expect("compact");
            }
        }
        // Journaled commits newer than the image, made right after the
        // checkpoint when no region write comes first.
        let rounds = rng.below(3);
        mutate(&mut db, rounds, rng.next());
        let n = rng.below(4);
        golden_commits(&mut db, &mut rng, n);
        store.sync(&mut db).expect("sync");

        assert_parity(&store, &mut rng, db.golden(), true);
        store.compact().expect("compact");
        assert_parity(&store, &mut rng, db.golden(), true);
        drop(store);
        let reopened = Store::open(scratch.path(), config).expect("reopen");
        assert_parity(&reopened, &mut rng, db.golden(), false);
    }
}

/// Flips the content byte of golden offset `at` in the newest file that
/// holds its leaf: the newest delta carrying the leaf, else the full
/// base.
fn flip_newest_copy(store: &Store, region_len: usize, at: usize) {
    let key = store.config().key;
    let leaf = (region_len + at) / LEAF_BLOCK_SIZE;
    let in_leaf = (region_len + at) % LEAF_BLOCK_SIZE;
    for entry in store.chain().iter().rev() {
        let mut bytes = std::fs::read(&entry.path).unwrap();
        let pos = match decode_delta_checkpoint(&bytes, &key) {
            Ok(delta) => match delta.blocks.iter().position(|(i, _)| *i as usize == leaf) {
                Some(rank) => DELTA_BLOCKS_AT + rank * (4 + LEAF_BLOCK_SIZE) + 4 + in_leaf,
                None => continue,
            },
            Err(_) => FULL_CONTENT_AT + leaf * LEAF_BLOCK_SIZE + in_leaf,
        };
        bytes[pos] ^= 0x10;
        std::fs::write(&entry.path, bytes).unwrap();
        return;
    }
    panic!("no checkpoint holds golden offset {at}");
}

/// Full image, two deltas carrying golden commits at `at` and `other`,
/// then a journaled commit elsewhere; optionally compacted.
fn tamper_store(scratch: &ScratchDir, at: usize, other: usize, compact: bool) -> (Store, Database) {
    let config = StoreConfig { full_every: 3, ..StoreConfig::default() };
    let mut db = Database::build(small_schema()).expect("db");
    let mut store = Store::open(scratch.path(), config).expect("open");
    store.attach(&mut db);
    store.checkpoint(&mut db).expect("full");
    for (salt, offset) in [(1, at), (2, other)] {
        mutate(&mut db, 2, salt);
        let byte = db.golden()[offset] ^ 0x5A;
        db.restore_golden_range(offset, &[byte, byte, byte, byte]).expect("golden commit");
        store.checkpoint(&mut db).expect("delta");
    }
    if compact {
        store.compact().expect("compact");
    }
    mutate(&mut db, 1, 3);
    let byte = db.golden()[0] ^ 0x33;
    db.restore_golden_range(0, &[byte]).expect("journaled commit");
    store.sync(&mut db).expect("sync");
    (store, db)
}

#[test]
fn a_tampered_leaf_in_range_is_served_as_the_whole_image_fallback_serves_it() {
    for compact in [false, true] {
        let scratch = ScratchDir::new("golden-tamper-in");
        let probe = Database::build(small_schema()).expect("db");
        let (at, other) = (probe.region_len() / 2, probe.region_len() - 40);
        let (store, db) = tamper_store(&scratch, at, other, compact);
        let range = at..at + 4;
        let truth = db.golden()[range.clone()].to_vec();
        flip_newest_copy(&store, db.region_len(), at);

        let fallback = store.durable_golden_image().expect("fold");
        let handle = store.durable_golden_detail().expect("golden read").expect("warm lineage");
        let served = handle.golden.read_golden(range.clone());
        match (&served, &fallback) {
            (Some(got), Some(image)) => assert_eq!(**got, image.golden[range.clone()]),
            (None, None) => {}
            _ => panic!("compact {compact}: served {served:?}, fallback {:?}", fallback.is_some()),
        }
        if compact {
            // The older images predate the compaction horizon: nothing
            // is served, rather than stale bytes.
            assert!(fallback.is_none() && served.is_none(), "compacted: refuse");
        } else {
            // The full base, carried forward by the journal, still
            // reproduces the committed bytes without the tampered copy.
            assert_eq!(served.as_deref(), Some(&truth[..]));
        }
    }
}

#[test]
fn a_tampered_leaf_outside_the_range_leaves_the_read_alone() {
    let scratch = ScratchDir::new("golden-tamper-out");
    let probe = Database::build(small_schema()).expect("db");
    let (at, other) = (probe.region_len() / 2, probe.region_len() - 40);
    let (store, db) = tamper_store(&scratch, at, other, true);
    flip_newest_copy(&store, db.region_len(), other);

    let range = at..at + 4;
    let handle = store.durable_golden_detail().expect("golden read").expect("warm lineage");
    let served = handle.golden.read_golden(range.clone()).expect("the covering leaves prove");
    assert_eq!(*served, db.golden()[range.clone()]);
    assert_eq!(
        handle.golden.bytes_read(),
        (covering_leaves(db.region_len(), &range) * LEAF_BLOCK_SIZE) as u64,
        "only the covering leaves were read, and no fallback fold ran"
    );
    // The same range over the tampered leaf is refused: the leaves a
    // read serves are proof-checked, not trusted.
    let tampered = other..other + 4;
    assert!(handle.golden.read_golden(tampered).is_none(), "compacted: no older image");
}

#[test]
fn record_reads_touch_at_most_two_leaves_each() {
    let scratch = ScratchDir::new("golden-work");
    let config = StoreConfig { full_every: 8, ..StoreConfig::default() };
    let mut db = Database::build(schema::standard_schema_with_slots(32_768)).expect("db");
    let mut store = Store::open(scratch.path(), config).expect("open");
    store.attach(&mut db);
    store.checkpoint(&mut db).expect("full");

    let table = schema::CONNECTION_TABLE;
    let size = db.record_size(table).expect("record size");
    let records: Vec<usize> = (0..16u32)
        .map(|i| db.record_offset(RecordRef::new(table, i * 2_039)).expect("record"))
        .collect();
    // Three deltas, each carrying golden commits into some of the
    // records, so their newest leaves live in different files.
    for round in 0..3 {
        for &offset in records.iter().skip(round).step_by(3) {
            let bytes: Vec<u8> = db.golden()[offset..offset + size].iter().map(|b| !b).collect();
            db.restore_golden_range(offset, &bytes).expect("golden commit");
        }
        mutate_standard(&mut db);
        store.checkpoint(&mut db).expect("delta");
    }

    let unread = store.durable_golden_detail().expect("golden read").expect("image");
    assert_eq!(unread.golden.bytes_read(), 0, "a handle nobody reads reads nothing");

    let handle = store.durable_golden_detail().expect("golden read").expect("image");
    for &offset in &records {
        let served = handle.golden.read_golden(offset..offset + size).expect("served");
        assert_eq!(*served, db.golden()[offset..offset + size]);
    }
    let bound = (records.len() * 2 * LEAF_BLOCK_SIZE) as u64;
    assert!(
        handle.golden.bytes_read() <= bound,
        "{} record reads read {} bytes (bound {bound})",
        records.len(),
        handle.golden.bytes_read()
    );
}

/// A checkpoint older than the compaction horizon lacks the reclaimed
/// golden commits: it must not be served as the durable golden.
#[test]
fn an_image_older_than_the_compaction_horizon_is_never_served() {
    let scratch = ScratchDir::new("golden-horizon");
    let config = StoreConfig::default();
    let mut db = Database::build(schema::standard_schema()).expect("db");
    let mut store = Store::open(scratch.path(), config).expect("open");
    store.attach(&mut db);
    store.checkpoint(&mut db).expect("first");
    let stale = db.golden()[64];
    mutate_standard(&mut db);
    db.restore_golden_range(64, &[0x58]).expect("golden commit");
    assert_ne!(stale, 0x58);
    store.checkpoint(&mut db).expect("second");
    store.compact().expect("compact");
    assert_eq!(store.chain().len(), 2);
    let newest = &store.chain()[1].path;
    let mut bytes = std::fs::read(newest).unwrap();
    bytes[FULL_CONTENT_AT + db.region_len() + 64] ^= 0x01;
    std::fs::write(newest, bytes).unwrap();

    // The warm handle refuses the tampered leaf, and the fallback has
    // no image at or past the horizon.
    let warm = store.durable_golden_detail().expect("golden read").expect("warm lineage");
    assert!(warm.golden.read_golden(64..65).is_none());
    assert!(store.durable_golden_image().expect("fold").is_none());
    // A reopened store has no warm tree and folds at the call.
    drop(store);
    let store = Store::open(scratch.path(), config).expect("reopen");
    assert!(store.durable_golden_detail().expect("golden read").is_none());
    // The storage audit reports the gap instead of comparing against
    // (and offering to repair from) the stale image.
    let audit = store.storage_audit(&db).expect("storage audit");
    let kinds: Vec<_> = audit.findings.iter().map(|f| f.kind).collect();
    assert_eq!(kinds, [StoreFindingKind::CompactionGap]);
    assert!(audit.repair_source.is_none());
}

fn mutate_standard(db: &mut Database) {
    let table = schema::CONNECTION_TABLE;
    let idx = db.alloc_record_raw(table).expect("alloc");
    db.write_field_raw(RecordRef::new(table, idx), wtnc_db::FieldId(1), 7).expect("write");
}
