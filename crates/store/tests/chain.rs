//! End-to-end store tests: checkpoint/recover round trips, and the
//! hash-chain tamper matrix — every way of damaging the golden-image
//! history must surface as a *distinct* finding kind under
//! `Store::verify`.

use wtnc_db::{Database, FieldDef, FieldWidth, TableDef, TableNature};
use wtnc_store::{ScratchDir, Store, StoreConfig, StoreFindingKind, JOURNAL_FILE};

fn schema() -> Vec<TableDef> {
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

fn db() -> Database {
    Database::build(schema()).expect("build db")
}

/// Mutates `db` deterministically through the raw record paths and
/// returns the number of mutations applied.
fn mutate(db: &mut Database, rounds: usize, salt: u64) -> usize {
    let conn = wtnc_db::TableId(1);
    let mut n = 0;
    for i in 0..rounds {
        let idx = db.alloc_record_raw(conn).expect("alloc");
        let rec = wtnc_db::RecordRef::new(conn, idx);
        db.write_field_raw(rec, wtnc_db::FieldId(0), (salt * 31 + i as u64) % 99_999)
            .expect("write");
        n += 2;
        if i % 3 == 2 {
            db.free_record_raw(rec).expect("free");
            n += 1;
        }
    }
    n
}

/// Builds a store with `checkpoints` checkpoints and interleaved
/// journaled mutations, returning the region bytes at the end.
fn build_history(dir: &std::path::Path, checkpoints: usize) -> Vec<u8> {
    let mut db = db();
    let mut store = Store::open(dir, StoreConfig::default()).expect("open");
    store.attach(&mut db);
    for c in 0..checkpoints {
        mutate(&mut db, 4, c as u64 + 1);
        store.checkpoint(&mut db).expect("checkpoint");
    }
    mutate(&mut db, 3, 99);
    store.sync(&mut db).expect("sync");
    db.region().to_vec()
}

fn kinds(findings: &[wtnc_store::StoreFinding]) -> Vec<StoreFindingKind> {
    findings.iter().map(|f| f.kind).collect()
}

#[test]
fn warm_recovery_reproduces_the_exact_image() {
    let scratch = ScratchDir::new("recover-exact");
    let expect = build_history(scratch.path(), 3);

    let mut db2 = db();
    let mut store = Store::open(scratch.path(), StoreConfig::default()).expect("reopen");
    assert!(store.has_state());
    assert!(store.open_findings().is_empty(), "clean history: {:?}", store.open_findings());
    let info = store.recover_into(&mut db2).expect("recover");
    assert!(info.base_gen > 0, "recovered from a checkpoint");
    assert!(info.replayed > 0, "journal tail replayed");
    assert!(info.findings.is_empty());
    assert_eq!(db2.region(), &expect[..]);
}

#[test]
fn journal_only_recovery_replays_from_scratch() {
    let scratch = ScratchDir::new("recover-journal-only");
    let expect = {
        let mut db = db();
        let mut store = Store::open(scratch.path(), StoreConfig::default()).expect("open");
        store.attach(&mut db);
        mutate(&mut db, 5, 7);
        store.sync(&mut db).expect("sync");
        db.region().to_vec()
    };

    let mut db2 = db();
    let mut store = Store::open(scratch.path(), StoreConfig::default()).expect("reopen");
    let info = store.recover_into(&mut db2).expect("recover");
    assert_eq!(info.base_gen, 0);
    assert_eq!(db2.region(), &expect[..]);
}

fn ckpt_paths(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut v: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .and_then(wtnc_store::parse_checkpoint_file_name)
                .is_some()
        })
        .collect();
    v.sort();
    v
}

#[test]
fn content_tamper_of_a_historical_image_is_a_block_mac_mismatch() {
    let scratch = ScratchDir::new("tamper-content");
    build_history(scratch.path(), 3);
    let paths = ckpt_paths(scratch.path());
    // Flip a content byte in the *middle* checkpoint, past the header.
    let mut bytes = std::fs::read(&paths[1]).unwrap();
    bytes[12 + 40 + 10] ^= 0x01;
    std::fs::write(&paths[1], &bytes).unwrap();

    let findings = Store::verify(scratch.path(), &StoreConfig::default()).unwrap();
    assert_eq!(kinds(&findings), vec![StoreFindingKind::BlockMacMismatch]);
}

#[test]
fn digest_tamper_is_a_digest_mismatch() {
    let scratch = ScratchDir::new("tamper-digest");
    build_history(scratch.path(), 3);
    let paths = ckpt_paths(scratch.path());
    // Flip a header byte (prev_digest field) of the middle checkpoint.
    let mut bytes = std::fs::read(&paths[1]).unwrap();
    bytes[12 + 8] ^= 0x01;
    std::fs::write(&paths[1], &bytes).unwrap();

    let findings = Store::verify(scratch.path(), &StoreConfig::default()).unwrap();
    assert!(kinds(&findings).contains(&StoreFindingKind::CheckpointDigestMismatch));
}

#[test]
fn truncated_checkpoint_is_torn() {
    let scratch = ScratchDir::new("tamper-torn");
    build_history(scratch.path(), 3);
    let paths = ckpt_paths(scratch.path());
    let bytes = std::fs::read(&paths[2]).unwrap();
    std::fs::write(&paths[2], &bytes[..bytes.len() / 2]).unwrap();

    let findings = Store::verify(scratch.path(), &StoreConfig::default()).unwrap();
    assert!(kinds(&findings).contains(&StoreFindingKind::TornCheckpoint));
}

#[test]
fn deleting_a_middle_checkpoint_breaks_the_chain() {
    let scratch = ScratchDir::new("tamper-delete");
    build_history(scratch.path(), 3);
    let paths = ckpt_paths(scratch.path());
    std::fs::remove_file(&paths[1]).unwrap();

    let findings = Store::verify(scratch.path(), &StoreConfig::default()).unwrap();
    assert_eq!(kinds(&findings), vec![StoreFindingKind::ChainBreak]);
}

#[test]
fn swapping_checkpoint_files_is_reordering() {
    let scratch = ScratchDir::new("tamper-swap");
    build_history(scratch.path(), 3);
    let paths = ckpt_paths(scratch.path());
    let a = std::fs::read(&paths[0]).unwrap();
    let b = std::fs::read(&paths[1]).unwrap();
    std::fs::write(&paths[0], &b).unwrap();
    std::fs::write(&paths[1], &a).unwrap();

    let findings = Store::verify(scratch.path(), &StoreConfig::default()).unwrap();
    assert!(kinds(&findings).contains(&StoreFindingKind::ReorderedCheckpoint));
}

#[test]
fn journal_damage_kinds_are_distinct() {
    let scratch = ScratchDir::new("tamper-journal");
    build_history(scratch.path(), 1);
    let path = scratch.path().join(JOURNAL_FILE);
    let full = std::fs::read(&path).unwrap();

    // Torn tail: cut mid-record.
    std::fs::write(&path, &full[..full.len() - 3]).unwrap();
    let findings = Store::verify(scratch.path(), &StoreConfig::default()).unwrap();
    assert!(kinds(&findings).contains(&StoreFindingKind::JournalTornTail));

    // Bit rot: flip a byte inside the first record's payload.
    let mut rotted = full.clone();
    rotted[10] ^= 0x80;
    std::fs::write(&path, &rotted).unwrap();
    let findings = Store::verify(scratch.path(), &StoreConfig::default()).unwrap();
    assert!(kinds(&findings).contains(&StoreFindingKind::JournalCorruptRecord));
}

#[test]
fn stale_checkpoint_falls_back_and_is_reported() {
    let scratch = ScratchDir::new("tamper-stale");
    let expect = build_history(scratch.path(), 3);
    let paths = ckpt_paths(scratch.path());
    // Corrupt the *newest* checkpoint's content; older ones and the
    // full journal survive.
    let mut bytes = std::fs::read(&paths[2]).unwrap();
    bytes[12 + 40 + 5] ^= 0xFF;
    std::fs::write(&paths[2], &bytes).unwrap();

    let mut db2 = db();
    let mut store = Store::open(scratch.path(), StoreConfig::default()).expect("reopen");
    let info = store.recover_into(&mut db2).expect("recover");
    let ks = kinds(&info.findings);
    assert!(ks.contains(&StoreFindingKind::BlockMacMismatch));
    assert!(ks.contains(&StoreFindingKind::StaleCheckpointRecovered));
    // The journal carries recovery forward to the exact final image.
    assert_eq!(db2.region(), &expect[..]);
}

#[test]
fn storage_audit_detects_golden_divergence() {
    let scratch = ScratchDir::new("audit-divergence");
    let mut db = db();
    let mut store = Store::open(scratch.path(), StoreConfig::default()).expect("open");
    store.attach(&mut db);
    mutate(&mut db, 4, 3);
    store.checkpoint(&mut db).expect("checkpoint");
    let audit = store.storage_audit(&db).expect("audit");
    assert!(audit.findings.is_empty());
    assert!(audit.repair_source.is_none(), "no divergence, no repair source");

    // Diverge the in-memory golden image without telling the store
    // (simulates an unjournaled golden corruption).
    db.set_capture(false);
    let byte = db.golden()[3] ^ 0x10;
    db.restore_golden_range(3, &[byte]).expect("tweak golden");
    let audit = store.storage_audit(&db).expect("audit");
    assert_eq!(audit.findings.len(), 1);
    assert_eq!(audit.findings[0].kind, StoreFindingKind::GoldenDivergence);
    assert_eq!(audit.findings[0].offset, Some(0));
    let source = audit.repair_source.expect("divergence carries its repair source");
    assert_eq!(source.golden[3], byte ^ 0x10, "the source holds the durable byte");
}

#[test]
fn scratch_dirs_clean_up_after_themselves() {
    let path = {
        let scratch = ScratchDir::new("hygiene");
        build_history(scratch.path(), 1);
        scratch.path().to_path_buf()
    };
    assert!(!path.exists(), "scratch dir must be removed on drop");
}
