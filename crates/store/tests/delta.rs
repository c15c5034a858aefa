//! End-to-end tests for the incremental checkpoint engine: delta
//! checkpoints (dirty blocks + Merkle path updates against a full base
//! image), fold-based recovery, and journal compaction.

use proptest::prelude::*;
use wtnc_db::{Database, FieldDef, FieldWidth, GoldenBlocks, TableDef, TableNature};
use wtnc_store::{
    decode_checkpoint, decode_delta_checkpoint, encode_checkpoint, encode_delta_checkpoint,
    parse_checkpoint_file_name, parse_delta_file_name, verify_proof, CheckpointKind, MerkleTree,
    ScratchDir, SplitContent, Store, StoreConfig, StoreFindingKind, JOURNAL_FILE, LEAF_BLOCK_SIZE,
};

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

fn delta_config() -> StoreConfig {
    StoreConfig { full_every: 3, ..StoreConfig::default() }
}

fn mutate(db: &mut Database, rounds: usize, salt: u64) {
    let conn = wtnc_db::TableId(1);
    for i in 0..rounds {
        let idx = db.alloc_record_raw(conn).expect("alloc");
        let rec = wtnc_db::RecordRef::new(conn, idx);
        db.write_field_raw(rec, wtnc_db::FieldId(0), (salt * 31 + i as u64) % 99_999)
            .expect("write");
        if i % 3 == 2 {
            db.free_record_raw(rec).expect("free");
        }
    }
}

fn files(dir: &std::path::Path) -> (Vec<std::path::PathBuf>, Vec<std::path::PathBuf>) {
    let mut fulls = Vec::new();
    let mut deltas = Vec::new();
    for e in std::fs::read_dir(dir).unwrap() {
        let p = e.unwrap().path();
        let Some(name) = p.file_name().and_then(|n| n.to_str()) else { continue };
        if parse_checkpoint_file_name(name).is_some() {
            fulls.push(p);
        } else if parse_delta_file_name(name).is_some() {
            deltas.push(p);
        }
    }
    fulls.sort();
    deltas.sort();
    (fulls, deltas)
}

fn kinds(findings: &[wtnc_store::StoreFinding]) -> Vec<StoreFindingKind> {
    findings.iter().map(|f| f.kind).collect()
}

/// Builds a full+delta history: 6 checkpoints under `full_every = 3`
/// (full, delta, delta, full, delta, delta) plus a journaled tail.
/// Returns the final `(region, golden)` reference.
fn build_delta_history(dir: &std::path::Path) -> (Vec<u8>, Vec<u8>) {
    let mut db = db();
    let mut store = Store::open(dir, delta_config()).expect("open");
    store.attach(&mut db);
    for c in 0..6 {
        mutate(&mut db, 4, c as u64 + 1);
        store.checkpoint(&mut db).expect("checkpoint");
    }
    mutate(&mut db, 3, 99);
    store.sync(&mut db).expect("sync");
    let stats = store.stats();
    assert_eq!(stats.full_checkpoints, 2, "every 3rd checkpoint is full");
    assert_eq!(stats.delta_checkpoints, 4);
    (db.region().to_vec(), db.golden().to_vec())
}

#[test]
fn delta_chains_recover_the_exact_image() {
    let scratch = ScratchDir::new("delta-recover");
    let (region, golden) = build_delta_history(scratch.path());
    let (fulls, deltas) = files(scratch.path());
    assert_eq!(fulls.len(), 2);
    assert_eq!(deltas.len(), 4);

    let mut db2 = db();
    let mut store = Store::open(scratch.path(), delta_config()).expect("reopen");
    assert!(store.open_findings().is_empty(), "clean history: {:?}", store.open_findings());
    assert_eq!(
        store.chain().iter().filter(|e| e.kind == CheckpointKind::Delta).count(),
        4,
        "deltas join the verified chain"
    );
    let info = store.recover_into(&mut db2).expect("recover");
    assert!(info.base_gen > 0);
    assert!(info.replayed > 0, "journal tail replayed on top of the fold");
    assert!(info.findings.is_empty(), "{:?}", info.findings);
    assert_eq!(db2.region(), &region[..]);
    assert_eq!(db2.golden(), &golden[..]);
}

#[test]
fn delta_files_scale_with_dirty_not_image() {
    let scratch = ScratchDir::new("delta-size");
    build_delta_history(scratch.path());
    let (fulls, deltas) = files(scratch.path());
    let full_size = std::fs::metadata(&fulls[0]).unwrap().len();
    for d in &deltas {
        let delta_size = std::fs::metadata(d).unwrap().len();
        assert!(
            delta_size * 2 < full_size,
            "a 4-record delta should be far smaller than the {full_size}-byte image \
             (got {delta_size})"
        );
    }
}

/// Work gate on delta checkpoint bytes: for the fixed image of
/// `schema()` and k dirty leaves, the `.delta` file is exactly the
/// committed length. A delta holds its header, the k leaves and the
/// Merkle nodes on their paths, each with a keyed code; a change that
/// writes more bytes per dirty leaf (or dirties leaves it did not
/// touch) fails here rather than only in a wall-time ratio.
#[test]
fn delta_bytes_for_k_dirty_leaves_are_pinned() {
    /// `(k, .delta bytes)`.
    const BASELINE: [(usize, u64); 4] = [(1, 416), (2, 692), (3, 984), (4, 1260)];
    let conn = wtnc_db::TableId(1);
    let caller = wtnc_db::FieldId(0);
    for (k, want) in BASELINE {
        let scratch = ScratchDir::new(&format!("delta-bytes-{k}"));
        let mut db = db();
        let record_count = db.catalog().table(conn).unwrap().def.record_count;
        for _ in 0..record_count {
            db.alloc_record_raw(conn).expect("alloc");
        }
        let mut store = Store::open(scratch.path(), delta_config()).expect("open");
        store.attach(&mut db);
        store.checkpoint(&mut db).expect("full base");

        // One field write inside each of k distinct leaves.
        let mut leaves = Vec::new();
        for index in 0..record_count {
            let rec = wtnc_db::RecordRef::new(conn, index);
            let (offset, len) = db.field_extent(rec, caller).unwrap();
            let leaf = offset / LEAF_BLOCK_SIZE;
            if leaves.len() < k
                && !leaves.contains(&leaf)
                && (offset + len - 1) / LEAF_BLOCK_SIZE == leaf
            {
                db.write_field_raw(rec, caller, 7).expect("write");
                leaves.push(leaf);
            }
        }
        assert_eq!(leaves.len(), k, "the image has {k} leaves with a caller field");
        store.checkpoint(&mut db).expect("delta");

        let (_, deltas) = files(scratch.path());
        assert_eq!(deltas.len(), 1);
        let bytes = std::fs::read(&deltas[0]).unwrap();
        let delta = decode_delta_checkpoint(&bytes, &delta_config().key).expect("delta decodes");
        let written: Vec<usize> = delta.blocks.iter().map(|(i, _)| *i as usize).collect();
        assert_eq!(written, leaves, "exactly the {k} written leaves");
        assert_eq!(bytes.len() as u64, want, "{k} dirty leaves");
    }
}

#[test]
fn torn_newest_delta_falls_back_and_the_journal_carries_forward() {
    let scratch = ScratchDir::new("delta-torn");
    let (region, _) = build_delta_history(scratch.path());
    let (_, deltas) = files(scratch.path());
    let newest = deltas.last().unwrap();
    let bytes = std::fs::read(newest).unwrap();
    std::fs::write(newest, &bytes[..bytes.len() / 2]).unwrap();

    let mut db2 = db();
    let mut store = Store::open(scratch.path(), delta_config()).expect("reopen");
    let info = store.recover_into(&mut db2).expect("recover");
    let ks = kinds(&info.findings);
    assert!(ks.contains(&StoreFindingKind::TornCheckpoint), "{ks:?}");
    assert!(ks.contains(&StoreFindingKind::StaleCheckpointRecovered), "{ks:?}");
    assert_eq!(db2.region(), &region[..], "journal replay reaches the exact image anyway");
}

#[test]
fn missing_middle_delta_is_detected_by_the_folded_root() {
    let scratch = ScratchDir::new("delta-missing-middle");
    let (region, _) = build_delta_history(scratch.path());
    let (_, deltas) = files(scratch.path());
    // Remove the first delta of the *second* lineage (deltas are
    // sorted by generation; index 2 is the first delta after the
    // second full image). The newest delta's fold now lacks its
    // sibling's blocks.
    std::fs::remove_file(&deltas[2]).unwrap();

    let mut db2 = db();
    let mut store = Store::open(scratch.path(), delta_config()).expect("reopen");
    let info = store.recover_into(&mut db2).expect("recover");
    let ks = kinds(&info.findings);
    // The open-time scan sees the chain gap, and the fold of the
    // surviving newest delta recomputes to a root that does not match
    // the sealed one.
    assert!(ks.contains(&StoreFindingKind::ChainBreak), "{ks:?}");
    assert!(ks.contains(&StoreFindingKind::BlockMacMismatch), "the fold's own finding: {ks:?}");
    assert!(ks.contains(&StoreFindingKind::StaleCheckpointRecovered), "{ks:?}");
    assert_eq!(db2.region(), &region[..], "journal replay still reaches the exact image");

    // The durable golden falls back to the lineage's full image rather
    // than serving the newest delta's unverifiable fold.
    let newest_full = store.chain().iter().rev().find(|e| e.kind == CheckpointKind::Full);
    let newest_delta = store.chain().last().expect("chained delta");
    assert_eq!(newest_delta.kind, CheckpointKind::Delta);
    let durable = store.durable_golden_detail().expect("read").expect("an image survives");
    assert_eq!(durable.base_gen, newest_full.expect("full image").gen);
    assert_ne!(durable.base_gen, newest_delta.gen);
    let golden = durable.golden.read_golden(0..durable.golden.golden_len()).expect("served");
    assert_eq!(*golden, *db2.golden(), "the journal carries the older image forward");
}

#[test]
fn attested_golden_blocks_prove_against_the_sealed_root() {
    let scratch = ScratchDir::new("delta-attested");
    let config = delta_config();
    let bs = LEAF_BLOCK_SIZE;
    let mut db = db();
    let mut store = Store::open(scratch.path(), config).expect("open");
    store.attach(&mut db);
    // Full, delta, delta — the deltas carry golden blocks too.
    for c in 0..3u8 {
        mutate(&mut db, 4, u64::from(c) + 1);
        if c > 0 {
            let at = db.golden().len() / 3 * usize::from(c);
            let byte = db.golden()[at] ^ 0x3C;
            db.restore_golden_range(at, &[byte]).expect("golden commit");
        }
        store.checkpoint(&mut db).expect("checkpoint");
    }
    let (region_ckpt, golden_ckpt) = (db.region().to_vec(), db.golden().to_vec());
    // Journaled golden commits after the newest delta (a golden commit
    // shares the generation of the mutation before it, so advance it).
    mutate(&mut db, 1, 9);
    let overlays = [1, golden_ckpt.len() / 2, golden_ckpt.len() - 3];
    for &at in &overlays {
        let byte = db.golden()[at] ^ 0x5A;
        db.restore_golden_range(at, &[byte]).expect("golden commit");
    }
    store.sync(&mut db).expect("sync");

    let (fulls, deltas) = files(scratch.path());
    assert_eq!((fulls.len(), deltas.len()), (1, 2));
    let base_gen = store.chain()[0].gen;
    let newest = std::fs::read(deltas.last().unwrap()).unwrap();
    let newest = decode_delta_checkpoint(&newest, &config.key).expect("newest delta");
    let sealed_root = newest.nodes.iter().max_by_key(|u| u.level).expect("root node").mac;
    let tree = MerkleTree::build(&config.key, &region_ckpt, &golden_ckpt, base_gen, bs);
    assert_eq!(tree.root(), sealed_root, "the newest delta seals the checkpointed content");

    let durable = store.durable_golden_detail().expect("read").expect("image");
    assert_eq!(durable.base_gen, newest.meta.gen);
    let golden = durable.golden.read_golden(0..durable.golden.golden_len()).expect("served");
    assert_eq!(*golden, *db.golden(), "journal overlay applied");
    let content = SplitContent::new(&region_ckpt, &golden_ckpt);
    let r = region_ckpt.len();
    let mut scratch_block = Vec::new();
    let mut proved = 0;
    for (b, &attested) in durable.attested.iter().enumerate() {
        if overlays.iter().any(|&at| at / bs == b) {
            assert!(!attested, "journal-overlaid block {b} must not read as attested");
            continue;
        }
        assert!(attested, "block {b} is checkpoint-pure");
        let (start, end) = (b * bs, ((b + 1) * bs).min(golden_ckpt.len()));
        assert_eq!(golden[start..end], golden_ckpt[start..end]);
        for leaf in (r + start) / bs..=(r + end - 1) / bs {
            let block = content.block(leaf, bs, &mut scratch_block);
            let proof = tree.proof(leaf).expect("leaf in range");
            assert!(
                verify_proof(
                    &config.key,
                    base_gen,
                    tree.leaf_count(),
                    leaf,
                    block,
                    &proof,
                    sealed_root
                ),
                "golden block {b} (leaf {leaf}) fails its proof"
            );
        }
        proved += 1;
    }
    assert!(proved > 0 && proved + overlays.len() == durable.attested.len());
}

#[test]
fn delta_damage_kinds_are_distinct_under_verify() {
    let scratch = ScratchDir::new("delta-verify-kinds");
    build_delta_history(scratch.path());
    let (_, deltas) = files(scratch.path());

    // Tamper a dirty block's bytes (past the 56-byte meta + 4-byte
    // index): the leaf MAC catches it.
    let pristine = std::fs::read(&deltas[0]).unwrap();
    let mut bytes = pristine.clone();
    bytes[12 + 56 + 4 + 10] ^= 0x01;
    std::fs::write(&deltas[0], &bytes).unwrap();
    let findings = Store::verify(scratch.path(), &delta_config()).unwrap();
    assert!(kinds(&findings).contains(&StoreFindingKind::BlockMacMismatch));

    // Tamper a node entry near the tail: the sealed digest catches it.
    let mut bytes = pristine.clone();
    let len = bytes.len();
    bytes[len - 12] ^= 0x01;
    std::fs::write(&deltas[0], &bytes).unwrap();
    let findings = Store::verify(scratch.path(), &delta_config()).unwrap();
    assert!(kinds(&findings).contains(&StoreFindingKind::CheckpointDigestMismatch));

    std::fs::write(&deltas[0], &pristine).unwrap();
    assert!(Store::verify(scratch.path(), &delta_config()).unwrap().is_empty());
}

#[test]
fn compaction_reclaims_the_journal_and_recovery_stays_exact() {
    let scratch = ScratchDir::new("compact-exact");
    let (region, expect_replay) = {
        let mut db = db();
        let mut store = Store::open(scratch.path(), delta_config()).expect("open");
        store.attach(&mut db);
        mutate(&mut db, 8, 1);
        store.checkpoint(&mut db).expect("checkpoint");
        mutate(&mut db, 8, 2);
        store.checkpoint(&mut db).expect("checkpoint");
        let before = store.journal_bytes();
        let reclaimed = store.compact().expect("compact");
        assert!(reclaimed > 0, "records at or below the horizon are reclaimed");
        assert!(store.journal_bytes() < before);
        assert_eq!(store.stats().compactions, 1);
        assert_eq!(store.stats().reclaimed_bytes, reclaimed);
        // Post-compaction appends land in the rotated journal.
        mutate(&mut db, 3, 3);
        store.sync(&mut db).expect("sync");
        (db.region().to_vec(), store.journal_records())
    };
    assert!(expect_replay > 0);

    let mut db2 = db();
    let mut store = Store::open(scratch.path(), delta_config()).expect("reopen");
    assert!(store.compacted_through() > 0, "the marker survives reopen");
    let info = store.recover_into(&mut db2).expect("recover");
    assert!(info.findings.is_empty(), "{:?}", info.findings);
    assert!(info.replayed > 0, "the retained suffix replays normally");
    assert_eq!(db2.region(), &region[..]);
}

#[test]
fn compacting_twice_without_new_state_is_a_noop() {
    let scratch = ScratchDir::new("compact-noop");
    let mut db = db();
    let mut store = Store::open(scratch.path(), delta_config()).expect("open");
    store.attach(&mut db);
    mutate(&mut db, 4, 1);
    store.checkpoint(&mut db).expect("checkpoint");
    assert!(store.compact().expect("compact") > 0);
    assert_eq!(store.compact().expect("compact again"), 0);
    assert_eq!(store.stats().compactions, 1);
}

#[test]
fn recovery_past_the_compaction_horizon_reports_the_gap() {
    let scratch = ScratchDir::new("compact-gap");
    let base_region = {
        let mut db = db();
        let mut store = Store::open(scratch.path(), StoreConfig::default()).expect("open");
        store.attach(&mut db);
        mutate(&mut db, 4, 1);
        store.checkpoint(&mut db).expect("checkpoint 1");
        let base_region = db.region().to_vec();
        mutate(&mut db, 4, 2);
        store.checkpoint(&mut db).expect("checkpoint 2");
        store.compact().expect("compact");
        base_region
    };
    // Newest checkpoint torn: recovery must fall back to checkpoint 1,
    // which is *behind* the compaction horizon — the retained journal
    // suffix is disjoint and must not be replayed onto it.
    let (fulls, _) = files(scratch.path());
    let newest = fulls.last().unwrap();
    let bytes = std::fs::read(newest).unwrap();
    std::fs::write(newest, &bytes[..bytes.len() / 3]).unwrap();

    let mut db2 = db();
    let mut store = Store::open(scratch.path(), StoreConfig::default()).expect("reopen");
    let info = store.recover_into(&mut db2).expect("recover");
    let ks = kinds(&info.findings);
    assert!(ks.contains(&StoreFindingKind::TornCheckpoint), "{ks:?}");
    assert!(ks.contains(&StoreFindingKind::CompactionGap), "{ks:?}");
    assert_eq!(info.replayed, 0, "the disjoint suffix is not replayed");
    assert_eq!(db2.region(), &base_region[..], "honest stop at the base image");
}

#[test]
fn reopen_recovery_rewarms_the_lineage_and_keeps_the_cadence() {
    let scratch = ScratchDir::new("delta-rewarm");
    build_delta_history(scratch.path());
    let (fulls, deltas) = files(scratch.path());
    assert_eq!((fulls.len(), deltas.len()), (2, 4));

    // The on-disk history ends full, delta, delta: the recovered
    // lineage already holds 2 deltas, so under `full_every = 3` the
    // next checkpoint is periodically due as a full image...
    let mut db2 = db();
    let mut store = Store::open(scratch.path(), delta_config()).expect("reopen");
    store.recover_into(&mut db2).expect("recover");
    store.attach(&mut db2);
    mutate(&mut db2, 2, 7);
    store.checkpoint(&mut db2).expect("checkpoint");
    assert_eq!(store.stats().full_checkpoints, 1, "the cadence survives the reopen");
    let (fulls, _) = files(scratch.path());
    assert_eq!(fulls.len(), 3);

    // ...and the fresh lineage rides deltas again.
    mutate(&mut db2, 2, 8);
    store.checkpoint(&mut db2).expect("checkpoint");
    assert_eq!(store.stats().delta_checkpoints, 1);
}

#[test]
fn torn_link_excluded_at_open_still_leaves_a_writable_lineage() {
    let scratch = ScratchDir::new("delta-torn-link");
    build_delta_history(scratch.path());
    let (_, deltas) = files(scratch.path());
    // Tear the newest delta before reopening: the scan drops it from
    // the chain, recovery folds the surviving prefix of the lineage,
    // and new deltas may keep riding on it — each delta re-covers its
    // own dirty set, so the torn sibling orphans nothing.
    let newest = deltas.last().unwrap();
    let bytes = std::fs::read(newest).unwrap();
    std::fs::write(newest, &bytes[..bytes.len() / 2]).unwrap();

    let mut db2 = db();
    let mut store = Store::open(scratch.path(), delta_config()).expect("reopen");
    store.recover_into(&mut db2).expect("recover");
    store.attach(&mut db2);
    mutate(&mut db2, 2, 7);
    store.checkpoint(&mut db2).expect("checkpoint");
    assert_eq!(store.stats().delta_checkpoints, 1, "the surviving lineage stays writable");

    // A third reopen must recover that post-damage delta exactly.
    let reference = db2.region().to_vec();
    let mut db3 = db();
    let mut store = Store::open(scratch.path(), delta_config()).expect("re-reopen");
    let info = store.recover_into(&mut db3).expect("recover");
    assert_eq!(db3.region(), &reference[..]);
    assert!(kinds(&info.findings).contains(&StoreFindingKind::TornCheckpoint));
}

#[test]
fn mid_recovery_fallback_does_not_rewarm_the_lineage() {
    let scratch = ScratchDir::new("delta-no-rewarm");
    build_delta_history(scratch.path());
    let (_, deltas) = files(scratch.path());

    // Open first (the chain still lists the newest delta), then tear
    // it on disk: fold_candidate fails mid-recovery and falls back.
    // The session must NOT keep writing deltas against a lineage whose
    // newest chained link just proved unreadable.
    let mut store = Store::open(scratch.path(), delta_config()).expect("reopen");
    let newest = deltas.last().unwrap();
    let bytes = std::fs::read(newest).unwrap();
    std::fs::write(newest, &bytes[..bytes.len() / 2]).unwrap();

    let mut db2 = db();
    let info = store.recover_into(&mut db2).expect("recover");
    assert!(kinds(&info.findings).contains(&StoreFindingKind::StaleCheckpointRecovered));
    store.attach(&mut db2);
    mutate(&mut db2, 2, 7);
    store.checkpoint(&mut db2).expect("checkpoint");
    assert_eq!(store.stats().full_checkpoints, 1, "fallback restarts with a full image");
    assert_eq!(store.stats().delta_checkpoints, 0);
}

#[test]
fn zero_dirty_delta_still_links_the_chain() {
    let scratch = ScratchDir::new("delta-zero-dirty");
    let mut db = db();
    let mut store = Store::open(scratch.path(), delta_config()).expect("open");
    store.attach(&mut db);
    mutate(&mut db, 4, 1);
    store.checkpoint(&mut db).expect("full");
    // A re-checkpoint at the same generation rewrites in place (full),
    // rather than writing a delta that would orphan its own base.
    store.checkpoint(&mut db).expect("same-gen recheckpoint");
    assert_eq!(store.stats().full_checkpoints, 2);
    let (fulls, deltas) = files(scratch.path());
    assert_eq!((fulls.len(), deltas.len()), (1, 0));

    mutate(&mut db, 2, 2);
    store.checkpoint(&mut db).expect("delta");
    assert_eq!(store.stats().delta_checkpoints, 1);
    assert!(Store::verify(scratch.path(), &delta_config()).unwrap().is_empty());
}

#[test]
fn crashed_compaction_tmp_file_is_swept_at_open() {
    let scratch = ScratchDir::new("compact-tmp-sweep");
    let mut db = db();
    {
        let mut store = Store::open(scratch.path(), StoreConfig::default()).expect("open");
        store.attach(&mut db);
        mutate(&mut db, 4, 1);
        store.checkpoint(&mut db).expect("checkpoint");
    }
    // Simulate a crash mid-rotation: a stray tmp next to a live journal.
    std::fs::write(scratch.path().join("journal.wal.tmp"), b"half-written garbage").unwrap();
    let store = Store::open(scratch.path(), StoreConfig::default()).expect("reopen");
    assert!(!scratch.path().join("journal.wal.tmp").exists());
    assert!(store.open_findings().is_empty());
    assert!(scratch.path().join(JOURNAL_FILE).exists());
}

const PROP_KEY: [u8; 16] = *b"delta-fold-key-0";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Folding a delta lineage by path-updating the base's verified
    /// tree over the union of dirty leaves yields the root of a full
    /// rebuild over the folded content — and that root is the one the
    /// newest delta sealed.
    #[test]
    fn path_update_fold_equals_a_rebuild(
        region_len in 1usize..1500,
        golden_len in 0usize..1500,
        block_size in prop_oneof![Just(16usize), Just(64usize), Just(100usize)],
        writes in proptest::collection::vec(
            proptest::collection::vec((0.0f64..1.0, 1u8..=255), 0..12),
            1..6,
        ),
    ) {
        let base_gen = 7u64;
        let mut region: Vec<u8> = (0..region_len).map(|i| (i % 251) as u8).collect();
        let mut golden: Vec<u8> = (0..golden_len).map(|i| (i % 127) as u8).collect();
        let full = encode_checkpoint(&region, &golden, base_gen, 0, block_size, &PROP_KEY);
        let mut writer = MerkleTree::build(&PROP_KEY, &region, &golden, base_gen, block_size);
        let mut files = Vec::new();
        for (d, delta_writes) in writes.iter().enumerate() {
            let mut dirty = Vec::new();
            for &(frac, flip) in delta_writes {
                let at = ((region_len + golden_len - 1) as f64 * frac) as usize;
                if at < region_len {
                    region[at] ^= flip;
                } else {
                    golden[at - region_len] ^= flip;
                }
                dirty.push(at / block_size);
            }
            let updates = writer.update_blocks(&region, &golden, &dirty);
            files.push(encode_delta_checkpoint(
                &region, &golden, base_gen + 1 + d as u64, 0, base_gen, block_size, &dirty,
                &updates, &PROP_KEY,
            ));
        }

        let base = decode_checkpoint(&full, &PROP_KEY).expect("full image");
        let (mut r, mut g, mut tree) = (base.region, base.golden, base.tree);
        let mut dirty = Vec::new();
        for bytes in &files {
            let delta = decode_delta_checkpoint(bytes, &PROP_KEY).expect("delta");
            delta.apply_blocks(&mut r, &mut g);
            dirty.extend(delta.blocks.iter().map(|(i, _)| *i as usize));
        }
        dirty.sort_unstable();
        dirty.dedup();
        tree.update_blocks(&r, &g, &dirty);
        prop_assert_eq!(&r, &region);
        prop_assert_eq!(&g, &golden);
        let rebuilt = MerkleTree::build(&PROP_KEY, &r, &g, base_gen, block_size);
        prop_assert_eq!(tree.root(), rebuilt.root());
        prop_assert_eq!(tree.root(), writer.root());
    }
}
