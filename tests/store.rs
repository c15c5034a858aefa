//! Crash-consistency properties of the durable store: for *any* seeded
//! mutation stream and *any* byte-level truncation of the journal, the
//! recovered image must equal a reference replay of the surviving
//! record prefix — never a partially-applied record, never bytes from
//! past the cut.

use proptest::prelude::*;
use wtnc::db::{crc32, frames, schema, Database, DbError, RecordRef};
use wtnc::sim::SimRng;
use wtnc::store::{ScratchDir, Store, StoreConfig, StoreFindingKind, JOURNAL_FILE};

/// One seeded mutation step (allocate / write / free against the
/// connection table), tolerating a full table.
fn step(db: &mut Database, rng: &mut SimRng, live: &mut Vec<u32>) {
    let table = schema::CONNECTION_TABLE;
    let result = match rng.index(4) {
        0 => match db.alloc_record_raw(table) {
            Ok(idx) => {
                live.push(idx);
                db.write_field_raw(
                    RecordRef::new(table, idx),
                    schema::connection::CALLER_ID,
                    rng.range_u64(0, 99_999),
                )
            }
            Err(DbError::TableFull(_)) if !live.is_empty() => {
                let idx = live.swap_remove(rng.index(live.len()));
                db.free_record_raw(RecordRef::new(table, idx))
            }
            Err(e) => Err(e),
        },
        1 if !live.is_empty() => {
            let idx = live.swap_remove(rng.index(live.len()));
            db.free_record_raw(RecordRef::new(table, idx))
        }
        _ if !live.is_empty() => {
            let idx = live[rng.index(live.len())];
            db.write_field_raw(
                RecordRef::new(table, idx),
                schema::connection::STATE,
                rng.range_u64(0, 4),
            )
        }
        _ => db.write_field_raw(
            RecordRef::new(schema::CHANNEL_CONFIG_TABLE, 0),
            schema::channel_config::FREQ_KHZ,
            rng.range_u64(800_000, 900_000),
        ),
    };
    result.expect("workload step");
}

/// How many whole journal records survive a truncation to `cut` bytes:
/// frames are `[len u32][crc u32][payload]`, and a frame survives only
/// if it fits entirely inside the cut.
fn surviving_records(journal: &[u8], cut: usize) -> usize {
    let mut n = 0;
    let mut at = 0usize;
    while at + 8 <= cut.min(journal.len()) {
        let len = u32::from_le_bytes(journal[at..at + 4].try_into().expect("4 bytes")) as usize;
        if at + 8 + len > cut {
            break;
        }
        at += 8 + len;
        n += 1;
    }
    n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole crash-consistency guarantee: truncate the journal
    /// at an arbitrary byte offset (any power-fail tear, including a
    /// clean record boundary and the empty file), reopen the store,
    /// and the recovered image equals a reference replay of exactly
    /// the records that survive whole. A cut strictly inside a record
    /// must additionally be *reported*, not silently absorbed.
    #[test]
    fn truncated_journals_recover_the_surviving_prefix(
        seed in any::<u64>(),
        mutations in 5usize..60,
        sync_every in 1usize..8,
        cut_frac in 0.0f64..1.0,
    ) {
        let scratch = ScratchDir::new("crash-prop");
        let mut rng = SimRng::seed_from(seed);

        // Journal a seeded workload; keep every captured frame so the
        // reference replay below is independent of the store's own
        // recovery path.
        let mut db = Database::build(schema::standard_schema()).expect("standard schema");
        let mut reference_frames = Vec::new();
        {
            let mut store = Store::open(scratch.path(), StoreConfig::default()).expect("open");
            store.attach(&mut db);
            let mut live = Vec::new();
            for i in 1..=mutations {
                step(&mut db, &mut rng, &mut live);
                if i % sync_every == 0 {
                    reference_frames.extend_from_slice(db.captured());
                    store.sync(&mut db).expect("sync");
                }
            }
            reference_frames.extend_from_slice(db.captured());
            store.sync(&mut db).expect("sync");
        }
        let reference_records: Vec<_> = frames(&reference_frames).collect();

        // Tear the journal at an arbitrary byte offset.
        let journal_path = scratch.path().join(JOURNAL_FILE);
        let journal = std::fs::read(&journal_path).expect("read journal");
        let cut = (journal.len() as f64 * cut_frac) as usize;
        std::fs::write(&journal_path, &journal[..cut]).expect("truncate journal");
        let survivors = surviving_records(&journal, cut);
        prop_assert!(survivors <= reference_records.len());

        // Reference: replay exactly the surviving whole records onto a
        // fresh image.
        let mut reference = Database::build(schema::standard_schema()).expect("standard schema");
        for m in &reference_records[..survivors] {
            reference.apply_frame(m).expect("reference replay");
        }

        // Recover through the store.
        let mut store = Store::open(scratch.path(), StoreConfig::default()).expect("reopen");
        let mut recovered = Database::build(schema::standard_schema()).expect("standard schema");
        let info = store.recover_into(&mut recovered).expect("recover");

        prop_assert_eq!(info.replayed, survivors, "replays exactly the surviving prefix");
        prop_assert_eq!(recovered.region(), reference.region());
        prop_assert_eq!(recovered.golden(), reference.golden());

        // A cut strictly inside a record is damage and must be
        // reported; a boundary cut is indistinguishable from a clean
        // shutdown and must not be.
        let boundary = cut == journal.len() || {
            let mut at = 0usize;
            let mut on_boundary = false;
            while at <= cut {
                if at == cut {
                    on_boundary = true;
                    break;
                }
                if at + 8 > journal.len() {
                    break;
                }
                let len =
                    u32::from_le_bytes(journal[at..at + 4].try_into().expect("4 bytes")) as usize;
                at += 8 + len;
            }
            on_boundary
        };
        prop_assert_eq!(
            info.findings.is_empty(),
            boundary,
            "cut {} of {} (boundary: {}) found {:?}",
            cut,
            journal.len(),
            boundary,
            info.findings
        );
    }

    /// With a checkpoint in the middle of the stream, a torn journal
    /// still recovers onto the checkpoint base and replays only the
    /// surviving tail — the image never regresses past the checkpoint.
    /// The first record after the checkpoint is a golden restore, so a
    /// golden commit at the boundary must survive whenever its frame
    /// does.
    #[test]
    fn checkpoints_floor_the_recovered_image(
        seed in any::<u64>(),
        before in 4usize..30,
        after in 4usize..30,
        cut_frac in 0.0f64..1.0,
    ) {
        let scratch = ScratchDir::new("crash-prop-ckpt");
        let mut rng = SimRng::seed_from(seed);

        let mut db = Database::build(schema::standard_schema()).expect("standard schema");
        let mut reference_frames = Vec::new();
        let ckpt_gen;
        let pre_ckpt;
        {
            let mut store = Store::open(scratch.path(), StoreConfig::default()).expect("open");
            store.attach(&mut db);
            let mut live = Vec::new();
            for _ in 0..before {
                step(&mut db, &mut rng, &mut live);
            }
            reference_frames.extend_from_slice(db.captured());
            store.sync(&mut db).expect("sync");
            pre_ckpt = frames(&reference_frames).count();
            ckpt_gen = store.checkpoint(&mut db).expect("checkpoint");
            let offset = rng.index(db.golden().len());
            db.restore_golden_range(offset, &[!db.golden()[offset]]).expect("restore golden");
            for _ in 0..after {
                step(&mut db, &mut rng, &mut live);
            }
            reference_frames.extend_from_slice(db.captured());
            store.sync(&mut db).expect("sync");
        }
        let reference_records: Vec<_> = frames(&reference_frames).collect();

        let journal_path = scratch.path().join(JOURNAL_FILE);
        let journal = std::fs::read(&journal_path).expect("read journal");
        let cut = (journal.len() as f64 * cut_frac) as usize;
        std::fs::write(&journal_path, &journal[..cut]).expect("truncate journal");
        let survivors = surviving_records(&journal, cut);

        // The checkpoint floors recovery: even if the tear eats
        // fsynced pre-checkpoint records, the checkpoint image already
        // embodies them.
        let applied = survivors.max(pre_ckpt);
        let mut reference = Database::build(schema::standard_schema()).expect("standard schema");
        for m in &reference_records[..applied] {
            reference.apply_frame(m).expect("reference replay");
        }

        let mut store = Store::open(scratch.path(), StoreConfig::default()).expect("reopen");
        let mut recovered = Database::build(schema::standard_schema()).expect("standard schema");
        let info = store.recover_into(&mut recovered).expect("recover");

        prop_assert_eq!(info.base_gen, ckpt_gen, "recovery starts from the checkpoint");
        prop_assert_eq!(recovered.region(), reference.region());
        prop_assert_eq!(recovered.golden(), reference.golden());
        prop_assert!(
            recovered.mutation_generation() >= ckpt_gen,
            "the image never regresses past the checkpoint: {} < {}",
            recovered.mutation_generation(),
            ckpt_gen
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tearing the newest *delta* checkpoint at an arbitrary byte
    /// offset never loses state: the journal holds every record, so
    /// recovery falls back to the surviving lineage prefix and replays
    /// forward to the exact pre-crash image. Any actual truncation
    /// must be reported.
    #[test]
    fn truncated_delta_checkpoints_recover_exactly(
        seed in any::<u64>(),
        bursts in prop::collection::vec(3usize..12, 3..6),
        cut_frac in 0.0f64..1.0,
    ) {
        let scratch = ScratchDir::new("crash-prop-delta");
        let mut rng = SimRng::seed_from(seed);
        let config = StoreConfig { full_every: 3, ..StoreConfig::default() };

        let mut db = Database::build(schema::standard_schema()).expect("standard schema");
        {
            let mut store = Store::open(scratch.path(), config).expect("open");
            store.attach(&mut db);
            let mut live = Vec::new();
            for &burst in &bursts {
                for _ in 0..burst {
                    step(&mut db, &mut rng, &mut live);
                }
                store.checkpoint(&mut db).expect("checkpoint");
            }
            // A journaled tail past the newest checkpoint.
            for _ in 0..4 {
                step(&mut db, &mut rng, &mut live);
            }
            store.sync(&mut db).expect("sync");
        }

        // Tear the newest delta at an arbitrary byte offset (>= 3
        // checkpoint bursts under full_every=3 guarantee one exists).
        let mut deltas: Vec<std::path::PathBuf> = std::fs::read_dir(scratch.path())
            .expect("store dir")
            .map(|e| e.expect("entry").path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .and_then(wtnc::store::parse_delta_file_name)
                    .is_some()
            })
            .collect();
        deltas.sort();
        let newest = deltas.last().expect("delta checkpoint exists");
        let bytes = std::fs::read(newest).expect("read delta");
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        std::fs::write(newest, &bytes[..cut]).expect("truncate delta");

        let mut store = Store::open(scratch.path(), config).expect("reopen");
        let mut recovered = Database::build(schema::standard_schema()).expect("standard schema");
        let info = store.recover_into(&mut recovered).expect("recover");

        prop_assert_eq!(recovered.region(), db.region(), "exact pre-crash region");
        prop_assert_eq!(recovered.golden(), db.golden(), "exact pre-crash golden");
        prop_assert_eq!(
            info.findings.is_empty(),
            cut == bytes.len(),
            "cut {} of {} found {:?}",
            cut,
            bytes.len(),
            info.findings
        );
    }

    /// A crash at any point of the journal-compaction rename protocol
    /// leaves one of two on-disk states — the pre-rotation journal
    /// (rename not reached) or the rotated one — possibly with a
    /// partially-written tmp file stranded alongside. Every such state
    /// recovers the exact pre-crash image with no findings: both
    /// journals carry every record past the newest checkpoint, and the
    /// tmp file is swept at open.
    #[test]
    fn mid_compaction_crash_states_recover_exactly(
        seed in any::<u64>(),
        before in 4usize..24,
        after in 4usize..24,
        rename_done in any::<bool>(),
        tmp_frac in 0.0f64..1.0,
    ) {
        let scratch = ScratchDir::new("crash-prop-compact");
        let mut rng = SimRng::seed_from(seed);
        let journal_path = scratch.path().join(JOURNAL_FILE);

        let mut db = Database::build(schema::standard_schema()).expect("standard schema");
        let (pre_rotation, post_rotation) = {
            let mut store = Store::open(scratch.path(), StoreConfig::default()).expect("open");
            store.attach(&mut db);
            let mut live = Vec::new();
            for _ in 0..before {
                step(&mut db, &mut rng, &mut live);
            }
            store.checkpoint(&mut db).expect("checkpoint");
            for _ in 0..after {
                step(&mut db, &mut rng, &mut live);
            }
            store.sync(&mut db).expect("sync");
            let pre = std::fs::read(&journal_path).expect("pre-rotation journal");
            store.compact().expect("compact");
            let post = std::fs::read(&journal_path).expect("post-rotation journal");
            (pre, post)
        };

        // Reconstruct the crash state: the live journal is whichever
        // side of the rename the crash landed on, and the stranded tmp
        // is an arbitrary prefix of the rotation in progress.
        if !rename_done {
            std::fs::write(&journal_path, &pre_rotation).expect("restore pre-rotation journal");
        }
        let tmp_cut = (post_rotation.len() as f64 * tmp_frac) as usize;
        let tmp_path = scratch.path().join(wtnc::store::JOURNAL_TMP_FILE);
        std::fs::write(&tmp_path, &post_rotation[..tmp_cut]).expect("strand tmp journal");

        let mut store = Store::open(scratch.path(), StoreConfig::default()).expect("reopen");
        let mut recovered = Database::build(schema::standard_schema()).expect("standard schema");
        let info = store.recover_into(&mut recovered).expect("recover");

        prop_assert!(!tmp_path.exists(), "the stranded tmp file is swept at open");
        prop_assert!(info.findings.is_empty(), "clean recovery: {:?}", info.findings);
        prop_assert_eq!(recovered.region(), db.region(), "exact pre-crash region");
        prop_assert_eq!(recovered.golden(), db.golden(), "exact pre-crash golden");
    }
}

/// The scratch directories every store test and campaign run creates
/// are removed on drop — nothing leaks into the system temp dir.
#[test]
fn scratch_directories_are_cleaned_up() {
    let path = {
        let scratch = ScratchDir::new("hygiene-check");
        let mut db = Database::build(schema::standard_schema()).expect("standard schema");
        let mut store = Store::open(scratch.path(), StoreConfig::default()).expect("open");
        store.attach(&mut db);
        store.checkpoint(&mut db).expect("checkpoint");
        assert!(scratch.path().is_dir());
        scratch.path().to_path_buf()
    };
    assert!(!path.exists(), "ScratchDir::drop removes {}", path.display());
}

/// The probe of a golden commit made right after a checkpoint, with no
/// region write in between: after a restart, warm recovery replays it
/// and the durable golden carries it.
#[test]
fn a_golden_commit_right_after_a_checkpoint_survives_a_restart() {
    let scratch = ScratchDir::new("golden-boundary");
    let mut db = Database::build(schema::standard_schema()).expect("standard schema");
    {
        let mut store = Store::open(scratch.path(), StoreConfig::default()).expect("open");
        store.attach(&mut db);
        store.checkpoint(&mut db).expect("checkpoint");
        db.restore_golden_range(64, &[0xfd]).expect("restore golden");
        store.sync(&mut db).expect("sync");
    }
    let mut store = Store::open(scratch.path(), StoreConfig::default()).expect("reopen");
    let mut recovered = Database::build(schema::standard_schema()).expect("standard schema");
    let info = store.recover_into(&mut recovered).expect("recover");
    assert_eq!(info.replayed, 1, "the golden commit is replayed");
    assert_eq!(recovered.golden()[64], 0xfd);
    assert_eq!(recovered.golden(), db.golden());
    let durable = store.durable_golden_image().expect("fold").expect("a usable checkpoint");
    assert_eq!(durable.golden[64], 0xfd);
    assert_eq!(durable.golden, db.golden());
}

/// A recovery that stops at an older checkpoint across a compaction
/// gap leaves no stale frames behind. The probe: checkpoints, a
/// compaction and more synced writes, then a flipped byte in the newest
/// `.img`; recovery falls back across the gap. The node then writes,
/// checkpoints below the lost generations and compacts. A restart must
/// replay only the new timeline's frames, recover exactly the image it
/// had, and report nothing: the gap recovery retired the abandoned
/// timeline's checkpoints.
#[test]
fn a_gap_recovery_leaves_no_stale_frames_for_the_next_restart() {
    let scratch = ScratchDir::new("gap-stale");
    let mut rng = SimRng::seed_from(0x6A9);
    let mut live = Vec::new();
    let mut db = Database::build(schema::standard_schema()).expect("standard schema");
    let newest_image;
    {
        let mut store = Store::open(scratch.path(), StoreConfig::default()).expect("open");
        store.attach(&mut db);
        for round in 0..2 {
            for _ in 0..10 {
                step(&mut db, &mut rng, &mut live);
            }
            store.checkpoint(&mut db).expect("checkpoint");
            if round == 1 {
                assert!(store.compact().expect("compact") > 0);
            }
        }
        for _ in 0..10 {
            step(&mut db, &mut rng, &mut live);
        }
        store.sync(&mut db).expect("sync");
        newest_image = store.chain().last().expect("two checkpoints").path.clone();
    }
    let mut bytes = std::fs::read(&newest_image).expect("read image");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&newest_image, bytes).expect("flip a byte");

    let mut db = Database::build(schema::standard_schema()).expect("standard schema");
    let mut new_frames = Vec::new();
    {
        let mut store = Store::open(scratch.path(), StoreConfig::default()).expect("reopen");
        let info = store.recover_into(&mut db).expect("recover");
        assert_eq!(info.replayed, 0);
        assert!(info.findings.iter().any(|f| f.kind == StoreFindingKind::CompactionGap));
        store.attach(&mut db);
        let mut live = Vec::new();
        for _ in 0..5 {
            step(&mut db, &mut rng, &mut live);
        }
        store.checkpoint(&mut db).expect("checkpoint");
        store.compact().expect("compact");
        for _ in 0..5 {
            step(&mut db, &mut rng, &mut live);
        }
        new_frames.extend_from_slice(db.captured());
        store.sync(&mut db).expect("sync");
    }

    let mut store = Store::open(scratch.path(), StoreConfig::default()).expect("reopen");
    let mut recovered = Database::build(schema::standard_schema()).expect("standard schema");
    assert_eq!(store.open_findings(), [], "the gap recovery retired the abandoned checkpoints");
    let info = store.recover_into(&mut recovered).expect("recover");
    assert_eq!(info.findings, [], "a clean restart reports nothing");
    assert_eq!(info.replayed, frames(&new_frames).count(), "only the new timeline replays");
    assert_eq!(recovered.region(), db.region());
    assert_eq!(recovered.golden(), db.golden());
}

/// The on-disk format pin: a fixed seeded workload driven through
/// `Store::sync`, two checkpoints (one full image, one dirty delta),
/// a compaction and more syncs after it must leave a journal and
/// checkpoint files whose byte lengths and CRC-32s equal the constants
/// below. A change to how the store frames, batches or rotates records
/// that moves a single byte fails here.
#[test]
fn on_disk_format_is_pinned_for_a_fixed_seed() {
    const JOURNAL_LEN: u64 = 4_041;
    const JOURNAL_CRC: u32 = 0x2E27_84C7;
    const CHECKPOINTS_LEN: u64 = 18_980;
    const CHECKPOINTS_CRC: u32 = 0xC55D_8FD9;

    let scratch = ScratchDir::new("format-pin");
    let mut rng = SimRng::seed_from(0x5EED_F00D);
    let mut db = Database::build(schema::standard_schema()).expect("standard schema");
    let mut store =
        Store::open(scratch.path(), StoreConfig { full_every: 2, ..StoreConfig::default() })
            .expect("open");
    store.attach(&mut db);
    let mut live = Vec::new();
    for i in 1..=240usize {
        step(&mut db, &mut rng, &mut live);
        if i % 40 == 0 {
            // A golden-side restore: the journal's second record kind.
            let offset = rng.index(db.golden().len() - 8);
            let bytes = db.golden()[offset..offset + 8].to_vec();
            db.restore_golden_range(offset, &bytes).expect("restore golden");
        }
        if i % 7 == 0 {
            store.sync(&mut db).expect("sync");
        }
        if i == 80 || i == 160 {
            store.checkpoint(&mut db).expect("checkpoint");
        }
        if i == 170 {
            assert!(store.compact().expect("compact") > 0, "compaction reclaims bytes");
        }
    }
    store.sync(&mut db).expect("sync");
    drop(store);

    let journal = std::fs::read(scratch.path().join(JOURNAL_FILE)).expect("read journal");
    let mut names: Vec<_> = std::fs::read_dir(scratch.path())
        .expect("list store")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8 name"))
        .filter(|n| n != JOURNAL_FILE)
        .collect();
    names.sort();
    assert_eq!(names.len(), 2, "one full image and one delta: {names:?}");
    let checkpoints: Vec<u8> = names
        .iter()
        .flat_map(|n| std::fs::read(scratch.path().join(n)).expect("read checkpoint"))
        .collect();
    assert_eq!(
        (journal.len() as u64, crc32(&journal), checkpoints.len() as u64, crc32(&checkpoints)),
        (JOURNAL_LEN, JOURNAL_CRC, CHECKPOINTS_LEN, CHECKPOINTS_CRC),
        "journal (len, crc), checkpoints (len, crc) of {names:?}"
    );
}
