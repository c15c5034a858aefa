//! Journal decoder fuzzing: `scan_journal` over arbitrary bytes and
//! over valid journals with random cuts and byte flips. Whatever the
//! file holds, the scan never panics, never claims more valid bytes
//! than the file has, reports damage exactly when it stops short of
//! the end, and never yields a record that was not written. Every frame
//! the decoders hand out replays into a database or is refused with a
//! `DbError`, never a panic.

use proptest::prelude::*;
use wtnc_db::{frames, push_frame, schema, Database, DbError, FrameKind};
use wtnc_store::{scan_journal, JournalScan, ScratchDir, JOURNAL_FILE};

/// One generated record: `(gen, offset, bytes, golden)`.
type Record = (u64, usize, Vec<u8>, bool);

/// Records of up to 40 bytes at offsets up to 1 MiB.
fn records() -> impl Strategy<Value = Vec<Record>> {
    prop::collection::vec(
        (any::<u64>(), 0usize..1 << 20, prop::collection::vec(any::<u8>(), 0..40), any::<bool>()),
        0..12,
    )
}

/// Encodes `records` as a journal, behind a compaction marker at
/// generation 7 when `marker` is set, then cuts it (unless `whole`) and
/// XORs the `flips` into it.
fn damaged_journal(
    records: &[Record],
    marker: bool,
    whole: bool,
    cut: prop::sample::Index,
    flips: &[(prop::sample::Index, u8)],
) -> Vec<u8> {
    let mut journal = Vec::new();
    if marker {
        push_frame(&mut journal, FrameKind::Compaction, 7, 0, &[]);
    }
    for (gen, offset, bytes, golden) in records {
        let kind = if *golden { FrameKind::Golden } else { FrameKind::Region };
        push_frame(&mut journal, kind, *gen, *offset, bytes);
    }
    if !whole {
        journal.truncate(cut.index(journal.len() + 1));
    }
    if !journal.is_empty() {
        for (at, mask) in flips {
            let at = at.index(journal.len());
            journal[at] ^= mask;
        }
    }
    journal
}

/// The record frames of `journal` as generated records.
fn decoded(journal: &[u8]) -> Vec<Record> {
    frames(journal)
        .filter(|f| f.kind != FrameKind::Compaction)
        .map(|f| (f.gen, f.offset, f.bytes.to_vec(), f.kind == FrameKind::Golden))
        .collect()
}

/// Writes `bytes` as a journal file and scans it.
fn scan(bytes: &[u8]) -> JournalScan {
    let scratch = ScratchDir::new("journal-fuzz");
    let path = scratch.path().join(JOURNAL_FILE);
    std::fs::write(&path, bytes).expect("write journal");
    scan_journal(&path).expect("scan journal")
}

/// The invariants every scan keeps, valid input or not.
fn check_shape(scan: &JournalScan, len: usize) -> Result<(), prop::test_runner::TestCaseError> {
    prop_assert!(
        scan.frames.len() as u64 <= len as u64,
        "valid {} > len {len}",
        scan.frames.len() as u64
    );
    prop_assert_eq!(
        scan.damage.is_none(),
        scan.frames.len() as u64 == len as u64,
        "damage {:?} at valid {} of {}",
        scan.damage,
        scan.frames.len() as u64,
        len
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_scan_without_panicking(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        check_shape(&scan(&bytes), bytes.len())?;
    }

    #[test]
    fn damaged_journals_yield_a_prefix_of_the_written_records(
        records in records(),
        marker in any::<bool>(),
        whole in any::<bool>(),
        cut in any::<prop::sample::Index>(),
        flips in prop::collection::vec((any::<prop::sample::Index>(), 1u8..=255), 0..4),
    ) {
        let journal = damaged_journal(&records, marker, whole, cut, &flips);

        let scan = scan(&journal);
        check_shape(&scan, journal.len())?;
        let scanned = decoded(&scan.frames);
        prop_assert!(scanned.len() <= records.len());
        prop_assert_eq!(&scanned[..], &records[..scanned.len()]);
        if whole && flips.is_empty() {
            prop_assert_eq!(&scanned, &records);
            prop_assert_eq!(scan.compacted_through, if marker { 7 } else { 0 });
        }
    }

    /// Every frame either decoder yields — the CRC-checked scan of the
    /// file, and the unchecked walk straight over the damaged bytes —
    /// replays into a fresh database or returns a `DbError`.
    #[test]
    fn decoded_frames_apply_or_are_refused(
        records in records(),
        marker in any::<bool>(),
        whole in any::<bool>(),
        cut in any::<prop::sample::Index>(),
        flips in prop::collection::vec((any::<prop::sample::Index>(), 1u8..=255), 0..4),
    ) {
        let journal = damaged_journal(&records, marker, whole, cut, &flips);
        let scan = scan(&journal);
        let mut db = Database::build(schema::standard_schema()).expect("standard schema");
        for frame in frames(&scan.frames).chain(frames(&journal)) {
            let fits = frame.offset.checked_add(frame.bytes.len()).is_some_and(|end| end <= db.region_len());
            match db.apply_frame(&frame) {
                Ok(()) => {
                    let target = match frame.kind {
                        FrameKind::Region => db.region(),
                        FrameKind::Golden => db.golden(),
                        FrameKind::Compaction => continue,
                    };
                    prop_assert_eq!(&target[frame.offset..][..frame.bytes.len()], frame.bytes);
                }
                Err(DbError::OutOfBounds { .. }) => prop_assert!(!fits),
                Err(e) => prop_assert!(false, "unexpected {e}"),
            }
        }
    }
}
