//! Journal decoder fuzzing: `scan_journal` over arbitrary bytes and
//! over valid journals with random cuts and byte flips. Whatever the
//! file holds, the scan never panics, never claims more valid bytes
//! than the file has, reports damage exactly when it stops short of
//! the end, and never yields a record that was not written.

use proptest::prelude::*;
use wtnc_db::CapturedMutation;
use wtnc_store::{
    encode_compaction_marker, encode_records, scan_journal, JournalScan, ScratchDir, JOURNAL_FILE,
};

/// Writes `bytes` as a journal file and scans it.
fn scan(bytes: &[u8]) -> JournalScan {
    let scratch = ScratchDir::new("journal-fuzz");
    let path = scratch.path().join(JOURNAL_FILE);
    std::fs::write(&path, bytes).expect("write journal");
    scan_journal(&path).expect("scan journal")
}

/// The invariants every scan keeps, valid input or not.
fn check_shape(scan: &JournalScan, len: usize) -> Result<(), prop::test_runner::TestCaseError> {
    prop_assert!(scan.valid_bytes <= len as u64, "valid {} > len {len}", scan.valid_bytes);
    prop_assert_eq!(
        scan.damage.is_none(),
        scan.valid_bytes == len as u64,
        "damage {:?} at valid {} of {}",
        scan.damage,
        scan.valid_bytes,
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
        raw in prop::collection::vec(
            (any::<u64>(), 0usize..1 << 20, prop::collection::vec(any::<u8>(), 0..40), any::<bool>()),
            0..12,
        ),
        marker in any::<bool>(),
        whole in any::<bool>(),
        cut in any::<prop::sample::Index>(),
        flips in prop::collection::vec((any::<prop::sample::Index>(), 1u8..=255), 0..4),
    ) {
        let records: Vec<CapturedMutation> = raw
            .into_iter()
            .map(|(gen, offset, bytes, golden)| CapturedMutation { gen, offset, bytes, golden })
            .collect();
        let mut journal = if marker { encode_compaction_marker(7) } else { Vec::new() };
        encode_records(&mut journal, &records);
        if !whole {
            journal.truncate(cut.index(journal.len() + 1));
        }
        if !journal.is_empty() {
            for (at, mask) in &flips {
                let at = at.index(journal.len());
                journal[at] ^= mask;
            }
        }

        let scan = scan(&journal);
        check_shape(&scan, journal.len())?;
        prop_assert!(scan.records.len() <= records.len());
        prop_assert_eq!(&scan.records[..], &records[..scan.records.len()]);
        if whole && flips.is_empty() {
            prop_assert_eq!(&scan.records, &records);
            prop_assert_eq!(scan.compacted_through, if marker { 7 } else { 0 });
        }
    }
}
