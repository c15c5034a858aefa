//! The append-only mutation journal file: a plain sequence of
//! `wtnc-db` journal frames ([`wtnc_db::Frame`] documents the bytes).
//! Kind 1 is a region write and kind 2 a golden-image commit, the two
//! mutation classes of `wtnc-db`'s unified capture hook, which writes
//! each as a finished frame into the database's capture buffer; a sync
//! writes that buffer verbatim, so nothing is re-encoded on the way to
//! disk.
//!
//! Kind 3 is a **compaction marker**: when the journal is rotated after
//! a checkpoint seals generation G, the rotated file starts with a
//! marker carrying `gen = G`, recording that records with `gen ≤ G`
//! were reclaimed (recovery must not replay across that horizon from an
//! older base image). The framing makes the journal self-describing
//! under power failure: a torn tail (fewer bytes than the frame claims)
//! or a corrupt record (CRC mismatch) cuts replay at the last valid
//! prefix, and the damage is reported instead of a partial record ever
//! being applied.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

use wtnc_db::{frames, push_frame, Frame, FrameError, FrameKind};

/// File name of the journal within a store directory.
pub const JOURNAL_FILE: &str = "journal.wal";

/// Temporary file used while rotating the journal during compaction;
/// atomically renamed over [`JOURNAL_FILE`] once fully synced.
pub const JOURNAL_TMP_FILE: &str = "journal.wal.tmp";

/// Result of scanning a journal file.
#[derive(Debug, Default)]
pub struct JournalScan {
    /// The longest valid prefix of the file, byte for byte: frames
    /// whose CRCs held, markers included.
    pub frames: Vec<u8>,
    /// Damage that ended the scan, if any, at byte `frames.len()`: a
    /// torn tail (power failed during an append) or a corrupt record
    /// (bit rot or tampering inside the file).
    pub damage: Option<FrameError>,
    /// Highest compaction-marker generation in the valid prefix:
    /// records with `gen ≤ compacted_through` were reclaimed by a
    /// journal rotation (0 when the journal was never compacted).
    pub compacted_through: u64,
}

/// Scans a journal file, returning the longest valid frame prefix and
/// any tail damage. A missing file scans as empty. The file is read in
/// one piece, which is cut to [`JournalScan::frames`].
///
/// # Errors
///
/// Propagates I/O errors other than the file not existing.
pub fn scan_journal(path: &Path) -> io::Result<JournalScan> {
    let mut bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(JournalScan::default()),
        Err(e) => return Err(e),
    };
    let mut scan = JournalScan::default();
    let mut valid = 0;
    while let Some(rest) = bytes.get(valid..).filter(|rest| !rest.is_empty()) {
        match Frame::decode(rest) {
            Ok(frame) => {
                if frame.kind == FrameKind::Compaction {
                    scan.compacted_through = scan.compacted_through.max(frame.gen);
                }
                valid += frame.raw.len();
            }
            Err(e) => {
                scan.damage = Some(e);
                break;
            }
        }
    }
    bytes.truncate(valid);
    scan.frames = bytes;
    Ok(scan)
}

/// Rotates the journal for compaction: builds a fresh journal of a
/// compaction marker at `horizon` followed by the record frames of
/// `journal` newer than `horizon`, writes it to [`JOURNAL_TMP_FILE`] in
/// one write through an append handle, syncs it, and atomically renames
/// it over [`JOURNAL_FILE`]. A crash before the rename leaves the old
/// journal intact (the stray tmp file is ignored and removed at open); a
/// crash after it leaves the fully-synced rotated journal. Returns the
/// new journal's bytes and the append handle, which follows the file
/// through the rename: an error at any step leaves the old journal in
/// place and returns no handle.
///
/// # Errors
///
/// Propagates I/O errors from the open, write, sync, or rename.
pub fn rotate_journal(dir: &Path, horizon: u64, journal: &[u8]) -> io::Result<(Vec<u8>, File)> {
    let mut rotated = Vec::new();
    push_frame(&mut rotated, FrameKind::Compaction, horizon, 0, &[]);
    for frame in frames(journal).filter(|f| f.kind != FrameKind::Compaction && f.gen > horizon) {
        rotated.extend_from_slice(frame.raw);
    }
    let tmp = dir.join(JOURNAL_TMP_FILE);
    let mut file = OpenOptions::new().create(true).append(true).open(&tmp)?;
    file.set_len(0)?;
    file.write_all(&rotated)?;
    file.sync_data()?;
    std::fs::rename(&tmp, dir.join(JOURNAL_FILE))?;
    Ok((rotated, file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScratchDir;
    use wtnc_db::{FRAME_HEADER, PAYLOAD_PREFIX};

    /// Frames for generations `gens`: five bytes each at offset
    /// `100 + gen`, every `golden_every`-th one a golden commit.
    fn sample(gens: std::ops::RangeInclusive<u64>, golden_every: u64) -> Vec<u8> {
        let mut out = Vec::new();
        for g in gens {
            let kind = if g % golden_every == 0 { FrameKind::Golden } else { FrameKind::Region };
            push_frame(&mut out, kind, g, 100 + g as usize, &[g as u8; 5]);
        }
        out
    }

    /// The record frames of `journal` as `(kind, gen)`.
    fn records(journal: &[u8]) -> Vec<(FrameKind, u64)> {
        frames(journal)
            .filter(|f| f.kind != FrameKind::Compaction)
            .map(|f| (f.kind, f.gen))
            .collect()
    }

    #[test]
    fn round_trip_and_scan() {
        let dir = ScratchDir::new("journal-roundtrip");
        let path = dir.path().join(JOURNAL_FILE);
        let journal = sample(1..=5, 2);
        std::fs::write(&path, &journal).unwrap();

        let scan = scan_journal(&path).unwrap();
        assert_eq!(scan.frames, journal);
        assert_eq!(records(&scan.frames).len(), 5);
        assert_eq!(scan.frames.len() as u64, std::fs::metadata(&path).unwrap().len());
        assert!(scan.damage.is_none());
        assert_eq!(scan.compacted_through, 0);
    }

    #[test]
    fn missing_file_scans_empty() {
        let dir = ScratchDir::new("journal-missing");
        let scan = scan_journal(&dir.path().join(JOURNAL_FILE)).unwrap();
        assert!(scan.frames.is_empty());
        assert!(scan.damage.is_none());
    }

    #[test]
    fn truncation_is_a_torn_tail_at_every_cut() {
        let dir = ScratchDir::new("journal-torn");
        let path = dir.path().join(JOURNAL_FILE);
        let full = sample(1..=4, u64::MAX);

        // Every proper prefix recovers a whole number of records and
        // never a partial one. A cut exactly on a record boundary is a
        // clean (shorter) journal; any other cut is a torn tail.
        let mut boundaries = vec![0usize];
        for f in frames(&full) {
            boundaries.push(boundaries.last().unwrap() + f.raw.len());
        }
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let scan = scan_journal(&path).unwrap();
            assert!(full.starts_with(&scan.frames));
            assert!(boundaries.contains(&scan.frames.len()));
            assert!(scan.frames.len() <= cut);
            if boundaries.contains(&cut) {
                assert!(scan.damage.is_none(), "cut {cut}");
            } else {
                assert_eq!(scan.damage, Some(FrameError::Torn), "cut {cut}");
            }
        }
    }

    #[test]
    fn bit_rot_is_a_corrupt_record() {
        let dir = ScratchDir::new("journal-rot");
        let path = dir.path().join(JOURNAL_FILE);
        let mut bytes = sample(1..=3, u64::MAX);
        // Flip a payload byte of the second record.
        let frame = FRAME_HEADER + PAYLOAD_PREFIX + 5;
        bytes[frame + FRAME_HEADER + 3] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let scan = scan_journal(&path).unwrap();
        assert_eq!(records(&scan.frames).len(), 1);
        assert_eq!((scan.damage, scan.frames.len()), (Some(FrameError::Corrupt), frame));
    }

    #[test]
    fn rotation_writes_a_marker_plus_the_retained_tail() {
        let dir = ScratchDir::new("journal-rotate");
        let path = dir.path().join(JOURNAL_FILE);
        let journal = sample(1..=6, 3);
        std::fs::write(&path, &journal).unwrap();

        let (rotated, mut file) = rotate_journal(dir.path(), 4, &journal).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), rotated);
        assert!(rotated.len() < journal.len());
        assert!(!dir.path().join(JOURNAL_TMP_FILE).exists());
        let mut expected = Vec::new();
        push_frame(&mut expected, FrameKind::Compaction, 4, 0, &[]);
        expected.extend_from_slice(&sample(5..=6, 3));
        assert_eq!(rotated, expected, "the marker, then the retained frames verbatim");

        let scan = scan_journal(&path).unwrap();
        assert!(scan.damage.is_none());
        assert_eq!(scan.compacted_through, 4);
        assert_eq!(records(&scan.frames), [(FrameKind::Region, 5), (FrameKind::Golden, 6)]);

        // Appends through the returned handle land in the renamed file,
        // and a second rotation drops the old marker.
        file.write_all(&sample(7..=7, 7)).unwrap();
        drop(file);
        let scan = scan_journal(&path).unwrap();
        assert_eq!(records(&scan.frames).len(), 3);
        assert_eq!(scan.compacted_through, 4);
        let (rotated, _) = rotate_journal(dir.path(), 5, &scan.frames).unwrap();
        assert_eq!(frames(&rotated).filter(|f| f.kind == FrameKind::Compaction).count(), 1);
        assert_eq!(records(&rotated), [(FrameKind::Golden, 6), (FrameKind::Golden, 7)]);
    }

    #[test]
    fn torn_rotated_journal_still_reports_its_marker_prefix() {
        let dir = ScratchDir::new("journal-rotate-torn");
        let path = dir.path().join(JOURNAL_FILE);
        let (full, _) = rotate_journal(dir.path(), 4, &sample(5..=6, u64::MAX)).unwrap();
        let marker_len = FRAME_HEADER + PAYLOAD_PREFIX;

        // Cut inside the first retained record: the marker survives.
        std::fs::write(&path, &full[..marker_len + 3]).unwrap();
        let scan = scan_journal(&path).unwrap();
        assert_eq!(scan.compacted_through, 4);
        assert!(records(&scan.frames).is_empty());
        assert_eq!(scan.damage, Some(FrameError::Torn));

        // Cut inside the marker itself: nothing valid at all.
        std::fs::write(&path, &full[..marker_len - 2]).unwrap();
        let scan = scan_journal(&path).unwrap();
        assert_eq!(scan.compacted_through, 0);
        assert_eq!(scan.frames.len() as u64, 0);
        assert_eq!(scan.damage, Some(FrameError::Torn));
    }
}
