//! The append-only mutation journal.
//!
//! Every record is length-prefixed and CRC-framed:
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! payload = [kind: u8] [gen: u64 LE] [offset: u64 LE] [data ...]
//! ```
//!
//! `kind` 1 is a region write, `kind` 2 a golden-image commit — the
//! two mutation classes produced by `wtnc-db`'s unified capture hook
//! ([`CapturedMutation`]). `kind` 3 is a **compaction marker**: when
//! the journal is rotated after a checkpoint seals generation G, the
//! rotated file starts with a marker carrying `gen = G`, recording
//! that records with `gen ≤ G` were reclaimed (recovery must not
//! replay across that horizon from an older base image). The framing
//! makes the journal self-describing under power failure: a torn tail
//! (fewer bytes than the frame claims) or a corrupt record (CRC
//! mismatch) cuts replay at the last valid prefix, and the damage is
//! reported instead of a partial record ever being applied.

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

use wtnc_db::{crc32, CapturedMutation};

/// File name of the journal within a store directory.
pub const JOURNAL_FILE: &str = "journal.wal";

/// Temporary file used while rotating the journal during compaction;
/// atomically renamed over [`JOURNAL_FILE`] once fully synced.
pub const JOURNAL_TMP_FILE: &str = "journal.wal.tmp";

/// Frame header size: length prefix + CRC.
const FRAME_HEADER: usize = 8;

/// Payload prefix: kind byte + generation + offset.
const PAYLOAD_PREFIX: usize = 1 + 8 + 8;

/// Upper bound on one payload, as a framing sanity check — a length
/// prefix above this is treated as tail damage, not an allocation
/// request.
pub const MAX_PAYLOAD: usize = 16 << 20;

const KIND_REGION: u8 = 1;
const KIND_GOLDEN: u8 = 2;
const KIND_COMPACTION: u8 = 3;

/// Damage found while scanning a journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalDamage {
    /// The file ends mid-record (power failed during an append).
    TornTail {
        /// Byte offset of the incomplete record.
        at: u64,
    },
    /// A fully present record fails its CRC or carries an impossible
    /// kind/length (bit rot or tampering inside the file).
    CorruptRecord {
        /// Byte offset of the bad record.
        at: u64,
    },
}

/// Result of scanning a journal file.
#[derive(Debug, Default)]
pub struct JournalScan {
    /// The decoded records of the longest valid prefix, in order.
    pub records: Vec<CapturedMutation>,
    /// Byte length of that valid prefix.
    pub valid_bytes: u64,
    /// Damage that ended the scan, if any.
    pub damage: Option<JournalDamage>,
    /// Highest compaction-marker generation in the valid prefix:
    /// records with `gen ≤ compacted_through` were reclaimed by a
    /// journal rotation (0 when the journal was never compacted).
    pub compacted_through: u64,
}

/// Appends `records` to `out` as framed journal records, growing `out`
/// once. Each frame's header is reserved first and filled in from the
/// payload already written after it.
pub fn encode_records(out: &mut Vec<u8>, records: &[CapturedMutation]) {
    out.reserve(records.iter().map(|m| FRAME_HEADER + PAYLOAD_PREFIX + m.bytes.len()).sum());
    for m in records {
        let kind = if m.golden { KIND_GOLDEN } else { KIND_REGION };
        push_frame(out, kind, m.gen, m.offset as u64, &m.bytes);
    }
}

/// Encodes one captured mutation as a framed journal record.
pub fn encode_record(m: &CapturedMutation) -> Vec<u8> {
    let mut out = Vec::new();
    encode_records(&mut out, std::slice::from_ref(m));
    out
}

/// Encodes a compaction marker sealing everything at `gen` and below.
pub fn encode_compaction_marker(gen: u64) -> Vec<u8> {
    let mut out = Vec::new();
    push_frame(&mut out, KIND_COMPACTION, gen, 0, &[]);
    out
}

fn push_frame(out: &mut Vec<u8>, kind: u8, gen: u64, offset: u64, data: &[u8]) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    out.push(kind);
    out.extend_from_slice(&gen.to_le_bytes());
    out.extend_from_slice(&offset.to_le_bytes());
    out.extend_from_slice(data);
    let payload = &out[start + FRAME_HEADER..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
}

fn decode_payload(payload: &[u8]) -> Option<CapturedMutation> {
    if payload.len() < PAYLOAD_PREFIX {
        return None;
    }
    let golden = match payload[0] {
        KIND_REGION => false,
        KIND_GOLDEN => true,
        _ => return None,
    };
    let gen = u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes"));
    let offset = u64::from_le_bytes(payload[9..17].try_into().expect("8 bytes")) as usize;
    Some(CapturedMutation { gen, offset, bytes: payload[PAYLOAD_PREFIX..].to_vec(), golden })
}

/// Scans a journal file, returning the longest valid record prefix and
/// any tail damage. A missing file scans as empty. The scan streams
/// frame-by-frame through one reused payload buffer instead of
/// slurping the file and slicing fresh buffers per record.
///
/// # Errors
///
/// Propagates I/O errors other than the file not existing.
pub fn scan_journal(path: &Path) -> io::Result<JournalScan> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(JournalScan::default()),
        Err(e) => return Err(e),
    };
    let file_len = file.metadata()?.len();

    let mut scan = JournalScan::default();
    let mut header = [0u8; FRAME_HEADER];
    let mut payload: Vec<u8> = Vec::new();
    let mut at = 0u64;
    while at < file_len {
        let remaining = (file_len - at) as usize;
        if remaining < FRAME_HEADER {
            scan.damage = Some(JournalDamage::TornTail { at });
            break;
        }
        file.read_exact(&mut header)?;
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
        if !(PAYLOAD_PREFIX..=MAX_PAYLOAD).contains(&len) {
            // An impossible length prefix: if the rest of the file
            // could not hold it anyway, call it a torn tail, else a
            // corrupt record.
            scan.damage = Some(if len > remaining - FRAME_HEADER {
                JournalDamage::TornTail { at }
            } else {
                JournalDamage::CorruptRecord { at }
            });
            break;
        }
        if remaining - FRAME_HEADER < len {
            scan.damage = Some(JournalDamage::TornTail { at });
            break;
        }
        payload.resize(len, 0);
        file.read_exact(&mut payload)?;
        if crc32(&payload) != crc {
            scan.damage = Some(JournalDamage::CorruptRecord { at });
            break;
        }
        if payload[0] == KIND_COMPACTION {
            let gen = u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes"));
            scan.compacted_through = scan.compacted_through.max(gen);
        } else {
            let Some(record) = decode_payload(&payload) else {
                scan.damage = Some(JournalDamage::CorruptRecord { at });
                break;
            };
            scan.records.push(record);
        }
        at += (FRAME_HEADER + len) as u64;
        scan.valid_bytes = at;
    }
    Ok(scan)
}

/// Appends framed records to an open journal file in one write, then
/// syncs them with one `fdatasync` (none for an empty batch). Returns
/// the number of bytes written.
///
/// # Errors
///
/// Propagates I/O errors from the write or sync.
pub fn append_framed(file: &mut File, records: &[CapturedMutation]) -> io::Result<u64> {
    let mut buf = Vec::new();
    encode_records(&mut buf, records);
    if !buf.is_empty() {
        file.write_all(&buf)?;
        file.sync_data()?;
    }
    Ok(buf.len() as u64)
}

/// Rotates the journal for compaction: writes a fresh journal holding
/// a compaction marker at `horizon` followed by `retained` records to
/// [`JOURNAL_TMP_FILE`] in one write, syncs it, and atomically renames
/// it over [`JOURNAL_FILE`]. A crash before the rename leaves the old
/// journal intact (the stray tmp file is ignored and removed at open);
/// a crash after it leaves the fully-synced rotated journal. Returns
/// the new journal's byte length.
///
/// # Errors
///
/// Propagates I/O errors from the write, sync, or rename.
pub fn rotate_journal(dir: &Path, horizon: u64, retained: &[CapturedMutation]) -> io::Result<u64> {
    let mut buf = encode_compaction_marker(horizon);
    encode_records(&mut buf, retained);
    let tmp = dir.join(JOURNAL_TMP_FILE);
    let mut file = File::create(&tmp)?;
    file.write_all(&buf)?;
    file.sync_data()?;
    drop(file);
    std::fs::rename(&tmp, dir.join(JOURNAL_FILE))?;
    Ok(buf.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScratchDir;

    fn sample(gen: u64, golden: bool) -> CapturedMutation {
        CapturedMutation { gen, offset: 100 + gen as usize, bytes: vec![gen as u8; 5], golden }
    }

    #[test]
    fn round_trip_and_scan() {
        let dir = ScratchDir::new("journal-roundtrip");
        let path = dir.path().join(JOURNAL_FILE);
        let records: Vec<_> = (1..=5).map(|g| sample(g, g % 2 == 0)).collect();
        let mut file = std::fs::File::create(&path).unwrap();
        append_framed(&mut file, &records).unwrap();
        drop(file);

        let scan = scan_journal(&path).unwrap();
        assert_eq!(scan.records, records);
        assert_eq!(scan.valid_bytes, std::fs::metadata(&path).unwrap().len());
        assert!(scan.damage.is_none());
        assert_eq!(scan.compacted_through, 0);
    }

    #[test]
    fn one_write_per_batch_is_the_concatenation_of_its_frames() {
        let dir = ScratchDir::new("journal-bytes");
        let path = dir.path().join(JOURNAL_FILE);
        let mut records: Vec<_> = (1..=6).map(|g| sample(g, g % 3 == 0)).collect();
        records[2].bytes.clear();
        records[4].bytes = vec![0xA5; 300];
        let mut file = std::fs::File::create(&path).unwrap();
        let written = append_framed(&mut file, &records).unwrap();
        drop(file);
        let expected: Vec<u8> = records.iter().flat_map(encode_record).collect();
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        assert_eq!(written, expected.len() as u64);

        let retained = &records[3..];
        let bytes = rotate_journal(dir.path(), 3, retained).unwrap();
        let mut expected = encode_compaction_marker(3);
        expected.extend(retained.iter().flat_map(encode_record));
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        assert_eq!(bytes, expected.len() as u64);
    }

    #[test]
    fn an_empty_batch_writes_nothing() {
        let dir = ScratchDir::new("journal-empty");
        let path = dir.path().join(JOURNAL_FILE);
        let mut file = std::fs::File::create(&path).unwrap();
        append_framed(&mut file, &[sample(1, false)]).unwrap();
        let before = std::fs::metadata(&path).unwrap().len();
        assert_eq!(append_framed(&mut file, &[]).unwrap(), 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), before);
    }

    #[test]
    fn missing_file_scans_empty() {
        let dir = ScratchDir::new("journal-missing");
        let scan = scan_journal(&dir.path().join(JOURNAL_FILE)).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_bytes, 0);
        assert!(scan.damage.is_none());
    }

    #[test]
    fn truncation_is_a_torn_tail_at_every_cut() {
        let dir = ScratchDir::new("journal-torn");
        let path = dir.path().join(JOURNAL_FILE);
        let records: Vec<_> = (1..=4).map(|g| sample(g, false)).collect();
        let mut file = std::fs::File::create(&path).unwrap();
        append_framed(&mut file, &records).unwrap();
        drop(file);
        let full = std::fs::read(&path).unwrap();

        // Every proper prefix recovers a whole number of records and
        // never a partial one. A cut exactly on a record boundary is a
        // clean (shorter) journal; any other cut is a torn tail.
        let mut boundaries = vec![0usize];
        for m in &records {
            boundaries.push(boundaries.last().unwrap() + encode_record(m).len());
        }
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let scan = scan_journal(&path).unwrap();
            assert!(scan.records.len() <= records.len());
            assert_eq!(scan.records, records[..scan.records.len()]);
            assert!(scan.valid_bytes as usize <= cut);
            if boundaries.contains(&cut) {
                assert!(scan.damage.is_none(), "cut {cut}");
            } else {
                assert!(matches!(scan.damage, Some(JournalDamage::TornTail { .. })), "cut {cut}");
            }
        }
    }

    #[test]
    fn bit_rot_is_a_corrupt_record() {
        let dir = ScratchDir::new("journal-rot");
        let path = dir.path().join(JOURNAL_FILE);
        let records: Vec<_> = (1..=3).map(|g| sample(g, false)).collect();
        let mut file = std::fs::File::create(&path).unwrap();
        append_framed(&mut file, &records).unwrap();
        drop(file);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte of the second record.
        let frame = FRAME_HEADER + PAYLOAD_PREFIX + 5;
        bytes[frame + FRAME_HEADER + 3] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let scan = scan_journal(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.damage, Some(JournalDamage::CorruptRecord { at: frame as u64 }));
    }

    #[test]
    fn rotation_writes_a_marker_plus_the_retained_tail() {
        let dir = ScratchDir::new("journal-rotate");
        let path = dir.path().join(JOURNAL_FILE);
        let records: Vec<_> = (1..=6).map(|g| sample(g, false)).collect();
        let mut file = std::fs::File::create(&path).unwrap();
        append_framed(&mut file, &records).unwrap();
        drop(file);
        let before = std::fs::metadata(&path).unwrap().len();

        let retained: Vec<_> = records.iter().filter(|m| m.gen > 4).cloned().collect();
        let bytes = rotate_journal(dir.path(), 4, &retained).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        assert!(bytes < before);
        assert!(!dir.path().join(JOURNAL_TMP_FILE).exists());

        let scan = scan_journal(&path).unwrap();
        assert!(scan.damage.is_none());
        assert_eq!(scan.compacted_through, 4);
        assert_eq!(scan.records, retained);

        // Appends after rotation keep working on the renamed file.
        let mut file = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        append_framed(&mut file, &[sample(7, true)]).unwrap();
        drop(file);
        let scan = scan_journal(&path).unwrap();
        assert_eq!(scan.records.len(), retained.len() + 1);
        assert_eq!(scan.compacted_through, 4);
    }

    #[test]
    fn torn_rotated_journal_still_reports_its_marker_prefix() {
        let dir = ScratchDir::new("journal-rotate-torn");
        let path = dir.path().join(JOURNAL_FILE);
        let retained: Vec<_> = (5..=6).map(|g| sample(g, false)).collect();
        rotate_journal(dir.path(), 4, &retained).unwrap();
        let full = std::fs::read(&path).unwrap();
        let marker_len = encode_compaction_marker(4).len();

        // Cut inside the first retained record: the marker survives.
        std::fs::write(&path, &full[..marker_len + 3]).unwrap();
        let scan = scan_journal(&path).unwrap();
        assert_eq!(scan.compacted_through, 4);
        assert!(scan.records.is_empty());
        assert!(matches!(scan.damage, Some(JournalDamage::TornTail { .. })));

        // Cut inside the marker itself: nothing valid at all.
        std::fs::write(&path, &full[..marker_len - 2]).unwrap();
        let scan = scan_journal(&path).unwrap();
        assert_eq!(scan.compacted_through, 0);
        assert_eq!(scan.valid_bytes, 0);
        assert!(matches!(scan.damage, Some(JournalDamage::TornTail { .. })));
    }
}
