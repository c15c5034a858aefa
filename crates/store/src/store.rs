//! The durable store: one directory holding the append-only mutation
//! journal and the hash-chained checkpoint history, plus open-time
//! verification, warm recovery, and the disk side of the storage
//! audit.
//!
//! Recovery = newest *valid* checkpoint image + replay of every
//! journal record with a newer generation. A checkpoint image is
//! either a full file or a **fold**: the lineage's full image plus
//! every delta up to the candidate, verified by recomputing the Merkle
//! root of the folded content against the root the deltas sealed. When
//! the newest image is torn or tampered, recovery falls back to an
//! older one and the journal still carries it forward to the exact
//! pre-crash state (reported as
//! [`StoreFindingKind::StaleCheckpointRecovered`]) — unless the
//! journal was compacted past that base, in which case replay would
//! skip reclaimed mutations and recovery honestly stops at the base
//! image instead ([`StoreFindingKind::CompactionGap`]).

use std::borrow::Cow;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use wtnc_db::{
    crc32, frames, Database, DbError, Frame, FrameError, FrameKind, GoldenBlocks, DIRTY_BLOCK_SIZE,
};

use crate::checkpoint::{
    checkpoint_file_name, decode_delta_checkpoint, delta_block_offset, delta_file_name,
    encode_checkpoint_frame, encode_delta_checkpoint, full_block_offset,
    parse_checkpoint_file_name, parse_delta_file_name, peek_chain, peek_delta_chain,
    verify_checkpoint, CheckpointError, FULL_CONTENT_AT,
};
use crate::journal::{rotate_journal, scan_journal, JournalScan, JOURNAL_FILE, JOURNAL_TMP_FILE};
use crate::merkle::{leaf_mac, verify_proof, MerkleTree};

/// Default 128-bit MAC key. Deployments supply their own via
/// [`StoreConfig`]; the default keeps fixtures and tooling
/// deterministic.
pub const DEFAULT_KEY: [u8; 16] = *b"wtnc-store-mac-k";

/// Content block size for the checkpoint Merkle leaves: the audit
/// dirty-tracker block size, so disk blocks line up with in-memory CRC
/// blocks.
pub const LEAF_BLOCK_SIZE: usize = DIRTY_BLOCK_SIZE;

/// Store tuning: the MAC key and the full-image checkpoint period.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// 128-bit key for the keyed integrity codes and chain digests.
    pub key: [u8; 16],
    /// Cut a full image every `full_every`-th checkpoint and dirty
    /// deltas in between. `1` (the default) writes a full image every
    /// time — the v1 behavior.
    pub full_every: u32,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig { key: DEFAULT_KEY, full_every: 1 }
    }
}

/// Distinct storage failure modes surfaced by open, recovery, audit
/// and `verify`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFindingKind {
    /// A checkpoint file is truncated or structurally inconsistent
    /// (power failed mid-write).
    TornCheckpoint,
    /// A checkpoint's header or Merkle node table does not match its
    /// stored digest (metadata tampering).
    CheckpointDigestMismatch,
    /// Checkpoint content blocks fail their keyed leaf MACs (image
    /// tampering or bit rot).
    BlockMacMismatch,
    /// A checkpoint's `prev_digest` does not match its predecessor, or
    /// a delta references a missing/invalid base image — the
    /// golden-image history is not verifiable across this point.
    ChainBreak,
    /// A checkpoint file's name generation disagrees with its header
    /// generation (files renamed or swapped).
    ReorderedCheckpoint,
    /// The journal ends mid-record (power failed during an append).
    JournalTornTail,
    /// A journal record fails its CRC (bit rot inside the file).
    JournalCorruptRecord,
    /// Recovery had to fall back past newer-but-invalid checkpoints to
    /// an older golden image.
    StaleCheckpointRecovered,
    /// The journal was compacted past the recovered base image, so the
    /// surviving journal suffix is disjoint and was not replayed —
    /// recovery stopped honestly at the base image.
    CompactionGap,
    /// The durable golden image disagrees with the in-memory golden
    /// image (storage audit cross-check).
    GoldenDivergence,
}

impl StoreFindingKind {
    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            StoreFindingKind::TornCheckpoint => "torn-checkpoint",
            StoreFindingKind::CheckpointDigestMismatch => "checkpoint-digest-mismatch",
            StoreFindingKind::BlockMacMismatch => "block-mac-mismatch",
            StoreFindingKind::ChainBreak => "chain-break",
            StoreFindingKind::ReorderedCheckpoint => "reordered-checkpoint",
            StoreFindingKind::JournalTornTail => "journal-torn-tail",
            StoreFindingKind::JournalCorruptRecord => "journal-corrupt-record",
            StoreFindingKind::StaleCheckpointRecovered => "stale-checkpoint-recovered",
            StoreFindingKind::CompactionGap => "compaction-gap",
            StoreFindingKind::GoldenDivergence => "golden-divergence",
        }
    }
}

/// One storage finding: what went wrong, where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreFinding {
    /// The failure mode.
    pub kind: StoreFindingKind,
    /// Human-readable detail.
    pub detail: String,
    /// The checkpoint generation involved, when applicable.
    pub gen: Option<u64>,
    /// The byte offset involved (journal offset or golden-image
    /// offset), when applicable.
    pub offset: Option<u64>,
}

impl std::fmt::Display for StoreFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.name(), self.detail)?;
        if let Some(gen) = self.gen {
            write!(f, " (gen {gen})")?;
        }
        if let Some(off) = self.offset {
            write!(f, " (offset {off})")?;
        }
        Ok(())
    }
}

/// Store-level errors (as opposed to detected-and-reported findings).
#[derive(Debug)]
pub enum StoreError {
    /// An I/O error against the store directory.
    Io(std::io::Error),
    /// A database error during replay or image load.
    Db(DbError),
    /// Durable state too damaged for the requested operation.
    Corrupt(String),
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<DbError> for StoreError {
    fn from(e: DbError) -> Self {
        StoreError::Db(e)
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Db(e) => write!(f, "store database error: {e}"),
            StoreError::Corrupt(why) => write!(f, "store corrupt: {why}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// What warm recovery did.
#[derive(Debug, Clone)]
pub struct RecoveryInfo {
    /// Generation of the checkpoint the image was restored from (0
    /// when recovery replayed the journal from scratch).
    pub base_gen: u64,
    /// Number of journal records replayed on top of the base image.
    pub replayed: usize,
    /// Everything detected while opening and recovering.
    pub findings: Vec<StoreFinding>,
}

/// Whether a chain entry is a full image or a dirty delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointKind {
    /// A full region+golden image (`.img`).
    Full,
    /// A dirty-block delta against a full base image (`.delta`).
    Delta,
}

/// One valid checkpoint in the on-disk chain.
#[derive(Debug, Clone)]
pub struct ChainEntry {
    /// Checkpoint generation.
    pub gen: u64,
    /// This checkpoint's chain digest (the next one's `prev_digest`).
    pub digest: u64,
    /// Path of the checkpoint file.
    pub path: PathBuf,
    /// Full image or delta.
    pub kind: CheckpointKind,
    /// The lineage's full-image generation (equals `gen` for a full
    /// checkpoint).
    pub base_gen: u64,
}

/// Size and compaction counters surfaced on [`Store::stats`] — the
/// store's side of the controller's execution summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Valid journal length in bytes.
    pub journal_bytes: u64,
    /// Live journal records (markers excluded).
    pub journal_records: u64,
    /// Highest generation reclaimed by compaction (0 = never).
    pub compacted_through: u64,
    /// Compactions performed by this store handle.
    pub compactions: u64,
    /// Journal bytes reclaimed by those compactions.
    pub reclaimed_bytes: u64,
    /// Valid checkpoints on disk.
    pub chain_len: usize,
    /// Full checkpoints cut by this store handle.
    pub full_checkpoints: u64,
    /// Delta checkpoints cut by this store handle.
    pub delta_checkpoints: u64,
}

struct DirScan {
    findings: Vec<StoreFinding>,
    chain: Vec<ChainEntry>,
    invalid_gens: Vec<u64>,
    journal: JournalScan,
}

fn checkpoint_finding(gen: u64, err: &CheckpointError) -> StoreFinding {
    let kind = match err {
        CheckpointError::Torn(_) => StoreFindingKind::TornCheckpoint,
        CheckpointError::DigestMismatch => StoreFindingKind::CheckpointDigestMismatch,
        CheckpointError::MacMismatch(_) => StoreFindingKind::BlockMacMismatch,
    };
    StoreFinding { kind, detail: err.to_string(), gen: Some(gen), offset: None }
}

fn scan_dir(dir: &Path, config: &StoreConfig) -> std::io::Result<DirScan> {
    let mut files: Vec<(u64, CheckpointKind, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let Some(name) = entry.file_name().to_str().map(str::to_owned) else { continue };
        if let Some(gen) = parse_checkpoint_file_name(&name) {
            files.push((gen, CheckpointKind::Full, entry.path()));
        } else if let Some(gen) = parse_delta_file_name(&name) {
            files.push((gen, CheckpointKind::Delta, entry.path()));
        }
    }
    files.sort_by_key(|(gen, kind, _)| (*gen, matches!(kind, CheckpointKind::Delta)));

    let mut findings = Vec::new();
    let mut chain: Vec<ChainEntry> = Vec::new();
    let mut invalid_gens = Vec::new();
    // Chain continuity is tracked over the *stored* digests of every
    // framing-consistent file, so a content-tampered checkpoint reads
    // as exactly one MAC finding rather than also breaking the chain.
    let mut expected_prev = 0u64;
    for (name_gen, kind, path) in files {
        let bytes = std::fs::read(&path)?;
        let (peek_digest, header) = match kind {
            CheckpointKind::Full => {
                let peek = peek_chain(&bytes);
                (peek.map(|(_, _, d)| d), peek.map(|(g, p, _)| (g, p, g)))
            }
            CheckpointKind::Delta => {
                let peek = peek_delta_chain(&bytes);
                (peek.map(|(_, _, _, d)| d), peek.map(|(g, p, b, _)| (g, p, b)))
            }
        };
        let decoded = match kind {
            CheckpointKind::Full => verify_checkpoint(&bytes, &config.key).map(|(m, ..)| m.gen),
            CheckpointKind::Delta => {
                decode_delta_checkpoint(&bytes, &config.key).map(|d| d.meta.gen)
            }
        };
        match decoded {
            Ok(header_gen) if header_gen != name_gen => {
                findings.push(StoreFinding {
                    kind: StoreFindingKind::ReorderedCheckpoint,
                    detail: format!(
                        "file {} carries header generation {}",
                        path.file_name().and_then(|n| n.to_str()).unwrap_or("?"),
                        header_gen
                    ),
                    gen: Some(name_gen),
                    offset: None,
                });
                invalid_gens.push(name_gen);
            }
            Ok(_) => {
                let (_, prev_digest, base_gen) = header.expect("decoded file peeks");
                if prev_digest != expected_prev {
                    findings.push(StoreFinding {
                        kind: StoreFindingKind::ChainBreak,
                        detail: format!(
                            "prev digest {prev_digest:#018x} does not match the preceding \
                             checkpoint ({expected_prev:#018x})"
                        ),
                        gen: Some(name_gen),
                        offset: None,
                    });
                }
                chain.push(ChainEntry {
                    gen: name_gen,
                    digest: peek_digest.expect("decoded file peeks"),
                    path,
                    kind,
                    base_gen,
                });
            }
            Err(e) => {
                findings.push(checkpoint_finding(name_gen, &e));
                invalid_gens.push(name_gen);
            }
        }
        if let Some(digest) = peek_digest {
            expected_prev = digest;
        }
    }

    let journal = scan_journal(&dir.join(JOURNAL_FILE))?;
    if let Some(damage) = journal.damage {
        let (kind, what) = match damage {
            FrameError::Torn => (StoreFindingKind::JournalTornTail, "journal ends mid-record"),
            FrameError::Corrupt => {
                (StoreFindingKind::JournalCorruptRecord, "journal record fails its CRC")
            }
        };
        let at = journal.frames.len();
        let detail = format!("{what}; replay cut to {at} bytes");
        findings.push(StoreFinding { kind, detail, gen: None, offset: Some(at as u64) });
    }

    Ok(DirScan { findings, chain, invalid_gens, journal })
}

/// A verified image reconstructed from the chain: a full checkpoint,
/// or a full base folded with its deltas.
struct FoldedImage {
    /// Region, then golden.
    content: Vec<u8>,
    /// The lineage up to the image, its tree equal to the root the
    /// checkpoint sealed.
    lineage: Lineage,
}

impl FoldedImage {
    /// The golden half, in an allocation of its own.
    fn into_golden(mut self) -> Vec<u8> {
        self.content.split_off(self.lineage.region_len)
    }
}

/// A checkpoint lineage as far as one chain entry: the Merkle tree over
/// that entry's content (leaves keyed at the generation of the
/// lineage's full image) and where each leaf's newest bytes live on
/// disk.
#[derive(Debug, Clone)]
struct Lineage {
    tree: MerkleTree,
    /// Generation of the chain entry the tree seals.
    gen: u64,
    region_len: usize,
    golden_len: usize,
    /// The lineage's full image.
    base: PathBuf,
    /// Each delta's file and its ascending dirty leaves, oldest first.
    deltas: Vec<(PathBuf, Vec<u32>)>,
}

impl Lineage {
    /// Where leaf `index`'s newest bytes live: the newest delta that
    /// holds it, otherwise the full base.
    fn locate(&self, index: usize) -> (&Path, u64) {
        let block_size = self.tree.block_size();
        for (path, leaves) in self.deltas.iter().rev() {
            if let Ok(rank) = leaves.binary_search(&(index as u32)) {
                return (path, delta_block_offset(rank, block_size));
            }
        }
        (&self.base, full_block_offset(index, block_size))
    }
}

/// A durable store rooted at one directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    config: StoreConfig,
    journal: File,
    /// A failed sync may have left bytes past `journal_cache` in the
    /// file that are not cut off yet.
    torn: bool,
    /// Record frames in `journal_cache` (markers excluded).
    journal_records: u64,
    /// The journal file's valid bytes: the frames written since the
    /// last compaction (behind its marker), exactly as on disk.
    journal_cache: Vec<u8>,
    /// The golden-commit frames among `journal_cache`: what carries a
    /// checkpoint's golden half forward, kept apart so a durable-golden
    /// read does not walk every region record.
    golden_frames: Vec<u8>,
    /// Shared with the golden handles, which refold from it.
    chain: Arc<Vec<ChainEntry>>,
    open_findings: Vec<StoreFinding>,
    invalid_gens: Vec<u64>,
    compacted_through: u64,
    /// The verified in-memory lineage of the newest checkpoint this
    /// store wrote or recovered, shared with the golden handles it
    /// hands out. Session state: a cold-opened store has none, so its
    /// first checkpoint is forced full.
    lineage: Option<Arc<Lineage>>,
    since_full: u32,
    compactions: u64,
    reclaimed_bytes: u64,
    full_checkpoints: u64,
    delta_checkpoints: u64,
}

impl Store {
    /// Opens (creating if needed) the store at `dir`: decodes and
    /// chain-verifies every checkpoint (full and delta), scans the
    /// journal, truncates any damaged journal tail to the last valid
    /// record boundary, removes a stray rotation temp file from a
    /// crashed compaction, and opens the journal for appending.
    /// Everything detected is kept in [`Store::open_findings`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on directory or file I/O failure.
    pub fn open(dir: impl Into<PathBuf>, config: StoreConfig) -> Result<Store, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        // A crash between a compaction's tmp write and its rename
        // leaves the old journal authoritative; drop the leftovers.
        let _ = std::fs::remove_file(dir.join(JOURNAL_TMP_FILE));
        let scan = scan_dir(&dir, &config)?;
        let journal = OpenOptions::new().create(true).append(true).open(dir.join(JOURNAL_FILE))?;
        journal.set_len(scan.journal.frames.len() as u64)?;
        journal.sync_data()?;
        let mut golden_frames = Vec::new();
        Ok(Store {
            dir,
            config,
            journal,
            torn: false,
            journal_records: index_frames(&scan.journal.frames, &mut golden_frames),
            journal_cache: scan.journal.frames,
            golden_frames,
            chain: Arc::new(scan.chain),
            open_findings: scan.findings,
            invalid_gens: scan.invalid_gens,
            compacted_through: scan.journal.compacted_through,
            lineage: None,
            since_full: 0,
            compactions: 0,
            reclaimed_bytes: 0,
            full_checkpoints: 0,
            delta_checkpoints: 0,
        })
    }

    /// Read-only verification pass over a store directory: decodes and
    /// chain-checks every checkpoint and scans the journal, touching
    /// nothing.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (including a missing directory).
    pub fn verify(dir: &Path, config: &StoreConfig) -> std::io::Result<Vec<StoreFinding>> {
        Ok(scan_dir(dir, config)?.findings)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configuration this store was opened with.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Number of valid journal records (on disk + appended).
    pub fn journal_records(&self) -> u64 {
        self.journal_records
    }

    /// Valid journal length in bytes.
    pub fn journal_bytes(&self) -> u64 {
        self.journal_cache.len() as u64
    }

    /// The valid checkpoint chain, oldest first.
    pub fn chain(&self) -> &[ChainEntry] {
        &self.chain
    }

    /// Findings from the open-time scan.
    pub fn open_findings(&self) -> &[StoreFinding] {
        &self.open_findings
    }

    /// Highest generation reclaimed from the journal by compaction
    /// (0 when the journal was never compacted).
    pub fn compacted_through(&self) -> u64 {
        self.compacted_through
    }

    /// Journal size and checkpoint/compaction counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            journal_bytes: self.journal_bytes(),
            journal_records: self.journal_records,
            compacted_through: self.compacted_through,
            compactions: self.compactions,
            reclaimed_bytes: self.reclaimed_bytes,
            chain_len: self.chain.len(),
            full_checkpoints: self.full_checkpoints,
            delta_checkpoints: self.delta_checkpoints,
        }
    }

    /// Whether any durable state exists to recover from.
    pub fn has_state(&self) -> bool {
        !self.chain.is_empty() || self.journal_records > 0 || !self.invalid_gens.is_empty()
    }

    /// Turns on journal capture so every subsequent mutation lands in
    /// the database's capture buffer for [`Store::sync`] to drain.
    pub fn attach(&self, db: &mut Database) {
        db.set_capture(true);
    }

    /// Drains the database's capture buffer into the journal: its
    /// frames are written as they are, in one write and one
    /// `fdatasync` (none for an empty buffer), and appended to the
    /// in-memory journal copy. The buffer is emptied either way, and
    /// keeps its allocation. Returns the number of records persisted.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the write or sync fails; the
    /// batch is then dropped, and the journal file is cut back to its
    /// last good length through a fresh append handle, so no torn bytes
    /// sit in front of the next sync's frames (a cut that fails too is
    /// retried before the next sync writes).
    pub fn sync(&mut self, db: &mut Database) -> Result<usize, StoreError> {
        let batch = db.captured();
        if batch.is_empty() {
            return Ok(0);
        }
        let written = self
            .cut_torn_tail()
            .and_then(|()| self.journal.write_all(batch))
            .and_then(|()| self.journal.sync_data());
        let mut records = 0;
        if written.is_ok() {
            self.journal_cache.extend_from_slice(batch);
            records = index_frames(batch, &mut self.golden_frames);
            self.journal_records += records;
        }
        db.clear_captured();
        if let Err(e) = written {
            // The failed handle may have written part of the batch: cut
            // it off now, or else before the next sync writes.
            self.torn = true;
            let _ = self.cut_torn_tail();
            return Err(e.into());
        }
        Ok(records as usize)
    }

    /// After a failed sync, truncates the journal file to its valid
    /// bytes (`journal_cache`) through a freshly opened append handle,
    /// which replaces the one that failed.
    fn cut_torn_tail(&mut self) -> std::io::Result<()> {
        if self.torn {
            let journal = OpenOptions::new().append(true).open(self.dir.join(JOURNAL_FILE))?;
            journal.set_len(self.journal_cache.len() as u64)?;
            journal.sync_data()?;
            self.journal = journal;
            self.torn = false;
        }
        Ok(())
    }

    /// Takes a checkpoint: syncs pending captures, then either seals a
    /// **full image** (serializing region+golden behind the Merkle
    /// node table) or a **dirty delta** (persisting only the blocks
    /// the database's checkpoint-dirty tracker accumulated since the
    /// last checkpoint, plus their updated tree paths). The choice
    /// follows [`StoreConfig::full_every`]; the first checkpoint after
    /// a cold open is always full (the lineage tree is session state).
    /// Either way the file is written to a temp name, synced, and
    /// renamed into place, and the sealed digest chains from the
    /// predecessor. Returns the checkpoint generation.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on write failure.
    pub fn checkpoint(&mut self, db: &mut Database) -> Result<u64, StoreError> {
        self.sync(db)?;
        let gen = db.mutation_generation();
        // Re-checkpointing at an unchanged generation replaces the
        // previous file of the same generation; drop its chain entry
        // so the new digest chains from the one before it.
        let mut replaced_kinds = Vec::new();
        while self.chain.last().is_some_and(|e| e.gen == gen) {
            replaced_kinds
                .push(Arc::make_mut(&mut self.chain).pop().expect("checked non-empty").kind);
        }
        let prev = self.chain.last().map_or(0, |e| e.digest);

        let content_len = db.region().len() + db.golden().len();
        let tracker = db.checkpoint_dirty();
        // A same-gen re-checkpoint (`replaced_kinds` non-empty) is
        // always written full: a delta replacing the full image of its
        // own lineage would orphan every sibling delta.
        let write_delta = self.config.full_every > 1
            && replaced_kinds.is_empty()
            && self.since_full + 1 < self.config.full_every
            && tracker.n_blocks() == content_len.div_ceil(DIRTY_BLOCK_SIZE)
            && self.lineage.as_ref().is_some_and(|l| {
                l.tree.block_size() == LEAF_BLOCK_SIZE
                    && l.tree.leaf_count() == content_len.div_ceil(LEAF_BLOCK_SIZE)
            });

        // The file is `head ‖ region ‖ golden ‖ tail`: a full image
        // streams the database's halves instead of copying them into
        // one buffer; a delta is all head.
        let (head, tail, file_name, kind) = if write_delta {
            let leaf_count = content_len.div_ceil(LEAF_BLOCK_SIZE);
            let mut dirty: Vec<usize> = Vec::new();
            for i in 0..leaf_count {
                let start = i * LEAF_BLOCK_SIZE;
                let len = (content_len - start).min(LEAF_BLOCK_SIZE);
                if tracker.any_dirty_in(start, len) {
                    dirty.push(i);
                }
            }
            // A golden handle still holding the lineage keeps its own
            // copy; the store moves on to the new one.
            let lineage =
                Arc::make_mut(self.lineage.as_mut().expect("delta requires a warm lineage"));
            let updates = lineage.tree.update_blocks(db.region(), db.golden(), &dirty);
            let bytes = encode_delta_checkpoint(
                db.region(),
                db.golden(),
                gen,
                prev,
                lineage.tree.gen(),
                LEAF_BLOCK_SIZE,
                &dirty,
                &updates,
                &self.config.key,
            );
            lineage.gen = gen;
            lineage.deltas.push((
                self.dir.join(delta_file_name(gen)),
                dirty.iter().map(|&i| i as u32).collect(),
            ));
            (bytes, Vec::new(), delta_file_name(gen), CheckpointKind::Delta)
        } else {
            let (head, tail, tree) = encode_checkpoint_frame(
                db.region(),
                db.golden(),
                gen,
                prev,
                LEAF_BLOCK_SIZE,
                &self.config.key,
            );
            self.lineage = Some(Arc::new(Lineage {
                tree,
                gen,
                region_len: db.region().len(),
                golden_len: db.golden().len(),
                base: self.dir.join(checkpoint_file_name(gen)),
                deltas: Vec::new(),
            }));
            (head, tail, checkpoint_file_name(gen), CheckpointKind::Full)
        };
        let content: [&[u8]; 2] = match kind {
            CheckpointKind::Full => [db.region(), db.golden()],
            CheckpointKind::Delta => [&[], &[]],
        };

        let sealed = if tail.is_empty() { &head } else { &tail };
        let digest = u64::from_le_bytes(sealed[sealed.len() - 8..].try_into().expect("8 bytes"));
        let path = self.dir.join(&file_name);
        let tmp = self.dir.join(format!("{file_name}.tmp"));
        let mut file = File::create(&tmp)?;
        for part in [&head[..], content[0], content[1], &tail[..]] {
            file.write_all(part)?;
        }
        file.sync_data()?;
        drop(file);
        std::fs::rename(&tmp, &path)?;
        // A same-gen re-checkpoint that switched kinds leaves the old
        // file of the other extension behind; remove it.
        for old in replaced_kinds {
            if old != kind {
                let other = match old {
                    CheckpointKind::Full => checkpoint_file_name(gen),
                    CheckpointKind::Delta => delta_file_name(gen),
                };
                let _ = std::fs::remove_file(self.dir.join(other));
            }
        }
        match kind {
            CheckpointKind::Full => {
                self.since_full = 0;
                self.full_checkpoints += 1;
            }
            CheckpointKind::Delta => {
                self.since_full += 1;
                self.delta_checkpoints += 1;
            }
        }
        let base_gen = self.lineage.as_ref().expect("written above").tree.gen();
        Arc::make_mut(&mut self.chain).push(ChainEntry { gen, digest, path, kind, base_gen });
        // Only after the rename: the dirty blocks are now durably part
        // of the checkpoint history.
        db.clear_checkpoint_dirty();
        Ok(gen)
    }

    /// Compacts the journal: once the newest checkpoint seals
    /// generation G, records with `gen ≤ G` are redundant with the
    /// checkpoint history. Rotates the journal to a compaction marker
    /// plus the retained suffix (write-temp, sync, atomic rename) and
    /// reopens the append handle. Returns the bytes reclaimed (0 when
    /// there is nothing to compact).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the rotation fails.
    pub fn compact(&mut self) -> Result<u64, StoreError> {
        let Some(horizon) = self.chain.last().map(|e| e.gen) else {
            return Ok(0);
        };
        let reclaimable = |f: Frame<'_>| f.kind != FrameKind::Compaction && f.gen <= horizon;
        if horizon <= self.compacted_through && !frames(&self.journal_cache).any(reclaimable) {
            return Ok(0);
        }
        let old_bytes = self.journal_bytes();
        self.rotate(horizon, true)?;
        self.compactions += 1;
        let reclaimed = old_bytes.saturating_sub(self.journal_bytes());
        self.reclaimed_bytes += reclaimed;
        Ok(reclaimed)
    }

    /// Rotates the journal to a compaction marker at `horizon`,
    /// followed by the frames newer than it when `keep_newer` (and by
    /// nothing otherwise), and takes the rotated file's append handle.
    /// On error the old journal, its handle and the in-memory copy are
    /// all left as they were.
    fn rotate(&mut self, horizon: u64, keep_newer: bool) -> Result<(), StoreError> {
        let kept: &[u8] = if keep_newer { &self.journal_cache } else { &[] };
        (self.journal_cache, self.journal) = rotate_journal(&self.dir, horizon, kept)?;
        self.torn = false;
        self.golden_frames.clear();
        self.journal_records = index_frames(&self.journal_cache, &mut self.golden_frames);
        self.compacted_through = horizon;
        Ok(())
    }

    /// Deletes every checkpoint above `base_gen`: the invalid files
    /// and the chain entries that failed to fold. Called by a
    /// compaction-gap recovery, which leaves their timeline for good.
    /// Runs before the journal rotation, so a crash in between repeats
    /// the gap recovery on the next open.
    fn retire_above(&mut self, base_gen: u64) -> Result<(), StoreError> {
        let mut doomed: Vec<PathBuf> = Vec::new();
        for &gen in self.invalid_gens.iter().filter(|&&g| g > base_gen) {
            doomed.push(self.dir.join(checkpoint_file_name(gen)));
            doomed.push(self.dir.join(delta_file_name(gen)));
        }
        while self.chain.last().is_some_and(|e| e.gen > base_gen) {
            doomed.push(Arc::make_mut(&mut self.chain).pop().expect("checked non-empty").path);
        }
        for path in doomed {
            match std::fs::remove_file(&path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
                _ => {}
            }
        }
        self.invalid_gens.retain(|&g| g <= base_gen);
        Ok(())
    }

    /// Warm recovery: loads the newest valid checkpoint image (folding
    /// delta lineages) into the database and replays every journal
    /// record with a newer generation on top. With no usable
    /// checkpoint, the journal is replayed from the database's freshly
    /// built state. If the journal was compacted past the recovered
    /// base, the disjoint suffix is *not* replayed and the gap is
    /// reported ([`StoreFindingKind::CompactionGap`]). Its frames
    /// continue a timeline the recovered image has left, and the
    /// database now reuses their generations, so the journal is
    /// rotated to an empty one at the base: no later recovery or
    /// compaction can mistake them for the new timeline's. For the same
    /// reason the checkpoints above the base, none of which recovered,
    /// are deleted (after this recovery has reported them), so later
    /// opens do not report them again.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on read failure or [`StoreError::Db`]
    /// if a replayed record does not fit the schema.
    pub fn recover_into(&mut self, db: &mut Database) -> Result<RecoveryInfo, StoreError> {
        let mut findings = self.open_findings.clone();
        let mut base_gen = 0u64;
        let mut recovered = false;
        let mut skipped_newer = false;
        for i in (0..self.chain.len()).rev() {
            match fold_candidate(&self.chain, &self.config.key, i, &mut findings, &mut 0)? {
                Some(img) => {
                    base_gen = img.lineage.gen;
                    let (region, golden) = img.content.split_at(img.lineage.region_len);
                    db.load_image(region, golden, base_gen)?;
                    // The loaded image is durably on disk: start the
                    // checkpoint-dirty tracker clean so the next delta
                    // covers only replayed + new mutations. When the
                    // newest candidate recovered cleanly, its folded
                    // lineage also re-warms the session, letting a
                    // reopened store keep writing deltas and serve
                    // golden reads leaf by leaf.
                    db.clear_checkpoint_dirty();
                    if i == self.chain.len() - 1 {
                        let lineage_base = img.lineage.tree.gen();
                        self.since_full = self
                            .chain
                            .iter()
                            .filter(|e| {
                                e.kind == CheckpointKind::Delta && e.base_gen == lineage_base
                            })
                            .count() as u32;
                        self.lineage = Some(Arc::new(img.lineage));
                    }
                    recovered = true;
                    break;
                }
                None => skipped_newer = true,
            }
        }
        if self.invalid_gens.iter().any(|&g| g > base_gen)
            || skipped_newer
            || (!recovered && !self.invalid_gens.is_empty())
        {
            findings.push(StoreFinding {
                kind: StoreFindingKind::StaleCheckpointRecovered,
                detail: format!(
                    "recovered from generation {base_gen} with newer invalid checkpoints present"
                ),
                gen: Some(base_gen),
                offset: None,
            });
        }
        let mut replayed = 0usize;
        if self.compacted_through > base_gen {
            findings.push(StoreFinding {
                kind: StoreFindingKind::CompactionGap,
                detail: format!(
                    "journal compacted through generation {}; records between the recovered base \
                     {base_gen} and the horizon were reclaimed, suffix of {} record(s) not \
                     replayed and dropped",
                    self.compacted_through, self.journal_records
                ),
                gen: Some(base_gen),
                offset: None,
            });
            self.retire_above(base_gen)?;
            self.rotate(base_gen, false)?;
        } else {
            for frame in frames(&self.journal_cache)
                .filter(|f| f.kind != FrameKind::Compaction && f.gen > base_gen)
            {
                db.apply_frame(&frame)?;
                replayed += 1;
            }
        }
        Ok(RecoveryInfo { base_gen, replayed, findings })
    }

    /// The durable golden image: the golden half of the newest usable
    /// checkpoint image plus every journaled golden commit with a newer
    /// generation. Returns `None` when no checkpoint is usable (the
    /// journal alone cannot seed the initial golden image). A
    /// checkpoint older than the compaction horizon is unusable: the
    /// journal no longer holds the golden commits that would carry it
    /// forward, so serving it would hand a repair stale bytes.
    ///
    /// The bytes are read on demand through the returned
    /// [`GoldenHandle`]. When this store holds the verified lineage
    /// tree of the newest chain entry (it wrote or recovered that
    /// entry), the call reads nothing from disk: each read fetches only
    /// the leaves covering its range, checks them against the tree's
    /// root and overlays the journaled golden commits captured at this
    /// call. A read whose leaves fail the check is served by the
    /// whole-image fold of [`Store::durable_golden_image`], which is
    /// also what this call does at once when there is no warm tree.
    /// `attested` marks the blocks no journaled commit overlaid.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on read failure.
    pub fn durable_golden_detail(&self) -> Result<Option<DurableGolden>, StoreError> {
        let warm = self.lineage.as_ref().filter(|l| {
            self.chain.last().is_some_and(|e| e.gen == l.gen) && l.gen >= self.compacted_through
        });
        let Some(lineage) = warm else {
            let mut read = 0;
            return Ok(self.fold_golden(&mut read)?.map(|d| DurableGolden {
                base_gen: d.base_gen,
                golden: GoldenHandle::new(d.golden.len(), GoldenSource::Image(d.golden), read),
                attested: d.attested,
                block_size: d.block_size,
            }));
        };
        let commits = self.golden_frames.clone();
        let attested = attested_blocks(&commits, lineage.gen, lineage.golden_len);
        let source = GoldenSource::Lineage {
            lineage: Arc::clone(lineage),
            key: self.config.key,
            commits,
            chain: Arc::clone(&self.chain),
            compacted_through: self.compacted_through,
            fallback: OnceLock::new(),
        };
        Ok(Some(DurableGolden {
            base_gen: lineage.gen,
            golden: GoldenHandle::new(lineage.golden_len, source, 0),
            attested,
            block_size: LEAF_BLOCK_SIZE,
        }))
    }

    /// The durable golden image folded and verified whole — the newest
    /// chain entry that folds cleanly and is not older than the
    /// compaction horizon, carried forward by the journaled golden
    /// commits. Whole-image readers (a controller restart reloading
    /// the database from disk) use this; repairs read through
    /// [`Store::durable_golden_detail`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on read failure.
    pub fn durable_golden_image(&self) -> Result<Option<DurableGolden<Vec<u8>>>, StoreError> {
        self.fold_golden(&mut 0)
    }

    fn fold_golden(&self, read: &mut u64) -> Result<Option<DurableGolden<Vec<u8>>>, StoreError> {
        let (chain, key) = (&self.chain, &self.config.key);
        fold_durable_golden(chain, key, self.compacted_through, &self.golden_frames, read)
    }

    /// The disk side of the storage audit: re-reads and re-verifies
    /// the newest checkpoint image from disk (catching tampering that
    /// happened *after* open), reconstructs the durable golden image,
    /// and cross-checks it block-by-block (CRC32 per block) against
    /// the in-memory golden image. Call [`Store::sync`] first so
    /// pending golden commits are on disk.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on read failure.
    pub fn storage_audit(&self, db: &Database) -> Result<StorageAudit, StoreError> {
        let mut audit = StorageAudit { findings: Vec::new(), repair_source: None };
        if self.chain.is_empty() {
            return Ok(audit);
        }
        // Reconstruct via the newest candidate only — a failure here
        // is a finding, not a silent fallback.
        let last = self.chain.len() - 1;
        let Some(img) =
            fold_candidate(&self.chain, &self.config.key, last, &mut audit.findings, &mut 0)?
        else {
            return Ok(audit);
        };
        // Past the compaction horizon the journal cannot carry the
        // image forward; comparing against it would flag (and repair
        // from) stale bytes.
        if img.lineage.gen < self.compacted_through {
            audit.findings.push(StoreFinding {
                kind: StoreFindingKind::CompactionGap,
                detail: format!(
                    "journal compacted through generation {}; the journal cannot carry the \
                     newest checkpoint forward to a durable golden image",
                    self.compacted_through
                ),
                gen: Some(img.lineage.gen),
                offset: None,
            });
            return Ok(audit);
        }
        let gen = img.lineage.gen;
        let durable = carry_golden_forward(gen, img.into_golden(), &self.golden_frames);
        let mem = db.golden();
        if durable.golden.len() != mem.len() {
            audit.findings.push(StoreFinding {
                kind: StoreFindingKind::GoldenDivergence,
                detail: format!(
                    "durable golden is {} bytes, in-memory golden is {} bytes",
                    durable.golden.len(),
                    mem.len()
                ),
                gen: Some(durable.base_gen),
                offset: None,
            });
        } else {
            let block = durable.block_size;
            for (i, (disk, ram)) in durable.golden.chunks(block).zip(mem.chunks(block)).enumerate()
            {
                if crc32(disk) != crc32(ram) {
                    audit.findings.push(StoreFinding {
                        kind: StoreFindingKind::GoldenDivergence,
                        detail: format!("golden block {i} differs between disk and memory"),
                        gen: Some(durable.base_gen),
                        offset: Some((i * block) as u64),
                    });
                }
            }
        }
        if !audit.findings.is_empty() {
            audit.repair_source = Some(durable);
        }
        Ok(audit)
    }
}

/// Reads a checkpoint file whole, counting its bytes into `read`.
fn read_file(path: &Path, read: &mut u64) -> std::io::Result<Vec<u8>> {
    let bytes = std::fs::read(path)?;
    *read += bytes.len() as u64;
    Ok(bytes)
}

/// Reconstructs and verifies the image of `chain[i]`: decodes a full
/// checkpoint directly, or folds a delta's lineage (full base + every
/// delta up to it). The fold path-updates the base's verified tree over
/// the union of the deltas' dirty leaves and checks the resulting root
/// against the root the deltas sealed. Either way each content byte is
/// MACed once, and `read` counts the file bytes read. Failures push
/// findings and return `None` so the caller can fall back to an older
/// candidate.
fn fold_candidate(
    chain: &[ChainEntry],
    key: &[u8; 16],
    i: usize,
    findings: &mut Vec<StoreFinding>,
    read: &mut u64,
) -> Result<Option<FoldedImage>, StoreError> {
    let entry = &chain[i];
    let base = entry.base_gen;
    let base_entry = match entry.kind {
        CheckpointKind::Full => Some(entry),
        CheckpointKind::Delta => {
            chain.iter().find(|e| e.kind == CheckpointKind::Full && e.gen == base)
        }
    };
    let Some(base_entry) = base_entry else {
        findings.push(StoreFinding {
            kind: StoreFindingKind::ChainBreak,
            detail: format!("delta checkpoint references missing or invalid base image {base}"),
            gen: Some(entry.gen),
            offset: None,
        });
        return Ok(None);
    };
    let mut content = read_file(&base_entry.path, read)?;
    let (meta, tree, _) = match verify_checkpoint(&content, key) {
        Ok(v) => v,
        // For a full candidate: the file changed since the open-time
        // scan.
        Err(e) => {
            findings.push(checkpoint_finding(base_entry.gen, &e));
            return Ok(None);
        }
    };
    // The file buffer becomes the image: no second copy of the content.
    content.truncate(FULL_CONTENT_AT + meta.region_len + meta.golden_len);
    content.drain(..FULL_CONTENT_AT);
    let mut lineage = Lineage {
        tree,
        gen: entry.gen,
        region_len: meta.region_len,
        golden_len: meta.golden_len,
        base: base_entry.path.clone(),
        deltas: Vec::new(),
    };
    if entry.kind == CheckpointKind::Full {
        return Ok(Some(FoldedImage { content, lineage }));
    }
    let block_size = meta.block_size;
    let mut claimed_root = lineage.tree.root();
    let mut dirty: Vec<usize> = Vec::new();
    // Fold every delta of this lineage up to the candidate.
    for d in chain.iter().filter(|e| {
        e.kind == CheckpointKind::Delta && e.base_gen == base && e.gen > base && e.gen <= entry.gen
    }) {
        let delta = match decode_delta_checkpoint(&read_file(&d.path, read)?, key) {
            Ok(x) => x,
            Err(e) => {
                findings.push(checkpoint_finding(d.gen, &e));
                return Ok(None);
            }
        };
        if delta.meta.region_len != meta.region_len
            || delta.meta.golden_len != meta.golden_len
            || delta.meta.block_size != block_size
        {
            findings.push(StoreFinding {
                kind: StoreFindingKind::ChainBreak,
                detail: "delta image shape disagrees with its base".to_string(),
                gen: Some(d.gen),
                offset: None,
            });
            return Ok(None);
        }
        let (region, golden) = content.split_at_mut(meta.region_len);
        delta.apply_blocks(region, golden);
        let leaves: Vec<u32> = delta.blocks.iter().map(|(index, _)| *index).collect();
        dirty.extend(leaves.iter().map(|&index| index as usize));
        lineage.deltas.push((d.path.clone(), leaves));
        if let Some(root) = delta.nodes.iter().filter(|u| u.level > 0).max_by_key(|u| u.level) {
            claimed_root = root.mac;
        } else if let Some(leaf_root) =
            delta.nodes.iter().find(|u| u.level == 0 && delta.meta.leaf_count == 1)
        {
            claimed_root = leaf_root.mac;
        }
    }
    // Leaves outside `dirty` still hold the base content, so the
    // path-updated tree is exactly the tree of the folded content. It
    // must recompute to the root the delta lineage sealed — this is
    // what detects a silently missing middle delta.
    dirty.sort_unstable();
    dirty.dedup();
    let (region, golden) = content.split_at(meta.region_len);
    lineage.tree.update_blocks(region, golden, &dirty);
    if lineage.tree.root() != claimed_root {
        findings.push(StoreFinding {
            kind: StoreFindingKind::BlockMacMismatch,
            detail: format!(
                "folded delta lineage root {:#018x} does not match the sealed root \
                 {claimed_root:#018x}",
                lineage.tree.root()
            ),
            gen: Some(entry.gen),
            offset: None,
        });
        return Ok(None);
    }
    Ok(Some(FoldedImage { content, lineage }))
}

/// The whole-image durable golden: the newest chain entry that folds
/// cleanly and is not older than `compacted_through`, carried forward
/// by the golden-commit frames `commits`. Findings from skipped
/// candidates are discarded; `read` counts the file bytes read.
fn fold_durable_golden(
    chain: &[ChainEntry],
    key: &[u8; 16],
    compacted_through: u64,
    commits: &[u8],
    read: &mut u64,
) -> Result<Option<DurableGolden<Vec<u8>>>, StoreError> {
    let mut scratch = Vec::new();
    for i in (0..chain.len()).rev() {
        if chain[i].gen < compacted_through {
            continue;
        }
        if let Some(img) = fold_candidate(chain, key, i, &mut scratch, read)? {
            let gen = img.lineage.gen;
            return Ok(Some(carry_golden_forward(gen, img.into_golden(), commits)));
        }
    }
    Ok(None)
}

/// Carries the golden half of the verified image at `gen` forward by
/// the golden-commit frames `commits`. The fold already matched the
/// whole image against its sealed root, so every block the journal
/// left alone is attested.
fn carry_golden_forward(gen: u64, mut golden: Vec<u8>, commits: &[u8]) -> DurableGolden<Vec<u8>> {
    let attested = attested_blocks(commits, gen, golden.len());
    overlay_commits(commits, gen, 0, &mut golden);
    DurableGolden { base_gen: gen, golden, attested, block_size: LEAF_BLOCK_SIZE }
}

/// Counts the record frames of `journal` and appends its golden-commit
/// frames to `golden`: the one header walk that keeps the store's
/// record count and golden-commit copy in step with the journal bytes.
fn index_frames(journal: &[u8], golden: &mut Vec<u8>) -> u64 {
    let mut records = 0;
    for frame in frames(journal).filter(|f| f.kind != FrameKind::Compaction) {
        records += 1;
        if frame.kind == FrameKind::Golden {
            golden.extend_from_slice(frame.raw);
        }
    }
    records
}

/// The golden commits among the frames `commits` newer than the image
/// at `gen`: the ones that carry it forward.
fn newer_commits(commits: &[u8], gen: u64) -> impl Iterator<Item = Frame<'_>> {
    frames(commits).filter(move |f| f.kind == FrameKind::Golden && f.gen > gen)
}

/// Per [`LEAF_BLOCK_SIZE`] block of a `golden_len`-byte golden image:
/// `false` where a journaled golden commit newer than `gen` overlays
/// it.
fn attested_blocks(commits: &[u8], gen: u64, golden_len: usize) -> Vec<bool> {
    let block = LEAF_BLOCK_SIZE;
    let mut attested = vec![true; golden_len.div_ceil(block)];
    for m in newer_commits(commits, gen).filter(|m| m.offset < golden_len) {
        let end = (m.offset + m.bytes.len()).min(golden_len);
        attested[m.offset / block..end.div_ceil(block)].fill(false);
    }
    attested
}

/// Overlays onto `out` — the golden bytes `at..at + out.len()` — every
/// journaled golden commit newer than `gen`, in journal order.
fn overlay_commits(commits: &[u8], gen: u64, at: usize, out: &mut [u8]) {
    let end = at + out.len();
    for m in newer_commits(commits, gen) {
        let (lo, hi) = (m.offset.max(at), m.offset.saturating_add(m.bytes.len()).min(end));
        if lo < hi {
            out[lo - at..hi - at].copy_from_slice(&m.bytes[lo - m.offset..hi - m.offset]);
        }
    }
}

/// The golden half of a durable image, read on demand (see
/// [`Store::durable_golden_detail`]). It implements [`GoldenBlocks`],
/// the interface a recovery engine's disk source reads through.
#[derive(Debug)]
pub struct GoldenHandle {
    golden_len: usize,
    source: GoldenSource,
    bytes_read: AtomicU64,
}

#[derive(Debug)]
enum GoldenSource {
    /// Folded and verified whole when the handle was made.
    Image(Vec<u8>),
    /// Leaves read on demand and checked against the lineage tree's
    /// root, with the journal snapshot and chain to refold from when a
    /// leaf fails its check.
    Lineage {
        lineage: Arc<Lineage>,
        key: [u8; 16],
        /// The journaled golden-commit frames at the handle's creation.
        commits: Vec<u8>,
        chain: Arc<Vec<ChainEntry>>,
        compacted_through: u64,
        /// The whole-image fold, made at the first failed check.
        fallback: OnceLock<Option<Vec<u8>>>,
    },
}

impl GoldenHandle {
    fn new(golden_len: usize, source: GoldenSource, bytes_read: u64) -> Self {
        GoldenHandle { golden_len, source, bytes_read: AtomicU64::new(bytes_read) }
    }

    /// Checkpoint bytes this handle has read from disk so far: the
    /// leaves its reads fetched, plus every file of a whole-image fold
    /// (made when the handle was created without a warm lineage tree,
    /// or when a leaf failed its check).
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Reads the leaves covering golden `range` from their newest
    /// files and checks them against the lineage root: one leaf by its
    /// authentication path, a run of leaves as one batch. Returns the
    /// checkpointed golden bytes of `range`, or `None` when a read or
    /// the check fails.
    fn read_leaves(
        &self,
        lineage: &Lineage,
        key: &[u8; 16],
        range: Range<usize>,
    ) -> Option<Vec<u8>> {
        let tree = &lineage.tree;
        let block_size = tree.block_size();
        let content_len = lineage.region_len + lineage.golden_len;
        let (lo, hi) = (lineage.region_len + range.start, lineage.region_len + range.end);
        let (first, last) = (lo / block_size, (hi - 1) / block_size);
        let span = first * block_size..((last + 1) * block_size).min(content_len);
        let mut buf = vec![0u8; span.len()];
        // One read per run of leaves that sit back to back in one file.
        let mut at = 0;
        let mut leaf = first;
        while leaf <= last {
            let (path, offset) = lineage.locate(leaf);
            let mut len = (content_len - leaf * block_size).min(block_size);
            leaf += 1;
            while leaf <= last && lineage.locate(leaf) == (path, offset + len as u64) {
                len += (content_len - leaf * block_size).min(block_size);
                leaf += 1;
            }
            let mut file = File::open(path).ok()?;
            file.seek(SeekFrom::Start(offset)).ok()?;
            file.read_exact(&mut buf[at..at + len]).ok()?;
            self.bytes_read.fetch_add(len as u64, Ordering::Relaxed);
            at += len;
        }
        let proved = if first == last {
            tree.proof(first).is_some_and(|proof| {
                verify_proof(key, tree.gen(), tree.leaf_count(), first, &buf, &proof, tree.root())
            })
        } else {
            let macs: Vec<u64> = buf
                .chunks(block_size)
                .zip(first as u64..)
                .map(|(block, index)| leaf_mac(key, block, tree.gen(), index))
                .collect();
            tree.verify_run(first, &macs)
        };
        proved.then(|| buf[lo - span.start..hi - span.start].to_vec())
    }
}

impl GoldenBlocks for GoldenHandle {
    fn golden_len(&self) -> usize {
        self.golden_len
    }

    fn read_golden(&self, range: Range<usize>) -> Option<Cow<'_, [u8]>> {
        if range.start > range.end || range.end > self.golden_len {
            return None;
        }
        match &self.source {
            GoldenSource::Image(golden) => golden.get(range).map(Cow::Borrowed),
            _ if range.is_empty() => Some(Cow::Borrowed(&[])),
            GoldenSource::Lineage { lineage, key, commits, chain, compacted_through, fallback } => {
                if let Some(mut bytes) = self.read_leaves(lineage, key, range.clone()) {
                    overlay_commits(commits, lineage.gen, range.start, &mut bytes);
                    return Some(Cow::Owned(bytes));
                }
                let image = fallback.get_or_init(|| {
                    let mut read = 0;
                    let image =
                        fold_durable_golden(chain, key, *compacted_through, commits, &mut read);
                    self.bytes_read.fetch_add(read, Ordering::Relaxed);
                    image.ok().flatten().map(|d| d.golden)
                });
                image.as_ref()?.get(range).map(Cow::Borrowed)
            }
        }
    }
}

/// What one [`Store::storage_audit`] pass found.
#[derive(Debug, Clone)]
pub struct StorageAudit {
    /// Disk-side damage of the newest checkpoint image, or golden
    /// blocks that differ between disk and memory.
    pub findings: Vec<StoreFinding>,
    /// The durable golden the audit compared against — the repair
    /// source for [`StoreFindingKind::GoldenDivergence`] findings.
    /// Present only when the golden diverged.
    pub repair_source: Option<DurableGolden<Vec<u8>>>,
}

/// The durable golden image plus per-block Merkle attestation, from
/// [`Store::durable_golden_detail`] (read on demand through a
/// [`GoldenHandle`]) or folded whole ([`Store::durable_golden_image`],
/// [`StorageAudit::repair_source`]).
#[derive(Debug, Clone)]
pub struct DurableGolden<G = GoldenHandle> {
    /// Generation of the checkpoint image the golden is based on.
    pub base_gen: u64,
    /// The golden bytes (journal overlay applied).
    pub golden: G,
    /// Per-block: `true` when the block's bytes are authenticated
    /// against the checkpoint's sealed Merkle root (no journal overlay
    /// touched it).
    pub attested: Vec<bool>,
    /// The block granularity of `attested`.
    pub block_size: usize,
}

impl<G> DurableGolden<G> {
    /// Whether the block containing golden byte `offset` is
    /// Merkle-attested.
    pub fn is_attested(&self, offset: usize) -> bool {
        self.attested.get(offset / self.block_size.max(1)).copied().unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScratchDir;
    use wtnc_db::{schema, RecordRef};

    #[test]
    fn a_failed_sync_leaves_no_torn_bytes_in_front_of_the_next() {
        let dir = ScratchDir::new("store-failed-sync");
        let path = dir.path().join(JOURNAL_FILE);
        let mut db = Database::build(schema::standard_schema()).unwrap();
        let mut store = Store::open(dir.path(), StoreConfig::default()).unwrap();
        store.attach(&mut db);
        let table = schema::PROCESS_TABLE;
        let slot = |i| RecordRef::new(table, i);

        assert_eq!(db.alloc_record_raw(table).unwrap(), 0);
        let first = store.sync(&mut db).unwrap();
        assert!(first > 0);

        // Bytes a partial write left behind, then a sync whose handle
        // cannot write at all: the sync fails and cuts both off.
        OpenOptions::new().append(true).open(&path).unwrap().write_all(&[0xA5; 7]).unwrap();
        let good = std::mem::replace(&mut store.journal, File::open(&path).unwrap());
        assert_eq!(db.alloc_record_raw(table).unwrap(), 1);
        assert!(store.sync(&mut db).is_err());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), store.journal_bytes());

        store.journal = good;
        assert_eq!(db.alloc_record_raw(table).unwrap(), 2);
        let third = store.sync(&mut db).unwrap();
        drop(store);

        let mut reopened = Store::open(dir.path(), StoreConfig::default()).unwrap();
        let damage = [StoreFindingKind::JournalTornTail, StoreFindingKind::JournalCorruptRecord];
        assert!(
            !reopened.open_findings().iter().any(|f| damage.contains(&f.kind)),
            "{:?}",
            reopened.open_findings()
        );
        assert_eq!(reopened.journal_records(), (first + third) as u64);
        let mut recovered = Database::build(schema::standard_schema()).unwrap();
        let info = reopened.recover_into(&mut recovered).unwrap();
        assert_eq!(info.replayed, first + third);
        let active: Vec<bool> = (0..3).map(|i| recovered.is_active(slot(i)).unwrap()).collect();
        assert_eq!(active, [true, false, true], "both successful syncs replay, the failed one not");
    }
}
