//! wtnc-store — the durable storage engine behind the controller.
//!
//! The paper's audit framework treats the in-memory golden image as
//! the recovery reference; this crate makes that reference *durable*
//! and *verifiable*:
//!
//! - an append-only **mutation journal** ([`journal`]) — every
//!   `DbApi` mutation path funnels through `wtnc-db`'s unified capture
//!   hook, which writes each mutation as a length-prefixed, CRC-framed
//!   journal frame ([`wtnc_db::Frame`]); [`Store::sync`] writes those
//!   bytes to disk as they are and keeps the same bytes as its
//!   in-memory journal copy, which recovery and the golden overlay
//!   decode in place;
//! - periodic **checkpoints** ([`checkpoint`]) — full images sealed by
//!   a keyed **Merkle MAC tree** ([`merkle`]: leaf = SipHash-2-4 over
//!   block bytes + generation + index, internal nodes fold children up
//!   to a root), and **dirty-delta images** that persist only the
//!   blocks changed since the last checkpoint plus their updated tree
//!   paths (O(dirty · log n), not O(image)); each checkpoint records
//!   its predecessor's digest, so the golden-image history forms a
//!   verifiable hash chain;
//! - **journal compaction** ([`Store::compact`]) — once a checkpoint
//!   seals generation G, records with gen ≤ G are rotated out behind a
//!   compaction marker so the WAL stops growing without bound;
//! - **warm recovery** ([`Store::recover_into`]) — newest valid
//!   checkpoint (folding delta lineages onto their full base) plus
//!   journal replay reproduces the exact pre-crash image, falling back
//!   across torn or tampered checkpoints;
//! - the disk side of the **storage audit**
//!   ([`Store::storage_audit`]) — cross-checking the durable golden
//!   image against the in-memory one, block by block;
//! - **demand-driven golden reads** ([`Store::durable_golden_detail`])
//!   — the repair source is a [`GoldenHandle`] that reads only the
//!   checkpoint leaves a requested range covers and proof-checks them
//!   against the lineage Merkle tree the store keeps verified in
//!   memory, falling back to the whole-image fold
//!   ([`Store::durable_golden_image`]) when no warm tree exists or a
//!   leaf fails its proof.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod journal;
pub mod mac;
pub mod merkle;
mod store;

pub use checkpoint::{
    checkpoint_file_name, decode_checkpoint, decode_delta_checkpoint, delta_file_name,
    encode_checkpoint, encode_checkpoint_with_tree, encode_delta_checkpoint, full_content_range,
    parse_checkpoint_file_name, parse_delta_file_name, peek_chain, peek_delta_chain, Checkpoint,
    CheckpointError, CheckpointMeta, DeltaCheckpoint, DeltaMeta, CKPT_MAGIC, DELTA_MAGIC,
};
pub use journal::{rotate_journal, scan_journal, JournalScan, JOURNAL_FILE, JOURNAL_TMP_FILE};
pub use mac::{siphash24, SipHasher24};
pub use merkle::{
    leaf_mac, total_nodes, verify_proof, MerkleError, MerkleTree, NodeUpdate, SplitContent,
};
pub use store::{
    ChainEntry, CheckpointKind, DurableGolden, GoldenHandle, RecoveryInfo, StorageAudit, Store,
    StoreConfig, StoreError, StoreFinding, StoreFindingKind, StoreStats, DEFAULT_KEY,
    LEAF_BLOCK_SIZE,
};

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static SCRATCH_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory under the system temp dir, removed on
/// drop. Used by tests, the fault-injection campaign and the CLI
/// walkthrough so every run leaves the filesystem clean.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `tmp/wtnc-store-<pid>-<tag>-<n>`.
    pub fn new(tag: &str) -> Self {
        let n = SCRATCH_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("wtnc-store-{}-{}-{}", std::process::id(), tag, n));
        std::fs::create_dir_all(&path).expect("create scratch dir");
        ScratchDir { path }
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
