//! Checkpoint files: full images sealed by a keyed Merkle MAC tree,
//! and dirty-delta images that persist only changed blocks plus the
//! updated tree path nodes.
//!
//! **Full checkpoint** (`ckpt-<gen>.img`, all integers little-endian):
//!
//! ```text
//! [magic: 8 bytes "WTNCCKP2"]
//! [meta_len: u32] [meta: meta_len bytes]
//!     meta = gen u64 | prev_digest u64 | region_len u64 |
//!            golden_len u64 | block_size u32 | leaf_count u32
//! [region: region_len bytes] [golden: golden_len bytes]
//! [node table: total_nodes(leaf_count) × u64]   Merkle levels, bottom-up
//! [digest: u64]                                 keyed hash of header + nodes
//! ```
//!
//! Each leaf is `SipHash24(key, block ‖ gen ‖ index)` — unchanged from
//! the v1 flat MAC table — and the internal levels fold the leaves up
//! to a single root ([`crate::merkle`]). The trailing digest covers the
//! header and the whole node table (and so, transitively, the root and
//! the content); the *next* checkpoint records it as `prev_digest`, so
//! the sealed root chains into the verifiable golden-image history
//! exactly as the v1 digest did.
//!
//! **Delta checkpoint** (`ckpt-<gen>.delta`):
//!
//! ```text
//! [magic: 8 bytes "WTNCDLT1"]
//! [meta_len: u32] [meta: meta_len bytes]
//!     meta = gen u64 | prev_digest u64 | base_gen u64 | region_len u64 |
//!            golden_len u64 | block_size u32 | leaf_count u32 |
//!            n_blocks u32 | n_nodes u32
//! [blocks: n_blocks × (index u32 | block bytes)]   dirty blocks, ascending
//! [nodes: n_nodes × (level u32 | index u32 | mac u64)]  updated tree nodes
//! [digest: u64]                                    keyed hash of all above
//! ```
//!
//! A delta records only the blocks dirtied since the previous
//! checkpoint of its lineage plus the `O(dirty · log n)` tree nodes
//! their mutation touched (including the new root). Leaves stay keyed
//! at `base_gen` — the generation of the lineage's full image — so a
//! fold of full + deltas recomputes to exactly the tree a fresh full
//! checkpoint of the folded content would build.

use crate::mac::SipHasher24;
use crate::merkle::{leaf_mac, total_nodes, MerkleError, MerkleTree, NodeUpdate, SplitContent};

/// Magic + format version marker for full checkpoints.
pub const CKPT_MAGIC: &[u8; 8] = b"WTNCCKP2";

/// Magic + format version marker for delta checkpoints.
pub const DELTA_MAGIC: &[u8; 8] = b"WTNCDLT1";

/// Fixed metadata length for full checkpoints.
const META_LEN: usize = 40;

/// Fixed metadata length for delta checkpoints.
const DELTA_META_LEN: usize = 56;

/// Decoded full-checkpoint metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Database mutation generation at the moment of the checkpoint.
    pub gen: u64,
    /// Digest of the previous checkpoint (0 for the first of a chain).
    pub prev_digest: u64,
    /// Region image length in bytes.
    pub region_len: usize,
    /// Golden image length in bytes.
    pub golden_len: usize,
    /// Content block size used for the Merkle leaves.
    pub block_size: usize,
}

/// A fully decoded and verified full checkpoint.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The metadata header.
    pub meta: CheckpointMeta,
    /// The region image.
    pub region: Vec<u8>,
    /// The golden image.
    pub golden: Vec<u8>,
    /// The Merkle tree the digest seals, verified against every
    /// content block and every interior node.
    pub tree: MerkleTree,
    /// The stored (and verified) chain digest of this checkpoint.
    pub digest: u64,
}

/// Decoded delta-checkpoint metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaMeta {
    /// Database mutation generation at the moment of the checkpoint.
    pub gen: u64,
    /// Digest of the previous checkpoint in the chain.
    pub prev_digest: u64,
    /// Generation of the full image this delta's lineage roots at.
    pub base_gen: u64,
    /// Region image length in bytes.
    pub region_len: usize,
    /// Golden image length in bytes.
    pub golden_len: usize,
    /// Content block size used for the Merkle leaves.
    pub block_size: usize,
    /// Leaf count of the (unchanged-shape) content.
    pub leaf_count: usize,
}

/// A fully decoded and verified delta checkpoint.
#[derive(Debug, Clone)]
pub struct DeltaCheckpoint {
    /// The metadata header.
    pub meta: DeltaMeta,
    /// The dirty blocks: `(leaf index, block bytes)`, ascending.
    pub blocks: Vec<(u32, Vec<u8>)>,
    /// The updated tree nodes, including the new root.
    pub nodes: Vec<NodeUpdate>,
    /// The stored (and verified) chain digest of this checkpoint.
    pub digest: u64,
}

impl DeltaCheckpoint {
    /// Writes the dirty blocks over `region ‖ golden`, which must have
    /// this delta's shape; a block may straddle the boundary.
    pub fn apply_blocks(&self, region: &mut [u8], golden: &mut [u8]) {
        let r = region.len();
        for (index, block) in &self.blocks {
            let start = *index as usize * self.meta.block_size;
            let end = start + block.len();
            if start < r {
                let take = end.min(r) - start;
                region[start..start + take].copy_from_slice(&block[..take]);
            }
            if end > r {
                let from = start.max(r);
                golden[from - r..end - r].copy_from_slice(&block[from - start..]);
            }
        }
    }
}

/// Why a checkpoint failed to decode. Each variant is a distinct
/// failure mode with a distinct store finding kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Short file, bad magic, or inconsistent lengths — a torn or
    /// truncated write.
    Torn(String),
    /// Header/node-table bytes do not match the stored digest, or the
    /// tree's interior is inconsistent — metadata tampering or chain
    /// forgery.
    DigestMismatch,
    /// Content blocks fail their keyed leaf MACs — image tampering or
    /// bit rot (the indices of the failing blocks).
    MacMismatch(Vec<usize>),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Torn(why) => write!(f, "torn checkpoint: {why}"),
            CheckpointError::DigestMismatch => write!(f, "checkpoint digest mismatch"),
            CheckpointError::MacMismatch(blocks) => {
                write!(f, "keyed MAC mismatch on {} content block(s)", blocks.len())
            }
        }
    }
}

/// File name of the full checkpoint at `gen`.
pub fn checkpoint_file_name(gen: u64) -> String {
    format!("ckpt-{gen:016x}.img")
}

/// File name of the delta checkpoint at `gen`.
pub fn delta_file_name(gen: u64) -> String {
    format!("ckpt-{gen:016x}.delta")
}

/// Parses a full-checkpoint file name back to its generation.
pub fn parse_checkpoint_file_name(name: &str) -> Option<u64> {
    parse_gen(name, ".img")
}

/// Parses a delta-checkpoint file name back to its generation.
pub fn parse_delta_file_name(name: &str) -> Option<u64> {
    parse_gen(name, ".delta")
}

fn parse_gen(name: &str, suffix: &str) -> Option<u64> {
    let hex = name.strip_prefix("ckpt-")?.strip_suffix(suffix)?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Extracts `(gen, prev_digest, stored_digest)` from a full checkpoint
/// whose *framing* is consistent, without verifying the digest or the
/// MACs. Chain continuity checks use this so that a content-tampered
/// checkpoint (whose stored digest is still the one its successor
/// recorded) does not also read as a chain break.
pub fn peek_chain(bytes: &[u8]) -> Option<(u64, u64, u64)> {
    if bytes.len() < 8 + 4 + META_LEN || &bytes[..8] != CKPT_MAGIC {
        return None;
    }
    let meta_len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    if meta_len != META_LEN {
        return None;
    }
    let m = &bytes[12..12 + META_LEN];
    let gen = u64::from_le_bytes(m[0..8].try_into().expect("8 bytes"));
    let prev_digest = u64::from_le_bytes(m[8..16].try_into().expect("8 bytes"));
    let region_len = u64::from_le_bytes(m[16..24].try_into().expect("8 bytes")) as usize;
    let golden_len = u64::from_le_bytes(m[24..32].try_into().expect("8 bytes")) as usize;
    let block_size = u32::from_le_bytes(m[32..36].try_into().expect("4 bytes")) as usize;
    let leaf_count = u32::from_le_bytes(m[36..40].try_into().expect("4 bytes")) as usize;
    if block_size == 0 {
        return None;
    }
    let content_len = region_len.checked_add(golden_len)?;
    if content_len.div_ceil(block_size) != leaf_count
        || bytes.len() != 12 + META_LEN + content_len + total_nodes(leaf_count) * 8 + 8
    {
        return None;
    }
    let digest = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    Some((gen, prev_digest, digest))
}

/// The delta counterpart of [`peek_chain`]: extracts `(gen,
/// prev_digest, base_gen, stored_digest)` from a framing-consistent
/// delta checkpoint.
pub fn peek_delta_chain(bytes: &[u8]) -> Option<(u64, u64, u64, u64)> {
    if bytes.len() < 8 + 4 + DELTA_META_LEN || &bytes[..8] != DELTA_MAGIC {
        return None;
    }
    let meta_len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    if meta_len != DELTA_META_LEN {
        return None;
    }
    let m = &bytes[12..12 + DELTA_META_LEN];
    let gen = u64::from_le_bytes(m[0..8].try_into().expect("8 bytes"));
    let prev_digest = u64::from_le_bytes(m[8..16].try_into().expect("8 bytes"));
    let base_gen = u64::from_le_bytes(m[16..24].try_into().expect("8 bytes"));
    let region_len = u64::from_le_bytes(m[24..32].try_into().expect("8 bytes")) as usize;
    let golden_len = u64::from_le_bytes(m[32..40].try_into().expect("8 bytes")) as usize;
    let block_size = u32::from_le_bytes(m[40..44].try_into().expect("4 bytes")) as usize;
    let leaf_count = u32::from_le_bytes(m[44..48].try_into().expect("4 bytes")) as usize;
    let n_blocks = u32::from_le_bytes(m[48..52].try_into().expect("4 bytes")) as usize;
    let n_nodes = u32::from_le_bytes(m[52..56].try_into().expect("4 bytes")) as usize;
    if block_size == 0 {
        return None;
    }
    let content_len = region_len.checked_add(golden_len)?;
    if content_len.div_ceil(block_size) != leaf_count || n_blocks > leaf_count {
        return None;
    }
    // Every dirty block is `block_size` bytes except a possibly-short
    // final leaf; the peek cannot know whether the tail is included,
    // so both exact lengths are framing-consistent.
    let full_blocks_len = n_blocks.checked_mul(4 + block_size)?;
    let tail_short = if leaf_count > 0 {
        block_size - block_len(content_len, block_size, leaf_count - 1)
    } else {
        0
    };
    let base_len = 12 + DELTA_META_LEN + full_blocks_len + n_nodes * 16 + 8;
    if bytes.len() != base_len
        && !(n_blocks > 0 && tail_short > 0 && bytes.len() == base_len - tail_short)
    {
        return None;
    }
    let digest = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    Some((gen, prev_digest, base_gen, digest))
}

/// File offset of a full checkpoint's content (region, then golden).
pub(crate) const FULL_CONTENT_AT: usize = 12 + META_LEN;

/// The byte range of a full checkpoint's content (region, then golden)
/// as its header states it, or `None` when `bytes` is shorter than the
/// header. Neither the framing nor the digest is checked.
pub fn full_content_range(bytes: &[u8]) -> Option<std::ops::Range<usize>> {
    let m = bytes.get(12..FULL_CONTENT_AT)?;
    let len = |at: usize| u64::from_le_bytes(m[at..at + 8].try_into().expect("8 bytes")) as usize;
    let content_len = len(16).checked_add(len(24))?;
    Some(FULL_CONTENT_AT..FULL_CONTENT_AT.checked_add(content_len)?)
}

/// File offset of content leaf `index` in a full checkpoint.
pub(crate) fn full_block_offset(index: usize, block_size: usize) -> u64 {
    (FULL_CONTENT_AT + index * block_size) as u64
}

/// File offset of the bytes of the `rank`-th dirty block (in ascending
/// leaf order) of a delta checkpoint, past its leaf-index prefix. Only
/// the image's final leaf can be short, and it sorts last, so every
/// earlier block sits at a fixed stride.
pub(crate) fn delta_block_offset(rank: usize, block_size: usize) -> u64 {
    (12 + DELTA_META_LEN + rank * (4 + block_size) + 4) as u64
}

/// Byte length of `i`-th content block: `block_size` except for a
/// short final block.
fn block_len(content_len: usize, block_size: usize, index: usize) -> usize {
    (content_len - index * block_size).min(block_size)
}

fn write_u64s(out: &mut Vec<u8>, values: &[u64]) {
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Serializes a full checkpoint and returns the bytes together with
/// the built Merkle tree (cached by the store so the next delta
/// updates paths instead of rebuilding).
pub fn encode_checkpoint_with_tree(
    region: &[u8],
    golden: &[u8],
    gen: u64,
    prev_digest: u64,
    block_size: usize,
    key: &[u8; 16],
) -> (Vec<u8>, MerkleTree) {
    let (head, tail, tree) =
        encode_checkpoint_frame(region, golden, gen, prev_digest, block_size, key);
    let mut out = Vec::with_capacity(head.len() + region.len() + golden.len() + tail.len());
    for part in [&head[..], region, golden, &tail[..]] {
        out.extend_from_slice(part);
    }
    (out, tree)
}

/// A full checkpoint as the frame around its content: the file is
/// `head ‖ region ‖ golden ‖ tail` (the tail is the node table and the
/// digest), so a writer can stream the content without copying it.
/// Returns the frame with the built tree.
pub(crate) fn encode_checkpoint_frame(
    region: &[u8],
    golden: &[u8],
    gen: u64,
    prev_digest: u64,
    block_size: usize,
    key: &[u8; 16],
) -> (Vec<u8>, Vec<u8>, MerkleTree) {
    assert!(block_size > 0, "block size must be positive");
    let tree = MerkleTree::build(key, region, golden, gen, block_size);
    let nodes = tree.flatten();

    let mut head = Vec::with_capacity(FULL_CONTENT_AT);
    head.extend_from_slice(CKPT_MAGIC);
    head.extend_from_slice(&(META_LEN as u32).to_le_bytes());
    head.extend_from_slice(&gen.to_le_bytes());
    head.extend_from_slice(&prev_digest.to_le_bytes());
    head.extend_from_slice(&(region.len() as u64).to_le_bytes());
    head.extend_from_slice(&(golden.len() as u64).to_le_bytes());
    head.extend_from_slice(&(block_size as u32).to_le_bytes());
    head.extend_from_slice(&(tree.leaf_count() as u32).to_le_bytes());

    let mut tail = Vec::with_capacity(nodes.len() * 8 + 8);
    write_u64s(&mut tail, &nodes);

    let mut digest = SipHasher24::new(key);
    digest.write(&head);
    digest.write(&tail);
    let digest = digest.finish();

    tail.extend_from_slice(&digest.to_le_bytes());
    (head, tail, tree)
}

/// Serializes a full checkpoint.
pub fn encode_checkpoint(
    region: &[u8],
    golden: &[u8],
    gen: u64,
    prev_digest: u64,
    block_size: usize,
    key: &[u8; 16],
) -> Vec<u8> {
    encode_checkpoint_with_tree(region, golden, gen, prev_digest, block_size, key).0
}

/// Decodes and fully verifies a full checkpoint: framing, digest,
/// every content block's keyed leaf MAC, and the internal consistency
/// of the Merkle node table. The verified tree is returned with the
/// image, so callers never rebuild it.
///
/// # Errors
///
/// Returns the distinct [`CheckpointError`] variant for the failure
/// mode encountered.
pub fn decode_checkpoint(bytes: &[u8], key: &[u8; 16]) -> Result<Checkpoint, CheckpointError> {
    let (meta, tree, digest) = verify_checkpoint(bytes, key)?;
    let content = &bytes[FULL_CONTENT_AT..FULL_CONTENT_AT + meta.region_len + meta.golden_len];
    Ok(Checkpoint {
        meta,
        region: content[..meta.region_len].to_vec(),
        golden: content[meta.region_len..].to_vec(),
        tree,
        digest,
    })
}

/// The checks of [`decode_checkpoint`] without copying the content
/// out: returns the metadata, the verified tree and the stored digest.
/// The content is `bytes[FULL_CONTENT_AT..]`, region then golden.
pub(crate) fn verify_checkpoint(
    bytes: &[u8],
    key: &[u8; 16],
) -> Result<(CheckpointMeta, MerkleTree, u64), CheckpointError> {
    let torn = |why: &str| CheckpointError::Torn(why.to_string());
    if bytes.len() < 8 + 4 + META_LEN {
        return Err(torn("file shorter than the header"));
    }
    if &bytes[..8] != CKPT_MAGIC {
        return Err(torn("bad magic"));
    }
    let meta_len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    if meta_len != META_LEN {
        return Err(torn("unsupported metadata length"));
    }
    let m = &bytes[12..12 + META_LEN];
    let gen = u64::from_le_bytes(m[0..8].try_into().expect("8 bytes"));
    let prev_digest = u64::from_le_bytes(m[8..16].try_into().expect("8 bytes"));
    let region_len = u64::from_le_bytes(m[16..24].try_into().expect("8 bytes")) as usize;
    let golden_len = u64::from_le_bytes(m[24..32].try_into().expect("8 bytes")) as usize;
    let block_size = u32::from_le_bytes(m[32..36].try_into().expect("4 bytes")) as usize;
    let leaf_count = u32::from_le_bytes(m[36..40].try_into().expect("4 bytes")) as usize;

    let header_len = FULL_CONTENT_AT;
    if block_size == 0 {
        return Err(torn("zero block size"));
    }
    let content_len =
        region_len.checked_add(golden_len).ok_or_else(|| torn("content length overflows"))?;
    if content_len.div_ceil(block_size) != leaf_count {
        return Err(torn("leaf count does not cover the content"));
    }
    let node_count = total_nodes(leaf_count);
    let expected_len = node_count
        .checked_mul(8)
        .and_then(|n| n.checked_add(header_len + 8))
        .and_then(|n| n.checked_add(content_len));
    if expected_len != Some(bytes.len()) {
        return Err(torn("file length does not match the header"));
    }
    let expected_len = bytes.len();

    let node_bytes = &bytes[header_len + content_len..expected_len - 8];
    let stored_digest = u64::from_le_bytes(bytes[expected_len - 8..].try_into().expect("8 bytes"));
    let mut digest = SipHasher24::new(key);
    digest.write(&bytes[..header_len]);
    digest.write(node_bytes);
    if digest.finish() != stored_digest {
        return Err(CheckpointError::DigestMismatch);
    }

    let nodes: Vec<u64> = node_bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect();
    // Interior consistency: the digest already seals the node table,
    // so an inconsistent interior means the table was forged wholesale
    // — report it as the digest-class failure it is.
    let tree = match MerkleTree::from_flat(key, gen, block_size, leaf_count, &nodes) {
        Ok(t) => t,
        Err(MerkleError::WrongNodeCount { .. }) => return Err(torn("node table size mismatch")),
        Err(MerkleError::InconsistentNode { .. }) => return Err(CheckpointError::DigestMismatch),
    };

    let content = &bytes[header_len..header_len + content_len];
    let mut bad_blocks = Vec::new();
    for (i, block) in content.chunks(block_size).enumerate() {
        if leaf_mac(key, block, gen, i as u64) != tree.node(0, i as u32).expect("leaf in range") {
            bad_blocks.push(i);
        }
    }
    if !bad_blocks.is_empty() {
        return Err(CheckpointError::MacMismatch(bad_blocks));
    }

    let meta = CheckpointMeta { gen, prev_digest, region_len, golden_len, block_size };
    Ok((meta, tree, stored_digest))
}

/// Serializes a delta checkpoint: the dirty blocks of the current
/// content plus the recomputed tree nodes (`updates`, from
/// [`MerkleTree::update_blocks`]).
#[allow(clippy::too_many_arguments)]
pub fn encode_delta_checkpoint(
    region: &[u8],
    golden: &[u8],
    gen: u64,
    prev_digest: u64,
    base_gen: u64,
    block_size: usize,
    dirty: &[usize],
    updates: &[NodeUpdate],
    key: &[u8; 16],
) -> Vec<u8> {
    assert!(block_size > 0, "block size must be positive");
    let content = SplitContent::new(region, golden);
    let leaf_count = content.len().div_ceil(block_size);
    let mut sorted: Vec<usize> = dirty.iter().copied().filter(|&i| i < leaf_count).collect();
    sorted.sort_unstable();
    sorted.dedup();

    let mut out = Vec::new();
    out.extend_from_slice(DELTA_MAGIC);
    out.extend_from_slice(&(DELTA_META_LEN as u32).to_le_bytes());
    out.extend_from_slice(&gen.to_le_bytes());
    out.extend_from_slice(&prev_digest.to_le_bytes());
    out.extend_from_slice(&base_gen.to_le_bytes());
    out.extend_from_slice(&(region.len() as u64).to_le_bytes());
    out.extend_from_slice(&(golden.len() as u64).to_le_bytes());
    out.extend_from_slice(&(block_size as u32).to_le_bytes());
    out.extend_from_slice(&(leaf_count as u32).to_le_bytes());
    out.extend_from_slice(&(sorted.len() as u32).to_le_bytes());
    out.extend_from_slice(&(updates.len() as u32).to_le_bytes());

    let header_len = out.len();

    let mut scratch = Vec::with_capacity(block_size);
    for &i in &sorted {
        out.extend_from_slice(&(i as u32).to_le_bytes());
        out.extend_from_slice(content.block(i, block_size, &mut scratch));
    }

    let mut node_bytes = Vec::with_capacity(updates.len() * 16);
    for u in updates {
        node_bytes.extend_from_slice(&u.level.to_le_bytes());
        node_bytes.extend_from_slice(&u.index.to_le_bytes());
        node_bytes.extend_from_slice(&u.mac.to_le_bytes());
    }

    // Like a full checkpoint, the digest seals the header and the node
    // table but not the block bytes: blocks are authenticated by their
    // keyed leaf MACs against the digest-sealed node entries, so a
    // content tamper and a metadata tamper stay distinct failure modes.
    let mut digest = SipHasher24::new(key);
    digest.write(&out[..header_len]);
    digest.write(&node_bytes);
    let digest = digest.finish();

    out.extend_from_slice(&node_bytes);
    out.extend_from_slice(&digest.to_le_bytes());
    out
}

/// Decodes and fully verifies a delta checkpoint: framing, digest, and
/// each persisted block's keyed leaf MAC (keyed at `base_gen`) against
/// its level-0 node entry.
///
/// # Errors
///
/// Returns the distinct [`CheckpointError`] variant for the failure
/// mode encountered.
pub fn decode_delta_checkpoint(
    bytes: &[u8],
    key: &[u8; 16],
) -> Result<DeltaCheckpoint, CheckpointError> {
    let torn = |why: &str| CheckpointError::Torn(why.to_string());
    if bytes.len() < 8 + 4 + DELTA_META_LEN {
        return Err(torn("file shorter than the header"));
    }
    if &bytes[..8] != DELTA_MAGIC {
        return Err(torn("bad magic"));
    }
    let meta_len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    if meta_len != DELTA_META_LEN {
        return Err(torn("unsupported metadata length"));
    }
    let m = &bytes[12..12 + DELTA_META_LEN];
    let gen = u64::from_le_bytes(m[0..8].try_into().expect("8 bytes"));
    let prev_digest = u64::from_le_bytes(m[8..16].try_into().expect("8 bytes"));
    let base_gen = u64::from_le_bytes(m[16..24].try_into().expect("8 bytes"));
    let region_len = u64::from_le_bytes(m[24..32].try_into().expect("8 bytes")) as usize;
    let golden_len = u64::from_le_bytes(m[32..40].try_into().expect("8 bytes")) as usize;
    let block_size = u32::from_le_bytes(m[40..44].try_into().expect("4 bytes")) as usize;
    let leaf_count = u32::from_le_bytes(m[44..48].try_into().expect("4 bytes")) as usize;
    let n_blocks = u32::from_le_bytes(m[48..52].try_into().expect("4 bytes")) as usize;
    let n_nodes = u32::from_le_bytes(m[52..56].try_into().expect("4 bytes")) as usize;

    if block_size == 0 {
        return Err(torn("zero block size"));
    }
    let content_len =
        region_len.checked_add(golden_len).ok_or_else(|| torn("content length overflows"))?;
    if content_len.div_ceil(block_size) != leaf_count {
        return Err(torn("leaf count does not cover the content"));
    }
    if n_blocks > leaf_count {
        return Err(torn("more dirty blocks than leaves"));
    }

    // Walk the block section; per-block lengths depend on the indices.
    let mut at = 12 + DELTA_META_LEN;
    // Every block takes at least its 4-byte index: never reserve more
    // entries than the bytes left can hold.
    let mut blocks: Vec<(u32, Vec<u8>)> = Vec::with_capacity(n_blocks.min((bytes.len() - at) / 4));
    let mut prev_index: Option<u32> = None;
    for _ in 0..n_blocks {
        if bytes.len() < at + 4 {
            return Err(torn("block section truncated"));
        }
        let index = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        at += 4;
        if index as usize >= leaf_count {
            return Err(torn("dirty block index out of range"));
        }
        if prev_index.is_some_and(|p| index <= p) {
            return Err(torn("dirty block indices not ascending"));
        }
        prev_index = Some(index);
        let len = block_len(content_len, block_size, index as usize);
        if bytes.len() - at < len {
            return Err(torn("block section truncated"));
        }
        blocks.push((index, bytes[at..at + len].to_vec()));
        at += len;
    }

    let nodes_len = n_nodes.checked_mul(16);
    if nodes_len.is_none() || (bytes.len() - at).checked_sub(8) != nodes_len {
        return Err(torn("file length does not match the header"));
    }
    let nodes_end = bytes.len() - 8;
    let mut nodes = Vec::with_capacity(n_nodes);
    for c in bytes[at..nodes_end].chunks_exact(16) {
        nodes.push(NodeUpdate {
            level: u32::from_le_bytes(c[0..4].try_into().expect("4 bytes")),
            index: u32::from_le_bytes(c[4..8].try_into().expect("4 bytes")),
            mac: u64::from_le_bytes(c[8..16].try_into().expect("8 bytes")),
        });
    }

    let stored_digest = u64::from_le_bytes(bytes[nodes_end..].try_into().expect("8 bytes"));
    let mut digest = SipHasher24::new(key);
    digest.write(&bytes[..12 + DELTA_META_LEN]);
    digest.write(&bytes[at..nodes_end]);
    if digest.finish() != stored_digest {
        return Err(CheckpointError::DigestMismatch);
    }

    // Every persisted block must carry its recomputed leaf MAC in the
    // node list, and the block bytes must match it. The stable sort
    // keeps the first entry of a repeated index first, as a scan of
    // the list would find it.
    let mut leaves: Vec<(u32, u64)> =
        nodes.iter().filter(|u| u.level == 0).map(|u| (u.index, u.mac)).collect();
    leaves.sort_by_key(|&(index, _)| index);
    let mut bad_blocks = Vec::new();
    for (index, block) in &blocks {
        let at = leaves.partition_point(|&(i, _)| i < *index);
        let Some(&(_, mac)) = leaves.get(at).filter(|&&(i, _)| i == *index) else {
            return Err(torn("dirty block without a leaf node update"));
        };
        if leaf_mac(key, block, base_gen, *index as u64) != mac {
            bad_blocks.push(*index as usize);
        }
    }
    if !bad_blocks.is_empty() {
        return Err(CheckpointError::MacMismatch(bad_blocks));
    }

    Ok(DeltaCheckpoint {
        meta: DeltaMeta {
            gen,
            prev_digest,
            base_gen,
            region_len,
            golden_len,
            block_size,
            leaf_count,
        },
        blocks,
        nodes,
        digest: stored_digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: [u8; 16] = *b"unit-test-key-01";

    fn sample() -> Vec<u8> {
        let region: Vec<u8> = (0..700u32).map(|i| (i % 251) as u8).collect();
        let golden: Vec<u8> = (0..700u32).map(|i| (i % 127) as u8).collect();
        encode_checkpoint(&region, &golden, 42, 0xFEED, 256, &KEY)
    }

    fn sample_delta() -> Vec<u8> {
        let mut region: Vec<u8> = (0..700u32).map(|i| (i % 251) as u8).collect();
        let golden: Vec<u8> = (0..700u32).map(|i| (i % 127) as u8).collect();
        let mut tree = MerkleTree::build(&KEY, &region, &golden, 42, 256);
        region[300] = 0xEE;
        region[301] = 0xFF;
        let updates = tree.update_blocks(&region, &golden, &[1]);
        encode_delta_checkpoint(&region, &golden, 50, 0xBEEF, 42, 256, &[1], &updates, &KEY)
    }

    #[test]
    fn round_trip() {
        let bytes = sample();
        let c = decode_checkpoint(&bytes, &KEY).unwrap();
        assert_eq!(c.meta.gen, 42);
        assert_eq!(c.meta.prev_digest, 0xFEED);
        assert_eq!(c.region.len(), 700);
        assert_eq!(c.golden.len(), 700);
        assert_eq!(c.region[5], 5);
        // The verified node table is the tree a rebuild produces.
        let rebuilt = MerkleTree::build(&KEY, &c.region, &c.golden, 42, 256);
        assert_eq!(c.tree.flatten(), rebuilt.flatten());
        assert_eq!(c.tree.flatten().len(), total_nodes(1400usize.div_ceil(256)));
    }

    #[test]
    fn content_range_spans_region_then_golden() {
        let bytes = sample();
        let range = full_content_range(&bytes).expect("whole header");
        assert_eq!(range, FULL_CONTENT_AT..FULL_CONTENT_AT + 1400);
        let c = decode_checkpoint(&bytes, &KEY).unwrap();
        assert_eq!(&bytes[range.start..range.start + 700], &c.region[..]);
        assert_eq!(&bytes[range.end - 700..range.end], &c.golden[..]);
        assert_eq!(full_content_range(&bytes[..FULL_CONTENT_AT - 1]), None);
    }

    #[test]
    fn file_name_round_trip() {
        let name = checkpoint_file_name(0xAB_CDEF);
        assert_eq!(parse_checkpoint_file_name(&name), Some(0xAB_CDEF));
        assert_eq!(parse_checkpoint_file_name("ckpt-xyz.img"), None);
        assert_eq!(parse_checkpoint_file_name("other.img"), None);
        let name = delta_file_name(0xAB_CDEF);
        assert_eq!(parse_delta_file_name(&name), Some(0xAB_CDEF));
        assert_eq!(parse_checkpoint_file_name(&name), None);
        assert_eq!(parse_delta_file_name("ckpt-xyz.delta"), None);
    }

    #[test]
    fn truncation_is_torn() {
        let bytes = sample();
        for cut in [0, 7, 11, 40, bytes.len() - 1] {
            assert!(
                matches!(decode_checkpoint(&bytes[..cut], &KEY), Err(CheckpointError::Torn(_))),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn content_tamper_is_a_block_mac_mismatch() {
        let mut bytes = sample();
        bytes[12 + 40 + 300] ^= 1; // a region byte
        match decode_checkpoint(&bytes, &KEY) {
            Err(CheckpointError::MacMismatch(blocks)) => assert_eq!(blocks, vec![1]),
            other => panic!("expected MacMismatch, got {other:?}"),
        }
    }

    #[test]
    fn header_or_node_table_tamper_is_a_digest_mismatch() {
        let mut bytes = sample();
        bytes[16] ^= 1; // the stored generation
        assert!(matches!(decode_checkpoint(&bytes, &KEY), Err(CheckpointError::DigestMismatch)));
        // A node-table byte (an interior tree node) is covered too.
        let mut bytes = sample();
        let len = bytes.len();
        bytes[len - 20] ^= 1;
        assert!(matches!(decode_checkpoint(&bytes, &KEY), Err(CheckpointError::DigestMismatch)));
    }

    #[test]
    fn wrong_key_fails() {
        let bytes = sample();
        let mut other = KEY;
        other[0] ^= 0xFF;
        assert!(decode_checkpoint(&bytes, &other).is_err());
        let bytes = sample_delta();
        assert!(decode_delta_checkpoint(&bytes, &other).is_err());
    }

    #[test]
    fn delta_round_trip() {
        let bytes = sample_delta();
        let d = decode_delta_checkpoint(&bytes, &KEY).unwrap();
        assert_eq!(d.meta.gen, 50);
        assert_eq!(d.meta.prev_digest, 0xBEEF);
        assert_eq!(d.meta.base_gen, 42);
        assert_eq!(d.meta.leaf_count, 6);
        assert_eq!(d.blocks.len(), 1);
        assert_eq!(d.blocks[0].0, 1);
        assert_eq!(d.blocks[0].1[300 - 256], 0xEE);
        // One leaf plus its path to the root.
        assert!(d.nodes.iter().any(|u| u.level == 0 && u.index == 1));
        let top = d.nodes.iter().map(|u| u.level).max().unwrap();
        assert!(top >= 2, "path reaches the root level");
    }

    #[test]
    fn delta_truncation_is_torn() {
        let bytes = sample_delta();
        for cut in [0, 7, 11, 50, 70, bytes.len() - 1] {
            assert!(
                matches!(
                    decode_delta_checkpoint(&bytes[..cut], &KEY),
                    Err(CheckpointError::Torn(_))
                ),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn delta_block_tamper_is_a_mac_mismatch_and_node_tamper_a_digest_mismatch() {
        // Flip a byte inside the persisted block bytes.
        let mut bytes = sample_delta();
        bytes[12 + 56 + 4 + 10] ^= 1;
        match decode_delta_checkpoint(&bytes, &KEY) {
            Err(CheckpointError::MacMismatch(blocks)) => assert_eq!(blocks, vec![1]),
            other => panic!("expected MacMismatch, got {other:?}"),
        }
        // Flip a byte inside the node-update section.
        let mut bytes = sample_delta();
        let len = bytes.len();
        bytes[len - 12] ^= 1;
        assert!(matches!(
            decode_delta_checkpoint(&bytes, &KEY),
            Err(CheckpointError::DigestMismatch)
        ));
    }

    #[test]
    fn delta_peek_matches_decode() {
        let bytes = sample_delta();
        let (gen, prev, base, digest) = peek_delta_chain(&bytes).unwrap();
        let d = decode_delta_checkpoint(&bytes, &KEY).unwrap();
        assert_eq!((gen, prev, base, digest), (50, 0xBEEF, 42, d.digest));
        assert!(peek_chain(&bytes).is_none(), "delta must not peek as a full checkpoint");
        let full = sample();
        assert!(peek_delta_chain(&full).is_none());
    }
}
