//! Checkpoint decoder fuzzing: `decode_checkpoint` and
//! `decode_delta_checkpoint` over arbitrary bytes, over valid full and
//! delta encodings with random cuts and byte flips, and over two
//! crafted headers whose lengths once overflowed or reserved ~137 GB.
//! Whatever the file holds, decoding returns a typed error or the
//! checkpoint that was written, and never panics or aborts.

use proptest::prelude::*;
use wtnc_store::merkle::MerkleTree;
use wtnc_store::{
    decode_checkpoint, decode_delta_checkpoint, encode_checkpoint, encode_delta_checkpoint,
    CheckpointError, CKPT_MAGIC, DELTA_MAGIC,
};

const KEY: [u8; 16] = *b"checkpoint-fuzz!";
const BLOCK: usize = 64;

/// A region and golden image of `len` bytes each, derived from `seed`.
fn images(len: usize, seed: u8) -> (Vec<u8>, Vec<u8>) {
    let region = (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect();
    let golden = (0..len).map(|i| (i as u8).wrapping_mul(17) ^ seed).collect();
    (region, golden)
}

fn full(len: usize, seed: u8) -> Vec<u8> {
    let (region, golden) = images(len, seed);
    encode_checkpoint(&region, &golden, 9, 0xC0FFEE, BLOCK, &KEY)
}

/// A delta over `full(len, seed)` that rewrites the blocks in `dirty`.
fn delta(len: usize, seed: u8, dirty: &[usize]) -> Vec<u8> {
    let (mut region, golden) = images(len, seed);
    let mut tree = MerkleTree::build(&KEY, &region, &golden, 9, BLOCK);
    for &b in dirty {
        region[b * BLOCK] ^= 0x5A;
    }
    let updates = tree.update_blocks(&region, &golden, dirty);
    encode_delta_checkpoint(&region, &golden, 10, 0xBEEF, 9, BLOCK, dirty, &updates, &KEY)
}

/// Cuts `bytes` to `cut` (when `whole` is false) and XORs the flips in.
/// Returns whether the bytes changed.
fn damage(
    bytes: &mut Vec<u8>,
    whole: bool,
    cut: prop::sample::Index,
    flips: &[(prop::sample::Index, u8)],
) -> bool {
    let len = bytes.len();
    if !whole {
        bytes.truncate(cut.index(len));
    }
    if !bytes.is_empty() {
        for (at, mask) in flips {
            let at = at.index(bytes.len());
            bytes[at] ^= mask;
        }
    }
    bytes.len() != len || !flips.is_empty()
}

/// Little-endian `u32` and `u64` writers for crafted headers.
fn put32(bytes: &mut [u8], at: usize, v: u32) {
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
}
fn put64(bytes: &mut [u8], at: usize, v: u64) {
    bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_decode_without_panicking(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        magic in 0u8..3,
    ) {
        let mut bytes = bytes;
        // Give most inputs a real magic, so the header fields get read.
        let magic: Option<&[u8; 8]> = [None, Some(CKPT_MAGIC), Some(DELTA_MAGIC)][magic as usize];
        if let (Some(m), true) = (magic, bytes.len() >= 8) {
            bytes[..8].copy_from_slice(m);
        }
        prop_assert!(decode_checkpoint(&bytes, &KEY).is_err());
        prop_assert!(decode_delta_checkpoint(&bytes, &KEY).is_err());
    }

    #[test]
    fn damaged_full_checkpoints_fail_with_a_typed_error(
        len in 1usize..600,
        seed in any::<u8>(),
        whole in any::<bool>(),
        cut in any::<prop::sample::Index>(),
        flips in prop::collection::vec((any::<prop::sample::Index>(), 1u8..=255), 0..4),
    ) {
        let mut bytes = full(len, seed);
        let original = decode_checkpoint(&bytes, &KEY).expect("valid encoding decodes");
        let changed = damage(&mut bytes, whole, cut, &flips);
        match decode_checkpoint(&bytes, &KEY) {
            Ok(c) => {
                prop_assert!(!changed, "damaged checkpoint decoded");
                prop_assert_eq!(c.region, original.region);
                prop_assert_eq!(c.golden, original.golden);
            }
            Err(_) => prop_assert!(changed, "intact checkpoint refused"),
        }
        prop_assert!(decode_delta_checkpoint(&bytes, &KEY).is_err());
    }

    #[test]
    fn damaged_delta_checkpoints_fail_with_a_typed_error(
        len in 1usize..600,
        seed in any::<u8>(),
        picks in prop::collection::vec(any::<prop::sample::Index>(), 0..4),
        whole in any::<bool>(),
        cut in any::<prop::sample::Index>(),
        flips in prop::collection::vec((any::<prop::sample::Index>(), 1u8..=255), 0..4),
    ) {
        let blocks = len.div_ceil(BLOCK);
        let mut dirty: Vec<usize> = picks.iter().map(|p| p.index(blocks)).collect();
        dirty.sort_unstable();
        dirty.dedup();
        let mut bytes = delta(len, seed, &dirty);
        let original = decode_delta_checkpoint(&bytes, &KEY).expect("valid encoding decodes");
        let changed = damage(&mut bytes, whole, cut, &flips);
        match decode_delta_checkpoint(&bytes, &KEY) {
            Ok(d) => {
                prop_assert!(!changed, "damaged delta decoded");
                prop_assert_eq!(d.blocks, original.blocks);
            }
            Err(_) => prop_assert!(changed, "intact delta refused"),
        }
        prop_assert!(decode_checkpoint(&bytes, &KEY).is_err());
    }
}

/// A full header claiming `u32::MAX` leaves of `u32::MAX` bytes: the
/// expected file length overflows `usize`.
#[test]
fn full_header_with_overflowing_length_is_torn() {
    let mut bytes = full(100, 1);
    bytes.truncate(12 + 40);
    let max = u64::from(u32::MAX);
    put64(&mut bytes, 12 + 16, max * max); // region_len
    put64(&mut bytes, 12 + 24, 0); // golden_len
    put32(&mut bytes, 12 + 32, u32::MAX); // block_size
    put32(&mut bytes, 12 + 36, u32::MAX); // leaf_count
    assert!(matches!(decode_checkpoint(&bytes, &KEY), Err(CheckpointError::Torn(_))));
}

/// A 68-byte delta header claiming `u32::MAX` one-byte dirty blocks and
/// no block bytes: the block list must not be reserved up front.
#[test]
fn delta_header_claiming_billions_of_blocks_is_torn() {
    let mut bytes = delta(100, 1, &[0]);
    bytes.truncate(12 + 56);
    put64(&mut bytes, 12 + 24, u64::from(u32::MAX)); // region_len
    put64(&mut bytes, 12 + 32, 0); // golden_len
    put32(&mut bytes, 12 + 40, 1); // block_size
    put32(&mut bytes, 12 + 44, u32::MAX); // leaf_count
    put32(&mut bytes, 12 + 48, u32::MAX); // n_blocks
    assert_eq!(bytes.len(), 68);
    assert!(matches!(decode_delta_checkpoint(&bytes, &KEY), Err(CheckpointError::Torn(_))));
}
