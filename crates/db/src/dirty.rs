//! Dirty-block tracking for incremental audits.
//!
//! The region is partitioned into [`DIRTY_BLOCK_SIZE`]-byte blocks;
//! every mutation path through [`Database`](crate::Database) marks the
//! blocks it touches. The audit consults it (the static-data element
//! skips a chunk none of whose blocks is dirty) and clears the bits
//! once a range has been *verified* clean (or repaired), so the bitmap
//! is a conservative over-approximation of "bytes that may differ from
//! the last verified state": a clean bit is a proof, a dirty bit is
//! merely a hint to look.
//!
//! Clearing is deliberately restricted to blocks **fully contained** in
//! the verified range ([`DirtyTracker::clear_contained`]): a boundary
//! block shared with an unverified neighbor stays dirty, trading a
//! little recompute for a simple correctness argument.

/// Dirty-block granularity in bytes.
///
/// 256 B keeps the bitmap tiny (one bit per block) while making a
/// single-field write dirty at most two blocks.
pub const DIRTY_BLOCK_SIZE: usize = 256;

/// A per-block dirty bitmap over a byte region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirtyTracker {
    n_blocks: usize,
    words: Vec<u64>,
}

impl DirtyTracker {
    /// Creates a tracker for a region of `region_len` bytes cut into
    /// [`DIRTY_BLOCK_SIZE`]-byte blocks (the last block may be short).
    /// All blocks start clean.
    pub fn new(region_len: usize) -> Self {
        let n_blocks = region_len.div_ceil(DIRTY_BLOCK_SIZE);
        DirtyTracker { n_blocks, words: vec![0u64; n_blocks.div_ceil(64)] }
    }

    /// Total number of blocks in the region.
    pub fn n_blocks(&self) -> usize {
        self.n_blocks
    }

    /// Half-open block-index range `[first, last)` overlapping the byte
    /// range `[offset, offset + len)`, clamped to the region.
    fn overlapping(&self, offset: usize, len: usize) -> (usize, usize) {
        if len == 0 {
            return (0, 0);
        }
        let first = (offset / DIRTY_BLOCK_SIZE).min(self.n_blocks);
        let last = (offset.saturating_add(len)).div_ceil(DIRTY_BLOCK_SIZE).min(self.n_blocks);
        (first, last)
    }

    /// Marks every block overlapping `[offset, offset + len)` dirty.
    pub fn mark_range(&mut self, offset: usize, len: usize) {
        let (first, last) = self.overlapping(offset, len);
        for b in first..last {
            self.words[b / 64] |= 1u64 << (b % 64);
        }
    }

    /// Clears blocks **fully contained** in `[offset, offset + len)`.
    /// Boundary blocks only partially covered stay dirty: the caller
    /// has only verified part of their bytes.
    pub fn clear_contained(&mut self, offset: usize, len: usize) {
        if len == 0 {
            return;
        }
        let end = offset.saturating_add(len);
        let first = offset.div_ceil(DIRTY_BLOCK_SIZE);
        // Blocks are treated as nominally full-size: to clear a short
        // final block, pass a range reaching `n_blocks * DIRTY_BLOCK_SIZE`.
        let last = (end / DIRTY_BLOCK_SIZE).min(self.n_blocks);
        for b in first..last {
            self.words[b / 64] &= !(1u64 << (b % 64));
        }
    }

    /// True if block `b` (below `n_blocks`) is dirty.
    fn dirty_bit(&self, b: usize) -> bool {
        self.words[b / 64] & (1u64 << (b % 64)) != 0
    }

    /// True if any block overlapping `[offset, offset + len)` is dirty.
    pub fn any_dirty_in(&self, offset: usize, len: usize) -> bool {
        let (first, last) = self.overlapping(offset, len);
        (first..last).any(|b| self.dirty_bit(b))
    }

    /// Number of dirty blocks overlapping `[offset, offset + len)`.
    pub fn count_dirty_in(&self, offset: usize, len: usize) -> usize {
        let (first, last) = self.overlapping(offset, len);
        (first..last).filter(|&b| self.dirty_bit(b)).count()
    }

    /// Number of blocks overlapping `[offset, offset + len)`.
    pub fn count_blocks_in(&self, offset: usize, len: usize) -> usize {
        let (first, last) = self.overlapping(offset, len);
        last - first
    }

    /// Total number of dirty blocks.
    pub fn dirty_count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Marks every block dirty.
    pub fn mark_all(&mut self) {
        self.mark_range(0, self.n_blocks * DIRTY_BLOCK_SIZE);
    }

    /// Clears every block.
    pub fn clear_all(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_and_query() {
        let mut t = DirtyTracker::new(1024);
        assert_eq!(t.n_blocks(), 4);
        assert_eq!(t.dirty_count(), 0);
        t.mark_range(300, 10); // inside block 1
        assert!(t.dirty_bit(1));
        assert!(!t.dirty_bit(0));
        assert!(t.any_dirty_in(0, 1024));
        assert!(!t.any_dirty_in(512, 512));
        assert_eq!(t.dirty_count(), 1);
    }

    #[test]
    fn straddling_write_marks_both_blocks() {
        let mut t = DirtyTracker::new(1024);
        t.mark_range(254, 4);
        assert!(t.dirty_bit(0));
        assert!(t.dirty_bit(1));
        assert_eq!(t.dirty_count(), 2);
    }

    #[test]
    fn clear_contained_spares_boundary_blocks() {
        let mut t = DirtyTracker::new(1024);
        t.mark_all();
        // Verified [100, 768): blocks 1 and 2 are fully contained,
        // block 0 only partially, block 3 not at all.
        t.clear_contained(100, 668);
        assert!(t.dirty_bit(0));
        assert!(!t.dirty_bit(1));
        assert!(!t.dirty_bit(2));
        assert!(t.dirty_bit(3));
    }

    #[test]
    fn clear_contained_aligned_range_clears_exactly() {
        let mut t = DirtyTracker::new(1024);
        t.mark_all();
        t.clear_contained(256, 512);
        assert!(t.dirty_bit(0));
        assert!(!t.dirty_bit(1));
        assert!(!t.dirty_bit(2));
        assert!(t.dirty_bit(3));
        t.clear_contained(0, 1024);
        assert_eq!(t.dirty_count(), 0);
    }

    #[test]
    fn short_final_block_is_clearable() {
        // 1000-byte region: block 3 covers [768, 1000).
        let mut t = DirtyTracker::new(1000);
        assert_eq!(t.n_blocks(), 4);
        t.mark_all();
        t.clear_contained(0, 1000);
        assert_eq!(t.dirty_count(), 1, "short tail block needs the full ceil range");
        t.clear_contained(768, 256);
        assert_eq!(t.dirty_count(), 0);
    }

    #[test]
    fn zero_len_is_noop() {
        let mut t = DirtyTracker::new(1024);
        t.mark_range(100, 0);
        assert_eq!(t.dirty_count(), 0);
        t.mark_all();
        t.clear_contained(100, 0);
        assert_eq!(t.dirty_count(), 4);
    }

    #[test]
    fn out_of_range_marks_clamp() {
        let mut t = DirtyTracker::new(1024);
        t.mark_range(2000, 50);
        assert_eq!(t.dirty_count(), 0);
        t.mark_range(1000, 5000);
        assert_eq!(t.dirty_count(), 1);
        assert!(t.dirty_bit(3));
    }

    #[test]
    fn count_helpers() {
        let mut t = DirtyTracker::new(1024);
        t.mark_range(0, 300);
        assert_eq!(t.count_dirty_in(0, 1024), 2);
        assert_eq!(t.count_blocks_in(0, 1024), 4);
        assert_eq!(t.count_dirty_in(512, 512), 0);
    }
}
