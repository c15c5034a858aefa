//! Golden-image bytes read on demand.
//!
//! A repair copies reference bytes from the golden image. When that
//! reference lives on disk, reading and verifying the whole image for
//! every repair round wastes the work on bytes no repair touches;
//! [`GoldenBlocks`] lets a repair ask for exactly the range it copies.

use std::borrow::Cow;
use std::ops::Range;

/// A golden image whose bytes are read one range at a time. The
/// in-memory implementation is `Vec<u8>`; a durable store implements
/// it over its verified on-disk checkpoints.
pub trait GoldenBlocks: std::fmt::Debug + Send + Sync {
    /// Length of the golden image in bytes.
    fn golden_len(&self) -> usize;

    /// The golden bytes of `range`, or `None` when they cannot be
    /// served: the range leaves the image, or the source cannot read
    /// or verify them.
    fn read_golden(&self, range: Range<usize>) -> Option<Cow<'_, [u8]>>;
}

impl GoldenBlocks for Vec<u8> {
    fn golden_len(&self) -> usize {
        self.len()
    }

    fn read_golden(&self, range: Range<usize>) -> Option<Cow<'_, [u8]>> {
        self.get(range).map(Cow::Borrowed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_vec_serves_in_bounds_ranges_and_refuses_the_rest() {
        let golden: Vec<u8> = (0..10).collect();
        assert_eq!(golden.golden_len(), 10);
        assert_eq!(golden.read_golden(2..5).as_deref(), Some(&[2u8, 3, 4][..]));
        assert!(golden.read_golden(8..11).is_none());
    }
}
