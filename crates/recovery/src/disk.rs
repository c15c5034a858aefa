//! The repair-from-disk source: a durable golden image the engine
//! trusts over the in-memory one.
//!
//! Every repair rung below `ControllerRestart` copies bytes from the
//! in-memory golden image — which is itself RAM, and can be corrupted
//! by the same fault that corrupted the region. When a durable store
//! is attached, the controller hands the engine a
//! [`DiskGoldenSource`] (the newest on-disk checkpoint's golden image
//! carried forward by the journaled golden commits); before a
//! golden-based repair executes, the engine refreshes the affected
//! golden range from this copy, so the repair source is verified disk
//! state rather than trusting surviving memory. The source reads
//! through [`GoldenBlocks`], so a store can serve and verify only the
//! blocks a repair asks for.

use std::sync::Arc;

use wtnc_db::{Database, GoldenBlocks};

/// A durable golden image to repair from.
#[derive(Debug, Clone)]
pub struct DiskGoldenSource {
    base_gen: u64,
    golden: Arc<dyn GoldenBlocks>,
    /// Per-block Merkle attestation from the store: `true` when the
    /// block's bytes are authenticated against the checkpoint's
    /// sealed root, `false` for blocks overlaid from (CRC-framed but
    /// tree-external) journal records. Empty when the source was built
    /// without attestation.
    attested: Vec<bool>,
    /// Block granularity of `attested` (0 = no attestation info).
    block_size: usize,
}

impl DiskGoldenSource {
    /// Wraps a durable golden image plus the store's per-block Merkle
    /// attestation bitmap (`block_size`-byte granularity).
    pub fn with_attestation(
        base_gen: u64,
        golden: impl GoldenBlocks + 'static,
        attested: Vec<bool>,
        block_size: usize,
    ) -> Self {
        DiskGoldenSource { base_gen, golden: Arc::new(golden), attested, block_size }
    }

    /// Generation of the checkpoint the image was reconstructed from.
    pub fn base_gen(&self) -> u64 {
        self.base_gen
    }

    /// Whether the block containing golden byte `offset` was
    /// Merkle-verified against the checkpoint's sealed root (`false`
    /// for journal-overlaid blocks or when the source carries no
    /// attestation info).
    pub fn is_attested(&self, offset: usize) -> bool {
        if self.block_size == 0 {
            return false;
        }
        self.attested.get(offset / self.block_size).copied().unwrap_or(false)
    }

    /// Length of the golden image in bytes.
    pub fn len(&self) -> usize {
        self.golden.golden_len()
    }

    /// Whether the image is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rewrites the in-memory golden bytes of `[offset, offset+len)`
    /// from the durable copy where they differ. Returns the number of
    /// bytes refreshed (0 when memory already matches disk, the range
    /// is out of bounds for either image, or the source refuses the
    /// read — the repair then proceeds as with no disk source).
    pub fn refresh_range(&self, db: &mut Database, offset: usize, len: usize) -> usize {
        let end = offset.saturating_add(len).min(self.len()).min(db.region_len());
        if offset >= end {
            return 0;
        }
        let Some(disk) = self.golden.read_golden(offset..end) else {
            return 0;
        };
        if db.golden()[offset..end] == *disk {
            return 0;
        }
        let disk = disk.into_owned();
        match db.restore_golden_range(offset, &disk) {
            Ok(()) => disk.len(),
            Err(_) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtnc_db::schema;

    #[test]
    fn refresh_repairs_a_corrupted_golden_range() {
        let mut db = Database::build(schema::standard_schema()).unwrap();
        let durable = db.golden().to_vec();
        let disk = DiskGoldenSource::with_attestation(7, durable.clone(), Vec::new(), 0);
        assert_eq!(disk.base_gen(), 7);
        assert_eq!(disk.len(), db.region_len());

        // Corrupt the in-memory golden behind everyone's back.
        let offset = db.region_len() / 2;
        let byte = db.golden()[offset] ^ 0xA5;
        db.restore_golden_range(offset, &[byte]).unwrap();
        assert_ne!(db.golden()[offset], durable[offset]);

        assert_eq!(disk.refresh_range(&mut db, offset, 1), 1);
        assert_eq!(db.golden()[offset], durable[offset]);
        // Already clean: nothing to do.
        assert_eq!(disk.refresh_range(&mut db, offset, 1), 0);
        // Out of bounds: refused, not panicked.
        let len = db.region_len();
        assert_eq!(disk.refresh_range(&mut db, len, 8), 0);
    }

    #[test]
    fn attestation_bitmap_answers_per_offset() {
        let golden = vec![0u8; 1024];
        let plain = DiskGoldenSource::with_attestation(1, golden.clone(), Vec::new(), 0);
        assert!(!plain.is_attested(0));

        let disk =
            DiskGoldenSource::with_attestation(1, golden, vec![true, false, true, true], 256);
        assert!(disk.is_attested(0));
        assert!(disk.is_attested(255));
        assert!(!disk.is_attested(256));
        assert!(disk.is_attested(512));
        assert!(!disk.is_attested(4096), "past the bitmap reads unattested");
    }
}
