//! The record-status index: per table, which slots are free and which
//! are active, as two bitsets derived from each slot's status byte.
//!
//! The index lives outside the region, like the shadow
//! [`RecordMeta`](crate::RecordMeta), so image bytes, journal frames and
//! checkpoints do not depend on it. [`Database`](crate::Database) keeps
//! it exact: every write re-derives the bits of the slots whose status
//! byte it covered, and a whole-image load re-derives everything. The
//! allocator finds the next free slot, and the range and semantic
//! audits the next active one, by scanning 64 slots per word instead of
//! decoding one header per slot.

use crate::layout::{STATUS_ACTIVE, STATUS_FREE};

/// One table's status bits and allocation hint.
#[derive(Debug, Clone)]
struct TableStatus {
    /// Bit `i` set: slot `i`'s status byte is [`STATUS_FREE`].
    free: Vec<u64>,
    /// Bit `i` set: slot `i`'s status byte is [`STATUS_ACTIVE`].
    active: Vec<u64>,
    /// Where the allocator starts looking: one past the last
    /// allocation, lowered by explicit frees and record restores.
    hint: u32,
    slots: u32,
}

impl TableStatus {
    fn new(slots: u32) -> Self {
        let words = (slots as usize).div_ceil(64);
        TableStatus { free: vec![0; words], active: vec![0; words], hint: 0, slots }
    }
}

/// The per-table free and active bitsets. Slots whose status byte is
/// neither value (a corrupted header) are in neither set.
#[derive(Debug, Clone)]
pub(crate) struct StatusIndex {
    tables: Vec<TableStatus>,
}

impl StatusIndex {
    /// An index for tables of the given slot counts, every slot in
    /// neither set until [`StatusIndex::set`] derives it.
    pub fn new(slot_counts: impl Iterator<Item = u32>) -> Self {
        StatusIndex { tables: slot_counts.map(TableStatus::new).collect() }
    }

    /// Re-derives slot `index` of table `table` from its status byte.
    pub fn set(&mut self, table: usize, index: usize, status: u8) {
        let t = &mut self.tables[table];
        let (word, bit) = (index / 64, 1u64 << (index % 64));
        t.free[word] = (t.free[word] & !bit) | if status == STATUS_FREE { bit } else { 0 };
        t.active[word] = (t.active[word] & !bit) | if status == STATUS_ACTIVE { bit } else { 0 };
    }

    /// True when slot `index` of `table` is active (false for unknown
    /// slots).
    pub fn is_active(&self, table: usize, index: u32) -> bool {
        self.tables.get(table).is_some_and(|t| {
            t.active.get(index as usize / 64).is_some_and(|w| w >> (index % 64) & 1 == 1)
        })
    }

    /// Number of active slots in `table`.
    pub fn active_count(&self, table: usize) -> u32 {
        self.tables.get(table).map_or(0, |t| t.active.iter().map(|w| w.count_ones()).sum())
    }

    /// The first active slot of `table` at or after `from`.
    pub fn next_active(&self, table: usize, from: u32) -> Option<u32> {
        let t = self.tables.get(table)?;
        first_set(&t.active, from, t.slots)
    }

    /// The slot the allocator takes next: the first free slot at or
    /// after the hint, else the first free slot below it.
    pub fn next_free(&self, table: usize) -> Option<u32> {
        let t = self.tables.get(table)?;
        let hint = t.hint.min(t.slots.saturating_sub(1));
        first_set(&t.free, hint, t.slots).or_else(|| first_set(&t.free, 0, hint))
    }

    /// Moves `table`'s allocation hint to `hint`.
    pub fn set_hint(&mut self, table: usize, hint: u32) {
        if let Some(t) = self.tables.get_mut(table) {
            t.hint = hint;
        }
    }

    /// Lowers `table`'s allocation hint to at most `index`.
    pub fn lower_hint(&mut self, table: usize, index: u32) {
        if let Some(t) = self.tables.get_mut(table) {
            t.hint = t.hint.min(index);
        }
    }
}

/// The first set bit of `bits` in `[from, end)`.
fn first_set(bits: &[u64], from: u32, end: u32) -> Option<u32> {
    if from >= end {
        return None;
    }
    let mut word = from as usize / 64;
    let mut w = bits[word] & (u64::MAX << (from % 64));
    loop {
        if w != 0 {
            let index = (word * 64) as u32 + w.trailing_zeros();
            return (index < end).then_some(index);
        }
        word += 1;
        if word * 64 >= end as usize {
            return None;
        }
        w = bits[word];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_set_respects_both_bounds() {
        let bits = [0b1010u64, 1 << 63, 0, 1];
        assert_eq!(first_set(&bits, 0, 256), Some(1));
        assert_eq!(first_set(&bits, 2, 256), Some(3));
        assert_eq!(first_set(&bits, 4, 256), Some(127));
        assert_eq!(first_set(&bits, 128, 256), Some(192));
        assert_eq!(first_set(&bits, 4, 127), None);
        assert_eq!(first_set(&bits, 193, 256), None);
        assert_eq!(first_set(&bits, 5, 5), None);
    }

    #[test]
    fn allocation_order_wraps_below_the_hint() {
        let mut idx = StatusIndex::new([100u32].into_iter());
        for i in 0..100 {
            idx.set(0, i, STATUS_ACTIVE);
        }
        idx.set(0, 7, STATUS_FREE);
        idx.set(0, 70, STATUS_FREE);
        idx.set_hint(0, 50);
        assert_eq!(idx.next_free(0), Some(70));
        idx.set(0, 70, STATUS_ACTIVE);
        assert_eq!(idx.next_free(0), Some(7), "nothing free above the hint: wrap");
        idx.set(0, 7, 0x3C);
        assert_eq!(idx.next_free(0), None, "a garbage status is neither free nor active");
        assert!(!idx.is_active(0, 7));
        assert_eq!(idx.active_count(0), 99);
        idx.set_hint(0, 100);
        idx.set(0, 99, STATUS_FREE);
        assert_eq!(idx.next_free(0), Some(99), "a hint past the end starts at the last slot");
    }
}
