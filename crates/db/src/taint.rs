//! Ground-truth corruption ledger for experiment classification.
//!
//! When the injector flips a bit it records a [`TaintEntry`] here.
//! Detection never consults this map — audits always examine the actual
//! bytes — but classification does: a client API call that reads a
//! tainted byte is an **escaped error** ("a piece of erroneous data
//! that is used by an application process before the audit program can
//! detect it"), a repair that rewrites a tainted byte converts it to
//! **caught**, a client write over a tainted byte makes it
//! **overwritten** (the paper's "no effect" outcome), and anything
//! still tainted at the end of a run is **latent**.

use std::collections::BTreeMap;

use wtnc_sim::SimTime;

/// What region class a taint landed in, fixed at injection time; this
/// is the row key of the paper's Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaintKind {
    /// Catalog descriptors or a static/config data region.
    StaticData,
    /// A record header.
    Structural,
    /// A dynamic field with a range or semantic rule available.
    DynamicRuled,
    /// A dynamic field with no enforceable rule.
    DynamicUnruled,
    /// Padding or a free record slot (cannot affect the application
    /// unless the slot is later allocated).
    Slack,
}

/// One injected corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaintEntry {
    /// Identifier assigned by the injector.
    pub id: u64,
    /// When the bit was flipped.
    pub at: SimTime,
    /// Region classification at the injection site.
    pub kind: TaintKind,
}

/// Resolution of a taint, recorded when it leaves the map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaintFate {
    /// An audit element repaired the bytes.
    Caught {
        /// When the repair happened.
        at: SimTime,
    },
    /// The client consumed the corrupted bytes first.
    Escaped {
        /// When the client read the bytes.
        at: SimTime,
    },
    /// A legitimate client write replaced the corrupted bytes.
    Overwritten {
        /// When the overwrite happened.
        at: SimTime,
    },
}

/// Byte-offset → taint map over the database region.
#[derive(Debug, Clone, Default)]
pub struct TaintMap {
    by_offset: BTreeMap<usize, TaintEntry>,
    resolved: Vec<(usize, TaintEntry, TaintFate)>,
}

impl TaintMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a fresh taint at `offset`. If the offset was already
    /// tainted the older entry is superseded — the new flip determines
    /// the byte's content — and resolved as overwritten so every
    /// injected error keeps exactly one fate. Returns the superseded
    /// entry, if any.
    pub fn insert(&mut self, offset: usize, entry: TaintEntry) -> Option<TaintEntry> {
        let old = self.by_offset.insert(offset, entry);
        if let Some(old) = old {
            self.resolved.push((offset, old, TaintFate::Overwritten { at: entry.at }));
        }
        old
    }

    /// Taints overlapping `[offset, offset + len)`, in offset order.
    pub fn overlapping(&self, offset: usize, len: usize) -> Vec<(usize, TaintEntry)> {
        self.by_offset.range(offset..offset + len.max(1)).map(|(&o, &e)| (o, e)).collect()
    }

    /// Resolves every taint overlapping the range with `fate`,
    /// returning the resolved entries.
    pub fn resolve_range(&mut self, offset: usize, len: usize, fate: TaintFate) -> Vec<TaintEntry> {
        let hits: Vec<usize> =
            self.by_offset.range(offset..offset + len.max(1)).map(|(&o, _)| o).collect();
        let mut out = Vec::with_capacity(hits.len());
        for o in hits {
            if let Some(entry) = self.by_offset.remove(&o) {
                self.resolved.push((o, entry, fate));
                out.push(entry);
            }
        }
        out
    }

    /// Number of unresolved (latent) taints.
    pub fn latent_count(&self) -> usize {
        self.by_offset.len()
    }

    /// Iterates over unresolved taints.
    pub fn latent(&self) -> impl Iterator<Item = (usize, TaintEntry)> + '_ {
        self.by_offset.iter().map(|(&o, &e)| (o, e))
    }

    /// Every resolved taint — `(offset, entry, fate)` — in resolution
    /// order.
    pub fn resolved(&self) -> &[(usize, TaintEntry, TaintFate)] {
        &self.resolved
    }

    /// Drops all state (between runs).
    pub fn clear(&mut self) {
        self.by_offset.clear();
        self.resolved.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64) -> TaintEntry {
        TaintEntry { id, at: SimTime::from_secs(id), kind: TaintKind::DynamicRuled }
    }

    #[test]
    fn insert_and_overlap_query() {
        let mut map = TaintMap::new();
        map.insert(10, entry(1));
        map.insert(20, entry(2));
        assert_eq!(map.overlapping(0, 100).len(), 2);
        assert_eq!(map.overlapping(10, 1).len(), 1);
        assert_eq!(map.overlapping(11, 9).len(), 0);
        assert_eq!(map.overlapping(15, 6).len(), 1);
        assert_eq!(map.latent_count(), 2);
    }

    #[test]
    fn resolve_removes_and_records_fate() {
        let mut map = TaintMap::new();
        map.insert(10, entry(1));
        map.insert(12, entry(2));
        map.insert(50, entry(3));
        let caught = map.resolve_range(8, 8, TaintFate::Caught { at: SimTime::from_secs(9) });
        assert_eq!(caught.len(), 2);
        assert_eq!(map.latent_count(), 1);
        assert_eq!(map.resolved().len(), 2);
        // Re-resolving the same range is a no-op.
        assert!(map
            .resolve_range(8, 8, TaintFate::Caught { at: SimTime::from_secs(9) })
            .is_empty());
    }

    #[test]
    fn newer_taint_supersedes_older() {
        let mut map = TaintMap::new();
        assert_eq!(map.insert(10, entry(1)), None);
        let old = map.insert(10, entry(2));
        assert_eq!(old.map(|e| e.id), Some(1));
        assert_eq!(map.latent_count(), 1);
        let hits = map.overlapping(10, 1);
        assert_eq!(hits[0].1.id, 2);
        // The superseded entry keeps a fate (overwritten by the new
        // flip), so accounting stays complete.
        assert_eq!(map.resolved().len(), 1);
        assert!(matches!(map.resolved()[0].2, TaintFate::Overwritten { .. }));
    }

    #[test]
    fn zero_length_queries_behave() {
        let mut map = TaintMap::new();
        map.insert(5, entry(1));
        // len 0 is treated as len 1 to keep point queries ergonomic.
        assert_eq!(map.overlapping(5, 0).len(), 1);
        map.clear();
        assert_eq!(map.latent_count(), 0);
        assert!(map.resolved().is_empty());
    }
}
