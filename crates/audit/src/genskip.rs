//! Shared change-tracking state for change-aware audit elements: the
//! one every-`n`-th-pass full-sweep rule ([`SweepCounter`], kept by the
//! range, semantic and static-data elements), and per-record
//! generations ([`GenSkip`], kept by the range element alone).
//!
//! The database bumps a per-record generation on every mutation
//! overlapping the record (see `wtnc_db::Database::record_generation`),
//! including raw injector writes and golden reloads. The range element
//! records the generation at which it last *verified* a record clean;
//! while the generation is unchanged, re-checking the record is
//! provably redundant — the bytes cannot differ from the verified
//! state. A record with findings never has its generation recorded, so
//! a deferred (detect-only) pass re-flags it every cycle exactly like a
//! full scan would. The structural element keeps no such state: its
//! per-header check costs about what reading and storing a generation
//! would.

use std::collections::BTreeMap;

use wtnc_db::TableId;

use crate::process::ElementPolicy;

/// The every-`n`-th-pass full-sweep rule, one counter per audited unit
/// (a table, or a static chunk), bumped once per pass, rechecks
/// included. A recheck counts but never takes the forced sweep: at the
/// boundary it leaves the counter saturated, so the next cycle pass
/// sweeps. Period 1 sweeps every pass (a full scan); period 0 never
/// forces a sweep.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SweepCounter(u32);

impl SweepCounter {
    /// Starts a pass; returns whether it may skip state that the change
    /// tracking proves unchanged (not a forced full sweep).
    pub fn may_skip(&mut self, policy: ElementPolicy) -> bool {
        let period = policy.full_rescan_period;
        let full_sweep = period > 0 && self.0 + 1 >= period;
        self.0 = if full_sweep { 0 } else { self.0 + 1 };
        !full_sweep
    }

    /// Counts a scoped recheck as a pass without taking the forced full
    /// sweep: a counter that reaches the boundary stays there, so the
    /// next [`SweepCounter::may_skip`] sweeps.
    pub fn note_recheck(&mut self, policy: ElementPolicy) {
        if let Some(last) = policy.full_rescan_period.checked_sub(1) {
            self.0 = (self.0 + 1).min(last);
        }
    }
}

/// Sentinel: the record has never been verified clean.
const NEVER_VERIFIED: u64 = u64::MAX;

#[derive(Debug, Clone, Default)]
struct TableState {
    last_clean: Vec<u64>,
    sweep: SweepCounter,
}

/// Per-record "verified clean at generation g" bookkeeping, plus each
/// table's full-sweep counter.
#[derive(Debug, Clone, Default)]
pub(crate) struct GenSkip {
    tables: BTreeMap<TableId, TableState>,
}

impl GenSkip {
    /// Starts a pass over `table`: sizes the state and returns whether
    /// the pass may skip records verified clean at their current
    /// generation ([`SweepCounter::may_skip`]).
    pub fn begin_pass(&mut self, table: TableId, records: usize, policy: ElementPolicy) -> bool {
        let st = self.tables.entry(table).or_default();
        st.last_clean.resize(records, NEVER_VERIFIED);
        st.sweep.may_skip(policy)
    }

    /// Counts a scoped recheck of one record of `table` as a pass
    /// ([`SweepCounter::note_recheck`]) and sizes the state.
    pub fn note_recheck(&mut self, table: TableId, records: usize, policy: ElementPolicy) {
        let st = self.tables.entry(table).or_default();
        st.last_clean.resize(records, NEVER_VERIFIED);
        st.sweep.note_recheck(policy);
    }

    /// True when the record was verified clean at exactly generation
    /// `gen` (and so cannot have changed since).
    pub fn is_clean(&self, table: TableId, index: u32, gen: u64) -> bool {
        self.tables
            .get(&table)
            .and_then(|st| st.last_clean.get(index as usize))
            .is_some_and(|&g| g == gen && g != NEVER_VERIFIED)
    }

    /// Records that the record was verified clean at generation `gen`.
    pub fn set_clean(&mut self, table: TableId, index: u32, gen: u64) {
        if let Some(slot) =
            self.tables.get_mut(&table).and_then(|st| st.last_clean.get_mut(index as usize))
        {
            *slot = gen;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn period(full_rescan_period: u32) -> ElementPolicy {
        ElementPolicy { full_rescan_period, ..ElementPolicy::default() }
    }

    #[test]
    fn unverified_records_are_never_skippable() {
        let mut s = GenSkip::default();
        assert!(s.begin_pass(TableId(0), 4, period(0)));
        assert!(!s.is_clean(TableId(0), 0, 0));
        s.set_clean(TableId(0), 0, 0);
        assert!(s.is_clean(TableId(0), 0, 0));
        assert!(!s.is_clean(TableId(0), 0, 7), "generation moved: recheck");
    }

    #[test]
    fn full_sweep_every_nth_pass() {
        let mut c = SweepCounter::default();
        let skips: Vec<bool> = (0..6).map(|_| c.may_skip(period(3))).collect();
        assert_eq!(skips, vec![true, true, false, true, true, false]);
    }

    #[test]
    fn rechecks_count_but_leave_the_sweep_to_the_next_pass() {
        let mut c = SweepCounter::default();
        let policy = period(3);
        assert!(c.may_skip(policy));
        c.note_recheck(policy);
        c.note_recheck(policy);
        c.note_recheck(policy);
        assert!(!c.may_skip(policy), "saturated at the boundary: this pass sweeps");
        assert!(c.may_skip(policy));
        let mut one = SweepCounter::default();
        one.note_recheck(period(1));
        assert!(!one.may_skip(period(1)), "period 1: every cycle pass sweeps");
    }

    #[test]
    fn period_zero_never_sweeps() {
        let mut c = SweepCounter::default();
        assert!((0..10).all(|_| c.may_skip(period(0))));
    }

    #[test]
    fn full_scans_never_skip() {
        let mut c = SweepCounter::default();
        assert!((0..10).all(|_| !c.may_skip(period(1))));
    }
}
