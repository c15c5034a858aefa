//! The progress indicator element (§4.2).
//!
//! The database API "is a passive entity and is not capable of
//! detecting and resolving deadlocks, so it is important to have
//! deadlock detection as part of the audit process". Every API call
//! posts a message on the IPC queue; the progress indicator counts
//! them. If the counter stops moving for longer than the progress
//! timeout, recovery kicks in: "the progress indicator element
//! terminates the client process holding the lock for greater than a
//! predetermined threshold duration, thereby releasing the lock".

use wtnc_db::{DbEvent, LockTable};
use wtnc_sim::{Pid, ProcessRegistry, SimDuration, SimTime};

use crate::finding::{AuditElementKind, Finding, RecoveryAction};

/// Maximum tolerated lock-holding duration. The paper: clients should
/// hold a lock for at most ~100 ms.
const LOCK_THRESHOLD: SimDuration = SimDuration::from_millis(100);

/// How long the activity counter may stay unchanged before recovery
/// triggers. The paper sets it far above [`LOCK_THRESHOLD`] "in order
/// to reduce runtime overhead".
const PROGRESS_TIMEOUT: SimDuration = SimDuration::from_secs(100);

/// The progress-indicator element.
#[derive(Debug, Clone, Default)]
pub struct ProgressIndicator {
    counter: u64,
    last_change: SimTime,
    starved: u64,
}

impl ProgressIndicator {
    /// Creates the element.
    pub fn new() -> Self {
        Self::default()
    }

    /// Messages observed so far.
    pub fn counter(&self) -> u64 {
        self.counter
    }

    /// "No budget" is not "no progress": a supervised process that was
    /// denied CPU (a budget-shed audit cycle under storm) is healthy
    /// but starved, so the watermark is refreshed **without** inflating
    /// the activity counter. This keeps the escalation ladder from
    /// condemning a starved-but-healthy process as livelocked, while a
    /// genuinely wedged process — starved of nothing — still times out.
    pub fn note_starved(&mut self, at: SimTime) {
        self.starved += 1;
        self.last_change = at;
    }

    /// Starvation notices recorded so far.
    pub fn starved(&self) -> u64 {
        self.starved
    }

    /// Feeds one API-activity message ("these messages are used to
    /// increment a counter in the progress indicator element as they
    /// indicate ongoing database activity").
    pub fn observe(&mut self, event: &DbEvent) {
        self.counter += 1;
        self.last_change = event.at;
    }

    /// Counts database activity learned out of band (a supervision
    /// tier that sees client work directly rather than through the IPC
    /// queue). Equivalent to [`ProgressIndicator::observe`] without a
    /// message.
    pub fn note_activity(&mut self, at: SimTime) {
        self.counter += 1;
        self.last_change = at;
    }

    /// True when the counter has been still for longer than the
    /// progress timeout.
    pub fn timed_out(&self, now: SimTime) -> bool {
        now.saturating_since(self.last_change) > PROGRESS_TIMEOUT
    }

    /// Runs the element: on timeout, terminates every client holding a
    /// lock past the lock threshold and releases its locks.
    pub fn check(
        &mut self,
        locks: &mut LockTable,
        registry: &mut ProcessRegistry,
        now: SimTime,
        out: &mut Vec<Finding>,
    ) {
        if !self.timed_out(now) {
            return;
        }
        let stale = locks.stale(now, LOCK_THRESHOLD);
        if stale.is_empty() {
            return;
        }
        let mut offenders: Vec<Pid> = stale.iter().map(|&(_, pid, _)| pid).collect();
        offenders.sort_unstable();
        offenders.dedup();
        for pid in offenders {
            let released = locks.release_all(pid);
            registry.kill(pid, now);
            out.push(Finding {
                element: AuditElementKind::Progress,
                at: now,
                table: None,
                record: None,
                detail: format!(
                    "no database activity for over {}; terminated {pid} and released {released} stale lock(s)",
                    PROGRESS_TIMEOUT
                ),
                action: RecoveryAction::TerminatedClient { pid },
                target: Some(crate::FindingTarget::Client { pid }),
                caught: Vec::new(),
            });
            out.push(Finding {
                element: AuditElementKind::Progress,
                at: now,
                table: None,
                record: None,
                detail: format!("released {released} lock(s) held by {pid}"),
                action: RecoveryAction::ReleasedLock { pid },
                target: Some(crate::FindingTarget::Client { pid }),
                caught: Vec::new(),
            });
        }
        // Recovery counts as progress.
        self.last_change = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtnc_db::{DbOp, RecordRef, TableId};

    fn event(at: SimTime) -> DbEvent {
        DbEvent { at, pid: Pid(1), op: DbOp::WriteFld, table: Some(TableId(1)), record: Some(0) }
    }

    #[test]
    fn activity_resets_the_timer() {
        let mut p = ProgressIndicator::new();
        p.observe(&event(SimTime::from_secs(50)));
        assert_eq!(p.counter(), 1);
        assert!(!p.timed_out(SimTime::from_secs(100)));
        assert!(p.timed_out(SimTime::from_secs(151)));
    }

    #[test]
    fn wedged_lock_holder_is_terminated_and_lock_released() {
        let mut p = ProgressIndicator::new();
        let mut locks = LockTable::new();
        let mut registry = ProcessRegistry::new();
        let wedged = registry.spawn("client", SimTime::ZERO);
        locks.acquire(RecordRef::new(TableId(2), 3), wedged, SimTime::from_secs(1)).unwrap();
        // Silence for 200 s.
        let now = SimTime::from_secs(200);
        let mut out = Vec::new();
        p.check(&mut locks, &mut registry, now, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out.iter().any(|f| f.action == RecoveryAction::TerminatedClient { pid: wedged }));
        assert!(locks.is_empty());
        assert!(!registry.is_alive(wedged));
    }

    #[test]
    fn no_recovery_while_activity_flows() {
        let mut p = ProgressIndicator::new();
        let mut locks = LockTable::new();
        let mut registry = ProcessRegistry::new();
        let pid = registry.spawn("client", SimTime::ZERO);
        locks.acquire(RecordRef::new(TableId(0), 0), pid, SimTime::ZERO).unwrap();
        // Steady activity right up to the check.
        for s in 0..100 {
            p.observe(&event(SimTime::from_secs(s)));
        }
        let mut out = Vec::new();
        p.check(&mut locks, &mut registry, SimTime::from_secs(100), &mut out);
        assert!(out.is_empty());
        assert!(registry.is_alive(pid));
        assert_eq!(locks.len(), 1);
    }

    #[test]
    fn lock_threshold_discriminates_stale_from_fresh_holders() {
        // The lock-threshold path proper: on a progress timeout, only
        // the client holding its lock past `lock_threshold` is
        // terminated, and its lock actually leaves the lock table; a
        // client whose lock is fresher than the threshold survives with
        // its lock intact.
        let mut p = ProgressIndicator::new();
        let mut locks = LockTable::new();
        let mut registry = ProcessRegistry::new();
        let wedged = registry.spawn("wedged", SimTime::ZERO);
        let healthy = registry.spawn("healthy", SimTime::ZERO);
        let wedged_rec = RecordRef::new(TableId(3), 1);
        let fresh_rec = RecordRef::new(TableId(3), 2);
        // Held since t=1 s: stale by ~199 s at the check.
        locks.acquire(wedged_rec, wedged, SimTime::from_secs(1)).unwrap();
        // Held for only 50 ms at the check: under the 100 ms threshold.
        assert!(SimDuration::from_millis(50) < LOCK_THRESHOLD);
        locks.acquire(fresh_rec, healthy, SimTime::from_millis(199_950)).unwrap();

        let now = SimTime::from_secs(200);
        assert!(p.timed_out(now), "counter never moved");
        let mut out = Vec::new();
        p.check(&mut locks, &mut registry, now, &mut out);

        assert!(out.iter().any(|f| f.action == RecoveryAction::TerminatedClient { pid: wedged }));
        assert!(
            !out.iter().any(|f| f.action == RecoveryAction::TerminatedClient { pid: healthy }),
            "the fresh lock holder must survive"
        );
        assert!(!registry.is_alive(wedged));
        assert!(registry.is_alive(healthy));
        // The stale lock was actually released; the fresh one remains.
        assert_eq!(locks.holder(wedged_rec), None);
        assert_eq!(locks.holder(fresh_rec), Some(healthy));
        assert_eq!(locks.len(), 1);
    }

    #[test]
    fn note_activity_counts_like_an_observed_event() {
        let mut p = ProgressIndicator::new();
        p.note_activity(SimTime::from_secs(50));
        assert_eq!(p.counter(), 1);
        assert!(!p.timed_out(SimTime::from_secs(100)));
        assert!(p.timed_out(SimTime::from_secs(151)));
    }

    #[test]
    fn starvation_refreshes_the_watermark_without_inflating_the_counter() {
        let mut p = ProgressIndicator::new();
        p.observe(&event(SimTime::from_secs(10)));
        assert_eq!(p.counter(), 1);
        // A storm starves the process of budget for 140 s, but it keeps
        // reporting "alive, no budget".
        p.note_starved(SimTime::from_secs(150));
        assert_eq!(p.counter(), 1, "starvation is not activity");
        assert_eq!(p.starved(), 1);
        assert!(!p.timed_out(SimTime::from_secs(200)), "starved-but-healthy is not condemned");
        assert!(p.timed_out(SimTime::from_secs(251)), "true silence still times out");
    }

    #[test]
    fn timeout_without_stale_locks_is_benign() {
        let mut p = ProgressIndicator::new();
        let mut locks = LockTable::new();
        let mut registry = ProcessRegistry::new();
        let mut out = Vec::new();
        p.check(&mut locks, &mut registry, SimTime::from_secs(500), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn multiple_locks_one_offender_one_termination() {
        let mut p = ProgressIndicator::new();
        let mut locks = LockTable::new();
        let mut registry = ProcessRegistry::new();
        let pid = registry.spawn("client", SimTime::ZERO);
        for i in 0..5 {
            locks.acquire(RecordRef::new(TableId(1), i), pid, SimTime::ZERO).unwrap();
        }
        let mut out = Vec::new();
        p.check(&mut locks, &mut registry, SimTime::from_secs(200), &mut out);
        let kills: Vec<_> = out
            .iter()
            .filter(|f| matches!(f.action, RecoveryAction::TerminatedClient { .. }))
            .collect();
        assert_eq!(kills.len(), 1);
        assert!(locks.is_empty());
    }
}
