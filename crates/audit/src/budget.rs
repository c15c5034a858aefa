//! Audit CPU isolation: a token bucket on virtual time.
//!
//! The 2001 paper assumes the audit subsystem always gets to run; a
//! super-producer traffic storm breaks that assumption by stretching
//! audit cycles until the detector is the first casualty of the fault
//! it should catch. This module generalizes the recovery engine's
//! per-cycle token budget into a refilling bucket: the audit scheduler
//! earns `refill_per_sec` record-screen tokens per simulated second
//! (its guaranteed CPU share), accumulates up to `burst` of them while
//! idle, and each table screen *charges* the bucket before it runs.
//!
//! Scheduling is two-level. Level 0 — supervisor heartbeat queries,
//! the progress-indicator check and IPC drain — is never charged: it
//! preempts bulk screens by construction, because
//! [`AuditProcess::run_cycle`](crate::AuditProcess::run_cycle) runs it
//! before any table work. Level 1 — the bulk table screens — pays per
//! record and is shed highest-dirty-density-first when the bucket runs
//! dry, producing an honest
//! [`DegradedCycle`](crate::AuditElementKind::DegradedCycle) finding
//! instead of a silently stretched cycle.

use wtnc_sim::SimTime;

/// Sizing of the audit CPU budget, in record-screen tokens.
///
/// One token corresponds to screening one record, so
/// `refill_per_sec = 10_000` guarantees the auditor the CPU share
/// needed to screen ten thousand records per simulated second no
/// matter how hard the call-processing clients push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetConfig {
    /// Tokens earned per simulated second (the guaranteed share).
    pub refill_per_sec: u64,
    /// Maximum tokens banked while the auditor is idle.
    pub burst: u64,
}

impl Default for BudgetConfig {
    fn default() -> Self {
        BudgetConfig { refill_per_sec: 10_000, burst: 50_000 }
    }
}

/// The refilling token bucket the audit cycle charges table screens
/// against.
#[derive(Debug, Clone, Copy)]
pub struct TokenBucket {
    config: BudgetConfig,
    tokens: f64,
    last_refill: SimTime,
    spent: u64,
}

impl TokenBucket {
    /// Creates a bucket starting with a full burst allowance.
    pub fn new(config: BudgetConfig) -> Self {
        TokenBucket { config, tokens: config.burst as f64, last_refill: SimTime::ZERO, spent: 0 }
    }

    /// Banks the tokens earned since the last refill, clamped to the
    /// burst allowance.
    pub fn refill(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_refill);
        self.tokens = (self.tokens + dt.as_secs_f64() * self.config.refill_per_sec as f64)
            .min(self.config.burst as f64);
        self.last_refill = now;
    }

    /// Charges `cost` tokens if the bucket can afford them. On refusal
    /// the bucket is untouched; the caller sheds the work and counts
    /// it.
    pub fn try_charge(&mut self, cost: u64) -> bool {
        if self.tokens >= cost as f64 {
            self.tokens -= cost as f64;
            self.spent += cost;
            true
        } else {
            false
        }
    }

    /// Charges `cost` tokens unconditionally, flooring the balance at
    /// zero. Used for mandatory work (the first planned table always
    /// runs, so a starved cycle still makes forward progress — the
    /// no-permanent-starvation guarantee).
    pub fn charge_saturating(&mut self, cost: u64) {
        self.tokens = (self.tokens - cost as f64).max(0.0);
        self.spent += cost;
    }

    /// Tokens currently available (floored to whole tokens).
    pub fn available(&self) -> u64 {
        self.tokens as u64
    }

    /// Tokens charged since construction.
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// The configuration in force.
    pub fn config(&self) -> BudgetConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtnc_sim::SimDuration;

    #[test]
    fn bucket_starts_full_and_charges_down() {
        let mut b = TokenBucket::new(BudgetConfig { refill_per_sec: 100, burst: 500 });
        assert_eq!(b.available(), 500);
        assert!(b.try_charge(400));
        assert_eq!(b.available(), 100);
        assert!(!b.try_charge(200), "cannot overdraw");
        assert_eq!(b.available(), 100, "refused charge leaves the balance untouched");
        assert_eq!(b.spent(), 400);
    }

    #[test]
    fn refill_earns_share_and_clamps_to_burst() {
        let mut b = TokenBucket::new(BudgetConfig { refill_per_sec: 100, burst: 500 });
        assert!(b.try_charge(500));
        b.refill(SimTime::ZERO + SimDuration::from_secs(2));
        assert_eq!(b.available(), 200, "2 s at 100 tokens/s");
        b.refill(SimTime::ZERO + SimDuration::from_secs(100));
        assert_eq!(b.available(), 500, "idle banking clamps to burst");
    }

    #[test]
    fn saturating_charge_floors_at_zero() {
        let mut b = TokenBucket::new(BudgetConfig { refill_per_sec: 100, burst: 10 });
        b.charge_saturating(1_000);
        assert_eq!(b.available(), 0);
        assert_eq!(b.spent(), 1_000, "mandatory work is still accounted in full");
        // The bucket recovers at exactly the guaranteed share.
        b.refill(SimTime::ZERO + SimDuration::from_millis(50));
        assert_eq!(b.available(), 5);
    }

    #[test]
    fn refill_is_monotonic_in_virtual_time() {
        let mut b = TokenBucket::new(BudgetConfig { refill_per_sec: 100, burst: 1_000 });
        assert!(b.try_charge(1_000));
        b.refill(SimTime::ZERO + SimDuration::from_secs(3));
        // A stale (earlier) timestamp must not mint tokens.
        b.refill(SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(b.available(), 300);
    }
}
