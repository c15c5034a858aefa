//! The repair log and aggregate statistics.

use wtnc_audit::{AuditElementKind, FindingTarget};
use wtnc_sim::stats::Accumulator;
use wtnc_sim::SimTime;

use crate::engine::Rung;

/// What happened to one repair attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairOutcome {
    /// The repair was executed and the originating audit element no
    /// longer reports the target: the finding is closed.
    Verified,
    /// Verification still reported the target; the ticket climbed one
    /// rung and was requeued.
    Escalated,
    /// The target still failed verification at the top of the ladder:
    /// the finding is closed as a repair failure.
    Failed,
}

/// One entry of the (deterministic) repair log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairLogEntry {
    /// Monotone sequence number.
    pub seq: u64,
    /// Virtual time of the attempt.
    pub at: SimTime,
    /// The element that detected the anomaly.
    pub element: AuditElementKind,
    /// The repaired target.
    pub target: FindingTarget,
    /// The ladder rung executed.
    pub rung: Rung,
    /// The attempt's outcome.
    pub outcome: RepairOutcome,
    /// Budget tokens charged.
    pub cost: u32,
    /// Ground-truth taint ids the repair removed.
    pub caught: Vec<u64>,
}

/// Aggregate counters over the engine's lifetime.
#[derive(Debug, Clone, Default)]
pub struct RecoveryStats {
    /// Repair attempts executed (every rung execution counts).
    pub attempted: u64,
    /// Findings closed with a clean verification re-run.
    pub verified: u64,
    /// Findings closed as repair failures.
    pub failed: u64,
    /// Ladder escalations (verification failures that climbed a rung).
    pub escalations: u64,
    /// Executions per rung, in ladder order.
    pub per_rung: [u64; 5],
    /// Budget tokens spent.
    pub tokens_spent: u64,
    /// Controller restarts requested by the top rung: it reloads the
    /// image and sets `CycleOutcome::restart_requested`, which no caller
    /// acts on yet.
    pub controller_restarts: u64,
    /// Repair latency (detection to closed finding), in virtual
    /// seconds.
    pub latency: Accumulator,
}

impl RecoveryStats {
    /// Mean repair latency in virtual seconds (0 when nothing closed).
    pub fn mean_latency_s(&self) -> f64 {
        self.latency.mean()
    }
}
