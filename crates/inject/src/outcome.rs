//! Outcome classification (paper Table 7).

use std::fmt;

use wtnc_sim::stats::Proportion;

/// The possible results of one error-injection run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RunOutcome {
    /// The erroneous instruction was never reached; the run is
    /// discarded from further analysis.
    NotActivated,
    /// The erroneous instruction executed but the application behaved
    /// correctly.
    NotManifested,
    /// A PECOS assertion block caught the error before any other
    /// detection or result.
    PecosDetection,
    /// An audit element caught an error in the database first.
    AuditDetection,
    /// The "operating system" caught the error (illegal instruction,
    /// memory fault, unhandled exception) and the client crashed.
    SystemDetection,
    /// The client stopped making progress (dead- or livelock).
    ClientHang,
    /// The client wrote incorrect data to the shared database — the
    /// major error-propagation channel.
    FailSilenceViolation,
    /// The recovery engine repaired the detected error and the
    /// originating audit element verified the repair (the audit loop
    /// closed end to end).
    DetectedRepaired,
    /// The recovery engine attempted a repair but it never passed
    /// verification, even at the top of the escalation ladder.
    RepairFailed,
}

impl RunOutcome {
    /// The categories in the paper's table order, extended with the
    /// recovery-engine classes.
    pub const ALL: [RunOutcome; 9] = [
        RunOutcome::NotActivated,
        RunOutcome::NotManifested,
        RunOutcome::PecosDetection,
        RunOutcome::AuditDetection,
        RunOutcome::SystemDetection,
        RunOutcome::ClientHang,
        RunOutcome::FailSilenceViolation,
        RunOutcome::DetectedRepaired,
        RunOutcome::RepairFailed,
    ];

    /// Whether this outcome implies the affected process (and the calls
    /// it was serving) was unavailable for some interval of the run.
    ///
    /// The process-fault campaigns use this to cross-check the
    /// [`OutcomeCounts::availability`] formula against their measured
    /// per-run unavailability intervals: an outcome in this set must be
    /// accompanied by a nonzero downtime measurement, and vice versa.
    ///
    /// * `SystemDetection` — the process crashed; it is down from the
    ///   crash until the supervisor warm-restarts it.
    /// * `ClientHang` — the process stopped serving but was never
    ///   recovered within the run; the whole remainder is downtime.
    /// * `RepairFailed` — recovery was attempted but never held, so the
    ///   lineage stayed effectively out of service.
    ///
    /// `DetectedRepaired` deliberately is *not* in this set even though
    /// a warm restart has nonzero latency: the paper's availability
    /// bookkeeping (§2, the 5ESS lineage) charges an outage only when
    /// service was lost, and a detected-and-repaired process fault is
    /// scored by its (separately reported) detection latency instead.
    pub fn implies_downtime(self) -> bool {
        matches!(
            self,
            RunOutcome::SystemDetection | RunOutcome::ClientHang | RunOutcome::RepairFailed
        )
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RunOutcome::NotActivated => "Errors Not Activated",
            RunOutcome::NotManifested => "Errors Activated but Not Manifested",
            RunOutcome::PecosDetection => "PECOS Detection",
            RunOutcome::AuditDetection => "Audit Detection",
            RunOutcome::SystemDetection => "System Detection",
            RunOutcome::ClientHang => "Client Hang",
            RunOutcome::FailSilenceViolation => "Fail-silence Violation",
            RunOutcome::DetectedRepaired => "Detected and Repaired",
            RunOutcome::RepairFailed => "Repair Failed",
        };
        f.write_str(s)
    }
}

/// Aggregated outcome counts for one campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    counts: [u64; 9],
}

impl OutcomeCounts {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(outcome: RunOutcome) -> usize {
        RunOutcome::ALL.iter().position(|&o| o == outcome).expect("outcome is in ALL")
    }

    /// Records one run.
    pub fn record(&mut self, outcome: RunOutcome) {
        self.counts[Self::slot(outcome)] += 1;
    }

    /// Count of one category.
    pub fn count(&self, outcome: RunOutcome) -> u64 {
        self.counts[Self::slot(outcome)]
    }

    /// Total runs recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Runs in which the injected error was activated (the paper's
    /// denominator for the percentage rows).
    pub fn activated(&self) -> u64 {
        self.total() - self.count(RunOutcome::NotActivated)
    }

    /// The proportion of activated runs in one category, with its
    /// binomial confidence interval.
    pub fn proportion_of_activated(&self, outcome: RunOutcome) -> Proportion {
        Proportion::new(self.count(outcome), self.activated().max(1))
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &OutcomeCounts) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// The paper's system-wide coverage formula:
    /// `100% − (SystemDetection + FailSilence + Hang + RepairFailed)%`
    /// of activated errors. `DetectedRepaired` counts as covered;
    /// a failed repair left the error in place and does not.
    pub fn coverage(&self) -> f64 {
        let activated = self.activated();
        if activated == 0 {
            return 0.0;
        }
        let uncovered = self.count(RunOutcome::SystemDetection)
            + self.count(RunOutcome::FailSilenceViolation)
            + self.count(RunOutcome::ClientHang)
            + self.count(RunOutcome::RepairFailed);
        100.0 * (1.0 - uncovered as f64 / activated as f64)
    }

    /// Run-level availability: the percentage of activated runs that
    /// ended with the faulted process back in (or never out of)
    /// service,
    ///
    /// `100% − (SystemDetection + ClientHang + RepairFailed)% of activated`
    ///
    /// i.e. `100%` minus the share of outcomes for which
    /// [`RunOutcome::implies_downtime`] holds. This differs from
    /// [`coverage`](Self::coverage) in exactly one term:
    /// `FailSilenceViolation` is a *data-integrity* failure — the
    /// client kept running and serving calls while writing bad data —
    /// so it breaks coverage but not availability. Conversely every
    /// downtime outcome also breaks coverage, so
    /// `availability() >= coverage()` always holds.
    pub fn availability(&self) -> f64 {
        let activated = self.activated();
        if activated == 0 {
            return 0.0;
        }
        let down: u64 =
            RunOutcome::ALL.iter().filter(|o| o.implies_downtime()).map(|&o| self.count(o)).sum();
        100.0 * (1.0 - down as f64 / activated as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_and_percentages() {
        let mut c = OutcomeCounts::new();
        for _ in 0..50 {
            c.record(RunOutcome::NotActivated);
        }
        for _ in 0..30 {
            c.record(RunOutcome::PecosDetection);
        }
        for _ in 0..15 {
            c.record(RunOutcome::SystemDetection);
        }
        for _ in 0..5 {
            c.record(RunOutcome::NotManifested);
        }
        assert_eq!(c.total(), 100);
        assert_eq!(c.activated(), 50);
        let p = c.proportion_of_activated(RunOutcome::PecosDetection);
        assert_eq!(p.percent(), 60.0);
        // Coverage: 100 - 15/50 = 70%.
        assert!((c.coverage() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = OutcomeCounts::new();
        a.record(RunOutcome::ClientHang);
        let mut b = OutcomeCounts::new();
        b.record(RunOutcome::ClientHang);
        b.record(RunOutcome::FailSilenceViolation);
        a.merge(&b);
        assert_eq!(a.count(RunOutcome::ClientHang), 2);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn empty_tally_is_safe() {
        let c = OutcomeCounts::new();
        assert_eq!(c.activated(), 0);
        assert_eq!(c.coverage(), 0.0);
        assert_eq!(c.proportion_of_activated(RunOutcome::ClientHang).percent(), 0.0);
    }

    #[test]
    fn downtime_set_is_exactly_the_availability_complement() {
        // Exact-set check: adding a RunOutcome variant must force a
        // decision about whether it implies downtime.
        let down: Vec<RunOutcome> =
            RunOutcome::ALL.iter().copied().filter(|o| o.implies_downtime()).collect();
        assert_eq!(
            down,
            vec![RunOutcome::SystemDetection, RunOutcome::ClientHang, RunOutcome::RepairFailed]
        );
    }

    #[test]
    fn availability_formula_matches_hand_computation() {
        let mut c = OutcomeCounts::new();
        for _ in 0..20 {
            c.record(RunOutcome::NotActivated);
        }
        for _ in 0..40 {
            c.record(RunOutcome::DetectedRepaired);
        }
        for _ in 0..10 {
            c.record(RunOutcome::SystemDetection);
        }
        for _ in 0..6 {
            c.record(RunOutcome::ClientHang);
        }
        for _ in 0..4 {
            c.record(RunOutcome::RepairFailed);
        }
        for _ in 0..20 {
            c.record(RunOutcome::FailSilenceViolation);
        }
        // activated = 80; down = 10 + 6 + 4 = 20 -> 75% availability.
        assert_eq!(c.activated(), 80);
        assert!((c.availability() - 75.0).abs() < 1e-9);
        // Coverage additionally loses the 20 fail-silence violations:
        // 100 - 40/80 = 50%.
        assert!((c.coverage() - 50.0).abs() < 1e-9);
        assert!(c.availability() >= c.coverage());
    }

    #[test]
    fn availability_of_empty_tally_is_zero() {
        assert_eq!(OutcomeCounts::new().availability(), 0.0);
    }

    #[test]
    fn display_matches_paper_wording() {
        assert_eq!(RunOutcome::PecosDetection.to_string(), "PECOS Detection");
        assert_eq!(RunOutcome::FailSilenceViolation.to_string(), "Fail-silence Violation");
    }
}
