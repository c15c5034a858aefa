//! Findings, recovery actions and audit reports.

use wtnc_db::{Catalog, TableId, TaintEntry};
use wtnc_sim::{Pid, SimTime};

/// Which element produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AuditElementKind {
    /// Liveness probe of the audit process itself.
    Heartbeat,
    /// Deadlock / stale-lock detection from API activity messages.
    Progress,
    /// Golden-checksum audit of catalog and static configuration data.
    StaticData,
    /// Record-header audit at computed offsets.
    Structural,
    /// Catalog min/max range rules on dynamic fields.
    Range,
    /// Referential-integrity loops across linked tables.
    Semantic,
    /// Runtime-inferred value invariants (selective monitoring).
    Selective,
    /// Durable-storage cross-check: the on-disk checkpoint chain and
    /// journal (keyed per-block integrity codes, chained digests)
    /// verified against the in-memory golden image.
    Storage,
    /// The audit CPU budget ran dry mid-cycle and table screens were
    /// shed (to be re-queued ahead of the next cycle). An honest
    /// marker that coverage degraded, never silent cycle stretching.
    DegradedCycle,
}

/// The precise locus of an anomaly, attached to findings so a
/// *deferred* repairer (the `wtnc-recovery` engine) can act on it
/// later without re-deriving offsets. Inline-repairing elements also
/// attach it for uniformity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FindingTarget {
    /// A byte range of the region (static chunks, table extents).
    Range {
        /// Start offset.
        offset: usize,
        /// Length in bytes.
        len: usize,
    },
    /// One record's header.
    Header {
        /// Table of the record.
        table: TableId,
        /// Record index.
        record: u32,
    },
    /// One field of one record.
    Field {
        /// Table of the record.
        table: TableId,
        /// Record index.
        record: u32,
        /// Field index.
        field: u16,
    },
    /// A whole record (semantic zombies, preemptive frees).
    Record {
        /// Table of the record.
        table: TableId,
        /// Record index.
        record: u32,
    },
    /// A client process (stale locks, zombie owners).
    Client {
        /// The client.
        pid: Pid,
    },
}

impl FindingTarget {
    /// Whether two targets name the same damage: ranges compare by
    /// overlap, everything else exactly.
    pub fn overlaps(&self, other: &FindingTarget) -> bool {
        match (self, other) {
            (
                FindingTarget::Range { offset: ao, len: al },
                FindingTarget::Range { offset: bo, len: bl },
            ) => ao < &(bo + bl) && bo < &(ao + al),
            _ => self == other,
        }
    }

    /// The tables the target touches: the table of a header, field or
    /// record, every table whose extent a range overlaps, and none for
    /// a client.
    pub(crate) fn tables(&self, catalog: &Catalog) -> Vec<TableId> {
        match *self {
            FindingTarget::Header { table, .. }
            | FindingTarget::Field { table, .. }
            | FindingTarget::Record { table, .. } => vec![table],
            FindingTarget::Range { .. } => catalog
                .tables()
                .filter(|tm| {
                    self.overlaps(&FindingTarget::Range { offset: tm.offset, len: tm.data_len() })
                })
                .map(|tm| tm.id)
                .collect(),
            FindingTarget::Client { .. } => Vec::new(),
        }
    }
}

/// The recovery action attached to a finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Bytes restored from the golden disk image.
    ReloadedRange {
        /// Start offset.
        offset: usize,
        /// Length in bytes.
        len: usize,
    },
    /// The entire database image was reloaded (escalation for
    /// multi-record structural damage).
    ReloadedDatabase,
    /// A field was reset to its catalog default.
    ResetField {
        /// Table of the repaired record.
        table: TableId,
        /// Record index.
        record: u32,
        /// Field index.
        field: u16,
    },
    /// A record header was rebuilt from its computed offset.
    RebuiltHeader {
        /// Table of the repaired record.
        table: TableId,
        /// Record index.
        record: u32,
    },
    /// A record was freed preemptively to stop error propagation.
    FreedRecord {
        /// Table of the freed record.
        table: TableId,
        /// Record index.
        record: u32,
    },
    /// A client process was terminated (zombie-record owner or stale
    /// lock holder).
    TerminatedClient {
        /// The terminated client.
        pid: Pid,
    },
    /// A stale lock was released.
    ReleasedLock {
        /// The previous holder.
        pid: Pid,
    },
    /// A supervised process was warm-restarted under a fresh pid, its
    /// state re-initialized from the database.
    RestartedProcess {
        /// The condemned pid.
        old: Pid,
        /// The replacement pid.
        new: Pid,
    },
    /// Process-level recovery is evidently not holding (a restart
    /// storm exhausted its backoff ladder, or the registry refused a
    /// restart): the manager should restart the whole controller.
    RequestedControllerRestart,
    /// No repair — the value was only flagged for follow-up (selective
    /// monitoring suspects, or detect-only mode routing the finding to
    /// the recovery engine).
    Flagged,
}

/// One detected anomaly and what was done about it.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The element that detected it.
    pub element: AuditElementKind,
    /// When it was detected.
    pub at: SimTime,
    /// Affected table, when applicable.
    pub table: Option<TableId>,
    /// Affected record, when applicable.
    pub record: Option<u32>,
    /// Human-readable description.
    pub detail: String,
    /// The recovery performed.
    pub action: RecoveryAction,
    /// Precise locus for deferred repair, when the element can name
    /// one.
    pub target: Option<FindingTarget>,
    /// Ground-truth corruptions the repair removed (empty when the
    /// anomaly was a false positive or had no injected cause, e.g. a
    /// record wedged by a crashed client).
    pub caught: Vec<TaintEntry>,
}

/// Which engine ran an audit cycle.
///
/// The serial element loop is the only audit engine, so every cycle
/// reports [`ExecutorMode::Serial`]. The other two variants are kept
/// only because downstream harnesses match on all three; they are
/// never produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExecutorMode {
    /// The serial element loop.
    #[default]
    Serial,
    /// Never produced.
    Parallel,
    /// Never produced.
    SerialFallback,
}

/// Per-cycle engine bookkeeping carried on the [`AuditReport`]. It
/// always reads [`ExecutorMode::Serial`]; it stays so harnesses that
/// count cycles by engine keep compiling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecSummary {
    /// Which engine ran the cycle.
    pub mode: ExecutorMode,
}

/// The outcome of one audit cycle.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// Everything detected this cycle.
    pub findings: Vec<Finding>,
    /// Records examined this cycle.
    pub records_checked: u64,
    /// Which engine ran the cycle; always [`ExecutorMode::Serial`].
    pub exec: ExecSummary,
    /// Tables actually screened this cycle, in execution order.
    pub tables_audited: Vec<TableId>,
    /// Tables shed because the CPU budget ran dry; they are re-queued
    /// at the head of the next cycle. Non-empty exactly when the cycle
    /// was degraded (a [`AuditElementKind::DegradedCycle`] finding
    /// accompanies it).
    pub tables_shed: Vec<TableId>,
}

impl AuditReport {
    /// Findings from one element.
    pub fn by_element(&self, kind: AuditElementKind) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.element == kind)
    }

    /// Total injected corruptions removed this cycle.
    pub fn caught_count(&self) -> usize {
        self.findings.iter().map(|f| f.caught.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(kind: AuditElementKind) -> Finding {
        Finding {
            element: kind,
            at: SimTime::ZERO,
            table: Some(TableId(1)),
            record: Some(0),
            detail: "test".into(),
            action: RecoveryAction::Flagged,
            target: None,
            caught: Vec::new(),
        }
    }

    #[test]
    fn report_filters_by_element() {
        let report = AuditReport {
            findings: vec![
                finding(AuditElementKind::Range),
                finding(AuditElementKind::Semantic),
                finding(AuditElementKind::Range),
            ],
            records_checked: 10,
            exec: Default::default(),
            tables_audited: vec![TableId(1), TableId(2)],
            tables_shed: Vec::new(),
        };
        assert_eq!(report.by_element(AuditElementKind::Range).count(), 2);
        assert_eq!(report.by_element(AuditElementKind::Semantic).count(), 1);
        assert_eq!(report.by_element(AuditElementKind::Structural).count(), 0);
        assert_eq!(report.caught_count(), 0);
    }
}
