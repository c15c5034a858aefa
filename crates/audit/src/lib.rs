//! The database audit subsystem (§4 of the paper).
//!
//! The audit process is a separate, supervised process that keeps the
//! controller database healthy. Its architecture follows the paper's
//! Figure 1:
//!
//! * the **audit main thread** ([`AuditProcess`]) drains the IPC
//!   message queue the database API posts to, routes messages to
//!   elements, and runs the periodic / event-triggered audits;
//! * **elements** encapsulate one detection + recovery technique each:
//!   [`HeartbeatElement`], [`ProgressIndicator`], [`StaticDataAudit`]
//!   (golden CRC-32), [`StructuralAudit`] (record headers at computed
//!   offsets), [`RangeAudit`] (catalog min/max rules),
//!   [`SemanticAudit`] (referential-integrity loops) and
//!   [`SelectiveMonitor`] (runtime invariant inference, §4.4.2);
//! * the [`Supervisor`] is the paper's manager, generalized to the
//!   whole process population: clients and the audit process register
//!   as supervised processes and are probed by heartbeat, hangs and
//!   livelocks are detected by decoupling liveness from
//!   responsiveness, condemned clients have their locks
//!   stolen and are warm-restarted, restart storms back off and
//!   escalate to a controller restart, and an [`AvailabilityLedger`]
//!   accounts every downtime interval;
//! * audit **scheduling** is pluggable: [`RoundRobinScheduler`] checks
//!   tables in a fixed order, [`PriorityScheduler`] implements §4.4.1's
//!   weighted ranking by access frequency, object nature and error
//!   history.
//!
//! Every per-table element, the built-in structural, range and
//! semantic audits included, implements [`AuditElement`]; new ones are
//! appended with [`AuditProcess::register_element`] — "new error
//! detection and recovery techniques can be implemented, encapsulated
//! in new elements, and added to the system" with no changes
//! elsewhere. Elements hold no settings: the process passes one
//! [`ElementPolicy`] to every call. The static-data element runs
//! before them each cycle, so the catalog they read is verified first.
//!
//! Detection is honest: every element inspects the *actual bytes* of
//! the database region; repairs rewrite those bytes (reset to catalog
//! defaults, rebuild headers from offsets, reload from the golden disk
//! image, free zombie records). The taint ledger is only consulted
//! *after* a repair, to attribute ground-truth corruptions to the
//! element that removed them.
//!
//! Elements repair locally, with one exception: in inline mode the
//! structural element reloads the whole database after 3 consecutive
//! damaged headers in one table (suspected misalignment; in deferred
//! mode it only flags them). Each tier has one escalation ladder: data
//! damage that local repair does not hold is climbed
//! field → record → table → client → controller by the
//! `wtnc-recovery` engine (which runs the audit with
//! [`AuditProcess::set_deferred_repair`]), and restart storms are
//! escalated by the [`Supervisor`].
//!
//! # Example
//!
//! ```
//! use wtnc_audit::{AuditConfig, AuditProcess};
//! use wtnc_db::{schema, Database, DbApi};
//! use wtnc_sim::{Pid, ProcessRegistry, SimTime};
//!
//! let mut db = Database::build(schema::standard_schema()).unwrap();
//! let mut api = DbApi::new();
//! let mut registry = ProcessRegistry::new();
//! let mut audit = AuditProcess::new(AuditConfig::default(), &db);
//!
//! // Corrupt a static configuration byte, then run one audit cycle.
//! let rec = wtnc_db::RecordRef::new(schema::SYSCONFIG_TABLE, 0);
//! let (off, _) = db.field_extent(rec, schema::sysconfig::MAX_CALLS).unwrap();
//! db.flip_bit(off, 5).unwrap();
//!
//! let report = audit.run_cycle(&mut db, &mut api, &mut registry, SimTime::from_secs(10));
//! assert!(report.findings.iter().any(|f| f.element == wtnc_audit::AuditElementKind::StaticData));
//! // The golden image repaired the bytes.
//! assert_eq!(
//!     db.read_field_raw(rec, schema::sysconfig::MAX_CALLS).unwrap(),
//!     1_000,
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod finding;
mod genskip;
mod heartbeat;
mod process;
mod progress;
mod ranged;
mod scheduler;
mod selective;
mod semantic;
mod static_data;
mod structural;
mod supervisor;

pub use budget::{BudgetConfig, TokenBucket};
pub use finding::{
    AuditElementKind, AuditReport, ExecSummary, ExecutorMode, Finding, FindingTarget,
    RecoveryAction,
};
pub use heartbeat::{HeartbeatElement, HEARTBEAT_INTERVAL};
pub use process::{AuditConfig, AuditElement, AuditProcess, AuditScope, ElementPolicy, Recheck};
pub use progress::ProgressIndicator;
pub use ranged::RangeAudit;
pub use scheduler::{AuditScheduler, PriorityScheduler, PriorityWeights, RoundRobinScheduler};
pub use selective::{SelectiveConfig, SelectiveMonitor};
pub use semantic::SemanticAudit;
pub use static_data::StaticDataAudit;
pub use structural::StructuralAudit;
pub use supervisor::{
    AvailabilityLedger, RestartCause, RestartRecord, SupervisedRole, SupervisionReport, Supervisor,
    SupervisorConfig,
};
