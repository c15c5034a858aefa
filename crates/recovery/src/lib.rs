//! Staged recovery engine closing the audit loop:
//! **detect → diagnose → repair → verify**.
//!
//! The paper's audit elements repair inline the moment they detect an
//! anomaly. That couples detection latency to repair latency and gives
//! the controller no way to bound how much repair work a single audit
//! cycle may steal from call processing. This crate separates the two
//! concerns, in the spirit of the 5ESS maintenance lineage the paper
//! cites (localized repair first, escalate only when necessary):
//!
//! * the audit subsystem runs in *detect-only* mode
//!   ([`wtnc_audit::AuditProcess::set_deferred_repair`]), emitting
//!   findings with `RecoveryAction::Flagged` plus a precise
//!   [`FindingTarget`](wtnc_audit::FindingTarget);
//! * the [`RecoveryEngine`] ingests those findings, **diagnoses** each
//!   target into a repair rung, and executes repairs through the
//!   database's narrow repair API (`restore_static_block`,
//!   `reset_field_to_default`, `rebuild_header`, `restore_record`,
//!   golden-image block diff) under a per-cycle **token budget** on the
//!   virtual clock;
//! * every repair is **verified** by re-checking the repaired target
//!   with the originating audit element
//!   ([`wtnc_audit::AuditProcess::recheck`]), which examines the target
//!   alone, not its whole table; only a clean recheck closes the
//!   finding;
//! * recurring or verification-failing targets **escalate** along the
//!   ladder [`Rung::FieldRepair`] → [`Rung::RecordReinit`] →
//!   [`Rung::TableRebuild`] → [`Rung::ClientRestart`] →
//!   [`Rung::ControllerRestart`]. The top rung reloads the whole
//!   database and reports [`CycleOutcome::restart_requested`]; it
//!   restarts no process, which is the supervisor's job in
//!   `wtnc-audit`.
//!
//! Everything is deterministic under a fixed seed: the engine consumes
//! virtual time only (each budget token costs [`TOKEN_TIME`] of
//! controller busy time) and iterates its queue in insertion order.
//!
//! # Example
//!
//! ```
//! use wtnc_audit::{AuditConfig, AuditProcess};
//! use wtnc_db::{schema, Database, DbApi};
//! use wtnc_recovery::{RecoveryConfig, RecoveryEngine};
//! use wtnc_sim::{ProcessRegistry, SimTime};
//!
//! let mut db = Database::build(schema::standard_schema()).unwrap();
//! let mut api = DbApi::new();
//! let mut registry = ProcessRegistry::new();
//! let mut audit = AuditProcess::new(AuditConfig::default(), &db);
//! audit.set_deferred_repair(true);
//! let mut engine = RecoveryEngine::new(RecoveryConfig::default());
//!
//! // Corrupt a static configuration byte.
//! let rec = wtnc_db::RecordRef::new(schema::SYSCONFIG_TABLE, 0);
//! let (off, _) = db.field_extent(rec, schema::sysconfig::MAX_CALLS).unwrap();
//! db.flip_bit(off, 5).unwrap();
//!
//! // Detect (flag only), then repair and verify.
//! let now = SimTime::from_secs(10);
//! let report = audit.run_cycle(&mut db, &mut api, &mut registry, now);
//! engine.ingest(&report.findings, now);
//! let cycle = engine.run_cycle(&mut db, &mut api, &mut registry, &mut audit, now);
//! assert_eq!(cycle.verified, 1);
//! assert_eq!(db.taint().latent_count(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod disk;
mod engine;
mod log;

pub use disk::DiskGoldenSource;
pub use engine::{CycleOutcome, RecoveryConfig, RecoveryEngine, Rung, TOKEN_TIME};
pub use log::{RecoveryStats, RepairLogEntry, RepairOutcome};
