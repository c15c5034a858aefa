//! Software-implemented fault injection and the paper's experiment
//! campaigns (NFTAPE-equivalent), and the [`Controller`] node they run
//! on.
//!
//! Two injection families, matching §5 and §6 of the paper:
//!
//! * **Database injection** ([`db_campaign`]): random single-bit flips
//!   in the controller database image while the discrete-event
//!   call-processing client runs, with or without audits. Regenerates
//!   Tables 2–4 and Figure 3, plus the prioritized-audit study of
//!   Table 5 / Figures 5–6 ([`priority_campaign`]).
//! * **Text-segment injection** ([`text_campaign`]): breakpoint-
//!   triggered corruption of the ISA client's instruction stream using
//!   the paper's four error models ([`ErrorModel`]: ADDIF, DATAIF,
//!   DATAOF, DATAInF), directed at control-flow instructions or spread
//!   over the whole text segment, across the four PECOS × audit
//!   configurations. Regenerates Tables 8 and 9.
//!
//! Outcomes are classified per the paper's Table 7 ([`RunOutcome`]),
//! chronologically: the first detection (PECOS, audit, or a crash
//! signal) claims the run. [`coverage`] combines both families into
//! the system-wide coverage estimate of Table 10.
//!
//! A third family ([`recovery_campaign`]) drives the staged
//! detect→repair→verify engine of `wtnc-recovery`: the audit subsystem
//! runs detect-only, the engine repairs under a per-cycle token budget,
//! and the table grows the [`RunOutcome::DetectedRepaired`] and
//! [`RunOutcome::RepairFailed`] classes plus repair-latency statistics.
//!
//! A fourth family ([`process_campaign`]) faults the *processes*
//! instead of the data: clients and the audit process are crashed,
//! hung (alive-but-silent, optionally wedged on a record lock) and
//! livelocked under the supervision loop of `wtnc-audit`, which must
//! detect every fault, steal the stolen locks, warm-restart the
//! lineage or escalate a restart storm to a controller restart, and
//! account every downtime interval. The campaign reports per-model
//! detection latency, unavailability and the run-level
//! [`OutcomeCounts::availability`] figure.
//!
//! A sixth family ([`storm_campaign`]) injects *overload* rather than
//! corruption: super-producer, IPC-flood and diurnal-burst traffic
//! storms push offered load past the auditor's saturation point while
//! a single mid-storm corruption waits to be found. The campaign
//! measures detection latency, audit-cycle stretch, shed/backpressure
//! accounting and watermark-driven false restarts with and without the
//! resource-isolation layer (bounded fair IPC, the audit CPU token
//! bucket, starvation-aware supervision).
//!
//! A fifth family ([`powerfail_campaign`]) attacks the *durable* state
//! kept by `wtnc-store`: after a seeded journaled workload, the store
//! directory suffers a simulated power failure or tampering event
//! (torn checkpoint write, journal-tail truncation or corruption,
//! stale-checkpoint-with-valid-journal, golden-history chain break)
//! and is reopened cold. Warm recovery must either reproduce the exact
//! pre-failure image or a *reported* consistent prefix of the mutation
//! timeline — any off-timeline image or silent history loss counts as
//! [`RunOutcome::FailSilenceViolation`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
pub mod coverage;
pub mod db_campaign;
mod models;
mod outcome;
pub mod parallel;
pub mod powerfail_campaign;
pub mod priority_campaign;
pub mod process_campaign;
pub mod recovery_campaign;
pub mod storm_campaign;
pub mod text_campaign;

pub use controller::Controller;
pub use models::ErrorModel;
pub use outcome::{OutcomeCounts, RunOutcome};
