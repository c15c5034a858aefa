//! # wtnc — the integrated dependability framework
//!
//! A Rust reproduction of *"A Framework for Database Audit and Control
//! Flow Checking for a Wireless Telephone Network Controller"* (DSN
//! 2001): an in-memory controller database protected by an extensible
//! audit subsystem, and call-processing clients protected by PECOS
//! preemptive control-flow checking, evaluated by software-implemented
//! fault injection.
//!
//! This crate is the front door to the paper's "common adaptive
//! framework". It re-exports the [`Controller`] facade, which wires the
//! subsystems into one node and lives in `wtnc-inject` so the fault
//! campaigns run on the same wiring, and each substrate as a module:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `wtnc-sim` | deterministic DES kernel, virtual time, seeded RNG |
//! | [`db`] | `wtnc-db` | the in-memory database, catalog, API, taint ledger |
//! | [`isa`] | `wtnc-isa` | the 32-bit RISC machine and assembler |
//! | [`pecos`] | `wtnc-pecos` | PECOS instrumentation and signal handling |
//! | [`audit`] | `wtnc-audit` | audit elements, triggers, scheduling, supervision |
//! | [`callproc`] | `wtnc-callproc` | the DES and ISA call-processing clients |
//! | [`recovery`] | `wtnc-recovery` | staged detect→diagnose→repair→verify engine |
//! | [`store`] | `wtnc-store` | durable journal, checkpoint chain, warm recovery |
//! | [`inject`] | `wtnc-inject` | the [`Controller`], fault injection and the paper's campaigns |
//!
//! # Quickstart
//!
//! ```
//! use wtnc::{Controller, sim::SimTime};
//!
//! // A controller with the standard schema and the audit subsystem.
//! let mut controller = Controller::standard().with_audit(Default::default());
//!
//! // Something corrupts a configuration byte...
//! let offset = controller.db.catalog().catalog_len() + 16;
//! controller.inject_bit_flip(offset, 3, SimTime::from_secs(1));
//!
//! // ...and the next periodic audit cycle repairs it.
//! let report = controller.run_audit_cycle(SimTime::from_secs(10)).unwrap();
//! assert!(!report.findings.is_empty());
//! assert_eq!(controller.db.taint().latent_count(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use wtnc_audit as audit;
pub use wtnc_callproc as callproc;
pub use wtnc_db as db;
pub use wtnc_inject as inject;
pub use wtnc_inject::Controller;
pub use wtnc_isa as isa;
pub use wtnc_pecos as pecos;
pub use wtnc_recovery as recovery;
pub use wtnc_sim as sim;
pub use wtnc_store as store;
