//! Deterministic discrete-event simulation kernel for the WTNC
//! reproduction.
//!
//! Every experiment in the paper is time-driven: audits fire on a
//! period, calls arrive on a stochastic schedule, errors arrive with an
//! exponential inter-arrival time, and the headline results compare
//! *when* an audit runs against *when* a corrupted datum is used. This
//! crate provides the substrate those experiments run on:
//!
//! * [`SimTime`] / [`SimDuration`] — a virtual clock with microsecond
//!   resolution, so a 2000-second paper experiment completes in
//!   milliseconds of wall time and is exactly reproducible.
//! * [`EventQueue`] — a deterministic priority queue of typed events
//!   with FIFO tie-breaking at equal timestamps.
//! * [`SimRng`] — a seeded random-number generator with the
//!   distributions the paper uses (exponential inter-arrival times,
//!   uniform placement, weighted choice).
//! * [`FairQueue`] — an in-simulation stand-in for the POSIX IPC
//!   message queue between the database API and the audit process:
//!   bounded per-producer lanes with explicit [`Enqueue`] verdicts
//!   (accepted / backpressured / shed) for the overload experiments.
//! * [`ProcessRegistry`] — bookkeeping for simulated processes and
//!   threads, including the kill/restart actions the manager and the
//!   progress-indicator element perform.
//! * [`stats`] — the summary statistics used when reporting results
//!   (means, binomial 95% confidence intervals, histograms).
//!
//! # Example
//!
//! ```
//! use wtnc_sim::{EventQueue, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { CallArrival, AuditTick }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_secs(10), Ev::AuditTick);
//! q.schedule(SimTime::ZERO + SimDuration::from_secs(3), Ev::CallArrival);
//!
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, Ev::CallArrival);
//! assert_eq!(t.as_secs_f64(), 3.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod events;
mod ipc;
mod process;
mod rng;
pub mod stats;
mod time;

pub use events::EventQueue;
pub use ipc::{Enqueue, FairQueue, LaneStats};
pub use process::{Pid, ProcessRegistry, ProcessState, Responsiveness, Tid};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
