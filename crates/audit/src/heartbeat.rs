//! The heartbeat element and the manager's heartbeat cadence (§4.1).
//!
//! "Periodically, the manager process sends a heartbeat message to the
//! heartbeat element in the audit process and waits for a reply. If the
//! entire audit process has crashed or hung … the manager times out and
//! restarts the audit process." The [`Supervisor`](crate::Supervisor)
//! plays the manager: it probes the audit process (and every client)
//! once per [`HEARTBEAT_INTERVAL`] and restarts it after
//! [`HEARTBEAT_MISS_LIMIT`] consecutive misses.

use wtnc_sim::SimDuration;

/// Interval between the manager's heartbeat queries. Callers invoke
/// [`Supervisor::tick`](crate::Supervisor::tick) once per interval.
pub const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Consecutive missed replies before a process is declared dead and
/// restarted.
pub(crate) const HEARTBEAT_MISS_LIMIT: u32 = 3;

/// The heartbeat element living inside the audit process: replies to
/// the supervisor's queries while the process is alive and responsive.
#[derive(Debug, Clone, Default)]
pub struct HeartbeatElement {
    queries: u64,
}

impl HeartbeatElement {
    /// Creates the element.
    pub fn new() -> Self {
        Self::default()
    }

    /// Handles one heartbeat query, returning the reply payload (the
    /// query counter echoes back so the manager can match replies to
    /// queries).
    pub fn query(&mut self) -> u64 {
        self.queries += 1;
        self.queries
    }

    /// Queries served so far.
    pub fn queries(&self) -> u64 {
        self.queries
    }
}
