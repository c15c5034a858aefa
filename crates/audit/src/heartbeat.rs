//! The heartbeat element and the manager's heartbeat settings (§4.1).
//!
//! "Periodically, the manager process sends a heartbeat message to the
//! heartbeat element in the audit process and waits for a reply. If the
//! entire audit process has crashed or hung … the manager times out and
//! restarts the audit process." The [`Supervisor`](crate::Supervisor)
//! plays the manager: it probes the audit process (and every client)
//! once per [`ManagerConfig::interval`] and restarts it after
//! [`ManagerConfig::miss_limit`] consecutive misses.

use serde::{Deserialize, Serialize};
use wtnc_sim::{SimDuration, SimTime};

/// The heartbeat element living inside the audit process: replies to
/// the supervisor's queries while the process is alive and responsive.
#[derive(Debug, Clone, Default)]
pub struct HeartbeatElement {
    queries: u64,
    last_query: Option<SimTime>,
}

impl HeartbeatElement {
    /// Creates the element.
    pub fn new() -> Self {
        Self::default()
    }

    /// Handles one heartbeat query, returning the reply payload (the
    /// query counter echoes back so the manager can match replies to
    /// queries).
    pub fn query(&mut self, at: SimTime) -> u64 {
        self.queries += 1;
        self.last_query = Some(at);
        self.queries
    }

    /// Queries served so far.
    pub fn queries(&self) -> u64 {
        self.queries
    }
}

/// Heartbeat settings of the manager tier
/// ([`SupervisorConfig::heartbeat`](crate::SupervisorConfig::heartbeat)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManagerConfig {
    /// Interval between heartbeat queries.
    pub interval: SimDuration,
    /// Consecutive missed replies before a process is declared dead
    /// and restarted.
    pub miss_limit: u32,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig { interval: SimDuration::from_secs(1), miss_limit: 3 }
    }
}
