//! Simulated process and thread bookkeeping.
//!
//! The controller environment has several cooperating processes — the
//! database clients, the audit process, the manager — and the paper's
//! recovery actions operate on them: the progress indicator kills the
//! client holding a stale lock, the manager restarts a crashed audit
//! process, PECOS terminates a single malfunctioning thread. This
//! module provides the registry those actions act on.

use std::collections::BTreeMap;
use std::fmt;

use crate::time::SimTime;

/// Identifier of a simulated process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid:{}", self.0)
    }
}

/// Identifier of a thread within a simulated process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tid(pub u32);

impl fmt::Display for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tid:{}", self.0)
    }
}

/// Lifecycle state of a simulated process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessState {
    /// Running normally.
    Alive,
    /// Terminated by a recovery action (progress indicator, PECOS
    /// handler, manager).
    Killed,
    /// Terminated by its own failure (crash / system detection).
    Crashed,
}

/// How a *live* process responds to supervision probes. Liveness and
/// responsiveness are deliberately decoupled: a crashed process is
/// gone from the scheduler, but a hung one is alive-but-silent (it
/// never replies to a heartbeat query), and a livelocked one still
/// replies while doing no useful work — the three failure shapes the
/// paper's heartbeat and progress-indicator elements divide between
/// themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Responsiveness {
    /// Replies to probes and makes progress.
    Responsive,
    /// Alive in the registry but silent: heartbeat queries go
    /// unanswered (caught by miss counting).
    Hung,
    /// Replies to probes but performs no database work (caught only by
    /// progress accounting).
    Livelocked,
}

#[derive(Debug, Clone)]
struct ProcessEntry {
    name: String,
    state: ProcessState,
    responsiveness: Responsiveness,
    spawned_at: SimTime,
    ended_at: Option<SimTime>,
    restarts: u32,
}

/// Registry of simulated processes.
///
/// # Example
///
/// ```
/// use wtnc_sim::{ProcessRegistry, ProcessState, SimTime};
///
/// let mut reg = ProcessRegistry::new();
/// let audit = reg.spawn("audit", SimTime::ZERO);
/// reg.crash(audit, SimTime::from_secs(5));
/// assert_eq!(reg.state(audit), Some(ProcessState::Crashed));
/// let restarted = reg.restart(audit, SimTime::from_secs(6)).unwrap();
/// assert_eq!(reg.state(restarted), Some(ProcessState::Alive));
/// ```
#[derive(Debug, Default, Clone)]
pub struct ProcessRegistry {
    procs: BTreeMap<Pid, ProcessEntry>,
    next_pid: u32,
}

impl ProcessRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ProcessRegistry { procs: BTreeMap::new(), next_pid: 1 }
    }

    /// Spawns a new process and returns its [`Pid`].
    pub fn spawn(&mut self, name: &str, now: SimTime) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.procs.insert(
            pid,
            ProcessEntry {
                name: name.to_owned(),
                state: ProcessState::Alive,
                responsiveness: Responsiveness::Responsive,
                spawned_at: now,
                ended_at: None,
                restarts: 0,
            },
        );
        pid
    }

    /// Marks `pid` as killed by a recovery action. Returns `false` if
    /// the process is unknown or already dead.
    pub fn kill(&mut self, pid: Pid, now: SimTime) -> bool {
        self.end(pid, ProcessState::Killed, now)
    }

    /// Marks `pid` as crashed. Returns `false` if the process is
    /// unknown or already dead.
    pub fn crash(&mut self, pid: Pid, now: SimTime) -> bool {
        self.end(pid, ProcessState::Crashed, now)
    }

    /// Ends `pid` normally and forgets it: the entry is removed, so
    /// afterwards `pid` reads as unknown (`is_alive` false; `state`,
    /// `name` and `lifetime` `None`; `restart` refused). A client ends
    /// each short-lived thread this way, so the registry holds only
    /// what is in flight. A process that something still reads after
    /// its end — one the audit crate's `Supervisor` watches, or one
    /// that may be restarted — ends with [`ProcessRegistry::kill`]
    /// or [`ProcessRegistry::crash`] instead, which keep the entry.
    /// `exit` also reaps a process that was already killed or crashed.
    /// Returns `false` if `pid` is unknown.
    pub fn exit(&mut self, pid: Pid) -> bool {
        self.procs.remove(&pid).is_some()
    }

    fn end(&mut self, pid: Pid, state: ProcessState, now: SimTime) -> bool {
        match self.procs.get_mut(&pid) {
            Some(entry) if entry.state == ProcessState::Alive => {
                entry.state = state;
                entry.ended_at = Some(now);
                true
            }
            _ => false,
        }
    }

    /// Restarts a dead process under a fresh [`Pid`], inheriting its
    /// name and restart count. Returns `None` if `pid` is unknown or
    /// still alive (a live process cannot be "restarted"; kill it
    /// first).
    pub fn restart(&mut self, pid: Pid, now: SimTime) -> Option<Pid> {
        let entry = self.procs.get(&pid)?;
        if entry.state == ProcessState::Alive {
            return None;
        }
        let name = entry.name.clone();
        let restarts = entry.restarts + 1;
        let new_pid = self.spawn(&name, now);
        if let Some(new_entry) = self.procs.get_mut(&new_pid) {
            new_entry.restarts = restarts;
        }
        Some(new_pid)
    }

    /// Current state of `pid`, or `None` if unknown.
    pub fn state(&self, pid: Pid) -> Option<ProcessState> {
        self.procs.get(&pid).map(|e| e.state)
    }

    /// True if `pid` is alive.
    pub fn is_alive(&self, pid: Pid) -> bool {
        self.state(pid) == Some(ProcessState::Alive)
    }

    /// Sets the responsiveness of a *live* process (fault injection:
    /// hang or livelock it, or let it recover). Returns `false` if the
    /// process is unknown or dead — a dead process has no
    /// responsiveness to speak of.
    pub fn set_responsiveness(&mut self, pid: Pid, r: Responsiveness) -> bool {
        match self.procs.get_mut(&pid) {
            Some(entry) if entry.state == ProcessState::Alive => {
                entry.responsiveness = r;
                true
            }
            _ => false,
        }
    }

    /// Responsiveness of `pid`, or `None` if unknown or dead.
    pub fn responsiveness(&self, pid: Pid) -> Option<Responsiveness> {
        self.procs.get(&pid).filter(|e| e.state == ProcessState::Alive).map(|e| e.responsiveness)
    }

    /// True when `pid` would reply to a supervision probe: alive and
    /// not hung. A livelocked process still replies — it just does no
    /// useful work, which is why livelock is invisible to the heartbeat
    /// and needs progress accounting.
    pub fn is_responsive(&self, pid: Pid) -> bool {
        matches!(
            self.responsiveness(pid),
            Some(Responsiveness::Responsive | Responsiveness::Livelocked)
        )
    }

    /// Name given at spawn time.
    pub fn name(&self, pid: Pid) -> Option<&str> {
        self.procs.get(&pid).map(|e| e.name.as_str())
    }

    /// How many times this lineage has been restarted.
    pub fn restarts(&self, pid: Pid) -> Option<u32> {
        self.procs.get(&pid).map(|e| e.restarts)
    }

    /// Lifetime of `pid`: spawn time and end time (if ended).
    pub fn lifetime(&self, pid: Pid) -> Option<(SimTime, Option<SimTime>)> {
        self.procs.get(&pid).map(|e| (e.spawned_at, e.ended_at))
    }

    /// Number of registered processes: the live ones plus the killed
    /// and crashed ones not yet reaped by [`ProcessRegistry::exit`].
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// True when no process is registered.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// Iterates over all live processes.
    pub fn alive(&self) -> impl Iterator<Item = Pid> + '_ {
        self.procs.iter().filter(|(_, e)| e.state == ProcessState::Alive).map(|(pid, _)| *pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_kill_crash_lifecycle() {
        let mut reg = ProcessRegistry::new();
        let a = reg.spawn("client", SimTime::ZERO);
        let b = reg.spawn("audit", SimTime::ZERO);
        assert_ne!(a, b);
        assert!(reg.is_alive(a));

        assert!(reg.kill(a, SimTime::from_secs(1)));
        assert_eq!(reg.state(a), Some(ProcessState::Killed));
        assert!(!reg.kill(a, SimTime::from_secs(2)), "double kill is a no-op");

        assert!(reg.crash(b, SimTime::from_secs(3)));
        assert_eq!(reg.state(b), Some(ProcessState::Crashed));
    }

    #[test]
    fn restart_preserves_name_and_counts() {
        let mut reg = ProcessRegistry::new();
        let audit = reg.spawn("audit", SimTime::ZERO);
        reg.crash(audit, SimTime::from_secs(10));
        let audit2 = reg.restart(audit, SimTime::from_secs(11)).unwrap();
        assert_ne!(audit, audit2);
        assert_eq!(reg.name(audit2), Some("audit"));
        assert_eq!(reg.restarts(audit2), Some(1));
        reg.crash(audit2, SimTime::from_secs(20));
        let audit3 = reg.restart(audit2, SimTime::from_secs(21)).unwrap();
        assert_eq!(reg.restarts(audit3), Some(2));
    }

    #[test]
    fn cannot_restart_live_or_unknown() {
        let mut reg = ProcessRegistry::new();
        let p = reg.spawn("x", SimTime::ZERO);
        assert!(reg.restart(p, SimTime::ZERO).is_none());
        assert!(reg.restart(Pid(999), SimTime::ZERO).is_none());
    }

    #[test]
    fn alive_iterates_only_live() {
        let mut reg = ProcessRegistry::new();
        let a = reg.spawn("a", SimTime::ZERO);
        let b = reg.spawn("b", SimTime::ZERO);
        let c = reg.spawn("c", SimTime::ZERO);
        reg.kill(b, SimTime::ZERO);
        let live: Vec<_> = reg.alive().collect();
        assert_eq!(live, vec![a, c]);
        assert_eq!(reg.procs.len(), 3, "killed processes stay registered");
    }

    #[test]
    fn exit_of_an_unknown_pid_is_refused() {
        let mut reg = ProcessRegistry::new();
        assert!(!reg.exit(Pid(999)));
        let p = reg.spawn("p", SimTime::ZERO);
        assert!(reg.exit(p));
        assert!(!reg.exit(p), "a second exit finds nothing");
    }

    #[test]
    fn an_exited_process_is_forgotten() {
        let mut reg = ProcessRegistry::new();
        let a = reg.spawn("a", SimTime::ZERO);
        let b = reg.spawn("b", SimTime::from_secs(1));
        let c = reg.spawn("c", SimTime::from_secs(2));
        reg.crash(c, SimTime::from_secs(3));
        assert!(reg.exit(b));
        assert!(!reg.is_alive(b));
        assert_eq!(reg.state(b), None);
        assert_eq!(reg.name(b), None);
        assert_eq!(reg.lifetime(b), None);
        assert_eq!(reg.restart(b, SimTime::from_secs(4)), None);
        // The other entries, live or dead, are untouched.
        assert_eq!(reg.alive().collect::<Vec<_>>(), vec![a]);
        assert_eq!(reg.name(a), Some("a"));
        assert_eq!(reg.state(c), Some(ProcessState::Crashed));
        assert_eq!(reg.lifetime(c), Some((SimTime::from_secs(2), Some(SimTime::from_secs(3)))));
        assert_eq!(reg.len(), 2);
        // Exit also reaps a process that was already killed.
        assert!(reg.exit(c));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn responsiveness_is_decoupled_from_liveness() {
        let mut reg = ProcessRegistry::new();
        let p = reg.spawn("client", SimTime::ZERO);
        assert_eq!(reg.responsiveness(p), Some(Responsiveness::Responsive));
        assert!(reg.is_responsive(p));

        // Hung: alive but silent.
        assert!(reg.set_responsiveness(p, Responsiveness::Hung));
        assert!(reg.is_alive(p));
        assert!(!reg.is_responsive(p));

        // Livelocked: beats but does no work.
        assert!(reg.set_responsiveness(p, Responsiveness::Livelocked));
        assert!(reg.is_responsive(p));

        // A dead process has no responsiveness.
        reg.kill(p, SimTime::from_secs(1));
        assert_eq!(reg.responsiveness(p), None);
        assert!(!reg.is_responsive(p));
        assert!(!reg.set_responsiveness(p, Responsiveness::Responsive));
    }

    #[test]
    fn restart_clears_responsiveness_faults() {
        let mut reg = ProcessRegistry::new();
        let p = reg.spawn("client", SimTime::ZERO);
        reg.set_responsiveness(p, Responsiveness::Hung);
        reg.kill(p, SimTime::from_secs(1));
        let p2 = reg.restart(p, SimTime::from_secs(2)).unwrap();
        assert_eq!(reg.responsiveness(p2), Some(Responsiveness::Responsive));
    }

    #[test]
    fn lifetime_records_bounds() {
        let mut reg = ProcessRegistry::new();
        let p = reg.spawn("p", SimTime::from_secs(2));
        assert_eq!(reg.lifetime(p), Some((SimTime::from_secs(2), None)));
        reg.crash(p, SimTime::from_secs(9));
        assert_eq!(reg.lifetime(p), Some((SimTime::from_secs(2), Some(SimTime::from_secs(9)))));
    }
}
