//! Process-level supervision: one event-driven loop that runs the
//! heartbeat manager (§4.1), the progress indicator (§4.2) and
//! restart-storm escalation over the whole process population.
//!
//! The paper's elements exist as leaves — the manager probes the audit
//! process, the progress indicator watches the IPC activity counter —
//! but the controller needs them wired into a single tier that
//! supervises *every* registered process: the database clients and the
//! audit process itself (the super-producer study argues the auditor
//! is a fault domain of its own, able to hang or crash just like its
//! clients). The [`Supervisor`] closes that gap:
//!
//! * **registration** — clients and the audit process register as
//!   supervised processes in the [`ProcessRegistry`];
//! * **probing** — each tick sends a heartbeat probe per process. A
//!   crashed process is gone from the registry; a *hung* one is
//!   alive-but-silent ([`Responsiveness::Hung`]) and misses probes; a
//!   *livelocked* one replies but makes no database progress, which
//!   only per-process progress accounting can see;
//! * **recovery** — on condemnation the supervisor steals the locks
//!   held by the condemned client (the paper: "terminates the client
//!   process holding the lock …, thereby releasing the lock"), kills
//!   it if still alive, and warm-restarts it under a fresh pid with
//!   state re-initialized from the database;
//! * **escalation** — restart *storms* (too many restarts of one
//!   lineage inside a window) back off exponentially, and a lineage
//!   that exhausts its backoff ladder escalates to a controller
//!   restart, counted in
//!   [`AvailabilityLedger::controller_restarts_requested`] — the 5ESS
//!   lineage of localized repair first, global action only when
//!   repair is evidently not holding. This is the process tier's only
//!   escalation ladder; data damage climbs the `wtnc-recovery`
//!   engine's;
//! * **accounting** — every downtime interval, dropped call and
//!   restart-by-cause lands in the [`AvailabilityLedger`].

use std::collections::BTreeMap;

use wtnc_db::DbApi;
use wtnc_sim::{Pid, ProcessRegistry, ProcessState, SimDuration, SimTime};

use crate::finding::{AuditElementKind, Finding, FindingTarget, RecoveryAction};
use crate::heartbeat::{HeartbeatElement, HEARTBEAT_MISS_LIMIT};
use crate::progress::ProgressIndicator;

/// What kind of process a supervised pid is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisedRole {
    /// A database client (call processing).
    Client,
    /// The audit process itself.
    Audit,
}

/// Why a supervised process was condemned and restarted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartCause {
    /// The process died on its own (crash; registry state `Crashed`).
    Crash,
    /// Alive-but-silent: consecutive heartbeat misses while the
    /// registry still reported the process alive.
    Hang,
    /// Replied to probes but made no database progress for longer than
    /// the livelock timeout.
    Livelock,
    /// Terminated by the progress indicator for holding a lock past
    /// the lock threshold during a global activity stall.
    StaleLock,
    /// Swept by a controller restart (the global action).
    Storm,
}

/// Restarts of one lineage within this window count toward a storm.
const STORM_WINDOW: SimDuration = SimDuration::from_secs(60);

/// Supervision thresholds. Probe cadence and miss limit are the
/// manager's fixed §4.1 parameters and the global stall backstop uses
/// the §4.2 progress-indicator thresholds. The caller is expected to
/// invoke [`Supervisor::tick`] once per
/// [`HEARTBEAT_INTERVAL`](crate::HEARTBEAT_INTERVAL).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// How long a *replying* process may go without database progress
    /// before it is condemned as livelocked.
    pub livelock_timeout: SimDuration,
    /// Restarts inside the window at which the lineage is storming and
    /// the supervisor backs off instead of restarting again.
    pub storm_threshold: u32,
    /// First backoff duration; doubles on every consecutive backoff.
    pub backoff_base: SimDuration,
    /// Consecutive backoffs after which the lineage escalates to a
    /// controller restart.
    pub escalate_after_backoffs: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            livelock_timeout: SimDuration::from_secs(15),
            storm_threshold: 3,
            backoff_base: SimDuration::from_secs(5),
            escalate_after_backoffs: 2,
        }
    }
}

/// One completed downtime interval: a condemned process and its warm
/// restart (or its sweep by a controller restart).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestartRecord {
    /// The condemned pid.
    pub old: Pid,
    /// The replacement pid.
    pub new: Pid,
    /// What the process was.
    pub role: SupervisedRole,
    /// Why it went down.
    pub cause: RestartCause,
    /// When the process actually stopped doing useful work (crash
    /// time, first missed probe, or last observed progress) — the
    /// start of the unavailability interval.
    pub down_since: SimTime,
    /// When the supervisor detected and condemned it.
    pub condemned_at: SimTime,
    /// When the replacement came up.
    pub restarted_at: SimTime,
    /// Locks stolen from the condemned process.
    pub locks_stolen: usize,
}

impl RestartRecord {
    /// Detection latency: failure onset to condemnation.
    pub fn detection_latency(&self) -> SimDuration {
        self.condemned_at.saturating_since(self.down_since)
    }

    /// Full unavailability interval: failure onset to restart.
    pub fn downtime(&self) -> SimDuration {
        self.restarted_at.saturating_since(self.down_since)
    }
}

/// The availability accounting the supervisor maintains: downtime
/// intervals, dropped calls, and restarts by cause. The ordered
/// restart vector doubles as the deterministic supervision trace
/// (same seed ⇒ identical ledger).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AvailabilityLedger {
    /// Every completed restart, in occurrence order.
    pub restarts: Vec<RestartRecord>,
    /// Calls dropped because their owning process went down (reported
    /// by the workload via [`Supervisor::note_dropped_calls`]).
    pub dropped_calls: u64,
    /// Controller restarts requested by storm escalation.
    pub controller_restarts_requested: u64,
    /// Controller restarts actually executed
    /// ([`Supervisor::execute_controller_restart`]).
    pub controller_restarts_executed: u64,
    /// Starvation notices: cycles where a supervised process was denied
    /// CPU budget but reported itself healthy
    /// ([`Supervisor::note_starved`]). These refresh liveness
    /// watermarks without counting as progress.
    pub starved_notes: u64,
}

impl AvailabilityLedger {
    /// Total downtime across all *completed* intervals. Open intervals
    /// (condemned, not yet restarted) are accounted by
    /// [`Supervisor::total_downtime`].
    pub fn closed_downtime(&self) -> SimDuration {
        self.restarts.iter().fold(SimDuration::ZERO, |acc, r| acc + r.downtime())
    }

    /// Completed restarts with the given cause.
    pub fn restarts_by_cause(&self, cause: RestartCause) -> usize {
        self.restarts.iter().filter(|r| r.cause == cause).count()
    }
}

/// What one supervision tick did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SupervisionReport {
    /// Detections and recoveries performed this tick.
    pub findings: Vec<Finding>,
    /// Warm restarts performed this tick, as `(old, new)` pid pairs —
    /// the caller re-binds its handles (and the audit element) to the
    /// new pids.
    pub restarts: Vec<(Pid, Pid)>,
    /// A lineage exhausted its backoff ladder (or the registry refused
    /// a restart): the caller owns the global action and should invoke
    /// [`Supervisor::execute_controller_restart`].
    pub controller_restart_requested: bool,
}

/// Per-lineage supervision state. Carried across warm restarts (the
/// lineage keeps its storm history) and reset by a controller restart.
#[derive(Debug, Clone)]
struct Supervised {
    role: SupervisedRole,
    /// Whether per-process progress is watched for livelock. Off for
    /// processes that legitimately idle.
    watch_progress: bool,
    misses: u32,
    first_miss: Option<SimTime>,
    last_progress: SimTime,
    // Condemnation state (set between detection and restart).
    down_since: Option<SimTime>,
    condemned_at: Option<SimTime>,
    cause: Option<RestartCause>,
    locks_stolen: usize,
    // Storm state.
    recent_restarts: Vec<SimTime>,
    backoffs: u32,
    backoff_until: Option<SimTime>,
    escalated: bool,
}

impl Supervised {
    fn new(role: SupervisedRole, watch_progress: bool, now: SimTime) -> Self {
        Supervised {
            role,
            watch_progress,
            misses: 0,
            first_miss: None,
            last_progress: now,
            down_since: None,
            condemned_at: None,
            cause: None,
            locks_stolen: 0,
            recent_restarts: Vec::new(),
            backoffs: 0,
            backoff_until: None,
            escalated: false,
        }
    }

    fn condemned(&self) -> bool {
        self.down_since.is_some()
    }

    /// Fresh probe state under a new pid, keeping the lineage's storm
    /// history.
    fn reincarnate(&self, now: SimTime) -> Self {
        let mut next = Supervised::new(self.role, self.watch_progress, now);
        next.recent_restarts = self.recent_restarts.clone();
        next.backoffs = self.backoffs;
        next
    }
}

/// The supervision loop. See the module docs for the full recovery
/// narrative.
#[derive(Debug, Clone)]
pub struct Supervisor {
    config: SupervisorConfig,
    procs: BTreeMap<Pid, Supervised>,
    /// Global deadlock backstop (§4.2). Hoisted to the supervision
    /// tier so stale-lock recovery keeps working even while the audit
    /// process itself is down.
    progress: ProgressIndicator,
    ledger: AvailabilityLedger,
    /// IPC-queue tap watermark: messages sent up to this count have
    /// already been observed. The supervisor only *taps* the queue
    /// (the audit process remains its consumer), so it must remember
    /// where it left off.
    events_seen: u64,
}

impl Supervisor {
    /// Creates the supervisor.
    pub fn new(config: SupervisorConfig) -> Self {
        Supervisor {
            config,
            procs: BTreeMap::new(),
            progress: ProgressIndicator::new(),
            ledger: AvailabilityLedger::default(),
            events_seen: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SupervisorConfig {
        &self.config
    }

    /// Registers a process for supervision. `watch_progress` enables
    /// livelock detection (condemn a replying process that makes no
    /// database progress for [`SupervisorConfig::livelock_timeout`]).
    pub fn register(&mut self, pid: Pid, role: SupervisedRole, watch_progress: bool, now: SimTime) {
        self.procs.insert(pid, Supervised::new(role, watch_progress, now));
    }

    /// The supervised pids and their roles, in pid order.
    pub fn supervised(&self) -> impl Iterator<Item = (Pid, SupervisedRole)> + '_ {
        self.procs.iter().map(|(&pid, s)| (pid, s.role))
    }

    /// True while `pid` is condemned and awaiting restart (possibly
    /// backing off).
    pub fn is_down(&self, pid: Pid) -> bool {
        self.procs.get(&pid).is_some_and(|s| s.condemned())
    }

    /// Records database progress by `pid` observed out of band (the
    /// workload reporting its own activity, or the controller noting a
    /// completed audit cycle).
    pub fn note_progress(&mut self, pid: Pid, now: SimTime) {
        if let Some(s) = self.procs.get_mut(&pid) {
            s.last_progress = now;
        }
        self.progress.note_activity(now);
    }

    /// Counts calls dropped because their owning process went down.
    pub fn note_dropped_calls(&mut self, n: u64) {
        self.ledger.dropped_calls += n;
    }

    /// Records that `pid` was alive but denied CPU budget (a
    /// budget-shed audit cycle under storm). Distinguishes "no budget"
    /// from "no progress": the liveness watermark is refreshed so the
    /// escalation ladder does not condemn a starved-but-healthy process
    /// as livelocked, but no activity is counted — a genuinely wedged
    /// process still times out.
    pub fn note_starved(&mut self, pid: Pid, now: SimTime) {
        if let Some(s) = self.procs.get_mut(&pid) {
            s.last_progress = now;
        }
        self.progress.note_starved(now);
        self.ledger.starved_notes += 1;
    }

    /// The availability ledger.
    pub fn ledger(&self) -> &AvailabilityLedger {
        &self.ledger
    }

    /// Total downtime as of `now`: completed intervals plus every
    /// still-open condemnation.
    pub fn total_downtime(&self, now: SimTime) -> SimDuration {
        let open = self
            .procs
            .values()
            .filter_map(|s| s.down_since)
            .fold(SimDuration::ZERO, |acc, since| acc + now.saturating_since(since));
        self.ledger.closed_downtime() + open
    }

    /// One supervision tick: tap the IPC activity queue (without
    /// consuming it — the audit process remains its consumer), run the
    /// global progress backstop, probe every supervised process, and
    /// restart (or back off / escalate) the condemned ones.
    ///
    /// `audit_element` is the heartbeat element inside the audit
    /// process, when one is registered; a probe of the audit pid only
    /// counts as answered if the element is reachable *and* the
    /// registry reports the process responsive.
    pub fn tick(
        &mut self,
        api: &mut DbApi,
        registry: &mut ProcessRegistry,
        mut audit_element: Option<&mut HeartbeatElement>,
        now: SimTime,
    ) -> SupervisionReport {
        let mut report = SupervisionReport::default();

        // 1. Tap the activity queue without consuming it (the audit
        // process remains the queue's consumer — stealing its messages
        // would starve its own progress element): the counter feeds
        // the global backstop, the per-pid timestamps feed livelock
        // detection. The sent-count watermark skips messages already
        // seen on a previous tick; messages both sent and drained
        // between two ticks are covered by the out-of-band
        // [`Supervisor::note_progress`] path.
        {
            let q = api.events();
            let fresh =
                (q.total_sent().saturating_sub(self.events_seen)).min(q.len() as u64) as usize;
            for ev in q.iter().skip(q.len() - fresh) {
                self.progress.note_activity(ev.at);
                if let Some(s) = self.procs.get_mut(&ev.pid) {
                    s.last_progress = s.last_progress.max(ev.at);
                }
            }
            self.events_seen = q.total_sent();
        }

        // 2. Global stall backstop: terminates stale-lock holders. Any
        // supervised victim enters the normal condemned→restart flow.
        let mut held_before: BTreeMap<Pid, usize> = BTreeMap::new();
        for &pid in self.procs.keys() {
            held_before.insert(pid, api.locks().held_by(pid).len());
        }
        let mut backstop = Vec::new();
        self.progress.check(api.locks_mut(), registry, now, &mut backstop);
        for f in &backstop {
            if let RecoveryAction::TerminatedClient { pid } = f.action {
                if let Some(s) = self.procs.get_mut(&pid) {
                    if !s.condemned() {
                        s.down_since = Some(now);
                        s.condemned_at = Some(now);
                        s.cause = Some(RestartCause::StaleLock);
                        s.locks_stolen = held_before.get(&pid).copied().unwrap_or(0);
                    }
                }
            }
        }
        report.findings.extend(backstop);

        // 3. Probe pass.
        let pids: Vec<Pid> = self.procs.keys().copied().collect();
        for pid in pids {
            let s = self.procs.get(&pid).expect("registered");
            if s.condemned() {
                continue;
            }
            let responsive = registry.is_responsive(pid);
            let replied = match s.role {
                SupervisedRole::Audit => match audit_element.as_deref_mut() {
                    Some(el) if responsive => {
                        el.query();
                        true
                    }
                    _ => false,
                },
                // Clients carry an implicit heartbeat element; the
                // registry's responsiveness decides the reply.
                SupervisedRole::Client => responsive,
            };
            let s = self.procs.get_mut(&pid).expect("registered");
            if replied {
                s.misses = 0;
                s.first_miss = None;
                // Livelock: beats, but no database progress.
                if s.watch_progress
                    && now.saturating_since(s.last_progress) > self.config.livelock_timeout
                {
                    let since = s.last_progress;
                    self.condemn(
                        pid,
                        RestartCause::Livelock,
                        since,
                        api,
                        registry,
                        now,
                        &mut report,
                    );
                }
                continue;
            }
            if s.first_miss.is_none() {
                s.first_miss = Some(now);
            }
            s.misses += 1;
            if s.misses < HEARTBEAT_MISS_LIMIT {
                continue;
            }
            // Condemned: crashed (dead in the registry) or hung
            // (alive-but-silent). Downtime starts at the crash /
            // first missed probe, not at detection.
            let (cause, since) = match registry.state(pid) {
                Some(ProcessState::Alive) => (RestartCause::Hang, s.first_miss.unwrap_or(now)),
                _ => {
                    let ended = registry.lifetime(pid).and_then(|(_, e)| e);
                    (RestartCause::Crash, ended.unwrap_or(now))
                }
            };
            self.condemn(pid, cause, since, api, registry, now, &mut report);
        }

        // 4. Restart pass: warm-restart condemned lineages, backing
        // off on storms and escalating when the ladder is exhausted.
        let condemned: Vec<Pid> =
            self.procs.iter().filter(|(_, s)| s.condemned()).map(|(&p, _)| p).collect();
        for pid in condemned {
            self.try_restart(pid, registry, now, &mut report);
        }
        report
    }

    /// Marks `pid` condemned: steals its locks, kills it if alive, and
    /// reports the detection.
    #[allow(clippy::too_many_arguments)]
    fn condemn(
        &mut self,
        pid: Pid,
        cause: RestartCause,
        down_since: SimTime,
        api: &mut DbApi,
        registry: &mut ProcessRegistry,
        now: SimTime,
        report: &mut SupervisionReport,
    ) {
        let stolen = api.locks().held_by(pid).len();
        api.locks_mut().release_all(pid);
        let was_alive = registry.is_alive(pid);
        if was_alive {
            registry.kill(pid, now);
        }
        let s = self.procs.get_mut(&pid).expect("registered");
        s.down_since = Some(down_since);
        s.condemned_at = Some(now);
        s.cause = Some(cause);
        s.locks_stolen = stolen;
        let element = match cause {
            RestartCause::Crash | RestartCause::Hang => AuditElementKind::Heartbeat,
            _ => AuditElementKind::Progress,
        };
        let verb = match cause {
            RestartCause::Crash => "crashed",
            RestartCause::Hang => "hung (alive but silent)",
            RestartCause::Livelock => "livelocked (beats but no database progress)",
            RestartCause::StaleLock => "held a stale lock",
            RestartCause::Storm => "swept by controller restart",
        };
        report.findings.push(Finding {
            element,
            at: now,
            table: None,
            record: None,
            detail: format!(
                "supervised {} {pid} {verb}; condemned, {stolen} lock(s) stolen",
                role_name(s.role)
            ),
            action: if was_alive {
                RecoveryAction::TerminatedClient { pid }
            } else {
                RecoveryAction::Flagged
            },
            target: Some(FindingTarget::Client { pid }),
            caught: Vec::new(),
        });
        if stolen > 0 {
            report.findings.push(Finding {
                element: AuditElementKind::Progress,
                at: now,
                table: None,
                record: None,
                detail: format!("released {stolen} lock(s) stolen from {pid}"),
                action: RecoveryAction::ReleasedLock { pid },
                target: Some(FindingTarget::Client { pid }),
                caught: Vec::new(),
            });
        }
    }

    /// Restarts a condemned lineage unless it is backing off; applies
    /// storm backoff and escalation.
    fn try_restart(
        &mut self,
        pid: Pid,
        registry: &mut ProcessRegistry,
        now: SimTime,
        report: &mut SupervisionReport,
    ) {
        let config = self.config;
        let s = self.procs.get_mut(&pid).expect("registered");
        if s.escalated {
            // Awaiting the global action; nothing local left to try.
            report.controller_restart_requested = true;
            return;
        }
        if s.backoff_until.is_some_and(|until| now < until) {
            return;
        }
        s.recent_restarts.retain(|&t| now.saturating_since(t) <= STORM_WINDOW);
        if s.recent_restarts.len() as u32 >= config.storm_threshold {
            // Storm: back off exponentially, then escalate.
            s.backoffs += 1;
            if s.backoffs > config.escalate_after_backoffs {
                s.escalated = true;
                self.ledger.controller_restarts_requested += 1;
                report.controller_restart_requested = true;
                report.findings.push(Finding {
                    element: AuditElementKind::Heartbeat,
                    at: now,
                    table: None,
                    record: None,
                    detail: format!(
                        "restart storm: {pid} exhausted {} backoffs; requesting controller restart",
                        config.escalate_after_backoffs
                    ),
                    action: RecoveryAction::RequestedControllerRestart,
                    target: Some(FindingTarget::Client { pid }),
                    caught: Vec::new(),
                });
                return;
            }
            let backoff = config.backoff_base * (1u64 << (s.backoffs - 1).min(16));
            s.backoff_until = Some(now + backoff);
            report.findings.push(Finding {
                element: AuditElementKind::Heartbeat,
                at: now,
                table: None,
                record: None,
                detail: format!(
                    "restart storm: {} restart(s) of {pid} within {}; backing off {backoff}",
                    s.recent_restarts.len(),
                    STORM_WINDOW
                ),
                action: RecoveryAction::Flagged,
                target: Some(FindingTarget::Client { pid }),
                caught: Vec::new(),
            });
            return;
        }
        match registry.restart(pid, now) {
            Some(new_pid) => {
                let s = self.procs.remove(&pid).expect("registered");
                let mut next = s.reincarnate(now);
                next.recent_restarts.push(now);
                next.backoffs = 0;
                self.procs.insert(new_pid, next);
                self.ledger.restarts.push(RestartRecord {
                    old: pid,
                    new: new_pid,
                    role: s.role,
                    cause: s.cause.unwrap_or(RestartCause::Crash),
                    down_since: s.down_since.unwrap_or(now),
                    condemned_at: s.condemned_at.unwrap_or(now),
                    restarted_at: now,
                    locks_stolen: s.locks_stolen,
                });
                report.restarts.push((pid, new_pid));
                report.findings.push(Finding {
                    element: AuditElementKind::Heartbeat,
                    at: now,
                    table: None,
                    record: None,
                    detail: format!(
                        "warm-restarted {} {pid} as {new_pid}, state re-initialized from the database",
                        role_name(s.role)
                    ),
                    action: RecoveryAction::RestartedProcess { old: pid, new: new_pid },
                    target: Some(FindingTarget::Client { pid }),
                    caught: Vec::new(),
                });
            }
            None => {
                // The registry refused: local recovery is impossible.
                let s = self.procs.get_mut(&pid).expect("registered");
                s.escalated = true;
                self.ledger.controller_restarts_requested += 1;
                report.controller_restart_requested = true;
                report.findings.push(Finding {
                    element: AuditElementKind::Heartbeat,
                    at: now,
                    table: None,
                    record: None,
                    detail: format!(
                        "registry refused to restart {pid}; requesting controller restart"
                    ),
                    action: RecoveryAction::RequestedControllerRestart,
                    target: Some(FindingTarget::Client { pid }),
                    caught: Vec::new(),
                });
            }
        }
    }

    /// Executes the global action: every supervised process is killed
    /// (if needed) and restarted under a fresh pid, all its locks
    /// released, and every lineage's storm state cleared. The caller
    /// owns the database half of the restart — reload from the
    /// in-memory golden image, or warm recovery from the on-disk
    /// checkpoint + journal when a `wtnc-store` store is attached —
    /// and the re-binding of its handles to the returned `(old, new)`
    /// pid pairs.
    pub fn execute_controller_restart(
        &mut self,
        registry: &mut ProcessRegistry,
        api: &mut DbApi,
        now: SimTime,
    ) -> Vec<(Pid, Pid)> {
        self.ledger.controller_restarts_executed += 1;
        let pids: Vec<Pid> = self.procs.keys().copied().collect();
        let mut mapping = Vec::new();
        for pid in pids {
            api.locks_mut().release_all(pid);
            if registry.is_alive(pid) {
                registry.kill(pid, now);
            }
            let Some(new_pid) = registry.restart(pid, now) else {
                continue;
            };
            let s = self.procs.remove(&pid).expect("registered");
            // A controller restart wipes the slate: fresh lineage
            // state, no storm history.
            self.procs.insert(new_pid, Supervised::new(s.role, s.watch_progress, now));
            self.ledger.restarts.push(RestartRecord {
                old: pid,
                new: new_pid,
                role: s.role,
                cause: RestartCause::Storm,
                down_since: s.down_since.unwrap_or(now),
                condemned_at: s.condemned_at.unwrap_or(now),
                restarted_at: now,
                locks_stolen: s.locks_stolen,
            });
            mapping.push((pid, new_pid));
        }
        mapping
    }
}

fn role_name(role: SupervisedRole) -> &'static str {
    match role {
        SupervisedRole::Client => "client",
        SupervisedRole::Audit => "audit process",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtnc_db::{RecordRef, TableId};
    use wtnc_sim::Responsiveness;

    fn fast_config() -> SupervisorConfig {
        SupervisorConfig {
            livelock_timeout: SimDuration::from_secs(5),
            storm_threshold: 2,
            backoff_base: SimDuration::from_secs(4),
            escalate_after_backoffs: 1,
        }
    }

    fn setup() -> (DbApi, ProcessRegistry, Supervisor) {
        let api = DbApi::new();
        let registry = ProcessRegistry::new();
        let sup = Supervisor::new(fast_config());
        (api, registry, sup)
    }

    fn ticks(
        sup: &mut Supervisor,
        api: &mut DbApi,
        registry: &mut ProcessRegistry,
        from_s: u64,
        to_s: u64,
    ) -> Vec<SupervisionReport> {
        (from_s..=to_s).map(|s| sup.tick(api, registry, None, SimTime::from_secs(s))).collect()
    }

    #[test]
    fn crashed_client_is_detected_and_warm_restarted() {
        let (mut api, mut registry, mut sup) = setup();
        let client = registry.spawn("client", SimTime::ZERO);
        sup.register(client, SupervisedRole::Client, false, SimTime::ZERO);
        registry.crash(client, SimTime::from_secs(2));
        let reports = ticks(&mut sup, &mut api, &mut registry, 3, 5);
        let restarts: Vec<_> = reports.iter().flat_map(|r| r.restarts.clone()).collect();
        assert_eq!(restarts.len(), 1);
        let (old, new) = restarts[0];
        assert_eq!(old, client);
        assert!(registry.is_alive(new));
        let rec = &sup.ledger().restarts[0];
        assert_eq!(rec.cause, RestartCause::Crash);
        // Downtime starts at the crash (t=2), detection at the third
        // missed probe (t=5: probes at 3, 4, 5 all miss).
        assert_eq!(rec.down_since, SimTime::from_secs(2));
        assert_eq!(rec.condemned_at, SimTime::from_secs(5));
        assert_eq!(rec.restarted_at, SimTime::from_secs(5));
    }

    #[test]
    fn hung_client_holding_a_lock_is_condemned_and_its_lock_stolen() {
        let (mut api, mut registry, mut sup) = setup();
        let client = registry.spawn("client", SimTime::ZERO);
        sup.register(client, SupervisedRole::Client, false, SimTime::ZERO);
        let rec = RecordRef::new(TableId(3), 0);
        let db = wtnc_db::Database::build(wtnc_db::schema::standard_schema()).unwrap();
        api.lock(&db, rec, client, SimTime::from_secs(1)).unwrap();
        registry.set_responsiveness(client, Responsiveness::Hung);
        let reports = ticks(&mut sup, &mut api, &mut registry, 2, 4);
        let restarts: Vec<_> = reports.iter().flat_map(|r| r.restarts.clone()).collect();
        assert_eq!(restarts.len(), 1, "hung client restarted");
        assert!(api.locks().is_empty(), "the stolen lock was released");
        let led = &sup.ledger().restarts[0];
        assert_eq!(led.cause, RestartCause::Hang);
        assert_eq!(led.locks_stolen, 1);
        // Downtime starts at the first missed probe (t=2).
        assert_eq!(led.down_since, SimTime::from_secs(2));
    }

    #[test]
    fn livelocked_client_beats_but_is_condemned_on_progress_stall() {
        let (mut api, mut registry, mut sup) = setup();
        let client = registry.spawn("client", SimTime::ZERO);
        sup.register(client, SupervisedRole::Client, true, SimTime::ZERO);
        registry.set_responsiveness(client, Responsiveness::Livelocked);
        // It replies to every probe, so no heartbeat condemnation;
        // after livelock_timeout (5 s) without progress it goes down.
        let mut restarted = Vec::new();
        for s in 1..=7 {
            let r = sup.tick(&mut api, &mut registry, None, SimTime::from_secs(s));
            restarted.extend(r.restarts);
        }
        assert_eq!(restarted.len(), 1);
        assert_eq!(sup.ledger().restarts[0].cause, RestartCause::Livelock);
        assert_eq!(sup.ledger().restarts[0].down_since, SimTime::ZERO);
    }

    #[test]
    fn progress_notes_defer_livelock_condemnation() {
        let (mut api, mut registry, mut sup) = setup();
        let client = registry.spawn("client", SimTime::ZERO);
        sup.register(client, SupervisedRole::Client, true, SimTime::ZERO);
        for s in 1..=20 {
            sup.note_progress(client, SimTime::from_secs(s));
            let r = sup.tick(&mut api, &mut registry, None, SimTime::from_secs(s));
            assert!(r.restarts.is_empty(), "active client never condemned");
        }
    }

    #[test]
    fn restart_storm_backs_off_then_escalates() {
        let (mut api, mut registry, mut sup) = setup();
        let mut client = registry.spawn("client", SimTime::ZERO);
        sup.register(client, SupervisedRole::Client, false, SimTime::ZERO);
        // Crash the client the moment it comes up, repeatedly.
        let mut escalated_at = None;
        let mut backoff_seen = false;
        for s in 1..200 {
            let now = SimTime::from_secs(s);
            if registry.is_alive(client) {
                registry.crash(client, now);
            }
            let report = sup.tick(&mut api, &mut registry, None, now);
            for &(old, new) in &report.restarts {
                if old == client {
                    client = new;
                }
            }
            backoff_seen |= report.findings.iter().any(|f| f.detail.contains("backing off"));
            if report.controller_restart_requested {
                escalated_at = Some(now);
                break;
            }
        }
        assert!(backoff_seen, "a storm must back off before escalating");
        assert!(escalated_at.is_some(), "the ladder must escalate");
        assert_eq!(sup.ledger().controller_restarts_requested, 1);

        // The global action restarts the lineage and clears its state.
        let now = escalated_at.unwrap() + SimDuration::from_secs(1);
        let mapping = sup.execute_controller_restart(&mut registry, &mut api, now);
        assert_eq!(mapping.len(), 1);
        assert!(registry.is_alive(mapping[0].1));
        assert_eq!(sup.ledger().controller_restarts_executed, 1);
        assert_eq!(sup.ledger().restarts_by_cause(RestartCause::Storm), 1);
        // The survivor is probed healthily afterwards.
        let r = sup.tick(&mut api, &mut registry, None, now + SimDuration::from_secs(1));
        assert!(r.restarts.is_empty());
        assert!(!r.controller_restart_requested);
    }

    #[test]
    fn audit_probe_requires_element_and_responsiveness() {
        let (mut api, mut registry, mut sup) = setup();
        let audit = registry.spawn("audit", SimTime::ZERO);
        sup.register(audit, SupervisedRole::Audit, false, SimTime::ZERO);
        let mut element = HeartbeatElement::new();
        // Healthy: replies.
        let r = sup.tick(&mut api, &mut registry, Some(&mut element), SimTime::from_secs(1));
        assert!(r.restarts.is_empty());
        assert_eq!(element.queries(), 1);
        // Hung-but-alive: the element is reachable but must not reply.
        registry.set_responsiveness(audit, Responsiveness::Hung);
        let mut restarts = Vec::new();
        for s in 2..=4 {
            let r = sup.tick(&mut api, &mut registry, Some(&mut element), SimTime::from_secs(s));
            restarts.extend(r.restarts);
        }
        assert_eq!(element.queries(), 1, "no replies while hung");
        assert_eq!(restarts.len(), 1);
        assert_eq!(sup.ledger().restarts[0].cause, RestartCause::Hang);
        assert_eq!(sup.ledger().restarts[0].role, SupervisedRole::Audit);
    }

    #[test]
    fn queue_tap_leaves_messages_for_the_audit_process() {
        let (mut api, mut registry, mut sup) = setup();
        let client = registry.spawn("client", SimTime::ZERO);
        sup.register(client, SupervisedRole::Client, true, SimTime::ZERO);
        api.init_at(client, SimTime::from_secs(1));
        let pending = api.events().len();
        assert!(pending > 0);
        sup.tick(&mut api, &mut registry, None, SimTime::from_secs(1));
        assert_eq!(
            api.events().len(),
            pending,
            "the supervisor must not steal the audit process's messages"
        );
        // But the tap still counted as progress: no livelock
        // condemnation despite the long gap that follows would need
        // fresh activity — here just verify last_progress advanced by
        // checking the client is not condemned right after timeout
        // would have fired from t=0.
        let r = sup.tick(
            &mut api,
            &mut registry,
            None,
            SimTime::from_secs(1) + fast_config().livelock_timeout,
        );
        assert!(r.restarts.is_empty(), "tapped activity defers livelock condemnation");
    }

    #[test]
    fn downtime_accounting_tracks_open_and_closed_intervals() {
        let (mut api, mut registry, mut sup) = setup();
        let client = registry.spawn("client", SimTime::ZERO);
        sup.register(client, SupervisedRole::Client, false, SimTime::ZERO);
        registry.crash(client, SimTime::from_secs(10));
        // Probes at 11, 12 miss; not yet condemned.
        ticks(&mut sup, &mut api, &mut registry, 11, 12);
        assert_eq!(sup.total_downtime(SimTime::from_secs(12)), SimDuration::ZERO);
        // Third miss at 13 condemns and restarts: downtime 10→13.
        ticks(&mut sup, &mut api, &mut registry, 13, 13);
        assert_eq!(sup.total_downtime(SimTime::from_secs(13)), SimDuration::from_secs(3));
        assert_eq!(sup.ledger().closed_downtime(), SimDuration::from_secs(3));
        assert_eq!(sup.ledger().restarts[0].detection_latency(), SimDuration::from_secs(3));
    }
}
