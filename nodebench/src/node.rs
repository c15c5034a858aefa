//! The two node workloads: one controller wired from the crates'
//! public types the way `wtnc::Controller` wires it, driven by a
//! `wtnc_sim::EventQueue`. Every call into a layer is a separate
//! statement here, so the tracer can put a span around each.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use wtnc::audit::{
    AuditConfig, AuditProcess, ExecutorMode, HeartbeatElement, SupervisedRole, Supervisor,
    SupervisorConfig,
};
use wtnc::callproc::{CallHandle, CallStats, DesClient, WorkloadConfig};
use wtnc::db::{crc32, schema, Database, DbApi, RecordRef, TableDef, TableNature, TaintEntry};
use wtnc::recovery::{DiskGoldenSource, RecoveryConfig, RecoveryEngine};
use wtnc::sim::{EventQueue, Pid, ProcessRegistry, SimDuration, SimRng, SimTime};
use wtnc::store::{RecoveryInfo, Store, StoreConfig};

use crate::host::HostSpeed;
use crate::report::Outcome;
use crate::stats::{interquartile_mean, median, spread_note};
use crate::trace::{Kind, KindTotals, Tracer};

/// The workload parameters. Every other setting keeps its shipped
/// default.
#[derive(Debug, Clone, Copy)]
pub struct NodeParams {
    pub name: &'static str,
    /// Record slots per dynamic table.
    pub slots: u32,
    /// Mean call inter-arrival time (Poisson arrivals).
    pub interarrival: SimDuration,
    /// Period of the seeded single-bit flips, if any.
    pub inject_every: Option<SimDuration>,
    /// Every n-th audit pass is a full rescan (8 is the default).
    pub full_rescan_period: u32,
}

/// Fault-free busy hour: ~100 calls/vsec, ~2,500 concurrent calls.
pub const CALL_STEADY: NodeParams = NodeParams {
    name: "call_steady",
    slots: 4096,
    interarrival: SimDuration::from_millis(10),
    inject_every: None,
    full_rescan_period: 8,
};

/// Fault-heavy large controller: ~5 calls/vsec, a bit flip every
/// 200 virtual ms, every audit pass a full rescan. Flips land anywhere
/// in the region except the catalog header and the records of calls
/// in flight: a repair that frees a live call's record lets that
/// call's later tear-down free the slot again after a new call has
/// reused it (`DbApi::free_record` checks no owner), and the resulting
/// chain of broken loops escalates to table rebuilds and controller
/// restart requests within a few thousand virtual seconds — a run that
/// no longer measures steady auditing.
pub const AUDIT_SWEEP: NodeParams = NodeParams {
    name: "audit_sweep",
    slots: 32768,
    interarrival: SimDuration::from_millis(200),
    inject_every: Some(SimDuration::from_millis(200)),
    full_rescan_period: 1,
};

/// Untimed run-in: long enough for the call population (calls last
/// 20–30 s) to reach steady state.
const WARMUP: SimTime = SimTime::from_secs(60);
/// Supervisor tick period (the heartbeat interval default).
const TICK: SimDuration = SimDuration::from_secs(1);
/// A checkpoint (then a compaction) after every this many rounds.
const CKPT_EVERY_ROUNDS: u64 = 6;
/// Full checkpoint image every this many checkpoints, deltas between.
const FULL_EVERY: u32 = 8;
/// The measured restart recovers a copy of the store taken here: three
/// rounds past the first delta checkpoint, so every restart recovers
/// the same history (one full image, one delta, a 30-vsec journal
/// tail) however far the run gets. `Store::open` decodes every
/// checkpoint on disk, so a restart later in a run would cost more the
/// faster the run went.
const RESTART_AT: SimTime = SimTime::from_secs(90);
/// The timed phase starts on a checkpoint boundary...
const MEASURE_FROM: SimTime = SimTime::from_secs(120);
/// ...and is cut into windows of one checkpoint cycle (six rounds, one
/// checkpoint and compaction), so every window holds the same work.
const WINDOW: SimDuration = SimDuration::from_secs(60);
/// The timed phase also ends after this many windows (4800 vsec), so
/// a faster build does not expose one node to more faults: on
/// `audit_sweep` each further flip raises the odds that some record is
/// hit often enough for the recovery engine's recurrence ladder to
/// climb to a table rebuild.
const MAX_WINDOWS: usize = 80;
/// A measured phase lasts at least this many windows, however slow
/// the host: 120 rounds, so the round p90 has 12 samples beyond it.
/// Peak RSS is read when the last of them closes — a fixed amount of
/// work, so a faster build that gets through more calls does not read
/// as a bigger one.
const MIN_WINDOWS: usize = 20;
/// Set-up and restart are each repeated this many times before the
/// timed phase; then, with the window clock stopped, one more set-up
/// after every window and one more restart after every
/// `RESTART_EVERY_WINDOWS` windows, so one moment of host noise cannot
/// decide them.
const EARLY_REPS: usize = 3;
const RESTART_EVERY_WINDOWS: usize = 2;
/// The traced run (and its untraced twin) covers this many windows
/// from `MEASURE_FROM`: a fixed amount of work, so per-layer times and
/// counts compare across builds.
const TRACE_WINDOWS: u64 = 10;
/// Bound on the rounds run after the timed phase to close repairs.
const SETTLE_ROUNDS: u32 = 100;

fn store_config() -> StoreConfig {
    StoreConfig { full_every: FULL_EVERY, ..StoreConfig::default() }
}

fn store_err(what: &str) -> impl Fn(wtnc::store::StoreError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Arrival,
    Poll(CallHandle),
    End(CallHandle),
    Tick,
    Round,
    Inject,
}

/// Running counters of the node; a measured phase reports the
/// difference between two snapshots.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    events: u64,
    attempts: u64,
    rounds: u64,
    drained: u64,
    findings: u64,
    records_checked: u64,
    live_records: u64,
    syncs: u64,
    nonempty_syncs: u64,
    records: u64,
    appended_bytes: u64,
    golden_reads: u64,
    golden_bytes: u64,
    restarts: u64,
    controller_restart_requests: u64,
    injected: u64,
    serial_rounds: u64,
    parallel_rounds: u64,
    fallback_rounds: u64,
}

/// The deterministic state summary two nodes built from one seed must
/// share at the end of the warm-up.
fn fingerprint(node: &Node) -> String {
    let s = node.client.stats();
    let r = node.engine.stats();
    let image = crc32(node.db.region()) ^ crc32(node.db.golden()).rotate_left(16);
    format!(
        "calls={} clean={} findings={} repairs={} verified={} records={} image_crc={:08x}",
        s.calls_completed_setup,
        s.calls_clean,
        node.c.findings,
        r.attempted,
        r.verified,
        node.c.records,
        image
    )
}

/// One assembled controller node.
pub struct Node {
    params: NodeParams,
    schema: Vec<TableDef>,
    db: Database,
    api: DbApi,
    registry: ProcessRegistry,
    audit_pid: Pid,
    audit: AuditProcess,
    engine: RecoveryEngine,
    supervisor: Supervisor,
    store: Store,
    client: DesClient,
    queue: EventQueue<Ev>,
    rng: SimRng,
    busy_until: SimTime,
    next_taint: u64,
    injecting: bool,
    /// Wall time of each `start_call` and each round, when sampling.
    sampling: bool,
    setup_us: Vec<f64>,
    round_us: Vec<f64>,
    c: Counters,
}

impl Node {
    /// Builds the schema and database, wires audit, recovery and
    /// supervision, opens a fresh store in `dir`, cuts the first
    /// checkpoint and seeds the event queue. This is what `setup_s`
    /// times.
    pub fn build(params: NodeParams, seed: u64, dir: &Path) -> Result<Node, String> {
        let schema = schema::standard_schema_with_slots(params.slots);
        let mut db = Database::build(schema.clone()).map_err(|e| format!("schema: {e}"))?;
        let api = DbApi::new();
        let mut registry = ProcessRegistry::new();
        let audit_pid = registry.spawn("audit", SimTime::ZERO);
        let audit_config = AuditConfig {
            event_triggered: true,
            full_rescan_period: params.full_rescan_period,
            ..AuditConfig::default()
        };
        let mut audit = AuditProcess::new(audit_config, &db);
        audit.set_deferred_repair(true);
        let engine = RecoveryEngine::new(RecoveryConfig::default());
        let mut supervisor = Supervisor::new(SupervisorConfig::default());
        supervisor.register(audit_pid, SupervisedRole::Audit, false, SimTime::ZERO);

        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
        }
        let mut store = Store::open(dir, store_config()).map_err(store_err("store open"))?;
        store.attach(&mut db);
        store.checkpoint(&mut db).map_err(store_err("first checkpoint"))?;

        let mut rng = SimRng::seed_from(seed);
        let workload = WorkloadConfig {
            threads: params.slots as usize,
            interarrival_mean: params.interarrival,
            ..WorkloadConfig::default()
        };
        let mut client = DesClient::new(workload, rng.bits(), true);
        let mut queue = EventQueue::new();
        queue.schedule(SimTime::ZERO + client.next_arrival_gap(), Ev::Arrival);
        queue.schedule(SimTime::ZERO + TICK, Ev::Tick);
        queue.schedule(SimTime::ZERO + audit.config().periodic_interval, Ev::Round);
        if let Some(every) = params.inject_every {
            queue.schedule(SimTime::ZERO + every, Ev::Inject);
        }
        Ok(Node {
            params,
            schema,
            db,
            api,
            registry,
            audit_pid,
            audit,
            engine,
            supervisor,
            store,
            client,
            queue,
            rng,
            busy_until: SimTime::ZERO,
            next_taint: 1,
            injecting: params.inject_every.is_some(),
            sampling: false,
            setup_us: Vec::new(),
            round_us: Vec::new(),
            c: Counters::default(),
        })
    }

    fn now(&self) -> SimTime {
        self.queue.now()
    }

    fn schedule(&mut self, tr: &mut Tracer, at: SimTime, ev: Ev) {
        tr.enter(Kind::SimQueue);
        self.queue.schedule(at, ev);
        tr.exit();
    }

    /// Processes one event. Returns whether it was a round.
    fn step(&mut self, tr: &mut Tracer) -> Result<bool, String> {
        tr.enter(Kind::SimQueue);
        let popped = self.queue.pop();
        tr.exit();
        let (now, ev) = popped.ok_or("event queue ran dry")?;
        self.c.events += 1;
        match ev {
            Ev::Arrival => {
                if now < self.busy_until {
                    // Repairs hold the controller: arrivals stall, as
                    // in the recovery campaign.
                    let at = self.busy_until;
                    self.schedule(tr, at, Ev::Arrival);
                    return Ok(false);
                }
                self.c.attempts += 1;
                tr.enter(Kind::CallSetup);
                let t0 = self.sampling.then(Instant::now);
                let started =
                    self.client.start_call(&mut self.db, &mut self.api, &mut self.registry, now);
                if let Some(t0) = t0 {
                    self.setup_us.push(t0.elapsed().as_secs_f64() * 1e6);
                }
                let held = self.client.next_call_duration();
                let gap = self.client.next_arrival_gap();
                tr.exit();
                if let Some((handle, setup)) = started {
                    self.schedule(tr, now + setup + held, Ev::End(handle));
                    let poll = self.client.config().poll_period;
                    if poll < held {
                        self.schedule(tr, now + setup + poll, Ev::Poll(handle));
                    }
                }
                self.schedule(tr, now + gap, Ev::Arrival);
            }
            Ev::Poll(handle) => {
                tr.enter(Kind::CallPoll);
                let healthy =
                    self.client.poll_call(&mut self.db, &mut self.api, &self.registry, handle, now);
                tr.exit();
                if healthy {
                    let at = now + self.client.config().poll_period;
                    self.schedule(tr, at, Ev::Poll(handle));
                }
            }
            Ev::End(handle) => {
                tr.enter(Kind::CallTeardown);
                self.client.end_call(&mut self.db, &mut self.api, &mut self.registry, handle, now);
                tr.exit();
            }
            Ev::Tick => {
                self.tick(tr, now);
                self.schedule(tr, now + TICK, Ev::Tick);
            }
            Ev::Round => {
                let t0 = self.sampling.then(Instant::now);
                self.round(tr, now)?;
                if let Some(t0) = t0 {
                    self.round_us.push(t0.elapsed().as_secs_f64() * 1e6);
                }
                self.background(tr)?;
                let at = now + self.audit.config().periodic_interval;
                self.schedule(tr, at, Ev::Round);
                return Ok(true);
            }
            Ev::Inject => {
                if self.injecting {
                    self.inject(now);
                }
                if let Some(every) = self.params.inject_every {
                    self.schedule(tr, now + every, Ev::Inject);
                }
            }
        }
        Ok(false)
    }

    /// One supervision tick, re-binding the audit handle on a restart
    /// the way `Controller::supervise_tick` does.
    fn tick(&mut self, tr: &mut Tracer, now: SimTime) {
        tr.enter(Kind::Supervise);
        let report = self.supervisor.tick(
            &mut self.api,
            &mut self.registry,
            Some(self.audit.heartbeat_mut()),
            now,
        );
        tr.exit();
        self.c.restarts += report.restarts.len() as u64;
        self.c.controller_restart_requests += u64::from(report.controller_restart_requested);
        for &(old, new) in &report.restarts {
            if old == self.audit_pid {
                self.audit_pid = new;
                *self.audit.heartbeat_mut() = HeartbeatElement::new();
            } else {
                self.api.init_at(new, now);
            }
        }
    }

    /// One detect→repair→verify round, in `Controller::run_recovery_cycle`
    /// order: IPC drain and audit cycle, journal sync, durable-golden
    /// read, then the recovery engine's ingest and cycle.
    fn round(&mut self, tr: &mut Tracer, now: SimTime) -> Result<(), String> {
        tr.enter(Kind::Round);
        tr.enter(Kind::AuditDrain);
        let pending = self.api.events().len() as u64;
        self.audit.drain_events(&mut self.api);
        tr.exit();
        tr.enter(Kind::AuditCycle);
        let report = self.audit.run_cycle(&mut self.db, &mut self.api, &mut self.registry, now);
        tr.exit();
        self.supervisor.note_progress(self.audit_pid, now);
        self.c.rounds += 1;
        self.c.drained += pending;
        self.c.findings += report.findings.len() as u64;
        self.c.records_checked += report.records_checked;
        self.c.live_records += self.live_records();
        match report.exec.mode {
            ExecutorMode::Serial => self.c.serial_rounds += 1,
            ExecutorMode::Parallel => self.c.parallel_rounds += 1,
            ExecutorMode::SerialFallback => self.c.fallback_rounds += 1,
        }

        self.sync(tr)?;
        tr.enter(Kind::GoldenRead);
        let detail = self.store.durable_golden_detail().map_err(store_err("golden read"))?;
        let source = detail.map(|d| {
            DiskGoldenSource::with_attestation(d.base_gen, d.golden, d.attested, d.block_size)
        });
        self.engine.set_disk_source(source);
        tr.exit();
        self.c.golden_reads += 1;
        self.c.golden_bytes += self.db.region_len() as u64;

        tr.enter(Kind::RecoveryIngest);
        self.engine.ingest(&report.findings, now);
        tr.exit();
        tr.enter(Kind::RecoveryCycle);
        let outcome = self.engine.run_cycle(
            &mut self.db,
            &mut self.api,
            &mut self.registry,
            &mut self.audit,
            now,
        );
        tr.exit();
        self.c.controller_restart_requests += u64::from(outcome.restart_requested);
        self.busy_until = self.busy_until.max(now + outcome.busy);
        tr.exit();
        Ok(())
    }

    /// Live records: every configuration record plus the three records
    /// of each call in flight.
    fn live_records(&self) -> u64 {
        let config: u32 = self
            .schema
            .iter()
            .filter(|t| t.nature == TableNature::Config)
            .map(|t| t.record_count)
            .sum();
        u64::from(config) + 3 * self.client.active_calls() as u64
    }

    fn sync(&mut self, tr: &mut Tracer) -> Result<(), String> {
        tr.enter(Kind::StoreSync);
        let before = self.store.journal_bytes();
        let n = self.store.sync(&mut self.db).map_err(store_err("journal sync"))?;
        let after = self.store.journal_bytes();
        tr.exit();
        self.c.syncs += 1;
        self.c.nonempty_syncs += u64::from(n > 0);
        self.c.records += n as u64;
        self.c.appended_bytes += after - before;
        Ok(())
    }

    /// Checkpoint and compaction after every `CKPT_EVERY_ROUNDS` rounds.
    fn background(&mut self, tr: &mut Tracer) -> Result<(), String> {
        if !self.c.rounds.is_multiple_of(CKPT_EVERY_ROUNDS) {
            return Ok(());
        }
        self.sync(tr)?;
        tr.enter(Kind::Checkpoint);
        self.store.checkpoint(&mut self.db).map_err(store_err("checkpoint"))?;
        tr.exit();
        tr.enter(Kind::Compact);
        self.store.compact().map_err(store_err("compaction"))?;
        tr.exit();
        Ok(())
    }

    /// One seeded single-bit flip outside the catalog header and
    /// outside every record of a call in flight (see `AUDIT_SWEEP`).
    fn inject(&mut self, now: SimTime) {
        let catalog = self.db.catalog().catalog_len();
        let (offset, bit) = loop {
            let offset = catalog + self.rng.index(self.db.region_len() - catalog);
            let bit = (self.rng.bits() % 8) as u8;
            if !self.on_live_record(offset) {
                break (offset, bit);
            }
        };
        let kind = self.db.classify_injection(offset, bit);
        self.db.flip_bit(offset, bit).expect("offset within the region");
        self.db.taint_mut().insert(offset, TaintEntry { id: self.next_taint, at: now, kind });
        self.next_taint += 1;
        self.c.injected += 1;
    }

    /// Whether `offset` lies in an active record slot of a dynamic
    /// table.
    fn on_live_record(&self, offset: usize) -> bool {
        self.db.catalog().tables().any(|tm| {
            tm.def.nature == TableNature::Dynamic
                && (tm.offset..tm.offset + tm.data_len()).contains(&offset)
                && self
                    .db
                    .is_active(RecordRef::new(
                        tm.id,
                        ((offset - tm.offset) / tm.record_size) as u32,
                    ))
                    .unwrap_or(false)
        })
    }

    /// Runs every event up to virtual time `until`.
    fn run_until(&mut self, tr: &mut Tracer, until: SimTime) -> Result<(), String> {
        while self.queue.peek_time().is_some_and(|t| t <= until) {
            self.step(tr)?;
        }
        Ok(())
    }

    /// The untimed prefix every run shares: warm-up; at `RESTART_AT` a
    /// journal sync, a copy of the store for the restart measurements
    /// and the first of them (whose recovered image is checked against
    /// this node's); then on to the checkpoint boundary the timed phase
    /// starts from. Returns the fingerprint taken at the end of the
    /// warm-up.
    fn prefix(
        &mut self,
        reps: &mut Reps,
        tr: &mut Tracer,
        out: &mut Outcome,
    ) -> Result<String, String> {
        self.run_until(tr, WARMUP)?;
        let print = fingerprint(self);
        self.run_until(tr, RESTART_AT)?;
        self.sync(tr)?;
        copy_dir(self.store.dir(), &reps.restart_dir)?;
        for rep in 0..EARLY_REPS {
            let (fresh, info) = reps.restart(tr)?;
            if rep == 0 {
                out.check(
                    fresh.region() == self.db.region() && fresh.golden() == self.db.golden(),
                    "recovered image equals the last-synced in-memory image byte for byte",
                );
                out.check(
                    info.findings.is_empty(),
                    &format!("clean recovery: {} finding(s)", info.findings.len()),
                );
            }
        }
        self.run_until(tr, MEASURE_FROM)?;
        Ok(print)
    }

    /// Stops injecting and runs on until a round leaves no repair
    /// ticket open (at most `SETTLE_ROUNDS` rounds).
    fn settle(&mut self, tr: &mut Tracer) -> Result<(), String> {
        self.injecting = false;
        let mut rounds = 0;
        while rounds < SETTLE_ROUNDS {
            if self.step(tr)? {
                rounds += 1;
                if self.engine.pending() == 0 {
                    break;
                }
            }
        }
        Ok(())
    }

    fn ipc_totals(&self) -> (u64, u64, u64, u64) {
        let q = self.api.events();
        let offered: u64 = q.lanes().map(|(_, l)| l.accepted + l.shed + l.backpressured).sum();
        (offered, q.total_sent(), q.shed(), q.backpressured())
    }
}

/// Client, engine and IPC state at the boundary of a measured phase.
struct Snapshot {
    c: Counters,
    calls: CallStats,
    attempted_repairs: u64,
    verified: u64,
    failed_tickets: u64,
    ipc: (u64, u64, u64, u64),
    store: wtnc::store::StoreStats,
    vtime: SimTime,
}

impl Snapshot {
    fn take(node: &Node) -> Snapshot {
        let r = node.engine.stats();
        Snapshot {
            c: node.c,
            calls: node.client.stats().clone(),
            attempted_repairs: r.attempted,
            verified: r.verified,
            failed_tickets: r.failed,
            ipc: node.ipc_totals(),
            store: node.store.stats(),
            vtime: node.now(),
        }
    }
}

/// Work done between two snapshots.
struct Delta {
    c: Counters,
    attempted: u64,
    setups: u64,
    clean: u64,
    refused: u64,
    dropped: u64,
    corrupted: u64,
    repairs: u64,
    verified: u64,
    failed_tickets: u64,
    offered: u64,
    accepted: u64,
    shed: u64,
    backpressured: u64,
    full_ckpts: u64,
    delta_ckpts: u64,
    compactions: u64,
    reclaimed: u64,
    vsecs: f64,
}

impl Delta {
    fn between(a: &Snapshot, b: &Snapshot) -> Delta {
        let d = |x: u64, y: u64| y - x;
        let mut c = b.c;
        macro_rules! sub {
            ($($f:ident),*) => { $( c.$f -= a.c.$f; )* };
        }
        sub!(
            events,
            attempts,
            rounds,
            drained,
            findings,
            records_checked,
            live_records,
            syncs,
            nonempty_syncs,
            records,
            appended_bytes,
            golden_reads,
            golden_bytes,
            restarts,
            controller_restart_requests,
            injected,
            serial_rounds,
            parallel_rounds,
            fallback_rounds
        );
        Delta {
            c,
            attempted: c.attempts,
            setups: d(a.calls.calls_completed_setup, b.calls.calls_completed_setup),
            clean: d(a.calls.calls_clean, b.calls.calls_clean),
            refused: d(a.calls.calls_refused, b.calls.calls_refused),
            dropped: d(a.calls.calls_dropped, b.calls.calls_dropped),
            corrupted: d(a.calls.calls_corrupted, b.calls.calls_corrupted),
            repairs: d(a.attempted_repairs, b.attempted_repairs),
            verified: d(a.verified, b.verified),
            failed_tickets: d(a.failed_tickets, b.failed_tickets),
            offered: d(a.ipc.0, b.ipc.0),
            accepted: d(a.ipc.1, b.ipc.1),
            shed: d(a.ipc.2, b.ipc.2),
            backpressured: d(a.ipc.3, b.ipc.3),
            full_ckpts: d(a.store.full_checkpoints, b.store.full_checkpoints),
            delta_ckpts: d(a.store.delta_checkpoints, b.store.delta_checkpoints),
            compactions: d(a.store.compactions, b.store.compactions),
            reclaimed: d(a.store.reclaimed_bytes, b.store.reclaimed_bytes),
            vsecs: b.vtime.saturating_since(a.vtime).as_secs_f64(),
        }
    }
}

/// Puts the result line's attempts and failures. An operation is a call
/// attempt. Repair tickets closed as failed are failures on every node;
/// a call lost (refused, dropped or corrupted) is one on a fault-free
/// node. Where flips are injected, a call a flip costs is an outcome of
/// the injection, as fail-silence violations are on the campaign: it is
/// noted, and counting it made `failed` read 0 or 1 by the flips' luck.
fn count_ops(node: &Node, d: &Delta, out: &mut Outcome) {
    let lost = d.refused + d.dropped + d.corrupted;
    out.note(&format!(
        "calls lost: {} refused, {} dropped, {} corrupted",
        d.refused, d.dropped, d.corrupted
    ));
    out.attempted = d.attempted;
    out.failed = d.failed_tickets + if node.params.inject_every.is_none() { lost } else { 0 };
}

/// Where a run keeps its stores and its outputs, relative to the
/// checkout root the benchmark runs from.
pub fn run_dir() -> PathBuf {
    PathBuf::from(".bench_run")
}

/// Checks that two nodes built from one seed reached the same state at
/// the end of the warm-up.
fn check_fingerprints(seed: u64, first: &str, second: &str, out: &mut Outcome) {
    out.check(
        first == second,
        &format!("deterministic counters repeat for seed {seed}: {first} (twin: {second})"),
    );
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let copy = || -> std::io::Result<()> {
        if to.exists() {
            std::fs::remove_dir_all(to)?;
        }
        std::fs::create_dir_all(to)?;
        for entry in std::fs::read_dir(from)? {
            let entry = entry?;
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
        Ok(())
    };
    copy().map_err(|e| format!("copying {} to {}: {e}", from.display(), to.display()))
}

/// The repeated set-up and restart measurements of one run.
struct Reps {
    params: NodeParams,
    seed: u64,
    schema: Vec<TableDef>,
    /// Store directory of the throwaway nodes built to time set-up.
    setup_dir: PathBuf,
    /// The copy of the node's store taken at `RESTART_AT`.
    restart_dir: PathBuf,
    setup_s: Vec<f64>,
    restart_ms: Vec<f64>,
    /// A calibration sample is taken with every throwaway set-up.
    speed: HostSpeed,
}

impl Reps {
    fn new(params: NodeParams, dir: &Path, seed: u64) -> Reps {
        let with_suffix = |suffix: &str| {
            let mut name = dir.as_os_str().to_owned();
            name.push(suffix);
            PathBuf::from(name)
        };
        Reps {
            params,
            seed,
            schema: schema::standard_schema_with_slots(params.slots),
            setup_dir: with_suffix("-setup"),
            restart_dir: with_suffix("-restart"),
            setup_s: Vec::new(),
            restart_ms: Vec::new(),
            speed: HostSpeed::default(),
        }
    }

    /// Builds a node, timing it, and keeps it.
    fn build(&mut self, dir: &Path) -> Result<Node, String> {
        let t0 = Instant::now();
        let node = Node::build(self.params, self.seed, dir)?;
        self.setup_s.push(t0.elapsed().as_secs_f64());
        Ok(node)
    }

    /// Builds and drops a throwaway node, then samples the host's
    /// speed.
    fn setup(&mut self) -> Result<(), String> {
        self.speed.sample();
        let dir = self.setup_dir.clone();
        self.build(&dir).map(drop)
    }

    /// One restart: reopens the store copy and warm-recovers it into a
    /// fresh database (built outside the timing).
    fn restart(&mut self, tr: &mut Tracer) -> Result<(Database, RecoveryInfo), String> {
        let mut fresh = Database::build(self.schema.clone()).map_err(|e| format!("schema: {e}"))?;
        tr.enter(Kind::Recover);
        let t0 = Instant::now();
        let mut store =
            Store::open(&self.restart_dir, store_config()).map_err(store_err("store reopen"))?;
        let info = store.recover_into(&mut fresh).map_err(store_err("warm recovery"))?;
        self.restart_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        tr.exit();
        Ok((fresh, info))
    }

    fn remove_dirs(&self) {
        let _ = std::fs::remove_dir_all(&self.setup_dir);
        let _ = std::fs::remove_dir_all(&self.restart_dir);
    }
}

/// One window of the timed phase: wall time and clean calls.
#[derive(Debug, Clone, Copy)]
struct Window {
    wall_s: f64,
    clean: u64,
}

/// What the timed phase measured.
struct Phase {
    wall_s: f64,
    windows: Vec<Window>,
    /// Peak RSS after `MIN_WINDOWS` windows (or at the end of a
    /// phase too short to get there).
    rss_mib: f64,
}

/// Runs from `MEASURE_FROM` until `seconds` of wall time have passed
/// or `MAX_WINDOWS` windows are done, closing a window at every
/// `WINDOW` of virtual time. A window cut short by the time limit is
/// not kept. The phase lasts at least `MIN_WINDOWS` windows; one
/// set-up runs after every window and one restart after every
/// `RESTART_EVERY_WINDOWS` windows, outside the window clock.
fn run_windows(
    node: &mut Node,
    tr: &mut Tracer,
    seconds: f64,
    reps: &mut Reps,
) -> Result<Phase, String> {
    let t0 = Instant::now();
    let mut windows = Vec::new();
    let mut rss_mib = None;
    let mut window_end = MEASURE_FROM + WINDOW;
    let (mut start_wall, mut start_clean) = (0.0, node.client.stats().calls_clean);
    let mut n = 0u64;
    loop {
        while node.queue.peek_time().is_some_and(|t| t <= window_end) {
            node.step(tr)?;
            n += 1;
            if n.is_multiple_of(64)
                && t0.elapsed().as_secs_f64() >= seconds
                && windows.len() >= MIN_WINDOWS
            {
                let wall_s = t0.elapsed().as_secs_f64();
                let rss_mib = rss_mib.unwrap_or_else(crate::host::peak_rss_mib);
                return Ok(Phase { wall_s, windows, rss_mib });
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        let clean = node.client.stats().calls_clean;
        windows.push(Window { wall_s: wall - start_wall, clean: clean - start_clean });
        if windows.len() == MIN_WINDOWS {
            rss_mib = Some(crate::host::peak_rss_mib());
        }
        reps.setup()?;
        if windows.len().is_multiple_of(RESTART_EVERY_WINDOWS) {
            reps.restart(tr)?;
        }
        if windows.len() == MAX_WINDOWS {
            let rss_mib = rss_mib.unwrap_or_else(crate::host::peak_rss_mib);
            return Ok(Phase { wall_s: t0.elapsed().as_secs_f64(), windows, rss_mib });
        }
        (start_wall, start_clean) = (t0.elapsed().as_secs_f64(), clean);
        window_end += WINDOW;
    }
}

/// Runs the `TRACE_WINDOWS` windows from `MEASURE_FROM`; returns the
/// wall seconds used.
fn run_trace_windows(node: &mut Node, tr: &mut Tracer) -> Result<f64, String> {
    let t0 = Instant::now();
    node.run_until(tr, MEASURE_FROM + WINDOW * TRACE_WINDOWS)?;
    Ok(t0.elapsed().as_secs_f64())
}

fn stamp(node: &Node, d: &Delta, out: &mut Outcome) {
    out.stamp("crc_kernel", wtnc::db::crc_kernel().name());
    out.stamp(
        "audit_executor",
        &format!(
            "serial x{} parallel x{} serial-fallback x{} (of {} rounds)",
            d.c.serial_rounds, d.c.parallel_rounds, d.c.fallback_rounds, d.c.rounds
        ),
    );
    out.stamp("store_fs", &crate::host::filesystem_of(node.store.dir()));
    out.stamp(
        "flush_policy",
        "journal: one fdatasync per non-empty sync, a sync every round; checkpoint: tmp write + \
         fdatasync + rename every 6 rounds, full image every 8th; compaction after each checkpoint",
    );
    out.stamp("params", &format!("{:?}", node.params));
}

/// The correctness checks every node run makes.
fn check_node(node: &Node, d: &Delta, out: &mut Outcome) {
    out.check(
        d.offered == d.accepted + d.shed + d.backpressured,
        &format!(
            "IPC offered {} == accepted {} + shed {} + backpressured {}",
            d.offered, d.accepted, d.shed, d.backpressured
        ),
    );
    let (_, accepted, _, _) = node.ipc_totals();
    let delivered = node.c.drained + node.api.events().len() as u64;
    out.check(
        accepted == delivered,
        &format!("IPC accepted {accepted} == drained + pending {delivered}"),
    );
    out.check(node.c.restarts == 0, &format!("audit.restarts == 0 (saw {})", node.c.restarts));
    out.check(
        node.c.controller_restart_requests == 0,
        &format!("no controller restart requested (saw {})", node.c.controller_restart_requests),
    );
    out.check(d.attempted > 0 && d.setups > 0, "calls were attempted and set up");
    if node.params.inject_every.is_none() {
        let s = node.client.stats();
        out.check(
            node.c.findings == 0 && s.calls_corrupted == 0,
            &format!(
                "fault-free: {} finding(s), {} corrupted call(s)",
                node.c.findings, s.calls_corrupted
            ),
        );
    } else {
        let r = node.engine.stats();
        out.check(r.failed == 0, &format!("recovery.failed == 0 (saw {})", r.failed));
        out.check(
            node.engine.pending() == 0,
            &format!("every repair ticket closed ({} pending)", node.engine.pending()),
        );
        out.check(node.c.findings > 0, "injected faults were detected");
    }
}

/// Runs a node workload; `trace` selects the per-layer run. Every
/// store directory the run made is removed before it returns.
pub fn run(
    params: NodeParams,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    static RUNS: AtomicU32 = AtomicU32::new(0);
    std::fs::create_dir_all(run_dir()).map_err(|e| format!("run dir: {e}"))?;
    let n = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = run_dir().join(format!("store-{}-{}-{n}", params.name, std::process::id()));
    let mut reps = Reps::new(params, &dir, seed);
    let result = if trace {
        run_traced(params, seed, &dir, &mut reps, out)
    } else {
        run_plain(seed, seconds, &dir, &mut reps, out)
    };
    let _ = std::fs::remove_dir_all(&dir);
    reps.remove_dirs();
    result
}

fn run_plain(
    seed: u64,
    seconds: f64,
    dir: &Path,
    reps: &mut Reps,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut off = Tracer::new(false);
    // The first set-up builds a twin that runs the warm-up, for the
    // determinism check.
    let twin_dir = reps.setup_dir.clone();
    let mut twin = reps.build(&twin_dir)?;
    twin.run_until(&mut off, WARMUP)?;
    let twin_print = fingerprint(&twin);
    drop(twin);
    for _ in 2..EARLY_REPS {
        reps.setup()?;
    }
    let mut node = reps.build(dir)?;
    let print = node.prefix(reps, &mut off, out)?;
    check_fingerprints(seed, &print, &twin_print, out);

    let a = Snapshot::take(&node);
    node.sampling = true;
    let phase = run_windows(&mut node, &mut off, seconds, reps)?;
    node.sampling = false;
    let b = Snapshot::take(&node);
    let d = Delta::between(&a, &b);
    node.settle(&mut off)?;
    check_node(&node, &d, out);
    stamp(&node, &d, out);
    count_ops(&node, &d, out);

    out.check(
        phase.windows.len() >= 5,
        &format!("{} whole {}-vsec windows measured", phase.windows.len(), WINDOW.as_secs_f64()),
    );
    let per_vsec: Vec<f64> =
        phase.windows.iter().map(|w| w.wall_s * 1e3 / WINDOW.as_secs_f64()).collect();
    let rate: Vec<f64> = phase.windows.iter().map(|w| w.clean as f64 / w.wall_s).collect();
    out.note(&format!("window wall_ms_per_vsec: {}", spread_note(&per_vsec)));
    out.note(&format!("setup s: {}", spread_note(&reps.setup_s)));
    out.note(&format!("restart ms: {}", spread_note(&reps.restart_ms)));
    // The host alternates between a fast and a slow state for seconds
    // at a time and a set-up or restart lasts a fraction of a second,
    // so their times are bimodal; the mean of their middle half follows
    // the mix smoothly where the median jumps between the modes.
    let k = reps.speed.scale();
    out.note(&reps.speed.note());
    out.metrics.put("setup_s", interquartile_mean(&reps.setup_s) * k, "s");
    if !phase.windows.is_empty() {
        out.metrics.put("ops_per_s", median(&rate) / k, "1/s");
        out.metrics.put("wall_ms_per_vsec", median(&per_vsec) * k, "ms");
    }
    let setup_us = std::mem::take(&mut node.setup_us);
    let round_us = std::mem::take(&mut node.round_us);
    out.note(&format!("audit round us: {}", spread_note(&round_us)));
    out.put_percentile("op_p50_us", &setup_us, 50.0, k);
    out.put_percentile("op_p99_us", &setup_us, 99.0, k);
    out.put_percentile("audit_round_p50_us", &round_us, 50.0, k);
    out.put_percentile("audit_round_p90_us", &round_us, 90.0, k);
    out.metrics.put("recover_ms", interquartile_mean(&reps.restart_ms) * k, "ms");
    out.metrics.put("peak_rss_mib", phase.rss_mib, "MiB");
    out.note(&format!(
        "timed phase: {:.3} s wall, {:.1} vsec in {} windows, {} events, {} calls attempted, \
         {} clean, {} rounds, {} bit flips",
        phase.wall_s,
        d.vsecs,
        phase.windows.len(),
        d.c.events,
        d.attempted,
        d.clean,
        d.c.rounds,
        d.c.injected
    ));
    Ok(())
}

/// The per-layer run: an untraced twin runs `TRACE_WINDOWS` windows,
/// then a traced node built from the same seed replays exactly the same
/// events; the wall-time difference is the tracing overhead.
fn run_traced(
    params: NodeParams,
    seed: u64,
    dir: &Path,
    reps: &mut Reps,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut off = Tracer::new(false);
    let mut twin = Node::build(params, seed, dir)?;
    let twin_print = twin.prefix(reps, &mut off, &mut Outcome::default())?;
    let events_before = twin.c.events;
    let untraced_wall = run_trace_windows(&mut twin, &mut off)?;
    let twin_events = twin.c.events - events_before;
    drop(twin);

    let mut node = Node::build(params, seed, dir)?;
    reps.restart_ms.clear();
    let print = node.prefix(reps, &mut off, out)?;
    check_fingerprints(seed, &print, &twin_print, out);
    let a = Snapshot::take(&node);
    let mut tr = Tracer::new(true);
    tr.enter(Kind::Run);
    let traced_wall = run_trace_windows(&mut node, &mut tr)?;
    tr.exit();
    let b = Snapshot::take(&node);
    let events = b.c.events - a.c.events;
    out.check(
        events == twin_events,
        &format!("traced node replays its twin's {twin_events} events (saw {events})"),
    );
    let d = Delta::between(&a, &b);
    node.settle(&mut off)?;
    check_node(&node, &d, out);
    stamp(&node, &d, out);
    count_ops(&node, &d, out);

    let totals = KindTotals::from_spans(tr.spans());
    let root_us = tr.spans()[0].duration_ns() as f64 / 1e3;
    let coverage = 100.0 * totals.covered_us() / root_us;
    out.check(coverage >= 95.0, &format!("trace.coverage_pct {coverage:.2} >= 95"));
    out.layer_shares(&totals, root_us);
    let trace_path = run_dir().join(format!("trace-{}.csv", params.name));
    tr.write_csv(&trace_path).map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    out.note(&format!("{} spans written to {}", tr.spans().len(), trace_path.display()));

    let ratio = |n: u64, base: u64| if base == 0 { 0.0 } else { n as f64 / base as f64 };
    let m = &mut out.metrics;
    m.put("sim.events", d.c.events as f64, "count");
    m.put("sim.queue_us", totals.self_us(Kind::SimQueue), "us");
    m.put("callproc.calls", d.attempted as f64, "count");
    m.put("callproc.setup_us", totals.self_us(Kind::CallSetup), "us");
    m.put("callproc.poll_us", totals.self_us(Kind::CallPoll), "us");
    m.put("callproc.teardown_us", totals.self_us(Kind::CallTeardown), "us");
    m.put("db.events_offered", d.offered as f64, "count");
    m.put("db.events_accepted", d.accepted as f64, "count");
    m.put("db.events_shed", d.shed as f64, "count");
    m.put("db.events_backpressured", d.backpressured as f64, "count");
    m.put("db.captured", d.c.records as f64, "count");
    m.put("db.captured_per_call", ratio(d.c.records, d.setups), "ratio");
    m.put("audit.drain_us", totals.self_us(Kind::AuditDrain), "us");
    m.put("audit.drained", d.c.drained as f64, "count");
    m.put("audit.cycle_us", totals.self_us(Kind::AuditCycle), "us");
    m.put("audit.cycles", d.c.rounds as f64, "count");
    m.put("audit.records_checked", d.c.records_checked as f64, "count");
    m.put("audit.findings", d.c.findings as f64, "count");
    m.put("audit.screen_ratio", ratio(d.c.records_checked, d.c.live_records), "ratio");
    m.put("audit.supervise_us", totals.self_us(Kind::Supervise), "us");
    m.put("audit.restarts", d.c.restarts as f64, "count");
    m.put(
        "recovery.cycle_us",
        totals.self_us(Kind::RecoveryIngest) + totals.self_us(Kind::RecoveryCycle),
        "us",
    );
    m.put("recovery.attempted", d.repairs as f64, "count");
    m.put("recovery.verified", d.verified as f64, "count");
    m.put("recovery.failed", d.failed_tickets as f64, "count");
    m.put("recovery.verify_ratio", ratio(d.verified, d.repairs), "ratio");
    m.put("store.sync_us", totals.self_us(Kind::StoreSync), "us");
    m.put("store.syncs", d.c.syncs as f64, "count");
    m.put("store.records", d.c.records as f64, "count");
    m.put("store.journal_bytes", d.c.appended_bytes as f64, "B");
    m.put("store.bytes_per_call", ratio(d.c.appended_bytes, d.setups), "B");
    m.put(
        "store.fsyncs",
        (d.c.nonempty_syncs + d.full_ckpts + d.delta_ckpts + d.compactions) as f64,
        "count",
    );
    m.put("store.golden_read_us", totals.self_us(Kind::GoldenRead), "us");
    m.put("store.golden_reads", d.c.golden_reads as f64, "count");
    m.put("store.golden_bytes", d.c.golden_bytes as f64, "B");
    m.put("store.ckpt_us", totals.self_us(Kind::Checkpoint), "us");
    m.put("store.full_ckpts", d.full_ckpts as f64, "count");
    m.put("store.delta_ckpts", d.delta_ckpts as f64, "count");
    m.put("store.compact_us", totals.self_us(Kind::Compact), "us");
    m.put("store.reclaimed_bytes", d.reclaimed as f64, "B");
    m.put("store.recover_us", interquartile_mean(&reps.restart_ms) * 1e3, "us");
    m.put("trace.overhead_pct", 100.0 * (traced_wall - untraced_wall) / untraced_wall, "%");
    m.put("trace.coverage_pct", coverage, "%");
    let idle = m.fill_idle_layers().to_vec();
    out.note(&format!("layers this workload does not exercise, reported as 0: {idle:?}"));
    out.note(&format!(
        "traced phase: {events} events over {:.1} vsec; untraced {untraced_wall:.3} s, traced \
         {traced_wall:.3} s",
        d.vsecs
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workload shapes shrunk so a few wall seconds cover
    /// enough rounds and calls for every percentile.
    fn smoke(params: NodeParams) -> NodeParams {
        // A sixteenth of the slots; call_steady keeps its concurrency
        // below them, audit_sweep keeps its flips per record.
        let scale = if params.inject_every.is_none() { 16 } else { 1 };
        NodeParams {
            slots: params.slots / 16,
            interarrival: params.interarrival * scale,
            inject_every: params.inject_every.map(|every| every * 16),
            ..params
        }
    }

    fn smoke_run(params: NodeParams, trace: bool) -> Outcome {
        let mut out = Outcome::default();
        run(smoke(params), 3, 5.0, trace, &mut out).unwrap();
        out
    }

    #[test]
    fn warmup_is_deterministic_per_seed() {
        let dir = run_dir().join(format!("test-det-{}", std::process::id()));
        let mut off = Tracer::new(false);
        let mut prints = Vec::new();
        for _ in 0..2 {
            let mut node = Node::build(smoke(AUDIT_SWEEP), 7, &dir).unwrap();
            node.run_until(&mut off, SimTime::from_secs(40)).unwrap();
            prints.push(fingerprint(&node));
        }
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(prints[0], prints[1]);
    }

    #[test]
    fn smoke_call_steady() {
        let out = smoke_run(CALL_STEADY, false);
        assert!(out.correct, "{out:?}");
        assert_eq!(out.failed, 0);
        assert_eq!(out.metrics.sorted(), crate::benchmark_sorted("end_to_end"));
    }

    #[test]
    fn smoke_audit_sweep() {
        let out = smoke_run(AUDIT_SWEEP, false);
        assert!(out.correct, "{out:?}");
        assert_eq!(out.metrics.sorted(), crate::benchmark_sorted("end_to_end"));
    }

    #[test]
    fn smoke_traced_runs_cover_the_wall() {
        for params in [CALL_STEADY, AUDIT_SWEEP] {
            let out = smoke_run(params, true);
            assert!(out.correct, "{out:?}");
            assert!(out.metrics.get("trace.coverage_pct").unwrap() >= 95.0);
            assert_eq!(out.metrics.sorted(), crate::benchmark_sorted("per_layer"));
            assert_eq!(out.metrics.idle(), crate::pecos::LAYERS);
        }
    }
}
