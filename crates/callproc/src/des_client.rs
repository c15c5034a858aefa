//! The discrete-event call-processing client (§5.1, Figure 2).

use std::collections::HashMap;

use wtnc_db::{schema, Database, DbApi, DbError};
use wtnc_sim::stats::Accumulator;
use wtnc_sim::{Pid, ProcessRegistry, SimDuration, SimRng, SimTime};

/// Minimum call duration (paper Table 2: 20–30 s calls).
const CALL_MIN: SimDuration = SimDuration::from_secs(20);

/// Maximum call duration.
const CALL_MAX: SimDuration = SimDuration::from_secs(30);

/// Client-side processing time for the setup phases (auth + resource
/// allocation + feature setup), excluding database API costs.
/// Calibrated so uninstrumented setup lands near the paper's 160 ms.
const SETUP_PROCESSING: SimDuration = SimDuration::from_millis(150);

/// Fractional slow-down of client processing while the audit process
/// shares the controller CPU (the paper's measured 160 ms → 270 ms
/// comes mostly from this contention). Applied only when audits run.
const AUDIT_CONTENTION: f64 = 0.62;

/// Workload parameters (paper Table 2 defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Concurrent call-processing threads.
    pub threads: usize,
    /// Mean call inter-arrival time (exponential).
    pub interarrival_mean: SimDuration,
    /// Mid-call health-poll period.
    pub poll_period: SimDuration,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            threads: 16,
            interarrival_mean: SimDuration::from_secs(10),
            // The paper's client provides "the basic call-processing
            // service of setting up and tearing down a call without
            // additional features": records are touched at setup and
            // tear-down only, so the supervision poll defaults beyond
            // the maximum call duration.
            poll_period: SimDuration::from_secs(60),
        }
    }
}

/// Aggregate client statistics for one run.
#[derive(Debug, Clone, Default)]
pub struct CallStats {
    /// Calls whose setup completed.
    pub calls_completed_setup: u64,
    /// Calls refused at setup (no free thread/records or API failure).
    pub calls_refused: u64,
    /// Calls that ran to normal tear-down with matching golden copies.
    pub calls_clean: u64,
    /// Calls torn down with a golden-copy mismatch (corrupted data
    /// reached the client's records).
    pub calls_corrupted: u64,
    /// Calls dropped mid-flight (record freed by audit recovery, owner
    /// terminated, or API failure while active).
    pub calls_dropped: u64,
    /// Mid-call polls that observed corrupted data.
    pub polls_corrupted: u64,
    /// Call setup time distribution.
    pub setup_time: Accumulator,
}

/// Identifier of one in-flight call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CallHandle(pub u64);

/// How a call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallOutcome {
    /// Normal tear-down; all golden copies matched.
    Clean,
    /// Tear-down found corrupted record data (the client consumed an
    /// escaped error).
    CorruptedData,
    /// The call had already been dropped (audit terminated its thread
    /// or freed its records, or an API error interrupted it).
    Dropped,
}

#[derive(Debug, Clone)]
struct ActiveCall {
    pid: Pid,
    process_rec: u32,
    connection_rec: u32,
    resource_rec: u32,
    /// Golden local copies: (caller, callee, state) written to the
    /// connection record.
    golden_connection: (u64, u64, u64),
    dropped: bool,
}

/// The multi-threaded call-processing client.
///
/// The experiment harness owns the event queue; it calls
/// [`DesClient::start_call`] on arrival events, [`DesClient::poll_call`]
/// on poll events and [`DesClient::end_call`] on hang-up events.
#[derive(Debug)]
pub struct DesClient {
    config: WorkloadConfig,
    rng: SimRng,
    calls: HashMap<CallHandle, ActiveCall>,
    next_handle: u64,
    stats: CallStats,
    /// The one buffer every record read-back fills.
    read_buf: Vec<u64>,
    /// Whether the audit subsystem is active (enables the contention
    /// model and lets the harness compare both arms).
    audits_active: bool,
}

impl DesClient {
    /// Creates the client.
    pub fn new(config: WorkloadConfig, seed: u64, audits_active: bool) -> Self {
        DesClient {
            config,
            rng: SimRng::seed_from(seed),
            calls: HashMap::new(),
            next_handle: 0,
            stats: CallStats::default(),
            read_buf: Vec::new(),
            audits_active,
        }
    }

    /// The workload configuration.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CallStats {
        &self.stats
    }

    /// Number of calls currently in flight.
    pub fn active_calls(&self) -> usize {
        self.calls.len()
    }

    /// Draws the next call inter-arrival gap.
    pub fn next_arrival_gap(&mut self) -> SimDuration {
        self.rng.exponential(self.config.interarrival_mean)
    }

    /// Draws a call duration uniform in `[CALL_MIN, CALL_MAX]` (20–30 s).
    pub fn next_call_duration(&mut self) -> SimDuration {
        self.rng.uniform_duration(CALL_MIN, CALL_MAX)
    }

    /// Attempts to set up a call at `now`: authentication (config
    /// reads), resource allocation (three records forming the semantic
    /// loop), feature setup (field writes). Returns the call handle and
    /// the setup latency, or `None` when refused (all threads busy, or
    /// the database rejected an operation — e.g. corrupted catalog or
    /// exhausted tables).
    pub fn start_call(
        &mut self,
        db: &mut Database,
        api: &mut DbApi,
        registry: &mut ProcessRegistry,
        now: SimTime,
    ) -> Option<(CallHandle, SimDuration)> {
        if self.calls.len() >= self.config.threads {
            self.stats.calls_refused += 1;
            return None;
        }
        let pid = registry.spawn("cp-thread", now);
        api.init_at(pid, now);
        api.take_cost();

        match self.try_setup(db, api, pid, now) {
            Ok(call) => {
                let api_cost = api.take_cost();
                let processing = if self.audits_active {
                    SimDuration::from_secs_f64(
                        SETUP_PROCESSING.as_secs_f64() * (1.0 + AUDIT_CONTENTION),
                    )
                } else {
                    SETUP_PROCESSING
                };
                let setup = processing + api_cost;
                self.stats.calls_completed_setup += 1;
                self.stats.setup_time.push(setup.as_secs_f64() * 1e3);
                let handle = CallHandle(self.next_handle);
                self.next_handle += 1;
                self.calls.insert(handle, call);
                Some((handle, setup))
            }
            Err(_) => {
                // Unwind: free whatever we allocated and end the
                // thread.
                api.close(pid, now);
                registry.exit(pid);
                self.stats.calls_refused += 1;
                None
            }
        }
    }

    fn try_setup(
        &mut self,
        db: &mut Database,
        api: &mut DbApi,
        pid: Pid,
        now: SimTime,
    ) -> Result<ActiveCall, DbError> {
        // Authentication: consult static configuration — the call
        // ceiling plus the parameters of a candidate radio channel.
        let _max_calls =
            api.read_fld(db, pid, schema::SYSCONFIG_TABLE, 0, schema::sysconfig::MAX_CALLS, now)?;
        let channel_cfg_count = db.catalog().table(schema::CHANNEL_CONFIG_TABLE)?.def.record_count;
        let cfg_rec = self.rng.range_u64(0, channel_cfg_count as u64) as u32;
        api.read_rec_into(db, pid, schema::CHANNEL_CONFIG_TABLE, cfg_rec, now, &mut self.read_buf)?;

        // Resource allocation: the three-record semantic loop. Locks
        // are held across the multi-record transaction so the audit
        // abstains from half-built loops.
        let p = api.alloc_record(db, pid, schema::PROCESS_TABLE, now)?;
        let c = api.alloc_record(db, pid, schema::CONNECTION_TABLE, now)?;
        let r = api.alloc_record(db, pid, schema::RESOURCE_TABLE, now)?;
        let p_rec = wtnc_db::RecordRef::new(schema::PROCESS_TABLE, p);
        let c_rec = wtnc_db::RecordRef::new(schema::CONNECTION_TABLE, c);
        let r_rec = wtnc_db::RecordRef::new(schema::RESOURCE_TABLE, r);
        api.lock(db, p_rec, pid, now)?;
        api.lock(db, c_rec, pid, now)?;
        api.lock(db, r_rec, pid, now)?;

        let caller = self.rng.range_u64(0, 10_000);
        let callee = self.rng.range_u64(0, 10_000);
        let now_secs = now.as_micros() / 1_000_000;
        let rng = &mut self.rng;

        // Feature setup: populate every field of the three records
        // (field order follows the schema definitions).
        let process_values = [
            c as u64, // connection_id
            1,        // status = setting up
            // name_id is unruled but low-cardinality (one of the
            // controller's task-name codes) — the kind of attribute
            // §4.4.2's selective monitoring can learn.
            1_000 + rng.range_u64(0, 8) * 111,
            now_secs,                 // start_time
            rng.range_u64(0, 8),      // priority
            rng.range_u64(0, 4),      // cpu_affinity
            rng.range_u64(10, 1_001), // watchdog_ms
        ];
        let connection_values = [
            r as u64, // channel_id
            caller,
            callee,
            1,                       // state = setup
            now_secs,                // setup_time
            rng.range_u64(0, 4),     // codec
            rng.range_u64(0, 8),     // priority
            rng.range_u64(0, 3),     // bearer
            rng.range_u64(0, 2),     // direction
            rng.range_u64(0, 16),    // hop_count
            rng.range_u64(0, 32),    // timeslot
            rng.range_u64(0, 1_000), // cell_id
            rng.range_u64(0, 8),     // qos
            0,                       // billing_units (unruled; accumulates later)
        ];
        let resource_values = [
            p as u64,                        // process_id
            1,                               // status = busy
            rng.range_u64(800_000, 960_001), // freq_khz
            // power_mw is unruled but quantized to the radio's power
            // steps — learnable by selective monitoring.
            [250u64, 500, 1_000, 2_000][rng.index(4)],
            rng.range_u64(0, 32),    // timeslot
            rng.range_u64(0, 64),    // interference
            rng.range_u64(0, 1_024), // carrier
        ];

        let result = (|| -> Result<(), DbError> {
            api.write_rec(db, pid, schema::PROCESS_TABLE, p, &process_values, now)?;
            api.write_rec(db, pid, schema::CONNECTION_TABLE, c, &connection_values, now)?;
            api.write_rec(db, pid, schema::RESOURCE_TABLE, r, &resource_values, now)?;
            Ok(())
        })();

        api.unlock(p_rec, pid);
        api.unlock(c_rec, pid);
        api.unlock(r_rec, pid);
        result?;

        Ok(ActiveCall {
            pid,
            process_rec: p,
            connection_rec: c,
            resource_rec: r,
            golden_connection: (caller, callee, 1),
            dropped: false,
        })
    }

    /// Mid-call health poll: re-reads the connection record and
    /// compares it against the golden local copy. A mismatch means the
    /// call is running on corrupted data; the client drops it. Returns
    /// `true` while the call is still healthy.
    pub fn poll_call(
        &mut self,
        db: &mut Database,
        api: &mut DbApi,
        registry: &ProcessRegistry,
        handle: CallHandle,
        now: SimTime,
    ) -> bool {
        let Some(call) = self.calls.get(&handle) else {
            return false;
        };
        if call.dropped {
            return false;
        }
        // The audit may have terminated this call's thread.
        if !registry.is_alive(call.pid) {
            self.mark_dropped(handle);
            return false;
        }
        let pid = call.pid;
        let c = call.connection_rec;
        let r = call.resource_rec;
        let golden = call.golden_connection;
        // The mid-call supervision path touches the whole connection
        // record plus the channel status.
        let conn = api
            .read_rec_into(db, pid, schema::CONNECTION_TABLE, c, now, &mut self.read_buf)
            .map(|()| connection_identity(&self.read_buf));
        let res = api.read_fld(db, pid, schema::RESOURCE_TABLE, r, schema::resource::STATUS, now);
        match (conn, res) {
            (Ok(observed), Ok(_status)) => {
                if observed == golden {
                    true
                } else {
                    self.stats.polls_corrupted += 1;
                    self.mark_dropped(handle);
                    false
                }
            }
            _ => {
                // Record freed by recovery or API failure: dropped.
                self.mark_dropped(handle);
                false
            }
        }
    }

    fn mark_dropped(&mut self, handle: CallHandle) {
        if let Some(call) = self.calls.get_mut(&handle) {
            if !call.dropped {
                call.dropped = true;
                self.stats.calls_dropped += 1;
            }
        }
    }

    /// Ends a call at `now`: the Figure-8 discipline — read back every
    /// record, compare against golden local copies, then free the
    /// records and end the thread. The thread leaves the registry
    /// ([`ProcessRegistry::exit`]), also when the audit killed it
    /// mid-call, so the registry holds only the calls in flight.
    pub fn end_call(
        &mut self,
        db: &mut Database,
        api: &mut DbApi,
        registry: &mut ProcessRegistry,
        handle: CallHandle,
        now: SimTime,
    ) -> CallOutcome {
        let Some(call) = self.calls.remove(&handle) else {
            return CallOutcome::Dropped;
        };
        if call.dropped || !registry.is_alive(call.pid) {
            // Clean up whatever recovery left behind.
            let _ = api.free_record(db, call.pid, schema::PROCESS_TABLE, call.process_rec, now);
            let _ =
                api.free_record(db, call.pid, schema::CONNECTION_TABLE, call.connection_rec, now);
            let _ = api.free_record(db, call.pid, schema::RESOURCE_TABLE, call.resource_rec, now);
            api.close(call.pid, now);
            registry.exit(call.pid);
            if !call.dropped {
                self.stats.calls_dropped += 1;
            }
            return CallOutcome::Dropped;
        }
        let pid = call.pid;
        let c = call.connection_rec;
        // Tear-down reads back every record it wrote (Figure 8 step 4).
        let buf = &mut self.read_buf;
        let conn = api
            .read_rec_into(db, pid, schema::CONNECTION_TABLE, c, now, buf)
            .map(|()| connection_identity(buf));
        let proc_rb = api.read_rec_into(db, pid, schema::PROCESS_TABLE, call.process_rec, now, buf);
        let res_rb =
            api.read_rec_into(db, pid, schema::RESOURCE_TABLE, call.resource_rec, now, buf);
        let outcome = match (conn, proc_rb, res_rb) {
            (Ok(observed), Ok(()), Ok(())) => {
                if observed == call.golden_connection {
                    self.stats.calls_clean += 1;
                    CallOutcome::Clean
                } else {
                    self.stats.calls_corrupted += 1;
                    CallOutcome::CorruptedData
                }
            }
            _ => {
                self.stats.calls_dropped += 1;
                CallOutcome::Dropped
            }
        };
        let _ = api.free_record(db, pid, schema::PROCESS_TABLE, call.process_rec, now);
        let _ = api.free_record(db, pid, schema::CONNECTION_TABLE, c, now);
        let _ = api.free_record(db, pid, schema::RESOURCE_TABLE, call.resource_rec, now);
        api.close(pid, now);
        registry.exit(pid);
        outcome
    }
}

/// The (caller, callee, state) a connection record read back holds: the
/// fields the client keeps golden copies of.
fn connection_identity(values: &[u64]) -> (u64, u64, u64) {
    use schema::connection;
    (
        values[connection::CALLER_ID.0 as usize],
        values[connection::CALLEE_ID.0 as usize],
        values[connection::STATE.0 as usize],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(audits: bool) -> (Database, DbApi, ProcessRegistry, DesClient) {
        let db = Database::build(schema::standard_schema()).unwrap();
        let api = if audits { DbApi::new() } else { DbApi::without_instrumentation() };
        let registry = ProcessRegistry::new();
        let client = DesClient::new(WorkloadConfig::default(), 42, audits);
        (db, api, registry, client)
    }

    #[test]
    fn full_call_lifecycle_is_clean() {
        let (mut db, mut api, mut registry, mut client) = setup(true);
        let t0 = SimTime::from_secs(1);
        let (handle, setup_time) = client.start_call(&mut db, &mut api, &mut registry, t0).unwrap();
        assert!(setup_time > SimDuration::ZERO);
        assert_eq!(client.active_calls(), 1);
        // The semantic loop is complete while the call is active.
        assert_eq!(db.active_count(schema::PROCESS_TABLE).unwrap(), 1);
        assert!(client.poll_call(&mut db, &mut api, &registry, handle, SimTime::from_secs(5)));
        let outcome =
            client.end_call(&mut db, &mut api, &mut registry, handle, SimTime::from_secs(25));
        assert_eq!(outcome, CallOutcome::Clean);
        assert_eq!(client.active_calls(), 0);
        // Everything freed.
        assert_eq!(db.active_count(schema::PROCESS_TABLE).unwrap(), 0);
        assert_eq!(db.active_count(schema::CONNECTION_TABLE).unwrap(), 0);
        assert_eq!(db.active_count(schema::RESOURCE_TABLE).unwrap(), 0);
        assert_eq!(client.stats().calls_clean, 1);
    }

    #[test]
    fn corrupted_record_detected_at_teardown() {
        let (mut db, mut api, mut registry, mut client) = setup(true);
        let t0 = SimTime::from_secs(1);
        let (handle, _) = client.start_call(&mut db, &mut api, &mut registry, t0).unwrap();
        // Corrupt the caller id behind the client's back.
        let rec = wtnc_db::RecordRef::new(schema::CONNECTION_TABLE, 0);
        let (off, _) = db.field_extent(rec, schema::connection::CALLER_ID).unwrap();
        db.flip_bit(off, 4).unwrap();
        let outcome =
            client.end_call(&mut db, &mut api, &mut registry, handle, SimTime::from_secs(20));
        assert_eq!(outcome, CallOutcome::CorruptedData);
        assert_eq!(client.stats().calls_corrupted, 1);
    }

    #[test]
    fn poll_detects_corruption_and_drops_call() {
        let (mut db, mut api, mut registry, mut client) = setup(true);
        let (handle, _) =
            client.start_call(&mut db, &mut api, &mut registry, SimTime::from_secs(1)).unwrap();
        let rec = wtnc_db::RecordRef::new(schema::CONNECTION_TABLE, 0);
        let (off, _) = db.field_extent(rec, schema::connection::STATE).unwrap();
        db.flip_bit(off, 1).unwrap();
        assert!(!client.poll_call(&mut db, &mut api, &registry, handle, SimTime::from_secs(5)));
        assert_eq!(client.stats().polls_corrupted, 1);
        assert_eq!(client.stats().calls_dropped, 1);
        let outcome =
            client.end_call(&mut db, &mut api, &mut registry, handle, SimTime::from_secs(20));
        assert_eq!(outcome, CallOutcome::Dropped);
    }

    #[test]
    fn audit_termination_observed_as_drop() {
        let (mut db, mut api, mut registry, mut client) = setup(true);
        let (handle, _) =
            client.start_call(&mut db, &mut api, &mut registry, SimTime::from_secs(1)).unwrap();
        // The audit decides this thread must die.
        let pid = registry.alive().next().unwrap();
        registry.kill(pid, SimTime::from_secs(2));
        assert!(!client.poll_call(&mut db, &mut api, &registry, handle, SimTime::from_secs(5)));
        assert_eq!(
            client.end_call(&mut db, &mut api, &mut registry, handle, SimTime::from_secs(20)),
            CallOutcome::Dropped
        );
    }

    #[test]
    fn thread_limit_refuses_excess_calls() {
        let (mut db, mut api, mut registry, client) = setup(true);
        let config = WorkloadConfig { threads: 2, ..WorkloadConfig::default() };
        let mut client2 = DesClient::new(config, 7, true);
        let t = SimTime::from_secs(1);
        assert!(client2.start_call(&mut db, &mut api, &mut registry, t).is_some());
        assert!(client2.start_call(&mut db, &mut api, &mut registry, t).is_some());
        assert!(client2.start_call(&mut db, &mut api, &mut registry, t).is_none());
        assert_eq!(client2.stats().calls_refused, 1);
        let _ = client;
    }

    #[test]
    fn catalog_corruption_refuses_setup_cleanly() {
        let (mut db, mut api, mut registry, mut client) = setup(true);
        db.flip_bit(0, 0).unwrap(); // magic
        assert!(client
            .start_call(&mut db, &mut api, &mut registry, SimTime::from_secs(1))
            .is_none());
        assert_eq!(client.stats().calls_refused, 1);
        // No leaked locks or threads.
        assert!(api.locks().is_empty());
        assert_eq!(registry.alive().count(), 0);
    }

    #[test]
    fn contention_model_raises_setup_time() {
        let (mut db, mut api, mut registry, mut with_audit) = setup(true);
        let (h, t_with) =
            with_audit.start_call(&mut db, &mut api, &mut registry, SimTime::from_secs(1)).unwrap();
        with_audit.end_call(&mut db, &mut api, &mut registry, h, SimTime::from_secs(21));

        let (mut db2, mut api2, mut registry2, mut without) = setup(false);
        let (h2, t_without) =
            without.start_call(&mut db2, &mut api2, &mut registry2, SimTime::from_secs(1)).unwrap();
        without.end_call(&mut db2, &mut api2, &mut registry2, h2, SimTime::from_secs(21));

        assert!(t_with > t_without);
        // Paper shape: roughly 160 ms → 270 ms.
        let ratio = t_with.as_secs_f64() / t_without.as_secs_f64();
        assert!((1.3..2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn arrival_and_duration_draws_respect_config() {
        let (_, _, _, mut client) = setup(true);
        for _ in 0..100 {
            let d = client.next_call_duration();
            assert!(d >= SimDuration::from_secs(20) && d <= SimDuration::from_secs(30));
            let _ = client.next_arrival_gap();
        }
    }
}
