//! Prioritized-audit assessment (§5.3, Table 5, Figures 5 and 6).
//!
//! Six tables with the paper's size ratio (7 : 18 : 1 : 125 : 8 : 4)
//! and access-frequency ratio (6 : 5 : 4 : 3 : 2 : 1) are exercised by
//! a synthetic 16-thread application at 20 operations per second per
//! thread. The audit checks **one table per period**, either in fixed
//! order (unprioritized) or by the weighted importance score
//! (prioritized). Errors arrive exponentially with a configurable mean
//! and land either uniformly over the database image or proportionally
//! to table access frequency.

use wtnc_audit::{AuditConfig, AuditScope, PriorityScheduler, PriorityWeights};
use wtnc_db::{schema, TaintFate};
use wtnc_sim::stats::Accumulator;
use wtnc_sim::{EventQueue, Pid, SimDuration, SimRng, SimTime};

use crate::Controller;

/// The paper's access-frequency ratio across the six tables.
pub const ACCESS_RATIO: [f64; 6] = [6.0, 5.0, 4.0, 3.0, 2.0, 1.0];

/// Database operations per second per application thread (paper: 20).
const OPS_PER_SEC_PER_THREAD: f64 = 20.0;

/// Application threads (paper: 16).
const THREADS: usize = 16;

/// Audit period — one table checked per tick (paper: 5 s).
const AUDIT_PERIOD: SimDuration = SimDuration::from_secs(5);

/// Base seed [`run_campaign`] draws its run seeds from.
pub const SEED: u64 = 0x5EED;

/// Configuration of one prioritized-audit run (paper Table 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriorityCampaignConfig {
    /// Prioritized (weighted) vs unprioritized (round-robin) audit.
    pub prioritized: bool,
    /// Proportional (access-frequency-weighted) vs uniform error
    /// placement.
    pub proportional_errors: bool,
    /// Mean time between errors (paper: 1, 2, 4 s).
    pub mtbf: SimDuration,
    /// Run length.
    pub duration: SimDuration,
    /// Schema scale factor (multiplies the size ratio).
    pub scale: u32,
}

impl Default for PriorityCampaignConfig {
    fn default() -> Self {
        PriorityCampaignConfig {
            prioritized: true,
            proportional_errors: false,
            mtbf: SimDuration::from_secs(2),
            duration: SimDuration::from_secs(300),
            // Sized from the paper's "actual controller database
            // measurements": large enough that per-record touch
            // intervals in the hot tables straddle the audit period,
            // which is the regime where prioritization matters.
            scale: 400,
        }
    }
}

/// Aggregated result.
#[derive(Debug, Clone, Default)]
pub struct PriorityResult {
    /// Errors injected.
    pub injected: u64,
    /// Errors the application consumed before detection.
    pub escaped: u64,
    /// Errors detected and repaired by the audit.
    pub caught: u64,
    /// Mean detection latency over caught errors, in seconds.
    pub detection_latency_s: f64,
}

impl PriorityResult {
    /// Escapes as a percentage of injections ("% of faults seen by
    /// application").
    pub fn escaped_pct(&self) -> f64 {
        if self.injected == 0 {
            0.0
        } else {
            100.0 * self.escaped as f64 / self.injected as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Op(usize),
    AuditTick,
    Inject,
}

/// Runs one experiment run, using the config's `prioritized` flag
/// with default weights.
pub fn run_once(config: &PriorityCampaignConfig, seed: u64) -> PriorityResult {
    let weights = config.prioritized.then(PriorityWeights::default);
    run_once_with_weights(config, weights, seed)
}

/// Runs one experiment run with explicit scheduler weights (`None` =
/// round-robin). This is the ablation entry point: each §4.4.1
/// importance term can be zeroed independently.
pub fn run_once_with_weights(
    config: &PriorityCampaignConfig,
    weights: Option<PriorityWeights>,
    seed: u64,
) -> PriorityResult {
    let mut rng = SimRng::seed_from(seed);
    let mut c = Controller::new(schema::six_table_schema(config.scale))
        .expect("schema builds")
        .with_audit(AuditConfig {
            periodic_interval: AUDIT_PERIOD,
            scope: AuditScope::OneTable,
            ..AuditConfig::default()
        });
    if let Some(weights) = weights {
        let audit = c.audit_mut().expect("audit attached");
        audit.set_scheduler(Box::new(PriorityScheduler::new(weights)));
    }
    let db = &mut c.db;

    let n_tables = db.catalog().table_count();
    // Pre-populate each table with an occupancy correlated to its
    // access frequency — hot tables run full, cold bulk tables hold
    // mostly stale capacity, as in the production controller.
    for t in 0..n_tables {
        let table = wtnc_db::TableId(t as u16);
        let cap = db.catalog().table(table).unwrap().def.record_count;
        let occupancy = 0.15 + 0.7 * ACCESS_RATIO[t.min(5)] / ACCESS_RATIO[0];
        let fill = (cap as f64 * occupancy) as u32;
        for _ in 0..fill {
            let idx = db.alloc_record_raw(table).expect("capacity available");
            let rec = wtnc_db::RecordRef::new(table, idx);
            db.write_field_raw(rec, wtnc_db::FieldId(0), rng.range_u64(0, 1_000))
                .expect("field exists");
        }
    }

    let pids: Vec<Pid> =
        (0..THREADS).map(|_| c.spawn_client("app-thread", SimTime::ZERO)).collect();

    let op_gap = SimDuration::from_secs_f64(1.0 / OPS_PER_SEC_PER_THREAD);
    let mut queue: EventQueue<Ev> = EventQueue::new();
    for (i, _) in pids.iter().enumerate() {
        queue.schedule(SimTime::ZERO + rng.exponential(op_gap), Ev::Op(i));
    }
    queue.schedule(SimTime::ZERO + AUDIT_PERIOD, Ev::AuditTick);
    queue.schedule(SimTime::ZERO + rng.exponential(config.mtbf), Ev::Inject);

    // Pre-compute table extents for proportional placement.
    let extents: Vec<(usize, usize)> =
        c.db.catalog().tables().map(|tm| (tm.offset, tm.data_len())).collect();

    let mut injected = 0u64;
    let end = SimTime::ZERO + config.duration;

    while let Some(at) = queue.peek_time() {
        if at > end {
            break;
        }
        let (now, ev) = queue.pop().expect("peeked");
        match ev {
            Ev::Op(thread) => {
                let pid = pids[thread];
                let table_idx = rng.weighted_index(&ACCESS_RATIO);
                let table = wtnc_db::TableId(table_idx as u16);
                let cap = c.db.catalog().table(table).unwrap().def.record_count;
                let index = rng.range_u64(0, cap as u64) as u32;
                let choice = rng.unit();
                let (db, api) = (&mut c.db, &mut c.api);
                if choice < 0.45 {
                    // Read the whole record (inactive ones are simply
                    // skipped by the API error).
                    let _ = api.read_rec(db, pid, table, index, now);
                } else if choice < 0.85 {
                    let _ = api.write_fld(
                        db,
                        pid,
                        table,
                        index,
                        wtnc_db::FieldId(0),
                        rng.range_u64(0, 1_000),
                        now,
                    );
                } else if choice < 0.93 {
                    let _ = api.alloc_record(db, pid, table, now);
                } else {
                    let _ = api.free_record(db, pid, table, index, now);
                }
                queue.schedule(now + rng.exponential(op_gap), Ev::Op(thread));
            }
            Ev::AuditTick => {
                c.run_audit_cycle(now);
                queue.schedule(now + AUDIT_PERIOD, Ev::AuditTick);
            }
            Ev::Inject => {
                let offset = if config.proportional_errors {
                    let t = rng.weighted_index(&ACCESS_RATIO);
                    let (off, len) = extents[t];
                    off + rng.index(len)
                } else {
                    rng.index(c.db.region_len())
                };
                let bit = (rng.bits() % 8) as u8;
                c.inject_bit_flip(offset, bit, now);
                injected += 1;
                queue.schedule(now + rng.exponential(config.mtbf), Ev::Inject);
            }
        }
    }

    // Classify.
    let mut result = PriorityResult { injected, ..PriorityResult::default() };
    let mut latency = Accumulator::new();
    for &(_offset, entry, fate) in c.db.taint().resolved() {
        match fate {
            TaintFate::Caught { at } => {
                result.caught += 1;
                latency.push(at.saturating_since(entry.at).as_secs_f64());
            }
            TaintFate::Escaped { .. } => result.escaped += 1,
            TaintFate::Overwritten { .. } => {}
        }
    }
    result.detection_latency_s = latency.mean();
    result
}

/// Runs `runs` independent runs and aggregates. Runs execute in
/// parallel across cores; results are identical to a serial execution.
pub fn run_campaign(config: &PriorityCampaignConfig, runs: usize) -> PriorityResult {
    let results = crate::parallel::run_runs(SEED, runs, |seed| run_once(config, seed));
    let mut total = PriorityResult::default();
    let mut latency = Accumulator::new();
    for r in results {
        total.injected += r.injected;
        total.escaped += r.escaped;
        total.caught += r.caught;
        if r.caught > 0 {
            latency.push(r.detection_latency_s);
        }
    }
    total.detection_latency_s = latency.mean();
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(prioritized: bool, proportional: bool) -> PriorityCampaignConfig {
        PriorityCampaignConfig {
            prioritized,
            proportional_errors: proportional,
            duration: SimDuration::from_secs(120),
            mtbf: SimDuration::from_secs(2),
            ..PriorityCampaignConfig::default()
        }
    }

    #[test]
    fn campaign_injects_and_detects() {
        let r = run_campaign(&cfg(true, false), 2);
        assert!(r.injected > 50);
        assert!(r.caught > 0);
        assert!(r.detection_latency_s > 0.0);
        assert!(r.escaped_pct() < 50.0);
    }

    #[test]
    fn prioritized_audit_reduces_escapes_under_uniform_errors() {
        let pri = run_campaign(&cfg(true, false), 4);
        let rr = run_campaign(&cfg(false, false), 4);
        assert!(
            pri.escaped_pct() <= rr.escaped_pct() * 1.05,
            "prioritized {}% vs round-robin {}%",
            pri.escaped_pct(),
            rr.escaped_pct()
        );
    }

    #[test]
    fn proportional_errors_raise_escape_rate() {
        let uniform = run_campaign(&cfg(true, false), 3);
        let proportional = run_campaign(&cfg(true, true), 3);
        // Errors concentrated in hot (and often small) tables are seen
        // by the application more often.
        assert!(
            proportional.escaped_pct() > uniform.escaped_pct() * 0.8,
            "proportional {}% vs uniform {}%",
            proportional.escaped_pct(),
            uniform.escaped_pct()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_once(&cfg(true, true), 5);
        let b = run_once(&cfg(true, true), 5);
        assert_eq!(a.injected, b.injected);
        assert_eq!(a.escaped, b.escaped);
        assert_eq!(a.caught, b.caught);
    }
}
