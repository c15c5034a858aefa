//! Audit scheduling: which table gets checked next.
//!
//! The baseline "checks all database tables in a predetermined order
//! every time, regardless of how frequently each table is referenced or
//! how the detected data errors are distributed"
//! ([`RoundRobinScheduler`]). Prioritized triggering (§4.4.1,
//! [`PriorityScheduler`]) instead ranks tables by a weighted measure of
//! importance combining:
//!
//! * **access frequency** — frequently updated tables "are more liable
//!   to be corrupted due to software misbehavior";
//! * **the nature of the database object** — config/catalog-class
//!   tables matter more because everything reads them;
//! * **error history** — "the area where more errors occurred in the
//!   recent past is likely to contain more errors in the near future".

use wtnc_db::{Database, TableId, TableNature};

/// Chooses the next table to audit.
pub trait AuditScheduler {
    /// Picks the next table given current database statistics.
    fn next_table(&mut self, db: &Database) -> TableId;
}

/// Fixed-order scheduler: table 0, 1, 2, … and around again.
#[derive(Debug, Clone, Default)]
pub struct RoundRobinScheduler {
    next: usize,
}

impl RoundRobinScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AuditScheduler for RoundRobinScheduler {
    fn next_table(&mut self, db: &Database) -> TableId {
        let n = db.catalog().table_count();
        let t = TableId((self.next % n) as u16);
        self.next = (self.next + 1) % n;
        t
    }
}

/// Weights of the importance criteria.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriorityWeights {
    /// Weight of normalized access frequency.
    pub access: f64,
    /// Weight of the table-nature bonus (config/catalog class).
    pub nature: f64,
    /// Weight of normalized recent error count.
    pub errors: f64,
    /// Weight of normalized dirty-block density: tables with many
    /// unverified mutated blocks rank higher, steering audit visits
    /// toward the data that actually changed.
    pub dirty: f64,
}

impl Default for PriorityWeights {
    fn default() -> Self {
        PriorityWeights { access: 1.0, nature: 0.5, errors: 1.5, dirty: 1.0 }
    }
}

/// Weighted-importance scheduler.
///
/// Audit visits are allocated *proportionally* to each table's
/// importance score via deficit counters (stride scheduling): each
/// round every table earns its score as credit and the largest balance
/// is audited, paying back the round's total. Hot tables therefore get
/// a share of audit visits proportional to their importance — "the
/// ones with higher access frequency are checked more often" — without
/// the winner-take-all starvation a plain arg-max ranking produces. A
/// small uniform floor guarantees every table is audited regularly.
#[derive(Debug, Clone)]
pub struct PriorityScheduler {
    weights: PriorityWeights,
    /// Deficit (stride) credit per table.
    credit: Vec<f64>,
    /// Audit rounds since each table was last checked.
    staleness: Vec<u64>,
    /// Access counts observed at the previous round, per table.
    last_access: Vec<u64>,
    /// Smoothed access rate per table (EWMA of per-round deltas).
    rate: Vec<f64>,
}

impl PriorityScheduler {
    /// Creates the scheduler.
    pub fn new(weights: PriorityWeights) -> Self {
        PriorityScheduler {
            weights,
            credit: Vec::new(),
            staleness: Vec::new(),
            last_access: Vec::new(),
            rate: Vec::new(),
        }
    }

    /// Computes the current importance scores (exposed for tests and
    /// the ablation bench). Scores are normalized shares: they sum to
    /// ~1 across tables.
    pub fn scores(&mut self, db: &Database) -> Vec<f64> {
        let n = db.catalog().table_count();
        self.credit.resize(n, 0.0);
        self.staleness.resize(n, 0);
        self.last_access.resize(n, 0);
        self.rate.resize(n, 0.0);

        // Update smoothed access rates from this round's deltas.
        for i in 0..n {
            let total = db.table_stats(TableId(i as u16)).map(|s| s.accesses).unwrap_or(0);
            let delta = total.saturating_sub(self.last_access[i]) as f64;
            self.last_access[i] = total;
            self.rate[i] = 0.7 * self.rate[i] + 0.3 * delta;
        }
        let rate_sum: f64 = self.rate.iter().sum::<f64>().max(1.0);

        // Recent-error rate, normalized per record so a big table's
        // bulk does not masquerade as temporal locality.
        let err_rates: Vec<f64> = (0..n)
            .map(|i| {
                let tm = db.catalog().table(TableId(i as u16)).expect("id in range");
                let errs = db
                    .table_stats(TableId(i as u16))
                    .map(|s| s.errors_last_cycle as f64)
                    .unwrap_or(0.0);
                errs / tm.def.record_count as f64
            })
            .collect();
        let err_sum: f64 = err_rates.iter().sum::<f64>().max(1e-9);

        // Dirty-block density: unverified mutations waiting for an
        // audit. Zero everywhere when the bitmap is clean.
        let dirt: Vec<f64> = (0..n).map(|i| db.dirty_density(TableId(i as u16))).collect();
        let dirt_sum: f64 = dirt.iter().sum::<f64>().max(1e-9);

        let w_total =
            (self.weights.access + self.weights.nature + self.weights.errors + self.weights.dirty)
                .max(1e-9);
        (0..n)
            .map(|i| {
                let tm = db.catalog().table(TableId(i as u16)).expect("id in range");
                let nature_share = match tm.def.nature {
                    TableNature::Config => 1.0,
                    TableNature::Dynamic => 0.0,
                };
                let weighted = (self.weights.access * self.rate[i] / rate_sum
                    + self.weights.nature * nature_share
                    + self.weights.errors * err_rates[i] / err_sum
                    + self.weights.dirty * dirt[i] / dirt_sum)
                    / w_total;
                // 80% importance-driven, 20% uniform floor.
                0.8 * weighted + 0.2 / n as f64
            })
            .collect()
    }
}

impl AuditScheduler for PriorityScheduler {
    fn next_table(&mut self, db: &Database) -> TableId {
        let scores = self.scores(db);
        let total: f64 = scores.iter().sum();
        for (c, s) in self.credit.iter_mut().zip(scores.iter()) {
            *c += s;
        }
        let best = self
            .credit
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("credits are finite"))
            .map(|(i, _)| i)
            .unwrap_or(0);
        self.credit[best] -= total;
        for (i, s) in self.staleness.iter_mut().enumerate() {
            if i == best {
                *s = 0;
            } else {
                *s += 1;
            }
        }
        TableId(best as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtnc_db::{schema, RecordRef};
    use wtnc_sim::{Pid, SimTime};

    fn db() -> Database {
        Database::build(schema::six_table_schema(1)).unwrap()
    }

    #[test]
    fn round_robin_cycles_all_tables() {
        let d = db();
        let mut rr = RoundRobinScheduler::new();
        let picks: Vec<u16> = (0..12).map(|_| rr.next_table(&d).0).collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn hot_tables_are_picked_more_often() {
        let mut d = db();
        let hot = TableId(3);
        let mut sched = PriorityScheduler::new(PriorityWeights::default());
        let mut hot_picks = 0;
        for round in 0..60 {
            // Table 3 sees heavy traffic between audits.
            for k in 0..20 {
                d.note_access(
                    RecordRef::new(hot, k % 4),
                    Pid(1),
                    SimTime::from_secs(round),
                    k % 2 == 0,
                );
            }
            if sched.next_table(&d) == hot {
                hot_picks += 1;
            }
        }
        assert!(hot_picks >= 20, "hot table picked only {hot_picks}/60 times");
    }

    #[test]
    fn staleness_prevents_starvation() {
        let mut d = db();
        let mut sched = PriorityScheduler::new(PriorityWeights::default());
        // Sustained traffic on one table only.
        let mut seen = std::collections::BTreeSet::new();
        for round in 0..200 {
            for _ in 0..10 {
                d.note_access(
                    RecordRef::new(TableId(0), 0),
                    Pid(1),
                    SimTime::from_secs(round),
                    true,
                );
            }
            seen.insert(sched.next_table(&d).0);
        }
        assert_eq!(seen.len(), 6, "every table must eventually be audited: {seen:?}");
    }

    #[test]
    fn recent_errors_raise_priority() {
        let mut d = db();
        let mut sched = PriorityScheduler::new(PriorityWeights::default());
        d.note_errors_detected(TableId(4), 10);
        assert_eq!(sched.next_table(&d), TableId(4));
    }

    #[test]
    fn dirty_density_raises_priority() {
        let mut d = db();
        let mut sched = PriorityScheduler::new(PriorityWeights {
            access: 0.0,
            nature: 0.0,
            errors: 0.0,
            ..PriorityWeights::default()
        });
        // Mutate blocks across table 2's whole extent: its density
        // dwarfs the boundary spill into neighboring tables.
        let (off, len) = {
            let tm = d.catalog().table(TableId(2)).expect("table exists");
            (tm.offset, tm.data_len())
        };
        for o in (off..off + len).step_by(64) {
            d.flip_bit(o, 0).unwrap();
        }
        assert_eq!(sched.next_table(&d), TableId(2));
    }

    #[test]
    fn scores_are_finite_and_sized() {
        let d = db();
        let mut sched = PriorityScheduler::new(PriorityWeights::default());
        let scores = sched.scores(&d);
        assert_eq!(scores.len(), 6);
        assert!(scores.iter().all(|s| s.is_finite()));
    }
}
