//! Property-based tests of the simulation kernel.

use std::collections::{BTreeMap, VecDeque};

use proptest::prelude::*;
use wtnc_sim::stats::Accumulator;
use wtnc_sim::{Enqueue, EventQueue, FairQueue, LaneStats, Pid, SimDuration, SimRng, SimTime};

/// Reference model of [`FairQueue`]: the two-map queue, with an
/// in-flight count per producer that a drain clears and accounting per
/// producer kept in a second map.
struct ModelQueue {
    items: VecDeque<(Pid, u64)>,
    capacity: usize,
    lane_capacity: usize,
    retry_after: SimDuration,
    in_flight: BTreeMap<Pid, usize>,
    stats: BTreeMap<Pid, LaneStats>,
}

impl ModelQueue {
    fn new(capacity: usize, lane_capacity: usize, retry_after: SimDuration) -> Self {
        ModelQueue {
            items: VecDeque::new(),
            capacity,
            lane_capacity: lane_capacity.min(capacity),
            retry_after,
            in_flight: BTreeMap::new(),
            stats: BTreeMap::new(),
        }
    }

    fn try_send(&mut self, producer: Pid, msg: u64) -> Enqueue {
        let stats = self.stats.entry(producer).or_default();
        let lane = self.in_flight.entry(producer).or_insert(0);
        if *lane >= self.lane_capacity {
            stats.shed += 1;
            return Enqueue::Shed;
        }
        if self.items.len() >= self.capacity {
            stats.backpressured += 1;
            return Enqueue::Backpressure { retry_after: self.retry_after };
        }
        *lane += 1;
        stats.accepted += 1;
        self.items.push_back((producer, msg));
        Enqueue::Accepted
    }

    fn recv(&mut self) -> Option<u64> {
        let (producer, msg) = self.items.pop_front()?;
        if let Some(n) = self.in_flight.get_mut(&producer) {
            *n = n.saturating_sub(1);
        }
        Some(msg)
    }

    fn drain(&mut self) -> Vec<u64> {
        self.in_flight.clear();
        self.items.drain(..).map(|(_, msg)| msg).collect()
    }

    fn lanes(&self) -> Vec<(Pid, LaneStats)> {
        self.stats.iter().map(|(&p, &s)| (p, s)).collect()
    }

    fn total(&self, of: impl Fn(&LaneStats) -> u64) -> u64 {
        self.stats.values().map(of).sum()
    }
}

/// Checks every observable of `q` against the model after one step.
fn same_as_model(
    q: &FairQueue<u64>,
    model: &ModelQueue,
    producers: u32,
    step: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    for p in 1..=producers {
        prop_assert_eq!(
            q.lane(Pid(p)),
            model.stats.get(&Pid(p)).copied().unwrap_or_default(),
            "step {}",
            step
        );
    }
    prop_assert_eq!(q.lanes().collect::<Vec<_>>(), model.lanes(), "step {}", step);
    prop_assert_eq!(q.shed(), model.total(|s| s.shed), "step {}", step);
    prop_assert_eq!(q.backpressured(), model.total(|s| s.backpressured), "step {}", step);
    prop_assert_eq!(q.total_sent(), model.total(|s| s.accepted), "step {}", step);
    let offered = model.total(|s| s.accepted + s.shed + s.backpressured);
    prop_assert_eq!(q.offered(), offered, "step {}", step);
    prop_assert_eq!(q.len(), model.items.len(), "step {}", step);
    Ok(())
}

proptest! {
    /// Events always pop in non-decreasing time order, FIFO at ties.
    #[test]
    fn event_queue_pops_sorted(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut last_time = SimTime::ZERO;
        let mut seen_at_time: Vec<usize> = Vec::new();
        while let Some((at, idx)) = q.pop() {
            prop_assert!(at >= last_time);
            if at == last_time {
                if let Some(&prev) = seen_at_time.last() {
                    // FIFO among equal timestamps: indices of equal-time
                    // events arrive in scheduling order.
                    if times[prev] == times[idx] {
                        prop_assert!(prev < idx);
                    }
                }
            } else {
                seen_at_time.clear();
            }
            seen_at_time.push(idx);
            last_time = at;
        }
    }

    /// Welford merge equals sequential accumulation for any split.
    #[test]
    fn accumulator_merge_matches_sequential(
        xs in prop::collection::vec(-1e6f64..1e6, 1..100),
        split in 0usize..100,
    ) {
        let split = split % xs.len();
        let mut whole = Accumulator::new();
        for &x in &xs {
            whole.push(x);
        }
        let (a, b) = xs.split_at(split);
        let mut left = Accumulator::new();
        for &x in a {
            left.push(x);
        }
        let mut right = Accumulator::new();
        for &x in b {
            right.push(x);
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((left.variance() - whole.variance()).abs() < 1e-3);
    }

    /// Exponential draws are non-negative; uniform draws stay in range.
    #[test]
    fn rng_distribution_bounds(seed in any::<u64>(), lo in 0u64..1_000, width in 1u64..1_000) {
        let mut rng = SimRng::seed_from(seed);
        let lo_d = SimDuration::from_millis(lo);
        let hi_d = SimDuration::from_millis(lo + width);
        for _ in 0..50 {
            let e = rng.exponential(SimDuration::from_secs(5));
            prop_assert!(e >= SimDuration::ZERO);
            let u = rng.uniform_duration(lo_d, hi_d);
            prop_assert!(u >= lo_d && u <= hi_d);
        }
    }

    /// Same seed, same stream — across every helper.
    #[test]
    fn rng_is_deterministic(seed in any::<u64>()) {
        let mut a = SimRng::seed_from(seed);
        let mut b = SimRng::seed_from(seed);
        for _ in 0..20 {
            prop_assert_eq!(a.bits(), b.bits());
            prop_assert_eq!(a.index(17), b.index(17));
            prop_assert_eq!(
                a.weighted_index(&[1.0, 2.0, 3.0]),
                b.weighted_index(&[1.0, 2.0, 3.0])
            );
        }
    }

    /// `FairQueue` (one lane record per producer, a drain epoch) against
    /// the two-map model: the same verdict, message and accounting after
    /// every `try_send`, `recv` and `drain`.
    #[test]
    fn fair_queue_matches_the_two_map_model(
        producers in 1u32..=5,
        capacity in 1usize..=8,
        lane_capacity in 1usize..=4,
        ops in prop::collection::vec((0u8..10, 1u32..=5), 0..200),
    ) {
        let retry = SimDuration::from_millis(3);
        let mut q = FairQueue::new(capacity, lane_capacity, retry);
        let mut model = ModelQueue::new(capacity, lane_capacity, retry);
        for (step, &(kind, producer)) in ops.iter().enumerate() {
            let producer = Pid((producer - 1) % producers + 1);
            match kind {
                0..=5 => {
                    let msg = step as u64;
                    prop_assert_eq!(q.try_send(producer, msg), model.try_send(producer, msg), "step {}", step);
                }
                6..=8 => prop_assert_eq!(q.recv(), model.recv(), "step {}", step),
                _ => prop_assert_eq!(q.drain().collect::<Vec<_>>(), model.drain(), "step {}", step),
            }
            same_as_model(&q, &model, producers, step)?;
        }
    }
}
