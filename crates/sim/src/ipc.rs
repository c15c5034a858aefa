//! In-simulation inter-process communication.
//!
//! The paper adds "a standard POSIX IPC message queue" between the
//! database API and the audit process (its Figure 1). In the
//! deterministic simulation, processes run interleaved on one OS
//! thread, so the queue is an in-memory FIFO. [`FairQueue`] bounds it
//! with *per-producer* admission control and an explicit [`Enqueue`]
//! verdict, so a single spamming client saturates only its own lane —
//! it can neither evict other producers' messages nor grow the
//! consumer's backlog without bound. Every rejected message is
//! accounted (shed or backpressured), never silently lost.

use std::collections::{BTreeMap, VecDeque};

use crate::process::Pid;
use crate::time::SimDuration;

/// The verdict of a bounded, backpressured enqueue attempt on a
/// [`FairQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueue {
    /// The message was admitted and will be delivered in FIFO order.
    Accepted,
    /// The aggregate queue is congested but this producer is within its
    /// fair share: the message was *not* admitted, and the producer
    /// should retry no sooner than `retry_after`.
    Backpressure {
        /// Suggested earliest retry delay.
        retry_after: SimDuration,
    },
    /// The producer exceeded its own per-lane bound: the message was
    /// dropped (and counted) so it cannot crowd out other producers.
    Shed,
}

impl Enqueue {
    /// True when the message was admitted.
    pub fn accepted(self) -> bool {
        matches!(self, Enqueue::Accepted)
    }
}

/// Per-producer admission accounting on a [`FairQueue`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Messages admitted into the queue.
    pub accepted: u64,
    /// Messages rejected with [`Enqueue::Backpressure`] (the producer
    /// keeps the message and may retry).
    pub backpressured: u64,
    /// Messages dropped with [`Enqueue::Shed`] (the producer blew its
    /// own lane bound; the message is gone).
    pub shed: u64,
}

/// A bounded FIFO queue with per-producer admission control.
///
/// Delivery order is plain arrival order (the consumer sees one FIFO
/// stream); *fairness* is enforced at
/// admission: each producer may occupy at most `lane_capacity` of the
/// queue's `capacity` slots, so one spamming client cannot evict or
/// crowd out the others. The two rejection modes are distinct and both
/// accounted per producer:
///
/// * over the producer's own lane bound → [`Enqueue::Shed`] (dropped);
/// * lane has room but the aggregate queue is full (global congestion
///   that is not this producer's fault) → [`Enqueue::Backpressure`]
///   with a suggested retry delay — the caller keeps the message.
///
/// # Example
///
/// ```
/// use wtnc_sim::{Enqueue, FairQueue, Pid, SimDuration};
///
/// let mut q = FairQueue::new(4, 2, SimDuration::from_millis(10));
/// assert!(q.try_send(Pid(1), "a").accepted());
/// assert!(q.try_send(Pid(1), "b").accepted());
/// // Pid(1) is at its lane bound: its excess is shed, not others'.
/// assert_eq!(q.try_send(Pid(1), "c"), Enqueue::Shed);
/// // Pid(2) still gets its fair share.
/// assert!(q.try_send(Pid(2), "d").accepted());
/// assert_eq!(q.recv(), Some("a"));
/// ```
#[derive(Debug, Clone)]
pub struct FairQueue<T> {
    items: VecDeque<(Pid, T)>,
    capacity: usize,
    lane_capacity: usize,
    retry_after: SimDuration,
    lanes: BTreeMap<Pid, Lane>,
    /// Drains so far, wrapping. A lane's in-flight count is current
    /// only while its `epoch` equals this, so a drain empties every
    /// lane without visiting one.
    epoch: u32,
    total_sent: u64,
    shed: u64,
    backpressured: u64,
}

/// One producer's record: its accounting and its undelivered messages.
#[derive(Debug, Clone, Copy, Default)]
struct Lane {
    stats: LaneStats,
    /// Undelivered messages, counted since drain `epoch`.
    in_flight: u32,
    epoch: u32,
}

impl<T> FairQueue<T> {
    /// Creates a queue holding at most `capacity` undelivered messages
    /// in total, of which any single producer may hold at most
    /// `lane_capacity` (capped at `capacity` and at `u32::MAX`).
    /// `retry_after` is the delay suggested to backpressured producers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `lane_capacity` is zero — a queue that
    /// can never admit a message would misbehave silently everywhere it
    /// is consumed.
    pub fn new(capacity: usize, lane_capacity: usize, retry_after: SimDuration) -> Self {
        assert!(capacity > 0, "a fair queue needs capacity for at least one message");
        assert!(lane_capacity > 0, "a fair queue needs lane capacity for at least one message");
        FairQueue {
            items: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            lane_capacity: lane_capacity.min(capacity).min(u32::MAX as usize),
            retry_after,
            lanes: BTreeMap::new(),
            epoch: 0,
            total_sent: 0,
            shed: 0,
            backpressured: 0,
        }
    }

    /// Attempts to enqueue a message from `producer`. See the type docs
    /// for the admission policy. Never blocks and never drops another
    /// producer's messages.
    pub fn try_send(&mut self, producer: Pid, msg: T) -> Enqueue {
        let lane = self.lanes.entry(producer).or_default();
        if lane.epoch != self.epoch {
            // Everything it had in flight went with a later drain.
            lane.epoch = self.epoch;
            lane.in_flight = 0;
        }
        if lane.in_flight as usize >= self.lane_capacity {
            lane.stats.shed += 1;
            self.shed += 1;
            return Enqueue::Shed;
        }
        if self.items.len() >= self.capacity {
            lane.stats.backpressured += 1;
            self.backpressured += 1;
            return Enqueue::Backpressure { retry_after: self.retry_after };
        }
        lane.in_flight += 1;
        lane.stats.accepted += 1;
        self.total_sent += 1;
        self.items.push_back((producer, msg));
        Enqueue::Accepted
    }

    /// Dequeues the oldest pending message, or `None` if empty.
    pub fn recv(&mut self) -> Option<T> {
        let (producer, msg) = self.items.pop_front()?;
        // A pending message was admitted in the current epoch: a drain
        // takes every pending message with it.
        if let Some(lane) = self.lanes.get_mut(&producer) {
            lane.in_flight = lane.in_flight.saturating_sub(1);
        }
        Some(msg)
    }

    /// Drains every pending message in FIFO order.
    pub fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // A lane last touched 2^32 drains ago would read as current.
            for lane in self.lanes.values_mut() {
                lane.in_flight = 0;
            }
        }
        self.items.drain(..).map(|(_, msg)| msg)
    }

    /// Iterates the pending messages in FIFO order without consuming
    /// them. A supervision tier taps the queue this way: it observes
    /// the traffic while the audit process remains the consumer.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter().map(|(_, msg)| msg)
    }

    /// Number of pending messages.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no messages are pending.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total queue capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Per-producer lane bound.
    pub fn lane_capacity(&self) -> usize {
        self.lane_capacity
    }

    /// Messages *admitted* since creation (the supervision tap's
    /// watermark; rejected messages never enter the queue and are
    /// accounted separately).
    pub fn total_sent(&self) -> u64 {
        self.total_sent
    }

    /// One producer's admission accounting.
    pub fn lane(&self, producer: Pid) -> LaneStats {
        self.lanes.get(&producer).map(|lane| lane.stats).unwrap_or_default()
    }

    /// Every producer's accounting, in pid order.
    pub fn lanes(&self) -> impl Iterator<Item = (Pid, LaneStats)> + '_ {
        self.lanes.iter().map(|(&p, lane)| (p, lane.stats))
    }

    /// Messages shed across all producers.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Backpressure rejections across all producers.
    pub fn backpressured(&self) -> u64 {
        self.backpressured
    }

    /// Enqueue attempts across all producers: admitted, shed and
    /// backpressured together.
    pub fn offered(&self) -> u64 {
        self.total_sent + self.shed + self.backpressured
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fair_queue_delivers_fifo_across_producers() {
        let mut q = FairQueue::new(8, 4, SimDuration::from_millis(1));
        assert!(q.try_send(Pid(1), 10).accepted());
        assert!(q.try_send(Pid(2), 20).accepted());
        assert!(q.try_send(Pid(1), 11).accepted());
        let got: Vec<_> = q.drain().collect();
        assert_eq!(got, vec![10, 20, 11], "one FIFO stream in arrival order");
        assert_eq!(q.total_sent(), 3);
    }

    #[test]
    fn spammer_is_shed_at_its_lane_bound_and_cannot_evict_others() {
        let mut q = FairQueue::new(8, 2, SimDuration::from_millis(1));
        assert!(q.try_send(Pid(7), 0).accepted());
        assert!(q.try_send(Pid(7), 1).accepted());
        for i in 2..10 {
            assert_eq!(q.try_send(Pid(7), i), Enqueue::Shed);
        }
        // The victim producer still gets its full lane.
        assert!(q.try_send(Pid(8), 100).accepted());
        assert!(q.try_send(Pid(8), 101).accepted());
        assert_eq!(q.lane(Pid(7)), LaneStats { accepted: 2, backpressured: 0, shed: 8 });
        assert_eq!(q.lane(Pid(8)).shed, 0);
        assert_eq!(q.shed(), 8);
        // Nothing admitted was lost.
        assert_eq!(q.len(), 4);
        assert_eq!(q.recv(), Some(0), "the spammer's excess never evicted admitted messages");
    }

    #[test]
    fn global_congestion_backpressures_producers_within_their_share() {
        // Four producers fill a capacity-4 queue; a fifth is within its
        // lane bound but the aggregate is full: backpressure, not shed.
        let mut q = FairQueue::new(4, 2, SimDuration::from_millis(25));
        for p in 1..=4 {
            assert!(q.try_send(Pid(p), p).accepted());
        }
        let verdict = q.try_send(Pid(5), 5);
        assert_eq!(verdict, Enqueue::Backpressure { retry_after: SimDuration::from_millis(25) });
        assert_eq!(q.lane(Pid(5)).backpressured, 1);
        // Draining relieves the congestion: the retry is admitted.
        assert_eq!(q.recv(), Some(1));
        assert!(q.try_send(Pid(5), 5).accepted());
        assert_eq!(q.backpressured(), 1);
    }

    #[test]
    fn recv_frees_lane_occupancy() {
        let mut q = FairQueue::new(8, 1, SimDuration::from_millis(1));
        assert!(q.try_send(Pid(1), 1).accepted());
        assert_eq!(q.try_send(Pid(1), 2), Enqueue::Shed);
        assert_eq!(q.recv(), Some(1));
        assert!(q.try_send(Pid(1), 3).accepted(), "delivery frees the producer's lane");
    }

    #[test]
    fn a_drain_that_wraps_the_epoch_empties_every_lane() {
        let mut q = FairQueue::new(8, 2, SimDuration::from_millis(1));
        // Pid(1) fills its lane in epoch 0 and is not heard from again
        // until the epoch comes round to 0.
        assert!(q.try_send(Pid(1), 1).accepted());
        assert!(q.try_send(Pid(1), 2).accepted());
        q.epoch = u32::MAX;
        assert!(q.try_send(Pid(2), 3).accepted());
        assert!(q.try_send(Pid(2), 4).accepted());
        assert_eq!(q.try_send(Pid(2), 5), Enqueue::Shed);
        assert_eq!(q.drain().count(), 4);
        assert_eq!(q.epoch, 0);
        assert_eq!(q.try_send(Pid(2), 6), Enqueue::Accepted);
        assert_eq!(q.try_send(Pid(1), 7), Enqueue::Accepted, "an epoch-0 count is not current");
        assert_eq!(q.lane(Pid(2)), LaneStats { accepted: 3, backpressured: 0, shed: 1 });
    }

    #[test]
    fn fair_queue_tap_does_not_consume() {
        let mut q = FairQueue::new(8, 8, SimDuration::from_millis(1));
        q.try_send(Pid(1), 1);
        q.try_send(Pid(1), 2);
        let seen: Vec<_> = q.iter().copied().collect();
        assert_eq!(seen, vec![1, 2]);
        assert_eq!(q.len(), 2, "tapping leaves the messages for the consumer");
        assert_eq!(q.recv(), Some(1));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn fair_queue_zero_capacity_panics() {
        let _ = FairQueue::<u8>::new(0, 1, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "lane capacity")]
    fn fair_queue_zero_lane_capacity_panics() {
        let _ = FairQueue::<u8>::new(4, 0, SimDuration::ZERO);
    }

    #[test]
    fn every_rejection_is_accounted_never_silent() {
        // Zero fail-silence at the IPC layer: admitted + shed +
        // backpressured always equals attempts.
        let mut q = FairQueue::new(3, 2, SimDuration::from_millis(1));
        let mut attempts = 0u64;
        for i in 0..50u64 {
            q.try_send(Pid((i % 3) as u32 + 1), i);
            attempts += 1;
            if i % 7 == 0 {
                q.recv();
            }
        }
        let accounted: u64 = q.lanes().map(|(_, s)| s.accepted + s.backpressured + s.shed).sum();
        assert_eq!(accounted, attempts);
        // The queue-wide totals equal the lane sums.
        assert_eq!(q.shed(), q.lanes().map(|(_, s)| s.shed).sum::<u64>());
        assert_eq!(q.backpressured(), q.lanes().map(|(_, s)| s.backpressured).sum::<u64>());
        assert_eq!(q.total_sent(), q.lanes().map(|(_, s)| s.accepted).sum::<u64>());
        assert_eq!(q.offered(), attempts);
        assert!(q.shed() > 0 && q.backpressured() > 0, "both rejection modes exercised");
    }
}
