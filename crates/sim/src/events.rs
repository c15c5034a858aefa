//! Deterministic typed event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

#[derive(Debug)]
struct HeapEntry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for HeapEntry<E> {}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq)
        // pair is popped first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A deterministic future-event list.
///
/// Events are popped in increasing timestamp order; events with equal
/// timestamps are popped in the order they were scheduled (FIFO). This
/// tie-break is what makes whole-experiment runs bit-reproducible under
/// a fixed RNG seed.
///
/// # Example
///
/// ```
/// use wtnc_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(1), "b");
/// q.schedule(SimTime::from_secs(1), "c");
/// q.schedule(SimTime::ZERO, "a");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0, now: SimTime::ZERO }
    }

    /// The current simulated time: the timestamp of the last event
    /// popped, or [`SimTime::ZERO`] before any pop.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at `at`, returning its sequence number.
    ///
    /// Scheduling in the past is permitted (the event fires "now"); this
    /// mirrors an interrupt that was raised while the handler was busy.
    /// The queue clamps such events to the current time.
    pub fn schedule(&mut self, at: SimTime, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let at = at.max(self.now);
        self.heap.push(HeapEntry { at, seq, event });
        seq
    }

    /// Removes and returns the earliest event, advancing the clock to
    /// its timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops every pending event, keeping the clock where it is.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    enum Ev {
        A,
        B,
        C,
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(30), Ev::C);
        q.schedule(SimTime::from_secs(10), Ev::A);
        q.schedule(SimTime::from_secs(20), Ev::B);
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), Ev::A)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(20), Ev::B)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(30), Ev::C)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.schedule(t, Ev::A);
        q.schedule(t, Ev::B);
        q.schedule(t, Ev::C);
        assert_eq!(q.pop().unwrap().1, Ev::A);
        assert_eq!(q.pop().unwrap().1, Ev::B);
        assert_eq!(q.pop().unwrap().1, Ev::C);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), Ev::A);
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), Ev::A);
        q.pop();
        q.schedule(SimTime::from_secs(1), Ev::B);
        let (t, ev) = q.pop().unwrap();
        assert_eq!(ev, Ev::B);
        assert_eq!(t, SimTime::from_secs(5));
    }

    #[test]
    fn peek_len_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_secs(2), Ev::A);
        q.schedule(SimTime::from_secs(2) + SimDuration::from_micros(1), Ev::B);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        q.clear();
        assert!(q.is_empty());
    }
}
