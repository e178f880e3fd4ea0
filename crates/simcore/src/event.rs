//! The pending-event set drained by the simulation driver's event loop.
//!
//! [`EventQueue`] is a priority queue keyed by `(time, class, seq)`:
//!
//! * `time` — the simulated instant the event fires;
//! * `class` — a small integer used to order *simultaneous* events
//!   deterministically (e.g. process completions before arrivals so a
//!   departing job's processors are visible to a job arriving at the same
//!   second);
//! * `seq` — a monotonically increasing insertion counter that breaks all
//!   remaining ties, making the pop order a total order and the whole
//!   simulation reproducible.
//!
//! The queue is a plain `BinaryHeap` over that key. Arrivals are seeded
//! lazily, so the pending set stays at tens of events and a heap pop is
//! as cheap as any bucketed layout (DESIGN.md §16.1 has the measurement).

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Ordering class for events that fire at the same instant.
/// Lower values fire first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventClass(pub u8);

impl EventClass {
    /// Fires before everything else at the same instant.
    pub const FIRST: EventClass = EventClass(0);
    /// Default class.
    pub const NORMAL: EventClass = EventClass(128);
    /// Fires after everything else at the same instant.
    pub const LAST: EventClass = EventClass(255);
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    class: EventClass,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest entry is popped
        // first.
        (other.time, other.class, other.seq).cmp(&(self.time, self.class, self.seq))
    }
}

/// A deterministic min-priority queue of simulation events, popped in
/// `(time, class, seq)` order.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    /// Time of the most recently popped event; pushes earlier than this are
    /// causality violations and panic.
    watermark: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            watermark: SimTime::ZERO,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `payload` at `time` with the default class.
    ///
    /// # Panics
    /// If `time` is earlier than the last popped event (scheduling into the
    /// past breaks causality and always indicates a scheduler bug).
    pub fn push(&mut self, time: SimTime, payload: E) {
        self.push_classed(time, EventClass::NORMAL, payload);
    }

    /// Schedule `payload` at `time` with an explicit simultaneity class.
    pub fn push_classed(&mut self, time: SimTime, class: EventClass, payload: E) {
        assert!(
            time >= self.watermark,
            "event scheduled in the past: {time} < watermark {}",
            self.watermark
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time,
            class,
            seq,
            payload,
        });
    }

    /// Remove and return the earliest event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.time >= self.watermark);
        self.watermark = entry.time;
        Some((entry.time, entry.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(30), "c");
        q.push(SimTime::new(10), "a");
        q.push(SimTime::new(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (SimTime::new(10), "a"),
                (SimTime::new(20), "b"),
                (SimTime::new(30), "c"),
            ]
        );
    }

    #[test]
    fn simultaneous_events_respect_class_then_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::new(5);
        q.push_classed(t, EventClass::LAST, "late");
        q.push_classed(t, EventClass::NORMAL, "n1");
        q.push_classed(t, EventClass::FIRST, "early");
        q.push_classed(t, EventClass::NORMAL, "n2");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec!["early", "n1", "n2", "late"]);
    }

    #[test]
    fn len_and_is_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::new(1), ());
        q.push(SimTime::new(2), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn same_time_push_after_pop_is_allowed() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(10), 1);
        let (t, _) = q.pop().unwrap();
        // Scheduling at exactly `now` is legal (zero-delay wakeups).
        q.push(t, 2);
        assert_eq!(q.pop(), Some((SimTime::new(10), 2)));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(10), ());
        q.pop();
        q.push(SimTime::new(5), ());
    }

    #[test]
    fn large_interleaved_workload_stays_sorted() {
        let mut q = EventQueue::new();
        // Insert a pseudo-random but deterministic pattern of times.
        let mut x: u64 = 0x12345;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            q.push(SimTime::new(x >> 40), x);
        }
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn events_past_the_horizon_take_the_overflow_tier_and_come_back() {
        let mut q = EventQueue::new();
        // Out of order, with gaps of minutes to hours between events.
        for &t in &[6_407, 3, 192, 63] {
            q.push(SimTime::new(t), t);
        }
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(popped, vec![3, 63, 192, 6_407]);
    }

    #[test]
    fn class_and_seq_ties_survive_the_overflow_tier() {
        let mut q = EventQueue::new();
        // Class, then insertion order, at an instant minutes past zero.
        let t = SimTime::new(337);
        q.push_classed(t, EventClass::LAST, "late");
        q.push_classed(t, EventClass::FIRST, "early");
        q.push_classed(t, EventClass::NORMAL, "n1");
        q.push_classed(t, EventClass::NORMAL, "n2");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec!["early", "n1", "n2", "late"]);
    }

    #[test]
    fn window_reanchors_after_draining() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(640), 1);
        assert_eq!(q.pop(), Some((SimTime::new(640), 1)));
        // The queue is empty at a large watermark; a push near the
        // watermark must land (and pop) correctly.
        q.push(SimTime::new(641), 2);
        q.push(SimTime::new(640), 3);
        assert_eq!(q.pop(), Some((SimTime::new(640), 3)));
        assert_eq!(q.pop(), Some((SimTime::new(641), 2)));
        assert!(q.is_empty());
    }
}
