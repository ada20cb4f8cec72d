//! The future-event list: a min-heap of timestamped events with
//! deterministic FIFO tie-breaking, so equal-time events replay
//! identically across runs.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled event: the payload `E` fires at `time`.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: f64,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        // Ties break by insertion order (lower seq first).
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic future-event list.
#[derive(Debug, Clone)]
pub(crate) struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `payload` at absolute time `time`.
    ///
    /// # Panics
    /// Panics when `time` is NaN (a corrupted schedule would silently
    /// deadlock the simulation otherwise).
    pub fn schedule(&mut self, time: f64, payload: E) {
        assert!(!time.is_nan(), "cannot schedule an event at NaN");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, payload });
    }

    /// Removes and returns the earliest event `(time, payload)`.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|s| (s.time, s.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, 'c');
        q.schedule(1.0, 'a');
        q.schedule(2.0, 'b');
        assert_eq!(q.pop(), Some((1.0, 'a')));
        assert_eq!(q.pop(), Some((2.0, 'b')));
        assert_eq!(q.pop(), Some((3.0, 'c')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(1.0, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((1.0, i)));
        }
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_panics() {
        EventQueue::new().schedule(f64::NAN, ());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 1);
        q.schedule(4.0, 4);
        assert_eq!(q.pop(), Some((1.0, 1)));
        q.schedule(2.0, 2);
        q.schedule(3.0, 3);
        assert_eq!(q.pop(), Some((2.0, 2)));
        assert_eq!(q.pop(), Some((3.0, 3)));
        assert_eq!(q.pop(), Some((4.0, 4)));
    }
}
