//! Revisit timer for the event-driven pipeline loop.
//!
//! [`Pipeline::run`](crate::Pipeline::run) sweeps every node on every
//! 20 ms tick; for a duty-cycled field where most buoys sleep most of
//! the time that is almost entirely wasted work.
//! [`Pipeline::run_events`](crate::Pipeline::run_events) runs the same
//! per-node steps over a *visit set* instead: last tick's sampling
//! nodes, the nodes touched since their last visit, and resting nodes
//! whose own revisit is due. [`EventHeap`] holds those revisits — a
//! resting node's outage end and its battery-depletion forecast — as
//! `(time, node)` entries.
//!
//! # Ordering contract
//!
//! Entries pop in ascending time order. Entries scheduled for the
//! *same* time pop in **insertion order** (a monotone sequence number
//! breaks ties), so the heap is deterministic: replaying the same
//! schedule calls yields the same pop order, bit for bit, regardless of
//! how the underlying `BinaryHeap` happens to arrange equal keys. This
//! is the same `(time, seq)` discipline as `sid-net`'s delivery queue.
//! The pipeline sorts each tick's visit set into node order, so no
//! behaviour hangs off the tie order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled revisit: absolute time, the insertion sequence number
/// that breaks ties, and the node to visit.
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    time: f64,
    seq: u64,
    node: usize,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Scheduled {}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse both keys: BinaryHeap is a max-heap, we want the
        // earliest time (and, within a time, the earliest insertion) on
        // top. `total_cmp` is safe because `schedule` rejects NaN.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic time-ordered heap of node revisits (see the module
/// docs for the ordering contract).
///
/// ```
/// use sid_core::sched::EventHeap;
///
/// let mut heap = EventHeap::new();
/// heap.schedule(2.0, 7);
/// heap.schedule(1.0, 4);
/// heap.schedule(1.0, 3);
///
/// // Time order first; the two t = 1.0 revisits pop in insertion order.
/// assert_eq!(heap.pop_due(1.0), Some((1.0, 4)));
/// assert_eq!(heap.pop_due(1.0), Some((1.0, 3)));
/// assert_eq!(heap.pop_due(1.0), None); // node 7 is not due yet
/// assert_eq!(heap.next_time(), Some(2.0));
/// ```
#[derive(Debug, Default)]
pub struct EventHeap {
    heap: BinaryHeap<Scheduled>,
    seq: u64,
}

impl EventHeap {
    /// An empty heap.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a revisit of `node` at simulation time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN — a NaN deadline would silently corrupt
    /// the heap order.
    pub fn schedule(&mut self, time: f64, node: usize) {
        assert!(!time.is_nan(), "cannot schedule an event at NaN");
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { time, seq, node });
    }

    /// The time of the earliest pending revisit.
    #[must_use]
    pub fn next_time(&self) -> Option<f64> {
        self.heap.peek().map(|s| s.time)
    }

    /// Pops the earliest revisit if it is due (`time <= now`), mirroring
    /// the tick loop's "due" comparisons, which all treat the boundary
    /// tick as due.
    pub fn pop_due(&mut self, now: f64) -> Option<(f64, usize)> {
        if self.heap.peek().is_some_and(|s| s.time <= now) {
            self.heap.pop().map(|s| (s.time, s.node))
        } else {
            None
        }
    }

    /// Number of pending revisits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no revisits are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut h = EventHeap::new();
        h.schedule(3.0, 0);
        h.schedule(1.0, 4);
        h.schedule(2.0, 1);
        assert_eq!(h.pop_due(10.0), Some((1.0, 4)));
        assert_eq!(h.pop_due(10.0), Some((2.0, 1)));
        assert_eq!(h.pop_due(10.0), Some((3.0, 0)));
        assert_eq!(h.pop_due(10.0), None);
        assert!(h.is_empty());
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut h = EventHeap::new();
        for idx in [9, 2, 7, 0, 5] {
            h.schedule(1.5, idx);
        }
        let order: Vec<_> = std::iter::from_fn(|| h.pop_due(1.5))
            .map(|(_, node)| node)
            .collect();
        assert_eq!(
            order,
            [9, 2, 7, 0, 5],
            "ties must break by insertion sequence"
        );
    }

    #[test]
    fn boundary_time_counts_as_due() {
        let mut h = EventHeap::new();
        h.schedule(2.0, 3);
        assert_eq!(h.pop_due(1.9), None, "not due before its time");
        assert_eq!(h.pop_due(2.0), Some((2.0, 3)));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_deadline_panics() {
        let mut h = EventHeap::new();
        h.schedule(f64::NAN, 0);
    }

    #[test]
    fn len_tracks_pending_events() {
        let mut h = EventHeap::new();
        assert_eq!(h.len(), 0);
        h.schedule(1.0, 0);
        h.schedule(1.0, 0);
        assert_eq!(h.len(), 2);
        h.pop_due(1.0);
        assert_eq!(h.len(), 1);
    }
}
