//! Discrete-event scheduler for the detection pipeline.
//!
//! [`Pipeline::run`](crate::Pipeline::run) sweeps every node on every
//! 20 ms tick; for a duty-cycled field where most buoys sleep most of
//! the time that is almost entirely wasted work. [`EventHeap`] is the
//! alternative core: a time-ordered heap of typed wake-up events
//! ([`SchedEvent`]) that lets
//! [`Pipeline::run_events`](crate::Pipeline::run_events) touch only the
//! nodes and subsystems that actually have something due.
//!
//! # Ordering contract
//!
//! Events pop in ascending time order. Events scheduled for the *same*
//! time pop in **insertion order** (a monotone sequence number breaks
//! ties), so the heap is deterministic: replaying the same schedule
//! calls yields the same pop order, bit for bit, regardless of how the
//! underlying `BinaryHeap` happens to arrange equal keys. This is the
//! same `(time, seq)` discipline as `sid-net`'s delivery queue, and it
//! is what the DST `variant_equivalence` oracle leans on.
//!
//! Consumers that need a *semantic* order within one tick (e.g. the
//! pipeline processes node events in ascending node index so the shared
//! RNG is drawn in tick-loop order) must bucket the due events and sort
//! them; the heap itself promises only time-then-insertion order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// When an event should fire: at an absolute simulation time, or at a
/// delta from "now" (resolved against the clock passed to
/// [`EventHeap::schedule`]).
///
/// Mirrors the `EventTime::Absolute`/`Delta` idiom of classic
/// discrete-event simulators: producers that know a deadline (a cluster
/// window closing at `formed_at + collection_window`) schedule
/// absolutely; producers that think in offsets (wake me one tick from
/// now) schedule a delta.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventTime {
    /// Fire at this simulation time (seconds).
    Absolute(f64),
    /// Fire this many seconds after the clock value passed to
    /// [`EventHeap::schedule`].
    Delta(f64),
}

impl EventTime {
    /// The absolute firing time given the current clock.
    #[must_use]
    pub fn resolve(self, now: f64) -> f64 {
        match self {
            EventTime::Absolute(t) => t,
            EventTime::Delta(d) => now + d,
        }
    }
}

/// A typed wake-up reason for the event-driven pipeline loop.
///
/// Node-scoped variants carry the node's grid index. The pipeline keeps
/// the *work* in the same methods the tick loop uses; an event only
/// says "this kind of work may be due now".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEvent {
    /// Node `idx` was invited while asleep and starts sampling at the
    /// next tick (invites land in the delivery phase; the tick loop
    /// first sees `wake_until > now` one tick later).
    DutyWake(usize),
    /// Node `idx`'s `wake_until` lease expires at this time. Stale if
    /// a later invite extended the lease — consumers re-check and
    /// reschedule (lazy deletion).
    DutySleep(usize),
    /// Node `idx`'s communication outage is due to clear.
    OutageEnd(usize),
    /// Node `idx`'s battery may cross depletion around this time and
    /// must be re-checked (sleeping nodes drain deterministically, so
    /// the check is scheduled conservatively early and re-armed).
    BatteryCheck(usize),
    /// The fault plan has an injection due.
    FaultDue,
    /// The network delivery queue has an arrival due; the pipeline
    /// polls it at this tick instead of every tick.
    RadioDelivery,
    /// Some active cluster's collection window closes at this time.
    ClusterDeadline,
    /// The alerting edge has a coalesced summary due to flush.
    AlertFlush,
    /// A scheduled detection retune applies at this time.
    RetuneAt,
}

/// One scheduled entry: absolute time plus the insertion sequence
/// number that breaks ties.
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    time: f64,
    seq: u64,
    event: SchedEvent,
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

/// A deterministic time-ordered event heap (see the module docs for the
/// ordering contract).
///
/// ```
/// use sid_core::sched::{EventHeap, EventTime, SchedEvent};
///
/// let mut heap = EventHeap::new();
/// heap.schedule(EventTime::Absolute(2.0), 0.0, SchedEvent::FaultDue);
/// heap.schedule(EventTime::Delta(1.0), 0.0, SchedEvent::RadioDelivery);
/// heap.schedule(EventTime::Absolute(1.0), 0.0, SchedEvent::ClusterDeadline);
///
/// // Time order first; the two t = 1.0 events pop in insertion order.
/// assert_eq!(heap.pop_due(1.0), Some((1.0, SchedEvent::RadioDelivery)));
/// assert_eq!(heap.pop_due(1.0), Some((1.0, SchedEvent::ClusterDeadline)));
/// assert_eq!(heap.pop_due(1.0), None); // FaultDue is not due yet
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

    /// Schedules `event`, resolving `when` against `now`, and returns
    /// the absolute firing time.
    ///
    /// # Panics
    ///
    /// Panics if the resolved time is NaN — a NaN deadline would
    /// silently corrupt the heap order.
    pub fn schedule(&mut self, when: EventTime, now: f64, event: SchedEvent) -> f64 {
        let time = when.resolve(now);
        assert!(!time.is_nan(), "cannot schedule an event at NaN");
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { time, seq, event });
        time
    }

    /// The firing time of the earliest pending event.
    #[must_use]
    pub fn next_time(&self) -> Option<f64> {
        self.heap.peek().map(|s| s.time)
    }

    /// Pops the earliest event if it is due (`time <= now`), mirroring
    /// the tick loop's "due" comparisons which all treat the boundary
    /// tick as due.
    pub fn pop_due(&mut self, now: f64) -> Option<(f64, SchedEvent)> {
        if self.heap.peek().is_some_and(|s| s.time <= now) {
            self.heap.pop().map(|s| (s.time, s.event))
        } else {
            None
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
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
        h.schedule(EventTime::Absolute(3.0), 0.0, SchedEvent::FaultDue);
        h.schedule(EventTime::Absolute(1.0), 0.0, SchedEvent::DutyWake(4));
        h.schedule(EventTime::Absolute(2.0), 0.0, SchedEvent::RadioDelivery);
        assert_eq!(h.pop_due(10.0), Some((1.0, SchedEvent::DutyWake(4))));
        assert_eq!(h.pop_due(10.0), Some((2.0, SchedEvent::RadioDelivery)));
        assert_eq!(h.pop_due(10.0), Some((3.0, SchedEvent::FaultDue)));
        assert_eq!(h.pop_due(10.0), None);
        assert!(h.is_empty());
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut h = EventHeap::new();
        for idx in [9, 2, 7, 0, 5] {
            h.schedule(EventTime::Absolute(1.5), 0.0, SchedEvent::DutyWake(idx));
        }
        let order: Vec<_> = std::iter::from_fn(|| h.pop_due(1.5))
            .map(|(_, e)| e)
            .collect();
        let want: Vec<_> = [9, 2, 7, 0, 5]
            .into_iter()
            .map(SchedEvent::DutyWake)
            .collect();
        assert_eq!(order, want, "ties must break by insertion sequence");
    }

    #[test]
    fn delta_resolves_against_now() {
        let mut h = EventHeap::new();
        let t = h.schedule(EventTime::Delta(0.25), 4.0, SchedEvent::AlertFlush);
        assert_eq!(t, 4.25);
        assert_eq!(h.next_time(), Some(4.25));
        assert_eq!(h.pop_due(4.2), None, "not due before its time");
        assert_eq!(h.pop_due(4.25), Some((4.25, SchedEvent::AlertFlush)));
    }

    #[test]
    fn boundary_time_counts_as_due() {
        let mut h = EventHeap::new();
        h.schedule(EventTime::Absolute(2.0), 0.0, SchedEvent::ClusterDeadline);
        assert_eq!(h.pop_due(2.0), Some((2.0, SchedEvent::ClusterDeadline)));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_deadline_panics() {
        let mut h = EventHeap::new();
        h.schedule(EventTime::Absolute(f64::NAN), 0.0, SchedEvent::FaultDue);
    }

    #[test]
    fn len_tracks_pending_events() {
        let mut h = EventHeap::new();
        assert_eq!(h.len(), 0);
        h.schedule(EventTime::Absolute(1.0), 0.0, SchedEvent::FaultDue);
        h.schedule(EventTime::Absolute(1.0), 0.0, SchedEvent::RetuneAt);
        assert_eq!(h.len(), 2);
        h.pop_due(1.0);
        assert_eq!(h.len(), 1);
    }
}
