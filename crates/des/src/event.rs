//! The event wheel: a three-tier queue tuned for gate-level activity
//! (current-timestamp FIFO ring, sorted near-future lane, binary heap
//! for events past the lane's window).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::{ComponentId, SignalId, Time};

/// Width of the near-future lane. Events scheduled further than this
/// past the current timestamp go to the heap: a clock's next edge, a
/// stimulus entry or a timeout parked at the back of the near lane
/// would turn every later gate-delay push into a sorted insert.
/// One nanosecond spans a gate-delay chain but not the 5 ns half
/// period of a 100 MHz clock.
const NEAR_WINDOW_FS: u64 = 1_000_000; // 1 ns

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum EventKind {
    /// Commit the signal's pending value if `epoch` is still current.
    /// The value itself lives in the signal's `pending_value` slot —
    /// carrying it here too would grow every event by 24 bytes, and
    /// queue traffic is the kernel's dominant cost.
    Drive { signal: SignalId, epoch: u64 },
    /// Call `on_wake` on the component.
    Wake { comp: ComponentId },
    /// Execute the fault action at this index of the installed
    /// [`crate::fault::FaultState`] action table (stuck-at activation,
    /// glitch injection or glitch restore). Only ever queued when a
    /// non-empty fault plan was applied.
    Fault { action: u32 },
}

#[derive(Debug, Clone)]
pub(crate) struct Event {
    pub time: Time,
    pub seq: u64,
    pub kind: EventKind,
}

impl Event {
    fn key(&self) -> (Time, u64) {
        (self.time, self.seq)
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to pop earliest (time, seq).
        other.time.cmp(&self.time).then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic priority queue of events ordered by (time, insertion
/// sequence). Two events at the same timestamp pop in the order they
/// were scheduled, which makes whole simulations reproducible.
///
/// # Three-tier structure
///
/// A single binary heap pays `O(log n)` sift costs — on 64-byte
/// events — for *every* push and pop, yet gate-level schedules are
/// overwhelmingly benign: a committed edge fans out into events at the
/// same timestamp or a gate delay ahead of everything already queued.
/// The queue exploits that shape with three lanes:
///
/// * `ring` — events at the current timestamp (`ring_time`), FIFO.
///   Zero-delay churn pushes and pops here at `O(1)`.
/// * `near` — future events within [`NEAR_WINDOW_FS`] of `ring_time`,
///   in ascending (time, seq): a push whose key is past the lane's
///   back is an `O(1)` append. This is the common case — gate delays
///   almost always land past the back of the lane; the rest pay a
///   sorted insert.
/// * `far` — events beyond the window, in a binary heap. Correctness
///   never depends on which lane an event landed in: pops always take
///   the global minimum.
///
/// # Invariants
///
/// * Every ring event has `time == ring_time`, in ascending `seq`.
/// * `near` is sorted ascending by (time, seq) and holds no event at
///   `ring_time`.
/// * After a timestamp migration the heap holds no event at
///   `ring_time` either, so (time, seq) pop order is identical to a
///   plain-heap implementation, event for event.
/// * Pushes earlier than `ring_time` are impossible: `ring_time`
///   trails the simulator's `now`, and delays are non-negative.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    ring: VecDeque<Event>,
    near: VecDeque<Event>,
    far: BinaryHeap<Event>,
    ring_time: Time,
    next_seq: u64,
}

impl EventQueue {
    pub fn new() -> Self {
        EventQueue {
            ring: VecDeque::new(),
            near: VecDeque::new(),
            far: BinaryHeap::new(),
            ring_time: Time::ZERO,
            next_seq: 0,
        }
    }

    #[inline]
    pub fn push(&mut self, time: Time, kind: EventKind) {
        debug_assert!(
            time >= self.ring_time,
            "event scheduled in the past: {time:?} < {:?}",
            self.ring_time
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let ev = Event { time, seq, kind };
        if time == self.ring_time {
            self.ring.push_back(ev);
        } else if time.as_fs() - self.ring_time.as_fs() <= NEAR_WINDOW_FS {
            if self.near.back().is_none_or(|b| b.key() < (time, seq)) {
                self.near.push_back(ev);
            } else {
                // Out-of-order within the window: sorted insert. The
                // offending key is typically close to one end (mixed
                // femtosecond wire and picosecond gate delays), and
                // `VecDeque::insert` shifts whichever side is
                // shorter, so this stays cheap.
                let pos = self.near.partition_point(|e| e.key() < (time, seq));
                self.near.insert(pos, ev);
            }
        } else {
            self.far.push(ev);
        }
    }

    /// Unconditional pop; the simulator itself goes through
    /// [`EventQueue::pop_at_or_before`], which fuses the horizon check.
    #[cfg(test)]
    pub fn pop(&mut self) -> Option<Event> {
        if let Some(ev) = self.ring.pop_front() {
            return Some(ev);
        }
        if let Some(ev) = self.pop_lone_near() {
            return Some(ev);
        }
        self.advance_ring()?;
        self.ring.pop_front()
    }

    /// Fast path for the dominant schedule shape: the earliest near
    /// event is the *only* event at its timestamp (strictly earlier
    /// than the rest of the near lane and all of the heap). Popping it
    /// directly skips the migrate-into-ring round trip. Call only with
    /// an empty ring.
    #[cfg(test)]
    fn pop_lone_near(&mut self) -> Option<Event> {
        debug_assert!(self.ring.is_empty());
        let t = self.near.front()?.time;
        let far_later = self.far.peek().is_none_or(|f| f.time > t);
        let near_later = self.near.get(1).is_none_or(|n| n.time > t);
        if far_later && near_later {
            self.ring_time = t;
            self.near.pop_front()
        } else {
            None
        }
    }

    /// Migrates every event carrying the earliest queued timestamp
    /// from the near lane and the heap into the ring (merged by seq)
    /// and makes that timestamp the new `ring_time`. Returns `None` if
    /// the queue is empty.
    fn advance_ring(&mut self) -> Option<()> {
        let t = match (self.near.front(), self.far.peek()) {
            (Some(n), Some(f)) => n.time.min(f.time),
            (Some(n), None) => n.time,
            (None, Some(f)) => f.time,
            (None, None) => return None,
        };
        self.ring_time = t;
        // Both sources yield their time-`t` events in ascending seq;
        // merge the two runs so the ring stays seq-sorted.
        loop {
            let from_near = match (self.near.front(), self.far.peek()) {
                (Some(n), Some(f)) if n.time == t && f.time == t => n.seq < f.seq,
                (Some(n), _) if n.time == t => true,
                (_, Some(f)) if f.time == t => false,
                _ => break,
            };
            let ev = if from_near {
                self.near.pop_front().expect("checked above")
            } else {
                self.far.pop().expect("checked above")
            };
            self.ring.push_back(ev);
        }
        Some(())
    }

    /// Pops the next event if its time is `<= horizon`, in one
    /// traversal — this is the simulator main-loop fast path.
    #[inline]
    pub fn pop_at_or_before(&mut self, horizon: Time) -> Option<Event> {
        if let Some(ev) = self.ring.front() {
            if ev.time > horizon {
                return None;
            }
            return self.ring.pop_front();
        }
        if let Some(n) = self.near.front() {
            let t = n.time;
            if self.far.peek().is_none_or(|f| f.time > t) {
                // The near front is the global minimum; if it is also
                // strictly earlier than the rest of its own lane it is
                // the *only* event at its timestamp and pops directly,
                // skipping the migrate-into-ring round trip (see
                // `pop_lone_near`). This is the dominant schedule
                // shape for gate-delay chains.
                if t > horizon {
                    return None;
                }
                if self.near.get(1).is_none_or(|x| x.time > t) {
                    self.ring_time = t;
                    return self.near.pop_front();
                }
            } else if self.far.peek().expect("checked above").time.min(t) > horizon {
                return None;
            }
        } else if self.far.peek()?.time > horizon {
            return None;
        }
        self.advance_ring()?;
        self.ring.pop_front()
    }

    /// The next event, if it is a `Drive` at the given time. Used by
    /// the simulator to batch-commit a burst of same-timestamp drives
    /// before evaluating their fanout once.
    #[inline]
    pub fn pop_drive_at(&mut self, time: Time) -> Option<Event> {
        // A same-time event always lives in the ring: the ring is
        // primed with every queued event of the current timestamp, and
        // later same-time pushes go straight to the ring.
        match self.ring.front() {
            Some(ev) if ev.time == time && matches!(ev.kind, EventKind::Drive { .. }) => {
                self.ring.pop_front()
            }
            _ => None,
        }
    }

    pub fn len(&self) -> usize {
        self.ring.len() + self.near.len() + self.far.len()
    }

    #[allow(dead_code)] // part of the queue's natural API; used in tests
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty() && self.near.is_empty() && self.far.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wake(c: u32) -> EventKind {
        EventKind::Wake { comp: ComponentId(c) }
    }

    fn drive(s: u32) -> EventKind {
        EventKind::Drive { signal: SignalId(s), epoch: 0 }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(30), wake(0));
        q.push(Time::from_ps(10), wake(1));
        q.push(Time::from_ps(20), wake(2));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(order, vec![Time::from_ps(10), Time::from_ps(20), Time::from_ps(30)]);
    }

    #[test]
    fn same_time_pops_fifo() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.push(Time::from_ps(7), wake(i));
        }
        let seqs: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn len_counts_every_lane() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(Time::ZERO, wake(0)); // ring
        q.push(Time::from_ps(10), wake(1)); // near
        q.push(Time::from_ns(2), wake(2)); // far
        assert_eq!((q.ring.len(), q.near.len(), q.far.len()), (1, 1, 1));
        assert_eq!(q.len(), 3);
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_pushes_during_drain_keep_seq_order() {
        // Schedule a burst at t=10, start draining, then push more
        // t=10 events mid-drain: they must come out after the
        // original burst, still before anything at t=20.
        let mut q = EventQueue::new();
        q.push(Time::from_ps(20), wake(100));
        for i in 0..3 {
            q.push(Time::from_ps(10), wake(i));
        }
        let first = q.pop().unwrap();
        assert_eq!((first.time, first.seq), (Time::from_ps(10), 1));
        q.push(Time::from_ps(10), wake(50)); // mid-drain, same time
        let rest: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time, e.seq))
            .collect();
        assert_eq!(
            rest,
            vec![
                (Time::from_ps(10), 2),
                (Time::from_ps(10), 3),
                (Time::from_ps(10), 4), // the mid-drain push
                (Time::from_ps(20), 0),
            ]
        );
    }

    #[test]
    fn pop_drive_at_takes_only_same_time_drives() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(5), drive(0));
        q.push(Time::from_ps(5), drive(1));
        q.push(Time::from_ps(5), wake(2));
        q.push(Time::from_ps(5), drive(3));

        let first = q.pop().unwrap();
        assert!(matches!(first.kind, EventKind::Drive { signal: SignalId(0), .. }));
        // Next is a drive at the same time: batched.
        let second = q.pop_drive_at(Time::from_ps(5)).unwrap();
        assert!(matches!(second.kind, EventKind::Drive { signal: SignalId(1), .. }));
        // A wake stops the batch even though more drives follow.
        assert!(q.pop_drive_at(Time::from_ps(5)).is_none());
        let third = q.pop().unwrap();
        assert!(matches!(third.kind, EventKind::Wake { .. }));
        let fourth = q.pop_drive_at(Time::from_ps(5)).unwrap();
        assert!(matches!(fourth.kind, EventKind::Drive { signal: SignalId(3), .. }));
        assert!(q.is_empty());
    }

    #[test]
    fn heap_and_lanes_agree_with_reference_ordering() {
        // Mixed schedule with repeats: pop order must be (time, seq).
        let times = [7u64, 3, 7, 7, 1, 3, 9, 1, 7, 2];
        let mut q = EventQueue::new();
        let mut reference: Vec<(Time, u64)> = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Time::from_ps(t), wake(i as u32));
            reference.push((Time::from_ps(t), i as u64));
        }
        reference.sort();
        let popped: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time, e.seq))
            .collect();
        assert_eq!(popped, reference);
    }

    #[test]
    fn far_future_event_does_not_poison_near_lane() {
        // A 100 MHz clock's next edge, 5 ns out, then a stream of
        // gate-delay pushes in ascending time. The edge must go to the
        // heap, so each gate-delay push appends to the near lane
        // instead of becoming a sorted insert in front of the edge.
        let mut q = EventQueue::new();
        q.push(Time::from_ns(5), wake(999));
        assert_eq!(q.far.len(), 1, "the 5 ns edge lies past the near window");
        for i in 0..100u64 {
            q.push(Time::from_ps(10 * (i + 1)), wake(i as u32));
            assert_eq!(q.near.back().map(|e| e.seq), Some(i + 1), "push {i} was not an append");
        }
        assert_eq!(q.far.len(), 1);
        let near: Vec<u64> = q.near.iter().map(|e| e.seq).collect();
        assert_eq!(near, (1..=100).collect::<Vec<_>>(), "the near lane holds the pushes in order");
        // Pop order stays exact across the two lanes.
        let mut last = (Time::ZERO, 0u64);
        let mut count = 0;
        while let Some(ev) = q.pop() {
            assert!((ev.time, ev.seq) > last || count == 0);
            last = (ev.time, ev.seq);
            count += 1;
        }
        assert_eq!(count, 101);
        assert_eq!(last.0, Time::from_ns(5));
    }

    #[test]
    fn same_time_split_across_lanes_merges_by_seq() {
        // Force an equal-timestamp pair to live in different lanes:
        // seq 1 at 2 ns lies past the window and goes to the heap;
        // once the queue has moved on to 1.5 ns, seq 2 at 2 ns is
        // inside the window and goes to near, and seq 3 at 2 ns
        // appends behind it. Pop order must be pure (time, seq).
        let mut q = EventQueue::new();
        let (t1, t2) = (Time::from_ps(1500), Time::from_ns(2));
        q.push(t1, wake(0));
        q.push(t2, wake(1));
        assert_eq!(q.pop().map(|e| e.seq), Some(0));
        q.push(t2, wake(2));
        q.push(t2, wake(3));
        assert_eq!((q.near.len(), q.far.len()), (2, 1), "t2 is split across near and far");
        let popped: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time, e.seq))
            .collect();
        assert_eq!(popped, vec![(t2, 1), (t2, 2), (t2, 3)]);
    }

    #[test]
    fn pop_at_or_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(10), wake(0));
        q.push(Time::from_ps(20), wake(1));
        q.push(Time::from_ps(30), wake(2));
        assert_eq!(q.pop_at_or_before(Time::from_ps(5)).map(|e| e.seq), None);
        assert_eq!(q.pop_at_or_before(Time::from_ps(20)).map(|e| e.seq), Some(0));
        assert_eq!(q.pop_at_or_before(Time::from_ps(20)).map(|e| e.seq), Some(1));
        assert_eq!(q.pop_at_or_before(Time::from_ps(20)).map(|e| e.seq), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_at_or_before(Time::MAX).map(|e| e.seq), Some(2));
        assert!(q.is_empty());
    }
}
