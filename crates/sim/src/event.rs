//! The event queue: a time-ordered heap plus a FIFO timeout lane, with
//! deterministic tie-breaking.
//!
//! The queue is the simulator's innermost loop — every tuple costs
//! several push/pop round-trips — so live events sit in a flat 4-ary
//! min-heap: shallower than a binary heap (log₄ vs log₂ levels), with
//! all four children of a node on one cache line of entry indices.
//!
//! Tuple timeouts bypass the heap. Every spout tuple arms one at
//! `emit + message_timeout`, and almost all of them fire long after
//! their root was acked, as generation-checked no-ops. Because the
//! clock never goes backwards and a topology's timeout is fixed, they
//! arrive already sorted by deadline, so a [`Event::TupleTimeout`] whose
//! deadline is at or after the lane's back is appended to a `VecDeque`.
//! Any other timeout (one from a topology with a shorter timeout, say)
//! falls back to the heap. The heap therefore holds the live events,
//! not one entry per root armed in the last timeout period.
//!
//! Ordering is the strict total order `(time, seq)` where `seq` is the
//! insertion sequence number, shared by both lanes. Each lane pops in
//! that order and `pop` takes the earlier head, so pop order is
//! *identical* to a single `BinaryHeap` — heap shape and lane choice are
//! unobservable; the test module keeps that `BinaryHeap` as the
//! pop-order oracle that pins it. [`EventQueue::len`] and
//! [`EventQueue::high_water`] count both lanes.

use std::collections::VecDeque;

use crate::fault::FaultKind;
use tstorm_topology::SharedValues;
use tstorm_trace::SpanChain;
use tstorm_types::{ExecutorId, NodeId, SimTime, SlabHandle, TupleId};

/// Routing/acking metadata carried by every in-flight message.
///
/// Envelopes are heap-boxed once and recycled through the engine's
/// free-list pool; the payload is a [`SharedValues`] (`Arc<[Value]>`) so
/// fan-out (one emit delivered to many consumer tasks) bumps a refcount
/// instead of deep-cloning the values per destination, and envelopes may
/// cross thread boundaries.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Tuple payload (empty for acker control messages), shared across
    /// every destination of the same emit.
    pub values: SharedValues,
    /// Producing executor.
    pub src: ExecutorId,
    /// Consuming executor.
    pub dst: ExecutorId,
    /// Destination task index within the consuming component.
    pub dst_task: u32,
    /// This edge-tuple's XOR id.
    pub edge_id: u64,
    /// The spout tuple this message is anchored to, if any (kept for
    /// traces and display even after the root's state is gone).
    pub root: Option<TupleId>,
    /// Slab handle of the anchored root's live state. `None` for
    /// unanchored messages and for `Complete` notifications, whose root
    /// state is already retired. Generation-checked on use, so a stale
    /// handle (root completed/timed out, slot reused) can never touch
    /// the wrong root.
    pub root_handle: Option<SlabHandle>,
    /// Restart epoch of the destination executor at send time; a message
    /// addressed to an older epoch was in flight when Storm killed the
    /// worker and is dropped on delivery (Immediate mode only).
    pub dst_epoch: u32,
    /// What the message is.
    pub kind: EnvelopeKind,
    /// Causal span chain from the root's emit up to (and including) the
    /// network hop that carried this message. `None` whenever span
    /// collection is disabled, so the inert path never allocates.
    pub chain: SpanChain,
    /// When the envelope entered the destination executor's input queue;
    /// the gap to service start is the queue span.
    pub delivered_at: SimTime,
    /// When the tuple left its producer (entered a pending batch or, on
    /// the unbatched path, went straight on the wire). The per-tuple
    /// network span segment covers `staged_at → delivery`, so span
    /// components keep summing to root latency exactly even when one
    /// batch envelope carries many tuples staged at different times.
    pub staged_at: SimTime,
}

/// A coalesced transfer: every tuple staged by one (source executor,
/// destination executor) pair since the batch was opened, shipped as a
/// single event-queue entry with one network `delivery_time`
/// computation.
///
/// Layout is struct-of-arrays-friendly: the per-batch scalars
/// (endpoints, byte total, age) live inline while the variable-length
/// tuple payloads sit in one contiguous `Vec<Envelope>` whose capacity
/// the engine recycles through its batch pool.
#[derive(Debug)]
pub struct BatchEnvelope {
    /// Producing executor (one per batch — batches never mix sources).
    pub src: ExecutorId,
    /// Consuming executor (one per batch — the coalescing key).
    pub dst: ExecutorId,
    /// Sum of the staged tuples' payload bytes; the wire cost of the
    /// batch is this total plus a *single* frame header.
    pub payload_bytes: u64,
    /// Producer's service-completion count when the batch was opened;
    /// the flush age guard compares against the current count.
    pub opened_at_completion: u64,
    /// The staged tuples, in staging order.
    pub tuples: Vec<Envelope>,
}

/// Message kinds: data tuples and the ack-tree control messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvelopeKind {
    /// A data tuple between user components.
    Data,
    /// Spout → acker: registers a root with the XOR of its initial edges.
    AckerInit {
        /// XOR of the edge ids the spout emitted for this root.
        xor: u64,
    },
    /// Bolt → acker: input edge id XOR ids of anchored output edges.
    AckerAck {
        /// The XOR contribution of one processed tuple.
        xor: u64,
    },
    /// Acker → spout: the root completed (carried for traffic realism;
    /// latency is recorded when the acker zeroes the XOR).
    Complete,
}

/// A scheduled simulation event.
#[derive(Debug)]
pub enum Event {
    /// A spout executor may try to emit.
    SpoutTick(ExecutorId),
    /// A message arrives at its destination executor.
    Deliver(Box<Envelope>),
    /// A coalesced batch of messages arrives at its destination
    /// executor; every tuple inside joins the input queue at once.
    DeliverBatch(Box<BatchEnvelope>),
    /// The executor finishes its in-service message.
    ProcessDone(ExecutorId),
    /// A root tuple's processing timeout fires. Carries the root's slab
    /// handle; if the root completed in time the handle is stale and the
    /// timeout is a generation-checked no-op.
    TupleTimeout(SlabHandle),
    /// Supervisors poll for a new assignment.
    SupervisorPoll,
    /// An executor becomes available again (worker restarted/ready).
    ExecutorResume(ExecutorId),
    /// A scheduled [`FaultKind`] from a fault plan fires. The engine
    /// only drops state and marks liveness; recovery is left to the
    /// control plane, whose scheduler re-places the orphaned executors.
    Fault(FaultKind),
    /// A crashed node rejoins the cluster.
    NodeRestart(NodeId),
    /// A transient NIC slowdown ends.
    NicRestore(NodeId),
    /// Smooth per-node re-assignment: one node's workers finished
    /// pre-starting and that node alone switches to its pending slice.
    /// Other nodes may still be running an older assignment epoch.
    NodeLocationSwitch(NodeId),
    /// Nimbus comes back after a [`FaultKind::NimbusCrash`] window.
    NimbusRestore,
    /// A [`FaultKind::HeartbeatLoss`] window ends: the node's heartbeat
    /// stream reaches Nimbus again.
    HeartbeatRestore(NodeId),
}

struct Entry {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl Entry {
    /// Strict earliest-first total order: time, then insertion sequence.
    #[inline]
    fn before(&self, other: &Self) -> bool {
        (self.at, self.seq) < (other.at, other.seq)
    }
}

/// Fan-out of the d-ary heap. Four keeps the tree shallow while the
/// worst-case sift-down still scans only a handful of entries.
const ARITY: usize = 4;

/// A deterministic earliest-first event queue: a 4-ary min-heap of live
/// events beside a FIFO lane of in-order tuple timeouts.
#[derive(Default)]
pub struct EventQueue {
    entries: Vec<Entry>,
    /// Tuple timeouts as `(deadline, seq, root)`, sorted by
    /// `(deadline, seq)` because pushes only ever append at the back.
    timeouts: VecDeque<(SimTime, u64, SlabHandle)>,
    next_seq: u64,
    high_water: usize,
}

impl EventQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules an event at `at`.
    pub fn push(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        match event {
            Event::TupleTimeout(root) if self.timeouts.back().is_none_or(|b| at >= b.0) => {
                self.timeouts.push_back((at, seq, root));
            }
            event => {
                self.entries.push(Entry { at, seq, event });
                self.sift_up(self.entries.len() - 1);
            }
        }
        self.high_water = self.high_water.max(self.len());
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        if self.timeout_first() {
            let (at, _, root) = self.timeouts.pop_front().expect("lane head exists");
            return Some((at, Event::TupleTimeout(root)));
        }
        if self.entries.is_empty() {
            return None;
        }
        let last = self.entries.len() - 1;
        self.entries.swap(0, last);
        let entry = self.entries.pop().expect("non-empty");
        if !self.entries.is_empty() {
            self.sift_down(0);
        }
        Some((entry.at, entry.event))
    }

    /// True if the timeout lane's head is the earliest pending event.
    #[inline]
    fn timeout_first(&self) -> bool {
        match (self.timeouts.front(), self.entries.first()) {
            (Some(&(at, seq, _)), Some(e)) => (at, seq) < (e.at, e.seq),
            (lane, _) => lane.is_some(),
        }
    }

    /// Time of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.timeout_first() {
            self.timeouts.front().map(|t| t.0)
        } else {
            self.entries.first().map(|e| e.at)
        }
    }

    /// Number of pending events in both lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len() + self.timeouts.len()
    }

    /// True if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.timeouts.is_empty()
    }

    /// Largest number of events ever pending at once in both lanes —
    /// the queue's high-water mark, reported by the offline bench
    /// harness.
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.entries[i].before(&self.entries[parent]) {
                self.entries.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.entries.len();
        loop {
            let first_child = i * ARITY + 1;
            if first_child >= len {
                break;
            }
            let mut min = first_child;
            let end = (first_child + ARITY).min(len);
            for c in first_child + 1..end {
                if self.entries[c].before(&self.entries[min]) {
                    min = c;
                }
            }
            if self.entries[min].before(&self.entries[i]) {
                self.entries.swap(i, min);
                i = min;
            } else {
                break;
            }
        }
    }
}

impl std::fmt::Debug for EventQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;
    use tstorm_types::{DetRng, Slab};

    impl PartialEq for Entry {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            // BinaryHeap is a max-heap; invert for earliest-first, with
            // the insertion sequence breaking ties deterministically.
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// The original single `BinaryHeap` queue: the pop-order oracle the
    /// 4-ary heap and the timeout lane must match.
    #[derive(Default)]
    struct BinaryEventQueue {
        heap: BinaryHeap<Entry>,
        next_seq: u64,
    }

    impl BinaryEventQueue {
        fn push(&mut self, at: SimTime, event: Event) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { at, seq, event });
        }

        fn pop(&mut self) -> Option<(SimTime, Event)> {
            self.heap.pop().map(|e| (e.at, e.event))
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.at)
        }
    }

    /// What the oracle tests push: a tick named by its push ordinal, or
    /// a tuple timeout named by its root's slab handle.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Key {
        Tick(u32),
        Timeout(SlabHandle),
    }

    impl Key {
        fn event(self) -> Event {
            match self {
                Key::Tick(i) => Event::SpoutTick(ExecutorId::new(i)),
                Key::Timeout(root) => Event::TupleTimeout(root),
            }
        }
    }

    /// Pop key for the oracle comparison.
    fn key(popped: Option<(SimTime, Event)>) -> Option<(SimTime, Key)> {
        popped.map(|(t, e)| match e {
            Event::SpoutTick(id) => (t, Key::Tick(id.index())),
            Event::TupleTimeout(root) => (t, Key::Timeout(root)),
            _ => unreachable!("the oracle tests push only ticks and timeouts"),
        })
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), Event::SupervisorPoll);
        q.push(SimTime::from_secs(1), Event::SupervisorPoll);
        q.push(SimTime::from_secs(2), Event::SupervisorPoll);
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_secs())
            .collect();
        assert_eq!(times, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.push(t, Event::SpoutTick(ExecutorId::new(0)));
        q.push(t, Event::SpoutTick(ExecutorId::new(1)));
        q.push(t, Event::SpoutTick(ExecutorId::new(2)));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::SpoutTick(id) => id.index(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(5), Event::SupervisorPoll);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.high_water(), 1);
    }

    #[test]
    fn high_water_tracks_peak_not_current() {
        let mut q = EventQueue::new();
        for s in 0..10 {
            q.push(SimTime::from_secs(s), Event::SupervisorPoll);
        }
        for _ in 0..10 {
            let _ = q.pop();
        }
        assert!(q.is_empty());
        assert_eq!(q.high_water(), 10);
    }

    #[test]
    fn quaternary_heap_matches_binary_heap_pop_for_pop() {
        // Interleaved pushes and pops with heavy time ties: both heaps
        // must produce the identical (time, seq) pop sequence, because
        // the engine's determinism contract rides on it.
        let mut rng = DetRng::seed_from(0xbeef);
        let mut quad = EventQueue::new();
        let mut bin = BinaryEventQueue::default();
        let mut popped = 0usize;
        let mut pushed = 0usize;
        while pushed < 5_000 || popped < 5_000 {
            let push = pushed < 5_000 && (popped >= pushed || rng.below(3) > 0);
            if push {
                let at = SimTime::from_micros(rng.below(64) as u64);
                let id = ExecutorId::new(pushed as u32);
                quad.push(at, Event::SpoutTick(id));
                bin.push(at, Event::SpoutTick(id));
                pushed += 1;
            } else {
                let a = key(quad.pop());
                let b = key(bin.pop());
                assert_eq!(a, b, "pop {popped} diverged");
                popped += 1;
            }
        }
        assert!(quad.is_empty() && bin.heap.is_empty());
    }

    #[test]
    fn timeout_lane_matches_binary_heap_pop_for_pop() {
        // Ticks and timeouts mixed the way the engine pushes them, with
        // "now" following the pops: in-order timeouts armed a fixed
        // period ahead take the lane; shorter ones usually land before
        // the lane's back and fall back to the heap; and with every
        // deadline within 4 µs of now, equal timestamps straddle the two
        // lanes constantly. Pops, sizes, peeks and the high-water mark
        // must all match the single-heap oracle.
        let mut rng = DetRng::seed_from(0x71ae);
        let mut slab = Slab::new();
        let mut q = EventQueue::new();
        let mut oracle = BinaryEventQueue::default();
        let mut now = SimTime::ZERO;
        let (mut to_lane, mut to_heap, mut cross_ties, mut peak) = (0, 0, 0, 0);
        for step in 0..40_000u32 {
            if step < 30_000 && (oracle.heap.is_empty() || rng.below(5) < 3) {
                let soon = now + SimTime::from_micros(rng.below(4) as u64);
                let (at, k) = match rng.below(4) {
                    0 | 1 => (soon, Key::Tick(step)),
                    2 => (now + SimTime::from_micros(4), Key::Timeout(slab.insert(()))),
                    _ => (soon, Key::Timeout(slab.insert(()))),
                };
                let lane_before = q.timeouts.len();
                q.push(at, k.event());
                oracle.push(at, k.event());
                if matches!(k, Key::Timeout(_)) {
                    if q.timeouts.len() > lane_before {
                        to_lane += 1;
                    } else {
                        to_heap += 1;
                    }
                }
                peak = peak.max(oracle.heap.len());
            } else {
                if let (Some(t), Some(e)) = (q.timeouts.front(), q.entries.first()) {
                    cross_ties += usize::from(t.0 == e.at);
                }
                let popped = key(q.pop());
                assert_eq!(popped, key(oracle.pop()), "step {step} diverged");
                match popped {
                    Some((t, k)) => {
                        now = t;
                        if let Key::Timeout(root) = k {
                            slab.remove(root);
                        }
                    }
                    None => break,
                }
            }
            assert_eq!(q.len(), oracle.heap.len());
            assert_eq!(q.is_empty(), oracle.heap.is_empty());
            assert_eq!(q.peek_time(), oracle.peek_time());
            assert_eq!(q.high_water(), peak);
        }
        assert!(q.is_empty());
        assert!(to_lane > 3_000, "lane path taken {to_lane} times");
        assert!(to_heap > 3_000, "heap fallback taken {to_heap} times");
        assert!(cross_ties > 1_000, "{cross_ties} cross-lane ties popped");
    }
}
