//! The event queue: a µs calendar for the near future, a time-ordered
//! heap for the rest and a FIFO timeout lane, with deterministic
//! tie-breaking.
//!
//! The queue is the simulator's innermost loop — every tuple costs
//! several push/pop round-trips — and almost every push is due within a
//! few milliseconds of the event being handled: a delivery, a service
//! completion, an ack hop. Those take the *calendar*: 2,048 one-µs
//! buckets over the window that starts at the latest pop, each a FIFO
//! of nodes threaded through one free-listed `Vec` and found through an
//! occupancy bitmap, so a push or a pop there costs a few word
//! operations whatever the queue holds. Events due later (spout ticks,
//! control-plane polls, fault events) or before the latest pop sit in a
//! flat 4-ary min-heap: shallower than a binary heap (log₄ vs log₂
//! levels), with all four children of a node on one cache line of
//! entry indices.
//!
//! Tuple timeouts bypass both. Every spout tuple arms one at
//! `emit + message_timeout`, and almost all of them fire long after
//! their root was acked, as generation-checked no-ops. Because the
//! clock never goes backwards and a topology's timeout is fixed, they
//! arrive already sorted by deadline, so a [`Event::TupleTimeout`] whose
//! deadline is at or after the lane's back is appended to the timeout
//! lane. Any other timeout (one from a topology with a shorter timeout,
//! say) falls back to the calendar or the heap, like any other event.
//! The lane holds one entry per armed timeout until it pops, so a long
//! timeout at a high emit rate keeps hundreds of thousands queued: it
//! keeps its oldest entry decoded and every later one as four LEB128
//! varints in one byte queue — the deadline's and `seq`'s deltas from
//! the entry before, which cannot be negative because an entry only
//! joins at the back, and the zigzag deltas of the root's slab index
//! and generation. A timeout armed a millisecond after the one before
//! costs about six bytes there instead of a 24-byte triple.
//!
//! Ordering is the strict total order `(time, seq)` where `seq` is the
//! insertion sequence number, shared by all three lanes. A calendar
//! bucket only ever holds one timestamp (a push enters only inside the
//! window, whose start only grows, and every pending event is at or
//! after it) and fills in `seq` order, so each lane pops in `(time,
//! seq)` order and `pop` takes the least of the three heads: pop order
//! is *identical* to a single `BinaryHeap` — lane choice, bucket layout
//! and heap shape are unobservable; the test module keeps that
//! `BinaryHeap` as the pop-order oracle that pins it.
//! [`EventQueue::len`] and [`EventQueue::high_water`] count all three
//! lanes.

use std::collections::VecDeque;

use crate::engine::PayloadId;
use crate::fault::FaultKind;
use tstorm_types::{ExecutorId, NodeId, SimTime, SlabHandle, TupleId};

/// Routing/acking metadata carried by every in-flight message.
///
/// Envelopes are heap-boxed once and recycled through the engine's
/// free-list pool. The payload stays in the engine's payload store:
/// fan-out (one emit delivered to many consumer tasks) counts one more
/// holder of the emit's slot instead of copying the values per
/// destination. Not `Clone`: a copy would hold the payload uncounted.
#[derive(Debug)]
pub struct Envelope {
    /// Tuple payload, one holder of the emit's slot shared by every
    /// destination of the same emit; [`PayloadId::EMPTY`] for acker
    /// control messages.
    pub payload: PayloadId,
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
    /// This message's newest step in its root's span tree (see
    /// [`tstorm_trace::SpanTree`]): the network hop that carried it,
    /// whose path runs back to the root's emit. [`tstorm_trace::NO_SPAN`]
    /// when span collection is disabled, for control messages with no
    /// root handle, and once the root has completed or timed out.
    pub span: u32,
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
        key(self.at, self.seq) < key(other.at, other.seq)
    }
}

/// `(time, seq)` as one integer, so comparing two is branch-free.
#[inline]
fn key(at: SimTime, seq: u64) -> u128 {
    u128::from(at.as_micros()) << 64 | u128::from(seq)
}

/// Fan-out of the d-ary heap. Four keeps the tree shallow while the
/// worst-case sift-down still scans only a handful of entries.
const ARITY: usize = 4;

/// The calendar's width in one-µs buckets: wide enough for an
/// inter-node hop with its transfer time, a service time or an ack
/// round, small enough that the bucket array is 8 KB.
const WINDOW: usize = 2_048;

/// 64-bit words of the calendar's occupancy bitmap.
const WORDS: usize = WINDOW / 64;

/// No node: the end of the free list.
const NONE: u32 = u32::MAX;

/// One calendar event. `next` threads it into its bucket's circular
/// list, or into the free list once popped.
struct Node {
    at: SimTime,
    seq: u64,
    next: u32,
    event: Option<Event>,
}

/// Events due inside the window `[start, start + WINDOW)` µs, one FIFO
/// bucket per µs, bucket `t % WINDOW` for time `t`.
///
/// Every pending event is at or after `start`, so each bucket holds at
/// most one timestamp and the earliest non-empty bucket, counted
/// cyclically from `start`'s, holds the earliest events.
struct Calendar {
    /// The window's start: the latest popped time (never decreases).
    start: SimTime,
    /// Per bucket, 0 when empty, else one past the index of its newest
    /// node, whose `next` is the bucket's oldest node.
    buckets: Vec<u32>,
    /// One bit per bucket, set while the bucket holds nodes.
    occupied: [u64; WORDS],
    /// One bit per `occupied` word, set while the word is non-zero.
    summary: u32,
    nodes: Vec<Node>,
    /// First node of the free list, or [`NONE`].
    free: u32,
    len: usize,
}

impl Default for Calendar {
    fn default() -> Self {
        Self {
            start: SimTime::ZERO,
            buckets: vec![0; WINDOW],
            occupied: [0; WORDS],
            summary: 0,
            nodes: Vec::new(),
            free: NONE,
            len: 0,
        }
    }
}

impl Calendar {
    /// True if `at` falls inside the window.
    #[inline]
    fn covers(&self, at: SimTime) -> bool {
        at.as_micros().wrapping_sub(self.start.as_micros()) < WINDOW as u64
    }

    /// Appends an event to its bucket; `at` must be inside the window.
    fn push(&mut self, at: SimTime, seq: u64, event: Event) {
        debug_assert!(self.covers(at));
        let node = Node {
            at,
            seq,
            next: NONE,
            event: Some(event),
        };
        let index = match self.free {
            NONE => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
            free => {
                let i = free as usize;
                self.free = self.nodes[i].next;
                self.nodes[i] = node;
                i
            }
        };
        let bucket = at.as_micros() as usize % WINDOW;
        match self.buckets[bucket] {
            0 => {
                self.nodes[index].next = index as u32;
                self.occupied[bucket / 64] |= 1 << (bucket % 64);
                self.summary |= 1 << (bucket / 64);
            }
            tail => {
                let tail = tail as usize - 1;
                debug_assert_eq!(self.nodes[tail].at, at, "one timestamp per bucket");
                self.nodes[index].next = self.nodes[tail].next;
                self.nodes[tail].next = index as u32;
            }
        }
        self.buckets[bucket] = index as u32 + 1;
        self.len += 1;
    }

    /// The earliest non-empty bucket, searched from `start`'s bucket to
    /// the window's end, then from the array's start.
    #[inline]
    fn first_bucket(&self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let from = self.start.as_micros() as usize % WINDOW;
        let word = from / 64;
        let bits = self.occupied[word] & (u64::MAX << (from % 64));
        if bits != 0 {
            return Some(word * 64 + bits.trailing_zeros() as usize);
        }
        let later = u64::from(self.summary) >> (word + 1) << (word + 1);
        let word = if later == 0 {
            self.summary.trailing_zeros()
        } else {
            later.trailing_zeros()
        } as usize;
        Some(word * 64 + self.occupied[word].trailing_zeros() as usize)
    }

    /// The earliest event as `(bucket, time, seq)`.
    #[inline]
    fn head(&self) -> Option<(usize, SimTime, u64)> {
        let bucket = self.first_bucket()?;
        let tail = self.buckets[bucket] as usize - 1;
        let head = &self.nodes[self.nodes[tail].next as usize];
        Some((bucket, head.at, head.seq))
    }

    /// Removes the oldest event of a non-empty bucket.
    fn pop(&mut self, bucket: usize) -> Event {
        let tail = self.buckets[bucket] as usize - 1;
        let head = self.nodes[tail].next as usize;
        if head == tail {
            self.buckets[bucket] = 0;
            let word = bucket / 64;
            self.occupied[word] &= !(1 << (bucket % 64));
            if self.occupied[word] == 0 {
                self.summary &= !(1 << word);
            }
        } else {
            self.nodes[tail].next = self.nodes[head].next;
        }
        let node = &mut self.nodes[head];
        node.next = self.free;
        self.free = head as u32;
        self.len -= 1;
        node.event.take().expect("a queued node holds its event")
    }
}

/// In-order tuple timeouts as `(deadline, seq, root)`, sorted by
/// `(deadline, seq)` because pushes only ever append at the back, and
/// delta-coded (see the module docs).
#[derive(Default)]
struct TimeoutLane {
    /// The oldest entry, decoded; `None` while the lane is empty.
    oldest: Option<(SimTime, u64, SlabHandle)>,
    /// The newest entry's deadline, `seq`, slot index and generation:
    /// the base of the next push's deltas.
    newest: (SimTime, u64, u32, u32),
    /// Every entry after the oldest, oldest first, as the varints
    /// `deadline delta, seq delta, zigzag index delta, zigzag
    /// generation delta`, each delta taken from the entry before.
    bytes: VecDeque<u8>,
    /// Entries queued, the oldest included.
    len: usize,
}

impl TimeoutLane {
    /// True if a timeout due at `at` may join at the back.
    #[inline]
    fn accepts(&self, at: SimTime) -> bool {
        self.len == 0 || at >= self.newest.0
    }

    /// Appends an entry; `at` must be [accepted](Self::accepts) and
    /// `seq` above every queued one.
    fn push(&mut self, at: SimTime, seq: u64, root: SlabHandle) {
        let (index, generation) = (root.index(), root.generation());
        if self.len == 0 {
            self.oldest = Some((at, seq, root));
        } else {
            let (last_at, last_seq, last_index, last_generation) = self.newest;
            debug_assert!(at >= last_at && seq > last_seq, "timeouts join at the back");
            write_varint(&mut self.bytes, (at - last_at).as_micros());
            write_varint(&mut self.bytes, seq - last_seq);
            write_varint(&mut self.bytes, zigzag(last_index, index));
            write_varint(&mut self.bytes, zigzag(last_generation, generation));
        }
        self.newest = (at, seq, index, generation);
        self.len += 1;
    }

    /// Removes the oldest entry and decodes the next one.
    fn pop(&mut self) -> Option<(SimTime, u64, SlabHandle)> {
        let (at, seq, root) = self.oldest?;
        self.len -= 1;
        self.oldest = (self.len > 0).then(|| {
            let at = at + SimTime::from_micros(read_varint(&mut self.bytes));
            let seq = seq + read_varint(&mut self.bytes);
            let index = unzigzag(root.index(), read_varint(&mut self.bytes));
            let generation = unzigzag(root.generation(), read_varint(&mut self.bytes));
            let root = SlabHandle::from_bits(u64::from(generation) << 32 | u64::from(index));
            (at, seq, root)
        });
        Some((at, seq, root))
    }
}

/// Appends `value` as a LEB128 varint: seven bits a byte, low bits
/// first, the high bit set on every byte but the last.
fn write_varint(bytes: &mut VecDeque<u8>, mut value: u64) {
    while value >= 0x80 {
        bytes.push_back(value as u8 | 0x80);
        value >>= 7;
    }
    bytes.push_back(value as u8);
}

/// Removes one LEB128 varint from the front of `bytes`.
fn read_varint(bytes: &mut VecDeque<u8>) -> u64 {
    let mut value = 0;
    for shift in (0..64).step_by(7) {
        let byte = bytes.pop_front().expect("a queued entry is whole");
        value |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            break;
        }
    }
    value
}

/// `to − from` as a wrapping `i32`, zigzag-coded so that a small step
/// either way is a small number.
fn zigzag(from: u32, to: u32) -> u64 {
    let delta = to.wrapping_sub(from) as i32;
    u64::from(((delta << 1) ^ (delta >> 31)) as u32)
}

/// Inverts [`zigzag`]: the value `code` steps away from `from`.
fn unzigzag(from: u32, code: u64) -> u32 {
    let code = code as u32;
    from.wrapping_add((code >> 1) ^ (code & 1).wrapping_neg())
}

/// The lane holding the earliest pending event.
#[derive(Clone, Copy)]
enum Lane {
    Calendar(usize),
    Heap,
    Timeouts,
}

/// A deterministic earliest-first event queue: a µs calendar of events
/// due soon, a 4-ary min-heap of the others and a FIFO lane of
/// in-order tuple timeouts.
#[derive(Default)]
pub struct EventQueue {
    calendar: Calendar,
    entries: Vec<Entry>,
    timeouts: TimeoutLane,
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
            Event::TupleTimeout(root) if self.timeouts.accepts(at) => {
                self.timeouts.push(at, seq, root);
            }
            event if self.calendar.covers(at) => self.calendar.push(at, seq, event),
            event => {
                self.entries.push(Entry { at, seq, event });
                self.sift_up(self.entries.len() - 1);
            }
        }
        self.high_water = self.high_water.max(self.len());
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.pop_until(SimTime::MAX)
    }

    /// Pops the earliest event if it is due at or before `until`.
    pub fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, Event)> {
        let (at, lane) = self.first()?;
        if at > until {
            return None;
        }
        let event = match lane {
            Lane::Calendar(bucket) => self.calendar.pop(bucket),
            Lane::Heap => self.pop_heap(),
            Lane::Timeouts => Event::TupleTimeout(self.timeouts.pop().expect("lane head exists").2),
        };
        // Every pending event is at or after `at`; one pushed behind the
        // latest pop and popped now leaves the window where it was.
        self.calendar.start = self.calendar.start.max(at);
        Some((at, event))
    }

    /// The earliest pending event's time and lane: the least `(time,
    /// seq)` of the three lane heads. `u128::MAX` stands for "no event",
    /// which no pending key can equal: `seq` never reaches `u64::MAX`.
    #[inline]
    fn first(&self) -> Option<(SimTime, Lane)> {
        let (mut least, mut lane) = match self.calendar.head() {
            Some((bucket, at, seq)) => (key(at, seq), Lane::Calendar(bucket)),
            None => (u128::MAX, Lane::Heap),
        };
        if let Some(e) = self.entries.first() {
            let k = key(e.at, e.seq);
            if k < least {
                (least, lane) = (k, Lane::Heap);
            }
        }
        if let Some((at, seq, _)) = self.timeouts.oldest {
            let k = key(at, seq);
            if k < least {
                (least, lane) = (k, Lane::Timeouts);
            }
        }
        (least != u128::MAX).then(|| (SimTime::from_micros((least >> 64) as u64), lane))
    }

    fn pop_heap(&mut self) -> Event {
        let last = self.entries.len() - 1;
        self.entries.swap(0, last);
        let entry = self.entries.pop().expect("non-empty");
        if !self.entries.is_empty() {
            self.sift_down(0);
        }
        entry.event
    }

    /// Number of pending events in all three lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.calendar.len + self.entries.len() + self.timeouts.len
    }

    /// True if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest number of events ever pending at once in all three lanes
    /// — the queue's high-water mark, reported by the offline bench
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
    fn pop_until_stops_at_the_bound() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert!(q.pop_until(SimTime::MAX).is_none());
        q.push(SimTime::from_secs(5), Event::SupervisorPoll);
        assert_eq!(q.len(), 1);
        assert_eq!(q.high_water(), 1);
        assert!(q.pop_until(SimTime::from_secs(4)).is_none());
        let popped = q.pop_until(SimTime::from_secs(5)).map(|(at, _)| at);
        assert_eq!(popped, Some(SimTime::from_secs(5)));
        assert!(q.is_empty());
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
        // the lane's back and fall back to the calendar, where the ticks
        // go too; and with every deadline within 4 µs of now, equal
        // timestamps straddle the lane and the calendar constantly.
        // Pops, sizes, peeks and the high-water mark must all match the
        // single-heap oracle.
        let mut rng = DetRng::seed_from(0x71ae);
        let mut slab = Slab::new();
        let mut q = EventQueue::new();
        let mut oracle = BinaryEventQueue::default();
        let mut now = SimTime::ZERO;
        let (mut to_lane, mut fell_back, mut cross_ties, mut peak) = (0, 0, 0, 0);
        for step in 0..40_000u32 {
            if step < 30_000 && (oracle.heap.is_empty() || rng.below(5) < 3) {
                let soon = now + SimTime::from_micros(rng.below(4) as u64);
                let (at, k) = match rng.below(4) {
                    0 | 1 => (soon, Key::Tick(step)),
                    2 => (now + SimTime::from_micros(4), Key::Timeout(slab.insert(()))),
                    _ => (soon, Key::Timeout(slab.insert(()))),
                };
                let lane_before = q.timeouts.len;
                q.push(at, k.event());
                oracle.push(at, k.event());
                if matches!(k, Key::Timeout(_)) {
                    if q.timeouts.len > lane_before {
                        to_lane += 1;
                    } else {
                        fell_back += 1;
                    }
                }
                peak = peak.max(oracle.heap.len());
            } else {
                if let (Some(t), Some((_, at, _))) = (q.timeouts.oldest, q.calendar.head()) {
                    cross_ties += usize::from(t.0 == at);
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
            assert_eq!(q.first().map(|(at, _)| at), oracle.peek_time());
            assert_eq!(q.high_water(), peak);
        }
        assert!(q.is_empty());
        assert!(to_lane > 3_000, "lane path taken {to_lane} times");
        assert!(fell_back > 3_000, "lane fallback taken {fell_back} times");
        assert!(cross_ties > 1_000, "{cross_ties} cross-lane ties popped");
    }

    /// The edge cases `lane_boundaries_match_binary_heap_pop_for_pop`
    /// must hit, each more than 1,000 times.
    #[derive(Debug, Default)]
    struct BoundaryCounts {
        /// Pushes at the window's last µs, which take the calendar.
        last_us: usize,
        /// Pushes one µs past the window, which take the heap.
        one_past: usize,
        /// Calendar pushes whose bucket index wrapped below the window
        /// start's.
        wrapped: usize,
        /// Pushes behind the latest pop, which take the heap.
        behind: usize,
        /// Pops over an empty calendar to an event past the window.
        far_jumps: usize,
        /// Pops whose time both heads of a pair of lanes share.
        calendar_heap_ties: usize,
        calendar_timeout_ties: usize,
        heap_timeout_ties: usize,
    }

    #[test]
    fn lane_boundaries_match_binary_heap_pop_for_pop() {
        // Pushes aimed at the lanes' edges, against the single-heap
        // oracle. Near times sit on a 64 µs grid, so a tick pushed past
        // the window (heap) meets one pushed at the same time once the
        // window has moved (calendar), and both meet in-order timeouts
        // armed two windows ahead on the grid (timeout lane). Pop-only
        // phases empty the calendar so the next pop jumps far ahead.
        // Every step checks sizes, the peek and the high-water mark;
        // every pop first asks `pop_until` for one µs before the head,
        // which must leave the queue as it was.
        const W: u64 = WINDOW as u64;
        let grid = |t: u64| t.next_multiple_of(64);
        let mut rng = DetRng::seed_from(0xca1e);
        let mut slab = Slab::new();
        let mut q = EventQueue::new();
        let mut oracle = BinaryEventQueue::default();
        let mut seen = BoundaryCounts::default();
        let mut peak = 0;
        for step in 0..400_000u32 {
            let start = q.calendar.start.as_micros();
            let popping = step % 4_096 >= 3_072;
            if !popping && (oracle.heap.is_empty() || rng.below(2) == 0) {
                let tick = Key::Tick(step);
                let (at, k) = match rng.below(16) {
                    0 => (start + W - 1, tick),
                    1 => (start + W, tick),
                    2 if start > 0 => (start - 1 - rng.below(start.min(100) as usize) as u64, tick),
                    3 => (start + 10 * W + rng.below(100 * WINDOW) as u64, tick),
                    4..=6 => (grid(start + 2 * W), Key::Timeout(slab.insert(()))),
                    _ => (grid(start + rng.below(2 * WINDOW) as u64), tick),
                };
                let before = (q.calendar.len, q.entries.len());
                q.push(SimTime::from_micros(at), k.event());
                oracle.push(SimTime::from_micros(at), k.event());
                let to_calendar = q.calendar.len > before.0;
                let to_heap = q.entries.len() > before.1;
                seen.last_us += usize::from(at == start + W - 1 && to_calendar);
                seen.one_past += usize::from(at == start + W && to_heap);
                seen.behind += usize::from(at < start && to_heap);
                seen.wrapped += usize::from(to_calendar && at % W < start % W);
                peak = peak.max(oracle.heap.len());
            } else {
                let Some(head) = oracle.peek_time() else {
                    continue;
                };
                let lanes = [
                    q.calendar.head().map(|(_, at, _)| at),
                    q.entries.first().map(|e| e.at),
                    q.timeouts.oldest.map(|t| t.0),
                ];
                let tie = |a: usize, b: usize| {
                    usize::from(lanes[a] == Some(head) && lanes[b] == Some(head))
                };
                seen.calendar_heap_ties += tie(0, 1);
                seen.calendar_timeout_ties += tie(0, 2);
                seen.heap_timeout_ties += tie(1, 2);
                seen.far_jumps += usize::from(q.calendar.len == 0 && head.as_micros() >= start + W);
                if head > SimTime::ZERO {
                    let early = head.saturating_sub(SimTime::from_micros(1));
                    assert!(q.pop_until(early).is_none(), "step {step} popped early");
                    assert_eq!(q.calendar.start.as_micros(), start);
                }
                let popped = key(q.pop_until(head));
                assert_eq!(popped, key(oracle.pop()), "step {step} diverged");
                if let Some((_, Key::Timeout(root))) = popped {
                    slab.remove(root);
                }
            }
            assert_eq!(q.len(), oracle.heap.len());
            assert_eq!(q.is_empty(), oracle.heap.is_empty());
            assert_eq!(q.first().map(|(at, _)| at), oracle.peek_time());
            assert_eq!(q.high_water(), peak);
        }
        while let Some(popped) = q.pop() {
            assert_eq!(key(Some(popped)), key(oracle.pop()));
        }
        assert!(oracle.heap.is_empty());
        let counts = [
            seen.last_us,
            seen.one_past,
            seen.wrapped,
            seen.behind,
            seen.far_jumps,
            seen.calendar_heap_ties,
            seen.calendar_timeout_ties,
            seen.heap_timeout_ties,
        ];
        assert!(counts.iter().all(|&n| n > 1_000), "{seen:?}");
    }

    /// The edge cases `timeout_lane_matches_a_vecdeque_model` must hit,
    /// each more than 100 times.
    #[derive(Debug, Default)]
    struct LaneCounts {
        /// Pushes due with the entry before.
        equal_deadlines: usize,
        /// Deadline gaps of at least 2^32 µs.
        long_gaps: usize,
        /// Pushes due within 2^32 µs of `u64::MAX`.
        near_max: usize,
        /// `seq` gaps of at least 2^32.
        long_seq_gaps: usize,
        /// Index and generation steps that wrap around `u32`.
        wrapped_indices: usize,
        wrapped_generations: usize,
        /// Pushes into a lane that a pop had emptied.
        restarts: usize,
    }

    #[test]
    fn timeout_lane_matches_a_vecdeque_model() {
        // Random runs of pushes and pops against the 24-byte triples the
        // lane replaced: every front and every pop must match. Deadlines
        // start at 0, at a random point or near `u64::MAX` and step by 0,
        // a little, at least 2^32 µs or all the way to `u64::MAX`; `seq`
        // steps by a little or at least 2^32; a root's index and
        // generation step by one either way, jump anywhere in `u32`, or
        // take turns between two slots.
        let wraps = |from: u32, to: u32| {
            i64::from(to) - i64::from(from) != i64::from(to.wrapping_sub(from) as i32)
        };
        let mut rng = DetRng::seed_from(0x1a4e);
        let mut seen = LaneCounts::default();
        for run in 0..300 {
            let mut lane = TimeoutLane::default();
            let mut model: VecDeque<(SimTime, u64, SlabHandle)> = VecDeque::new();
            let mut at = match run % 3 {
                0 => 0,
                1 => rng.next_u64(),
                _ => u64::MAX - (1 << 40),
            };
            let mut seq = rng.next_u64() >> 2;
            let (mut index, mut generation) = (rng.next_u64() as u32, rng.next_u64() as u32);
            let push_odds = 1 + rng.below(3);
            let mut pushed = false;
            for _ in 0..600 {
                if rng.below(4) < push_odds {
                    if model.is_empty() && pushed {
                        seen.restarts += 1;
                        at = at.saturating_sub(rng.next_u64() >> rng.below(64));
                    }
                    let step = match rng.below(8) {
                        0 | 1 => 0,
                        2 => u64::MAX,
                        3 => (1 << 32) + (rng.next_u64() >> 24),
                        _ => rng.below(5_000) as u64,
                    };
                    let previous = at;
                    at = at.saturating_add(step);
                    seen.equal_deadlines += usize::from(at == previous && !model.is_empty());
                    seen.long_gaps += usize::from(at - previous >= 1 << 32);
                    seen.near_max += usize::from(u64::MAX - at < 1 << 32);
                    let seq_step = match rng.below(4) {
                        0 => (1 << 32) + (rng.next_u64() >> 40),
                        _ => 1 + rng.below(300) as u64,
                    };
                    seen.long_seq_gaps += usize::from(seq_step >= 1 << 32);
                    seq += seq_step;
                    let (last_index, last_generation) = (index, generation);
                    (index, generation) = match rng.below(4) {
                        0 => (rng.next_u64() as u32, rng.next_u64() as u32),
                        1 => (index.wrapping_add(1), generation.wrapping_sub(1)),
                        2 => (index.wrapping_sub(1), generation.wrapping_add(1)),
                        _ => (index ^ 1, generation.wrapping_add(index & 1)),
                    };
                    seen.wrapped_indices += usize::from(wraps(last_index, index));
                    seen.wrapped_generations += usize::from(wraps(last_generation, generation));
                    let root =
                        SlabHandle::from_bits(u64::from(generation) << 32 | u64::from(index));
                    let entry = (SimTime::from_micros(at), seq, root);
                    assert!(
                        lane.accepts(entry.0),
                        "run {run}: an in-order push is refused"
                    );
                    lane.push(entry.0, entry.1, entry.2);
                    model.push_back(entry);
                    pushed = true;
                } else {
                    assert_eq!(lane.pop(), model.pop_front(), "run {run} diverged");
                }
                assert_eq!(lane.oldest, model.front().copied());
                assert_eq!(lane.len, model.len());
            }
            while let Some(entry) = model.pop_front() {
                assert_eq!(lane.pop(), Some(entry), "run {run} diverged");
            }
            assert_eq!((lane.pop(), lane.len), (None, 0));
            assert!(lane.bytes.is_empty(), "run {run} left bytes behind");
        }
        let counts = [
            seen.equal_deadlines,
            seen.long_gaps,
            seen.near_max,
            seen.long_seq_gaps,
            seen.wrapped_indices,
            seen.wrapped_generations,
            seen.restarts,
        ];
        assert!(counts.iter().all(|&n| n > 100), "{seen:?}");
    }

    #[test]
    fn an_overload_shaped_lane_costs_at_most_eight_bytes_an_entry() {
        // `overload-b8`'s timeouts: armed a millisecond apart, about 100
        // events apart, for roots that two slab slots take turns to hold
        // with rising generations.
        const N: u64 = 200_000;
        let mut rng = DetRng::seed_from(0x0b8);
        let mut lane = TimeoutLane::default();
        let mut seq = 0;
        for i in 0..N {
            seq += 90 + rng.below(21) as u64;
            let root = SlabHandle::from_bits(((i / 2) << 32) | (i % 2));
            lane.push(
                SimTime::from_secs(3_600) + SimTime::from_millis(i),
                seq,
                root,
            );
        }
        assert_eq!(lane.len, N as usize);
        let bytes = lane.bytes.len();
        assert!(bytes as u64 <= 8 * N, "{bytes} bytes for {N} timeouts");
    }
}
