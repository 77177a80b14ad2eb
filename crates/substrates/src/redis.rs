//! A Redis-like FIFO queue with rate-controlled producers.
//!
//! In the paper, log lines / text lines are "pushed into a Redis queue,
//! which are then consumed by the … spout". The queue here is driven by
//! virtual time: producers are registered with a rate and a generator
//! function, and [`RedisQueue::pop`] lazily materialises every item whose
//! production time has passed. This keeps the queue exact and deterministic
//! without scheduling a simulator event per produced item.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use tstorm_types::SimTime;

/// Generates the payload for the `n`-th item of one producer.
pub type ItemGenerator = Box<dyn FnMut(u64) -> String + Send>;

struct Producer {
    /// Time the next item will be produced.
    next_at: SimTime,
    /// Virtual time between items (1 / rate).
    interval: SimTime,
    /// Items produced so far (generator argument).
    produced: u64,
    generator: ItemGenerator,
}

/// A FIFO queue of string payloads fed by rate-controlled producers.
///
/// # Example
///
/// ```
/// use tstorm_substrates::RedisQueue;
/// use tstorm_types::SimTime;
///
/// let mut q = RedisQueue::new("lines");
/// q.add_producer(SimTime::ZERO, 10.0, Box::new(|n| format!("line {n}")));
/// // Items are produced at t = 0, 0.1s, …, 1.0s: eleven so far.
/// assert_eq!(q.pop(SimTime::from_secs(1)), Some("line 0".to_owned()));
/// assert_eq!(q.backlog(SimTime::from_secs(1)), 10);
/// ```
pub struct RedisQueue {
    name: String,
    producers: Vec<Producer>,
    ready: VecDeque<String>,
    popped: u64,
    pushed_directly: u64,
}

impl std::fmt::Debug for RedisQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RedisQueue")
            .field("name", &self.name)
            .field("producers", &self.producers.len())
            .field("ready", &self.ready.len())
            .field("popped", &self.popped)
            .finish()
    }
}

impl RedisQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            producers: Vec::new(),
            ready: VecDeque::new(),
            popped: 0,
            pushed_directly: 0,
        }
    }

    /// The queue's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Registers a producer that creates `rate` items per second starting
    /// at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive and finite.
    pub fn add_producer(&mut self, start: SimTime, rate_per_sec: f64, generator: ItemGenerator) {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec > 0.0,
            "producer rate must be positive, got {rate_per_sec}"
        );
        let interval = SimTime::from_secs_f64(1.0 / rate_per_sec).max(SimTime::from_micros(1));
        self.producers.push(Producer {
            next_at: start,
            interval,
            produced: 0,
            generator,
        });
    }

    /// Pushes one item directly (tests and replay paths).
    pub fn push(&mut self, item: String) {
        self.ready.push_back(item);
        self.pushed_directly += 1;
    }

    /// Materialises all items due at or before `now`, in production-time
    /// order across producers (stable by producer index on ties).
    fn catch_up(&mut self, now: SimTime) {
        // Merge producer schedules by next production time.
        let mut heap: BinaryHeap<Reverse<(SimTime, usize)>> = BinaryHeap::new();
        for (i, p) in self.producers.iter().enumerate() {
            if p.next_at <= now {
                heap.push(Reverse((p.next_at, i)));
            }
        }
        while let Some(Reverse((t, i))) = heap.pop() {
            let p = &mut self.producers[i];
            let item = (p.generator)(p.produced);
            p.produced += 1;
            self.ready.push_back(item);
            let next = t + p.interval;
            p.next_at = next;
            if next <= now {
                heap.push(Reverse((next, i)));
            }
        }
    }

    /// Pops the oldest available item at virtual time `now`.
    pub fn pop(&mut self, now: SimTime) -> Option<String> {
        if self.ready.is_empty() {
            self.catch_up(now);
        }
        let item = self.ready.pop_front();
        if item.is_some() {
            self.popped += 1;
        }
        item
    }

    /// Number of items waiting at time `now`.
    #[must_use]
    pub fn backlog(&mut self, now: SimTime) -> usize {
        self.catch_up(now);
        self.ready.len()
    }

    /// Items popped so far.
    #[must_use]
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Total items produced so far by rate producers (excludes direct
    /// pushes).
    #[must_use]
    pub fn produced(&self) -> u64 {
        self.producers.iter().map(|p| p.produced).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn producer_rate_is_exact() {
        let mut q = RedisQueue::new("q");
        q.add_producer(SimTime::ZERO, 100.0, Box::new(|n| n.to_string()));
        // 100 items/s for 2 s, starting at t=0: items at 0, 10ms, ...
        // At t=2s inclusive boundary: 201 items (0..=200 * 10ms).
        assert_eq!(q.backlog(SimTime::from_secs(2)), 201);
    }

    #[test]
    fn pop_returns_in_order() {
        let mut q = RedisQueue::new("q");
        q.add_producer(SimTime::ZERO, 10.0, Box::new(|n| format!("a{n}")));
        assert_eq!(q.pop(SimTime::from_millis(250)).as_deref(), Some("a0"));
        assert_eq!(q.pop(SimTime::from_millis(250)).as_deref(), Some("a1"));
        assert_eq!(q.pop(SimTime::from_millis(250)).as_deref(), Some("a2"));
        assert_eq!(q.pop(SimTime::from_millis(250)), None);
        assert_eq!(q.popped(), 3);
    }

    #[test]
    fn two_producers_interleave_by_time() {
        let mut q = RedisQueue::new("q");
        q.add_producer(SimTime::ZERO, 1.0, Box::new(|n| format!("slow{n}")));
        q.add_producer(
            SimTime::from_millis(100),
            2.0,
            Box::new(|n| format!("fast{n}")),
        );
        // slow: t=0, 1s, 2s... fast: t=0.1, 0.6, 1.1...
        let mut got = Vec::new();
        while let Some(x) = q.pop(SimTime::from_millis(1_200)) {
            got.push(x);
        }
        assert_eq!(got, vec!["slow0", "fast0", "fast1", "slow1", "fast2"]);
    }

    #[test]
    fn overload_injection_doubles_rate() {
        // The Fig. 9 scenario: a second identical stream starts later.
        let mut q = RedisQueue::new("q");
        q.add_producer(SimTime::ZERO, 100.0, Box::new(|n| n.to_string()));
        q.add_producer(SimTime::from_secs(10), 100.0, Box::new(|n| n.to_string()));
        let before = q.backlog(SimTime::from_secs(10));
        // Drain, then measure production over the next 10 s.
        while q.pop(SimTime::from_secs(10)).is_some() {}
        let after = q.backlog(SimTime::from_secs(20));
        assert!(
            after > before,
            "rate should roughly double: {after} vs {before}"
        );
        assert!(after >= 2_000, "two 100/s streams over 10 s: got {after}");
    }

    #[test]
    fn direct_push_is_fifo_with_produced_items() {
        let mut q = RedisQueue::new("q");
        q.push("manual".to_owned());
        q.add_producer(SimTime::ZERO, 1000.0, Box::new(|n| n.to_string()));
        assert_eq!(q.pop(SimTime::from_secs(1)).as_deref(), Some("manual"));
        assert_eq!(q.pop(SimTime::from_secs(1)).as_deref(), Some("0"));
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        let mut q = RedisQueue::new("q");
        q.add_producer(SimTime::ZERO, 0.0, Box::new(|n| n.to_string()));
    }

    #[test]
    fn produced_counts_only_rate_items() {
        let mut q = RedisQueue::new("q");
        q.push("x".to_owned());
        q.add_producer(SimTime::ZERO, 10.0, Box::new(|n| n.to_string()));
        let _ = q.backlog(SimTime::from_millis(100));
        assert_eq!(q.produced(), 2); // t = 0 and 100ms
    }
}
