//! Spout and bolt implementations shared by the workloads.

use std::sync::{Arc, Mutex};
use tstorm_sim::{BoltLogic, SpoutLogic};
use tstorm_substrates::{LogEntry, MongoStore, RedisQueue};
use tstorm_topology::Value;
use tstorm_types::{DetRng, FxHashMap, SimTime};

/// Shared handle to a Redis-like queue. `Arc<Mutex<…>>` keeps the logic
/// `Send` (the engine's contract); the mutex is uncontended — the
/// coordinator advances all executors on one thread.
pub type SharedQueue = Arc<Mutex<RedisQueue>>;
/// Shared handle to a Mongo-like store; see [`SharedQueue`].
pub type SharedStore = Arc<Mutex<MongoStore>>;

/// The Throughput Test spout: "repeatedly generates random strings of a
/// fixed size of 10K bytes as input tuples".
///
/// Tuples are `(seq, payload)`: a unique sequence number plus a
/// seed-derived payload string of the configured size. The payload is one
/// shared `Arc<str>` — identical sizes and routing behaviour to fresh
/// strings, but without allocating tens of kilobytes per tuple, which
/// under overload backlogs of 10⁴+ in-flight tuples degrades the system
/// allocator's large-bin handling and distorts wall-clock measurements.
pub struct RandomStringSpout {
    payload: Value,
    emitted: u64,
}

impl RandomStringSpout {
    /// Creates a spout emitting `(seq, payload)` tuples whose payload
    /// string has `bytes` length, generated from `seed`.
    #[must_use]
    pub fn new(bytes: usize, seed: u64) -> Self {
        let mut rng = DetRng::seed_from(seed);
        let block = format!("{:08x}", rng.next_u64() as u32);
        let mut s = String::with_capacity(bytes + 8);
        while s.len() < bytes {
            s.push_str(&block);
        }
        s.truncate(bytes);
        Self {
            payload: Value::str(s),
            emitted: 0,
        }
    }

    /// Convenience: the spout wrapped as [`tstorm_sim::ExecutorLogic`].
    #[must_use]
    pub fn wrapped(bytes: usize, seed: u64) -> tstorm_sim::ExecutorLogic {
        tstorm_sim::ExecutorLogic::spout(Self::new(bytes, seed))
    }
}

impl SpoutLogic for RandomStringSpout {
    fn next_tuple(&mut self, _now: SimTime) -> Option<Vec<Value>> {
        let seq = self.emitted as i64;
        self.emitted += 1;
        Some(vec![Value::Int(seq), self.payload.clone()])
    }
}

/// The Throughput Test counter bolt: "holds a counter, and increments and
/// outputs the counter value every time a tuple has been received".
#[derive(Debug, Default)]
pub struct CountingBolt {
    count: u64,
}

impl CountingBolt {
    /// Creates the bolt.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl BoltLogic for CountingBolt {
    fn execute(&mut self, _input: &[Value], _emit: &mut dyn FnMut(Vec<Value>)) {
        self.count += 1;
    }
}

/// A spout that pops string payloads from a shared Redis-like queue
/// (the Word Count reader and the Log Stream log spout).
pub struct QueueSpout {
    queue: SharedQueue,
}

impl QueueSpout {
    /// Creates a spout reading from the given queue.
    #[must_use]
    pub fn new(queue: SharedQueue) -> Self {
        Self { queue }
    }
}

impl SpoutLogic for QueueSpout {
    fn next_tuple(&mut self, now: SimTime) -> Option<Vec<Value>> {
        self.queue
            .lock()
            .unwrap()
            .pop(now)
            .map(|line| vec![Value::str(line)])
    }
}

/// A bolt that re-emits every input tuple `copies` times — the
/// transfer-density benchmark's load multiplier. One cheap service
/// completion produces a burst of identical small tuples, so the
/// downstream edge carries far more traffic than the spout emits and
/// the pipeline's bottleneck becomes tuple *transfer*, not tuple
/// processing.
#[derive(Debug, Clone, Copy)]
pub struct FanOutBolt {
    copies: u32,
    forwarded: u64,
}

impl FanOutBolt {
    /// Creates a bolt duplicating each input `copies` times.
    #[must_use]
    pub fn new(copies: u32) -> Self {
        Self {
            copies,
            forwarded: 0,
        }
    }

    /// Tuples emitted so far.
    #[must_use]
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }
}

impl BoltLogic for FanOutBolt {
    fn execute(&mut self, input: &[Value], emit: &mut dyn FnMut(Vec<Value>)) {
        for _ in 0..self.copies {
            emit(input.to_vec());
        }
        self.forwarded += u64::from(self.copies);
    }
}

/// Word Count's SplitSentence bolt: splits a line into lowercased words.
#[derive(Debug, Default)]
pub struct SplitSentenceBolt;

impl SplitSentenceBolt {
    /// Creates the bolt.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl BoltLogic for SplitSentenceBolt {
    fn execute(&mut self, input: &[Value], emit: &mut dyn FnMut(Vec<Value>)) {
        if let Some(line) = input[0].as_str() {
            for word in line.split_whitespace() {
                // Already-lowercase ASCII words (most of any real corpus)
                // skip the `to_lowercase` intermediate allocation.
                let value = if word.is_ascii() && !word.bytes().any(|b| b.is_ascii_uppercase()) {
                    Value::str(word)
                } else {
                    Value::str(word.to_lowercase())
                };
                emit(vec![value]);
            }
        }
    }
}

/// Word Count's counting bolt: increments a per-word counter and emits
/// `(word, count)` downstream. Receives its input via fields grouping, so
/// each word is counted by exactly one task.
#[derive(Debug, Default)]
pub struct WordCountBolt {
    counts: FxHashMap<String, u64>,
}

impl WordCountBolt {
    /// Creates the bolt.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl BoltLogic for WordCountBolt {
    fn execute(&mut self, input: &[Value], emit: &mut dyn FnMut(Vec<Value>)) {
        if let Some(word) = input[0].as_str() {
            // Hit path avoids the `to_owned` the entry API would force.
            let n = match self.counts.get_mut(word) {
                Some(n) => {
                    *n += 1;
                    *n
                }
                None => {
                    self.counts.insert(word.to_owned(), 1);
                    1
                }
            };
            // Re-emitting the input value shares its string allocation.
            emit(vec![input[0].clone(), Value::Int(n as i64)]);
        }
    }
}

/// A Mongo sink that upserts `(key_field, …)` documents — one row per
/// key, as the Word Count topology keeps one row per word.
pub struct MongoUpsertBolt {
    store: SharedStore,
    collection: String,
    key_field: String,
    value_field: String,
    key_buf: String,
    value_buf: String,
}

impl MongoUpsertBolt {
    /// Creates a sink writing `(key, value)` tuples into `collection`.
    #[must_use]
    pub fn new(
        store: SharedStore,
        collection: impl Into<String>,
        key_field: impl Into<String>,
        value_field: impl Into<String>,
    ) -> Self {
        Self {
            store,
            collection: collection.into(),
            key_field: key_field.into(),
            value_field: value_field.into(),
            key_buf: String::new(),
            value_buf: String::new(),
        }
    }
}

/// Renders a value the way `Value::to_string` does, but borrowing string
/// payloads directly and formatting the rest into a reusable buffer.
fn render<'a>(value: &'a Value, buf: &'a mut String) -> &'a str {
    use std::fmt::Write as _;
    match value.as_str() {
        Some(s) => s,
        None => {
            buf.clear();
            let _ = write!(buf, "{value}");
            buf
        }
    }
}

impl BoltLogic for MongoUpsertBolt {
    fn execute(&mut self, input: &[Value], _emit: &mut dyn FnMut(Vec<Value>)) {
        let (Some(key), Some(value)) = (input.first(), input.get(1)) else {
            return;
        };
        self.store.lock().unwrap().upsert_kv(
            &self.collection,
            &self.key_field,
            render(key, &mut self.key_buf),
            &self.value_field,
            render(value, &mut self.value_buf),
        );
    }
}

/// The Log Stream rules bolt: parses a LogStash JSON line, drops
/// malformed entries, and "emits a single value containing a log entry
/// instance" — here the entry's key fields.
#[derive(Debug, Default)]
pub struct LogRulesBolt {
    parsed: u64,
    dropped: u64,
}

impl LogRulesBolt {
    /// Creates the bolt.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl BoltLogic for LogRulesBolt {
    fn execute(&mut self, input: &[Value], emit: &mut dyn FnMut(Vec<Value>)) {
        let Some(line) = input[0].as_str() else {
            self.dropped += 1;
            return;
        };
        match LogEntry::parse(line) {
            Some(entry) => {
                self.parsed += 1;
                emit(vec![
                    Value::str(&entry.uri),
                    Value::Int(i64::from(entry.status)),
                    Value::Int(entry.bytes as i64),
                    Value::str(&entry.client_ip),
                    Value::Bool(entry.is_error()),
                ]);
            }
            None => self.dropped += 1,
        }
    }
}

/// The Log Stream indexer bolt: maintains a per-URI posting count and
/// emits `(uri, hits)` index updates.
#[derive(Debug, Default)]
pub struct IndexerBolt {
    index: FxHashMap<String, u64>,
}

impl IndexerBolt {
    /// Creates the bolt.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl BoltLogic for IndexerBolt {
    fn execute(&mut self, input: &[Value], emit: &mut dyn FnMut(Vec<Value>)) {
        if let Some(uri) = input[0].as_str() {
            let n = match self.index.get_mut(uri) {
                Some(n) => {
                    *n += 1;
                    *n
                }
                None => {
                    self.index.insert(uri.to_owned(), 1);
                    1
                }
            };
            emit(vec![input[0].clone(), Value::Int(n as i64)]);
        }
    }
}

/// The Log Stream counter bolt: counts entries per HTTP status class and
/// emits `(status, count)` updates.
#[derive(Debug, Default)]
pub struct StatusCounterBolt {
    counts: FxHashMap<i64, u64>,
}

impl StatusCounterBolt {
    /// Creates the bolt.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl BoltLogic for StatusCounterBolt {
    fn execute(&mut self, input: &[Value], emit: &mut dyn FnMut(Vec<Value>)) {
        if let Some(status) = input.get(1).and_then(Value::as_int) {
            let n = self.counts.entry(status).or_insert(0);
            *n += 1;
            emit(vec![Value::Int(status), Value::Int(*n as i64)]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tstorm_substrates::IisLogGenerator;

    #[test]
    fn random_string_spout_emits_fixed_size_unique() {
        let mut s = RandomStringSpout::new(10_240, 1);
        let a = s.next_tuple(SimTime::ZERO).unwrap();
        let b = s.next_tuple(SimTime::ZERO).unwrap();
        assert_eq!(a[1].as_str().unwrap().len(), 10_240);
        assert_eq!(b[1].as_str().unwrap().len(), 10_240);
        assert_ne!(a, b, "sequence field distinguishes tuples");
        // Total payload: 8-byte seq + the configured string size.
        let total: u64 = a.iter().map(Value::payload_bytes).sum();
        assert_eq!(total, 10_240 + 8);
        // Different seeds give different payload content.
        let mut other = RandomStringSpout::new(10_240, 2);
        let c = other.next_tuple(SimTime::ZERO).unwrap();
        assert_ne!(a[1], c[1]);
    }

    #[test]
    fn fan_out_bolt_duplicates_inputs() {
        let mut b = FanOutBolt::new(4);
        let mut out = Vec::new();
        let input = vec![Value::Int(7)];
        b.execute(&input, &mut |v| out.push(v));
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|v| v == &input));
        assert_eq!(b.forwarded(), 4);
    }

    #[test]
    fn counting_bolt_counts_without_emitting() {
        let mut b = CountingBolt::new();
        let mut emitted = 0;
        b.execute(&[Value::str("x")], &mut |_| emitted += 1);
        b.execute(&[Value::str("y")], &mut |_| emitted += 1);
        assert_eq!(b.count, 2);
        assert_eq!(emitted, 0);
    }

    #[test]
    fn queue_spout_pops_in_order_and_empties() {
        let queue: SharedQueue = Arc::new(Mutex::new(RedisQueue::new("q")));
        queue.lock().unwrap().push("one".into());
        queue.lock().unwrap().push("two".into());
        let mut s = QueueSpout::new(queue);
        assert_eq!(
            s.next_tuple(SimTime::ZERO).unwrap()[0].as_str(),
            Some("one")
        );
        assert_eq!(
            s.next_tuple(SimTime::ZERO).unwrap()[0].as_str(),
            Some("two")
        );
        assert!(s.next_tuple(SimTime::ZERO).is_none());
    }

    #[test]
    fn split_bolt_lowercases_and_splits() {
        let mut b = SplitSentenceBolt::new();
        let mut words = Vec::new();
        b.execute(&[Value::str("The Cat  sat")], &mut |v| {
            words.push(v[0].as_str().unwrap().to_owned());
        });
        assert_eq!(words, vec!["the", "cat", "sat"]);
    }

    #[test]
    fn word_count_bolt_increments_and_emits_running_count() {
        let mut b = WordCountBolt::new();
        let mut out = Vec::new();
        for _ in 0..3 {
            b.execute(&[Value::str("cat")], &mut |v| out.push(v));
        }
        let counts: Vec<&Value> = out.iter().map(|v| &v[1]).collect();
        assert_eq!(counts, [&Value::Int(1), &Value::Int(2), &Value::Int(3)]);
    }

    #[test]
    fn mongo_upsert_bolt_keeps_one_row_per_key() {
        let store: SharedStore = Arc::new(Mutex::new(MongoStore::new()));
        let mut b = MongoUpsertBolt::new(store.clone(), "words", "word", "count");
        b.execute(&[Value::str("cat"), Value::Int(1)], &mut |_| {});
        b.execute(&[Value::str("cat"), Value::Int(2)], &mut |_| {});
        b.execute(&[Value::str("dog"), Value::Int(1)], &mut |_| {});
        let s = store.lock().unwrap();
        assert_eq!(s.count("words"), 2);
        assert_eq!(
            s.find_by("words", "word", "cat").unwrap().get("count"),
            Some("2")
        );
    }

    #[test]
    fn rules_bolt_parses_generator_output_and_drops_garbage() {
        let mut gen = IisLogGenerator::new(3);
        let mut b = LogRulesBolt::new();
        let mut out = Vec::new();
        for _ in 0..10 {
            b.execute(&[Value::str(gen.next_json())], &mut |v| out.push(v));
        }
        b.execute(&[Value::str("not json")], &mut |v| out.push(v));
        assert_eq!(out.len(), 10);
        assert_eq!(b.parsed, 10);
        assert_eq!(b.dropped, 1);
        // Emitted entry has (uri, status, bytes, client, is_error).
        assert_eq!(out[0].len(), 5);
        assert!(out[0][0].as_str().unwrap().starts_with('/'));
    }

    #[test]
    fn indexer_and_counter_accumulate() {
        let mut idx = IndexerBolt::new();
        let mut out = Vec::new();
        let entry = vec![
            Value::str("/a"),
            Value::Int(200),
            Value::Int(512),
            Value::str("1.1.1.1"),
            Value::Bool(false),
        ];
        idx.execute(&entry, &mut |v| out.push(v));
        idx.execute(&entry, &mut |v| out.push(v));
        assert_eq!(out[1][1], Value::Int(2));

        let mut ctr = StatusCounterBolt::new();
        let mut out2 = Vec::new();
        ctr.execute(&entry, &mut |v| out2.push(v));
        ctr.execute(&entry, &mut |v| out2.push(v));
        assert_eq!(out2[1], vec![Value::Int(200), Value::Int(2)]);
    }
}
