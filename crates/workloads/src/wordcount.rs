//! The Word Count (stream version) topology (Section V, Fig. 6).
//!
//! "A chain-like topology with one spout and three bolts. The spout is
//! basically a reader that reads in a file one line at a time … pushed
//! into a Redis queue. The reader spout is connected to a SplitSentence
//! bolt which splits each line into words and feeds them to a WordCount
//! bolt using fields grouping … The last stage … is a Mongo bolt which
//! saves the results into a Mongo database."
//!
//! The input file is the cycled *Alice's Adventures in Wonderland*
//! excerpt ([`tstorm_substrates::CorpusReader`]); overload experiments
//! (Fig. 9) attach a second producer stream to the same queue.

use crate::logic::{
    MongoUpsertBolt, QueueSpout, SharedQueue, SharedStore, SplitSentenceBolt, WordCountBolt,
};
use std::sync::{Arc, Mutex};
use tstorm_sim::ExecutorLogic;
use tstorm_substrates::{CorpusReader, MongoStore, RedisQueue};
use tstorm_topology::{
    ComponentKind, ComponentSpec, CostProfile, Grouping, Topology, TopologyBuilder,
};
use tstorm_types::{Result, SimTime};

/// Parameters of the Word Count topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordCountParams {
    /// Reader spout executors (paper: 2).
    pub readers: u32,
    /// SplitSentence bolt executors (paper: 5).
    pub splitters: u32,
    /// WordCount bolt executors (paper: 5).
    pub counters: u32,
    /// Mongo bolt executors (paper: 5).
    pub mongos: u32,
    /// Acker executors (not stated in the paper; 3 makes the executor
    /// count match the 20 requested workers).
    pub ackers: u32,
    /// Workers requested (paper: 20).
    pub workers: u32,
    /// Reader pacing.
    pub emit_interval_ms: u64,
}

impl WordCountParams {
    /// The paper's Fig. 6 configuration: "20 workers, 2 spout executors,
    /// 5 executors for each other bolt".
    #[must_use]
    pub fn paper() -> Self {
        Self {
            readers: 2,
            splitters: 5,
            counters: 5,
            mongos: 5,
            ackers: 3,
            workers: 20,
            emit_interval_ms: 5,
        }
    }

    /// The Fig. 9 overload configuration: the topology initially runs in
    /// a single worker on a single node.
    #[must_use]
    pub fn overload() -> Self {
        Self {
            workers: 1,
            ..Self::paper()
        }
    }
}

impl Default for WordCountParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// Shared external state of one Word Count deployment: the Redis queue
/// feeding the readers and the Mongo store receiving results.
#[derive(Clone)]
pub struct WordCountState {
    /// The line queue.
    pub queue: SharedQueue,
    /// The result store (`words` collection, one row per word).
    pub store: SharedStore,
}

impl WordCountState {
    /// Creates empty substrate state.
    #[must_use]
    pub fn new() -> Self {
        Self {
            queue: Arc::new(Mutex::new(RedisQueue::new("wordcount-lines"))),
            store: Arc::new(Mutex::new(MongoStore::new())),
        }
    }

    /// Attaches a corpus producer pushing `lines_per_sec` lines starting
    /// at `start` — the paper's file pusher. Call twice to reproduce the
    /// Fig. 9 "two concurrent streams" overload.
    pub fn attach_corpus_producer(&self, start: SimTime, lines_per_sec: f64) {
        let mut corpus = CorpusReader::alice();
        self.queue.lock().unwrap().add_producer(
            start,
            lines_per_sec,
            Box::new(move |_| corpus.next_line().to_owned()),
        );
    }
}

impl Default for WordCountState {
    fn default() -> Self {
        Self::new()
    }
}

/// Builds the Word Count topology.
///
/// # Errors
///
/// Propagates topology validation failures.
pub fn topology(p: &WordCountParams) -> Result<Topology> {
    // "The bolts of the Word Count topology did much more substantial
    // work" than Throughput Test's.
    let split_cost = CostProfile::medium().with_cycles_per_emit(30_000);
    let count_cost = CostProfile::medium().with_cycles_per_tuple(300_000);
    // A Mongo insert costs ~0.75 ms of CPU (serialisation + driver); the
    // real I/O wait does not occupy a core.
    let mongo_cost = CostProfile::medium().with_cycles_per_tuple(1_500_000);
    TopologyBuilder::new("word-count")
        .spout_with(
            "reader",
            p.readers,
            &["line"],
            CostProfile::light(),
            SimTime::from_millis(p.emit_interval_ms),
        )
        .bolt_with_cost(
            "split",
            p.splitters,
            &["word"],
            &[("reader", Grouping::Shuffle)],
            split_cost,
        )
        .bolt_with_cost(
            "count",
            p.counters,
            &["word", "count"],
            &[("split", Grouping::fields(&["word"]))],
            count_cost,
        )
        .bolt_with_cost(
            "mongo",
            p.mongos,
            &[] as &[&str],
            // Shuffle: any sink executor may upsert any word; spreading
            // the writes avoids a fields-skew hotspot at the sink.
            &[("count", Grouping::Shuffle)],
            mongo_cost,
        )
        .num_ackers(p.ackers)
        .num_workers(p.workers)
        .build()
}

/// Builds the logic factory for [`topology`], wired to the given state.
pub fn factory(state: &WordCountState) -> impl FnMut(&ComponentSpec, u32) -> ExecutorLogic {
    let state = state.clone();
    move |spec, _index| match (spec.kind(), spec.name()) {
        (ComponentKind::Spout, _) => ExecutorLogic::spout(QueueSpout::new(state.queue.clone())),
        (_, "split") => ExecutorLogic::bolt(SplitSentenceBolt::new()),
        (_, "count") => ExecutorLogic::bolt(WordCountBolt::new()),
        _ => ExecutorLogic::bolt(MongoUpsertBolt::new(
            state.store.clone(),
            "words",
            "word",
            "count",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tstorm_cluster::{Assignment, ClusterSpec};
    use tstorm_sim::{SimConfig, Simulation};
    use tstorm_types::{Mhz, SlotId};

    #[test]
    fn paper_parameters_expand_to_20_executors() {
        let t = topology(&WordCountParams::paper()).expect("valid");
        assert_eq!(t.total_executors(), 20);
        assert_eq!(t.num_workers(), 20);
    }

    #[test]
    fn counts_reach_mongo_and_match_ground_truth() {
        let p = WordCountParams {
            readers: 1,
            splitters: 2,
            counters: 2,
            mongos: 2,
            ackers: 1,
            workers: 1,
            emit_interval_ms: 5,
        };
        let t = topology(&p).expect("valid");
        let state = WordCountState::new();
        state.attach_corpus_producer(SimTime::ZERO, 50.0);
        let cluster = ClusterSpec::homogeneous(1, 2, Mhz::new(8000.0)).unwrap();
        let mut sim = Simulation::new(cluster, SimConfig::default());
        let mut f = factory(&state);
        sim.submit_topology(&t, &mut f);
        let a: Assignment = sim
            .executor_descriptors()
            .into_iter()
            .map(|d| (d.id, SlotId::new(0)))
            .collect();
        sim.apply_assignment(&a);
        sim.run_until(SimTime::from_secs(30));

        assert!(sim.completed() > 500, "completed {}", sim.completed());
        let store = state.store.lock().unwrap();
        assert!(
            store.count("words") > 50,
            "words rows {}",
            store.count("words")
        );
        // Spot-check a frequent word: the stored count can only lag the
        // ground truth (tuples still in flight), never exceed it.
        let popped = state.queue.lock().unwrap().popped();
        let truth = CorpusReader::alice().expected_word_counts(popped);
        let stored: u64 = store
            .find_by("words", "word", "the")
            .and_then(|d| d.get("count"))
            .and_then(|c| c.parse().ok())
            .unwrap_or(0);
        assert!(stored > 0);
        assert!(
            stored <= truth["the"],
            "stored {stored} exceeds ground truth {}",
            truth["the"]
        );
    }

    #[test]
    fn overload_params_start_on_one_worker() {
        assert_eq!(WordCountParams::overload().workers, 1);
    }
}
