//! The Log Stream Processing topology (Section V, Figs. 7–8).
//!
//! "The topology uses an open-source log agent called LogStash to read
//! data from log files. LogStash submits log lines as separate JSON values
//! into a Redis queue, which are then consumed by the log spout … The log
//! rules bolt performs rule-based analysis … and emits a single value
//! containing a log entry instance. The log entry instance is then sent to
//! both the indexer bolt and the counter bolt … we slightly modified the
//! original topology by introducing Mongo bolts to simply save the results
//! into separate collections."
//!
//! "Most bolt executors in the Log Stream Processing topology need to do
//! even more intensive work than those in the Word Count topology" — the
//! cost profiles reflect that.

use crate::logic::{
    IndexerBolt, LogRulesBolt, MongoUpsertBolt, QueueSpout, SharedQueue, SharedStore,
    StatusCounterBolt,
};
use std::sync::{Arc, Mutex};
use tstorm_sim::ExecutorLogic;
use tstorm_substrates::{IisLogGenerator, MongoStore, RedisQueue};
use tstorm_topology::{
    ComponentKind, ComponentSpec, CostProfile, Grouping, Topology, TopologyBuilder,
};
use tstorm_types::{Result, SimTime};

/// Parameters of the Log Stream Processing topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogStreamParams {
    /// Log spout executors (paper: 5).
    pub spouts: u32,
    /// Log-rules bolt executors (paper: 5).
    pub rules: u32,
    /// Indexer bolt executors (paper: 5).
    pub indexers: u32,
    /// Counter bolt executors (paper: 5).
    pub counters: u32,
    /// Executors for each of the two Mongo bolts (paper: 2).
    pub mongos: u32,
    /// Acker executors (not stated; 4 rounds the total to 28).
    pub ackers: u32,
    /// Workers requested (paper: 20).
    pub workers: u32,
    /// Spout pacing.
    pub emit_interval_ms: u64,
}

impl LogStreamParams {
    /// The paper's Fig. 8 configuration: "20 workers, 5 spout executors,
    /// 5 executors for the log rules bolt, the indexer bolt, the counter
    /// bolt, and 2 executors each for the two Mongo bolts".
    #[must_use]
    pub fn paper() -> Self {
        Self {
            spouts: 5,
            rules: 5,
            indexers: 5,
            counters: 5,
            mongos: 2,
            ackers: 4,
            workers: 20,
            emit_interval_ms: 5,
        }
    }

    /// The Fig. 10 overload configuration: a single worker on one node.
    #[must_use]
    pub fn overload() -> Self {
        Self {
            workers: 1,
            ..Self::paper()
        }
    }
}

impl Default for LogStreamParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// Shared external state: the LogStash-fed Redis queue and the Mongo
/// store with the `index` and `counts` collections.
#[derive(Clone)]
pub struct LogStreamState {
    /// The JSON log-line queue.
    pub queue: SharedQueue,
    /// The result store.
    pub store: SharedStore,
}

impl LogStreamState {
    /// Creates empty substrate state.
    #[must_use]
    pub fn new() -> Self {
        Self {
            queue: Arc::new(Mutex::new(RedisQueue::new("logstash"))),
            store: Arc::new(Mutex::new(MongoStore::new())),
        }
    }

    /// Attaches a LogStash-style producer pushing `lines_per_sec` IIS log
    /// lines starting at `start`. Call twice for the Fig. 10 overload
    /// ("feeding 2 streams of IIS log files into the same Redis queue").
    pub fn attach_log_producer(&self, start: SimTime, lines_per_sec: f64, seed: u64) {
        let mut generator = IisLogGenerator::new(seed);
        self.queue.lock().unwrap().add_producer(
            start,
            lines_per_sec,
            Box::new(move |_| generator.next_json()),
        );
    }
}

impl Default for LogStreamState {
    fn default() -> Self {
        Self::new()
    }
}

/// Builds the Log Stream Processing topology (Fig. 7 shape).
///
/// # Errors
///
/// Propagates topology validation failures.
pub fn topology(p: &LogStreamParams) -> Result<Topology> {
    let entry_fields = &["uri", "status", "bytes", "client", "is_error"];
    let rules_cost = CostProfile::heavy().with_cycles_per_tuple(2_000_000);
    let indexer_cost = CostProfile::heavy().with_cycles_per_tuple(4_000_000);
    let counter_cost = CostProfile::medium().with_cycles_per_tuple(1_000_000);
    // Mongo insert CPU cost (the I/O wait does not occupy a core).
    let mongo_cost = CostProfile::heavy().with_cycles_per_tuple(1_500_000);
    TopologyBuilder::new("log-stream")
        .spout_with(
            "log_spout",
            p.spouts,
            &["line"],
            CostProfile::light(),
            SimTime::from_millis(p.emit_interval_ms),
        )
        .bolt_with_cost(
            "rules",
            p.rules,
            entry_fields,
            &[("log_spout", Grouping::Shuffle)],
            rules_cost,
        )
        .bolt_with_cost(
            "indexer",
            p.indexers,
            &["uri", "hits"],
            &[("rules", Grouping::fields(&["uri"]))],
            indexer_cost,
        )
        .bolt_with_cost(
            "counter",
            p.counters,
            &["status", "count"],
            &[("rules", Grouping::fields(&["status"]))],
            counter_cost,
        )
        .bolt_with_cost(
            "mongo_index",
            p.mongos,
            &[] as &[&str],
            // Shuffle into the sinks: spreading writes avoids a
            // fields-skew hotspot that no placement could fix.
            &[("indexer", Grouping::Shuffle)],
            mongo_cost,
        )
        .bolt_with_cost(
            "mongo_count",
            p.mongos,
            &[] as &[&str],
            &[("counter", Grouping::Shuffle)],
            mongo_cost,
        )
        .num_ackers(p.ackers)
        .num_workers(p.workers)
        .build()
}

/// Builds the logic factory for [`topology`], wired to the given state.
pub fn factory(state: &LogStreamState) -> impl FnMut(&ComponentSpec, u32) -> ExecutorLogic {
    let state = state.clone();
    move |spec, _index| match (spec.kind(), spec.name()) {
        (ComponentKind::Spout, _) => ExecutorLogic::spout(QueueSpout::new(state.queue.clone())),
        (_, "rules") => ExecutorLogic::bolt(LogRulesBolt::new()),
        (_, "indexer") => ExecutorLogic::bolt(IndexerBolt::new()),
        (_, "counter") => ExecutorLogic::bolt(StatusCounterBolt::new()),
        (_, "mongo_index") => ExecutorLogic::bolt(MongoUpsertBolt::new(
            state.store.clone(),
            "index",
            "uri",
            "hits",
        )),
        _ => ExecutorLogic::bolt(MongoUpsertBolt::new(
            state.store.clone(),
            "counts",
            "status",
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
    fn paper_parameters_expand_to_28_executors() {
        let t = topology(&LogStreamParams::paper()).expect("valid");
        assert_eq!(t.total_executors(), 28);
    }

    #[test]
    fn log_entries_flow_into_both_collections() {
        let p = LogStreamParams {
            spouts: 1,
            rules: 1,
            indexers: 1,
            counters: 1,
            mongos: 1,
            ackers: 1,
            workers: 1,
            emit_interval_ms: 5,
        };
        let t = topology(&p).expect("valid");
        let state = LogStreamState::new();
        state.attach_log_producer(SimTime::ZERO, 100.0, 9);
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
            store.count("index") > 10,
            "index rows {}",
            store.count("index")
        );
        assert!(
            store.count("counts") >= 2,
            "count rows {}",
            store.count("counts")
        );
        // The dominant status class must be 200.
        let ok_count: u64 = store
            .find_by("counts", "status", "200")
            .and_then(|d| d.get("count"))
            .and_then(|c| c.parse().ok())
            .unwrap_or(0);
        assert!(ok_count > 100, "200-count {ok_count}");
    }

    #[test]
    fn overload_params_start_on_one_worker() {
        assert_eq!(LogStreamParams::overload().workers, 1);
    }
}
