//! Counters: owns the per-window monitoring readings and the run
//! totals, and decides what each drain hands the load monitor.

use super::Simulation;
use tstorm_metrics::RunReport;
use tstorm_types::{ExecutorId, FxHashMap, NodeId};

/// Packs a directed executor pair into one sortable map key whose
/// numeric order equals row-major (`from`, then `to`) order.
#[inline]
fn pair_key(from: usize, to: usize) -> u64 {
    ((from as u64) << 32) | (to as u64)
}

/// Per-pair tuple counts keyed by packed pair id ([`pair_key`]), with
/// deterministic Fx hashing: memory scales with the pairs actually
/// observed, not with `n × n`.
#[derive(Debug, Clone, Default)]
struct PairStore {
    tuples: FxHashMap<u64, u64>,
}

impl PairStore {
    #[inline]
    fn add(&mut self, from: usize, to: usize) {
        *self.tuples.entry(pair_key(from, to)).or_insert(0) += 1;
    }

    fn get(&self, from: usize, to: usize) -> u64 {
        self.tuples.get(&pair_key(from, to)).copied().unwrap_or(0)
    }

    /// Estimated resident bytes of the table: key + value + a control
    /// byte per slot (SwissTable layout).
    fn state_bytes(&self) -> u64 {
        (self.tuples.capacity() * (2 * std::mem::size_of::<u64>() + 1)) as u64
    }

    /// Pairs with traffic: entries are only created by [`Self::add`], so
    /// every count is at least 1.
    fn observed(&self) -> usize {
        self.tuples.len()
    }

    /// All pairs sorted by packed key — row-major order.
    fn sorted(&self) -> Vec<(u64, u64)> {
        let mut flat: Vec<(u64, u64)> = self.tuples.iter().map(|(k, t)| (*k, *t)).collect();
        flat.sort_unstable_by_key(|(k, _)| *k);
        flat
    }
}

/// Raw counters accumulated since the last drain — the per-window readings
/// the load monitor consumes.
///
/// Executor ids are dense (minted sequentially at submit time), so CPU
/// cycles are index-addressed (`Vec<u64>`), while pair traffic lives in
/// a sparse `PairStore` whose iteration is made deterministic by a
/// read-time sort.
#[derive(Debug, Clone, Default)]
pub struct SimCounters {
    /// CPU cycles consumed per executor, indexed by executor id.
    cycles: Vec<u64>,
    /// Tuples sent per directed executor pair (data and ack messages).
    pairs: PairStore,
    /// Bytes sent over inter-node hops per source node — the NIC egress
    /// reading the flight recorder turns into per-window utilization.
    /// Grown lazily to the highest sending node index.
    node_tx: Vec<u64>,
    /// Tuples that timed out during the window.
    pub failures: u64,
}

impl SimCounters {
    /// Creates zeroed counters sized for `n` executors.
    #[must_use]
    pub fn with_executors(n: usize) -> Self {
        Self {
            cycles: vec![0; n],
            ..Self::default()
        }
    }

    /// Grows the cycle table to cover `n` executors, preserving recorded
    /// values (called when a topology submission adds executors).
    pub(super) fn ensure_executors(&mut self, n: usize) {
        if n > self.cycles.len() {
            self.cycles.resize(n, 0);
        }
    }

    #[inline]
    pub(super) fn add_cycles(&mut self, exec: usize, cycles: u64) {
        self.cycles[exec] += cycles;
    }

    #[inline]
    pub(super) fn add_pair(&mut self, from: usize, to: usize) {
        self.pairs.add(from, to);
    }

    #[inline]
    pub(super) fn add_node_tx(&mut self, node: usize, bytes: u64) {
        if node >= self.node_tx.len() {
            self.node_tx.resize(node + 1, 0);
        }
        self.node_tx[node] += bytes;
    }

    /// Inter-node bytes sent from one node this window.
    #[must_use]
    pub fn node_tx_bytes(&self, node: NodeId) -> u64 {
        self.node_tx.get(node.as_usize()).copied().unwrap_or(0)
    }

    /// CPU cycles recorded for one executor this window.
    #[must_use]
    pub fn cycles_of(&self, exec: ExecutorId) -> u64 {
        self.cycles.get(exec.as_usize()).copied().unwrap_or(0)
    }

    /// Tuples recorded for one directed executor pair this window.
    #[must_use]
    pub fn pair(&self, from: ExecutorId, to: ExecutorId) -> u64 {
        self.pairs.get(from.as_usize(), to.as_usize())
    }

    /// Resident bytes held by the pair-traffic store right now — the
    /// footprint the `--engine-stats` report tracks.
    #[must_use]
    pub fn pair_state_bytes(&self) -> u64 {
        self.pairs.state_bytes()
    }

    /// Number of directed pairs with recorded traffic this window.
    #[must_use]
    pub fn pairs_observed(&self) -> usize {
        self.pairs.observed()
    }

    /// Executors with non-zero CPU this window, in executor-id order.
    pub fn executor_cycles(&self) -> impl Iterator<Item = (ExecutorId, u64)> + '_ {
        self.cycles
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (ExecutorId::new(i as u32), *c))
    }

    /// Directed executor pairs with non-zero traffic this window, in
    /// row-major (`from`, then `to`) order.
    pub fn pair_tuples(&self) -> impl Iterator<Item = (ExecutorId, ExecutorId, u64)> {
        self.pairs.sorted().into_iter().map(|(k, t)| {
            (
                ExecutorId::new((k >> 32) as u32),
                ExecutorId::new(k as u32),
                t,
            )
        })
    }

    /// True if the window recorded no CPU, no traffic, and no failures.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.failures == 0 && self.pairs.tuples.is_empty() && self.cycles.iter().all(|c| *c == 0)
    }
}

/// Hot-path allocation and recycling statistics, exposed through the
/// `--engine-stats` CLI flag and the bench harness. The backing
/// counters are plain integer increments on paths that already touch
/// the counted object, so collection cost is negligible.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Transfer boxes (per-tuple envelopes and batch envelopes) served
    /// from the free-list pools.
    pub pool_hits: u64,
    /// Transfer boxes that had to be freshly allocated.
    pub pool_misses: u64,
    /// Deep payload clones avoided by
    /// [`SharedValues`](tstorm_topology::SharedValues) sharing — one per
    /// routed data envelope (each previously cloned the full value vector).
    pub payload_clones_avoided: u64,
    /// Largest number of events ever pending in the event queue.
    pub queue_high_water: u64,
    /// Span-duration subtractions whose end preceded their start. Always
    /// zero in a healthy run: a non-zero count means some scheduling
    /// path produced an out-of-order timestamp pair that the old
    /// `saturating_sub` arithmetic would have silently clamped to 0µs.
    pub clock_inversions: u64,
    /// High-water resident footprint of the pair-traffic store, in
    /// bytes (the hash table allocated for observed pairs), sampled at
    /// every counter drain and at stats read time.
    pub pair_state_bytes: u64,
    /// High-water count of directed executor pairs with observed
    /// traffic in any single monitoring window.
    pub pairs_observed: u64,
}

impl EngineStats {
    /// Fraction of envelope allocations served from the pool (0 when no
    /// envelope was ever sent).
    #[must_use]
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }

    /// Heap allocations avoided on the tuple hot path: pooled envelope
    /// boxes plus payload clones replaced by refcount bumps.
    #[must_use]
    pub fn allocations_avoided(&self) -> u64 {
        self.pool_hits + self.payload_clones_avoided
    }
}

impl Simulation {
    /// Drains the monitoring counters accumulated since the last call,
    /// leaving zeroed tables sized for the current executor count.
    pub fn drain_counters(&mut self) -> SimCounters {
        self.note_pair_state();
        std::mem::replace(
            &mut self.counters,
            SimCounters::with_executors(self.executors.len()),
        )
    }

    /// Samples the pair-store footprint high-water marks from the live
    /// window's counters.
    fn note_pair_state(&mut self) {
        self.pair_state_high_water = self
            .pair_state_high_water
            .max(self.counters.pair_state_bytes());
        self.pairs_observed_high_water = self
            .pairs_observed_high_water
            .max(self.counters.pairs_observed() as u64);
    }

    /// Hot-path allocation/recycling statistics for this run so far.
    #[must_use]
    pub fn engine_stats(&self) -> EngineStats {
        EngineStats {
            pool_hits: self.pool_hits,
            pool_misses: self.pool_misses,
            payload_clones_avoided: self.payload_clones_avoided,
            queue_high_water: self.queue.high_water() as u64,
            clock_inversions: self.clock_inversions,
            pair_state_bytes: self
                .pair_state_high_water
                .max(self.counters.pair_state_bytes()),
            pairs_observed: self
                .pairs_observed_high_water
                .max(self.counters.pairs_observed() as u64),
        }
    }

    /// Fully-acked tuple count.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Timed-out tuple count.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Spout emissions (including replays).
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Tuples dropped undelivered by routine relocation: a Storm-mode
    /// rollout killed their worker, or an endpoint was unplaced while no
    /// fault had fired. Crash losses count in
    /// [`Simulation::tuples_lost`] instead.
    #[must_use]
    pub fn dropped_in_flight(&self) -> u64 {
        self.dropped_in_flight
    }

    /// Input-queue depth of every executor — the backlog signal queue
    /// growth diagnostics and tests inspect.
    #[must_use]
    pub fn queue_depths(&self) -> Vec<(ExecutorId, usize)> {
        self.executors
            .iter()
            .enumerate()
            .map(|(i, e)| (ExecutorId::new(i as u32), e.queue.len()))
            .collect()
    }

    /// Number of in-flight (pending, not yet acked or failed) spout
    /// tuples.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.roots.len()
    }

    /// Assignment changes applied so far: one per Storm-mode
    /// kill-and-restart rollout, and one per node whose slice changed in
    /// a T-Storm per-node switch ([`Self::apply_assignment_for_node`]),
    /// so a T-Storm rollout that moves executors on six nodes counts six.
    #[must_use]
    pub fn reassignments(&self) -> u32 {
        self.reassignments
    }

    /// Total simulation events processed — the simulator's work measure
    /// (used by throughput benchmarks and performance diagnostics).
    ///
    /// Counted in *logical* events: a delivered batch of `n` tuples
    /// counts as `n`, exactly what `n` unbatched deliveries would have
    /// counted, so the measure stays comparable across `batch_size`
    /// settings and events-per-second directly reflects batching's
    /// wall-clock savings.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Largest number of events ever pending in the event queue at once
    /// (pending events in both lanes: the heap and the timeout lane).
    #[must_use]
    pub fn queue_high_water(&self) -> usize {
        self.queue.high_water()
    }

    /// Timed-out tuples re-queued for spout replay.
    #[must_use]
    pub fn replays_triggered(&self) -> u64 {
        self.replays_triggered
    }

    /// Tuples that timed out with no replay possible — permanent losses.
    #[must_use]
    pub fn perm_failed(&self) -> u64 {
        self.perm_failed
    }

    /// A copy of the metrics report with the given label.
    #[must_use]
    pub fn report(&self, label: &str) -> RunReport {
        let mut r = self.report.clone();
        r.label = label.to_owned();
        r.completed = self.completed;
        r.emitted = self.emitted;
        r.replays = self.replays_triggered;
        r.perm_failed = self.perm_failed;
        r.tuples_lost = self.tuples_lost;
        r.recovery_latency_ms = self.recovery_latencies.clone();
        r
    }
}
