//! Counters: owns the per-window monitoring readings and the run
//! totals, and decides what each drain hands the load monitor.

use super::Simulation;
use crate::network::HopClass;
use tstorm_metrics::RunReport;
use tstorm_types::{ExecutorId, NodeId};

/// Where one source executor's row lives in [`PairStore`]'s arrays: the
/// first `len` of the `cap` entries from `start` on. A row that has
/// recorded nothing this window has no block yet; its `cap` is then the
/// length the row reached in the previous window.
#[derive(Debug, Clone, Copy, Default)]
struct RowBlock {
    start: usize,
    len: u32,
    cap: u32,
}

/// Per-pair tuple counts, one row per source executor indexed by its
/// id: memory scales with the pairs actually observed, not with
/// `n × n`. Each row is a block of destinations kept sorted, with their
/// tuple counts alongside, in two arrays shared by all rows. A transfer
/// searches the sender's own short row, and reading the rows in order
/// is row-major (`from`, then `to`) with no sort.
#[derive(Debug, Clone, Default)]
struct PairStore {
    /// Row blocks indexed by source executor id, grown to the highest
    /// sender.
    rows: Vec<RowBlock>,
    /// Destination ids, every row's block back to back in the order the
    /// rows first recorded a pair. A row that outgrows its block moves
    /// to a new one at the end.
    dst: Vec<u32>,
    /// Tuple counts, parallel to `dst`.
    tuples: Vec<u64>,
    /// Entries in use across all rows.
    observed: usize,
    /// Room the arrays reserve when the window's first row gets a block:
    /// the length they reached in the previous window plus an eighth,
    /// rounded up to a power of two. Each array is then allocated once
    /// per window, at the same size window after window, so the
    /// allocator hands back the block the previous window freed instead
    /// of fresh pages.
    reserve: usize,
}

impl PairStore {
    /// An empty store for the window after this one, sized by this one:
    /// each row's first block holds as many pairs as the row saw here.
    fn next_window(&self, n: usize) -> Self {
        let mut rows: Vec<RowBlock> = self
            .rows
            .iter()
            .map(|b| RowBlock {
                cap: b.len,
                ..RowBlock::default()
            })
            .collect();
        if n > rows.len() {
            rows.resize(n, RowBlock::default());
        }
        Self {
            rows,
            reserve: (self.dst.len() + self.dst.len() / 8).next_power_of_two(),
            ..Self::default()
        }
    }

    /// The range of `from`'s row in the arrays (empty past the last row).
    fn row(&self, from: usize) -> std::ops::Range<usize> {
        self.rows
            .get(from)
            .map_or(0..0, |b| b.start..b.start + b.len as usize)
    }

    #[inline]
    fn add(&mut self, from: usize, to: usize) {
        if from >= self.rows.len() {
            self.rows.resize(from + 1, RowBlock::default());
        }
        let to = to as u32;
        let RowBlock { start, len, cap } = self.rows[from];
        let len = len as usize;
        match self.dst[start..start + len].binary_search(&to) {
            Ok(i) => self.tuples[start + i] += 1,
            Err(i) => {
                let start = if len == 0 || len == cap as usize {
                    self.new_block(from)
                } else {
                    start
                };
                // Shift the tail up by one in place: rows are short, and
                // a library `memmove` per insert cost more than the move.
                let at = start + i;
                let mut j = start + len;
                while j > at {
                    self.dst[j] = self.dst[j - 1];
                    self.tuples[j] = self.tuples[j - 1];
                    j -= 1;
                }
                self.dst[at] = to;
                self.tuples[at] = 1;
                self.rows[from].len += 1;
                self.observed += 1;
            }
        }
    }

    /// Gives a row a block at the end of the arrays and returns its
    /// start: for the row's first pair of the window, as many entries as
    /// it had in the previous window (at least 4); for a full row, twice
    /// its room, leaving the old block unused.
    #[cold]
    fn new_block(&mut self, from: usize) -> usize {
        let RowBlock { start, len, cap } = self.rows[from];
        let cap = if len == 0 { cap.max(4) } else { cap * 2 };
        if self.dst.capacity() == 0 {
            self.dst.reserve_exact(self.reserve);
            self.tuples.reserve_exact(self.reserve);
        }
        let (old, moved) = (start..start + len as usize, self.dst.len());
        self.dst.extend_from_within(old.clone());
        self.dst.resize(moved + cap as usize, 0);
        self.tuples.extend_from_within(old);
        self.tuples.resize(moved + cap as usize, 0);
        self.rows[from] = RowBlock {
            start: moved,
            len,
            cap,
        };
        moved
    }

    fn get(&self, from: usize, to: usize) -> u64 {
        let row = self.row(from);
        u32::try_from(to)
            .ok()
            .and_then(|to| self.dst[row.clone()].binary_search(&to).ok())
            .map_or(0, |i| self.tuples[row.start + i])
    }

    /// Bytes allocated by the store: both arrays plus the row index.
    /// Every size follows from the recorded pairs alone, so the figure
    /// is deterministic.
    fn state_bytes(&self) -> u64 {
        (self.dst.capacity() * std::mem::size_of::<u32>()
            + self.tuples.capacity() * std::mem::size_of::<u64>()
            + self.rows.capacity() * std::mem::size_of::<RowBlock>()) as u64
    }

    /// Pairs with traffic: entries are only created by [`Self::add`], so
    /// every count is at least 1.
    fn observed(&self) -> usize {
        self.observed
    }

    /// All pairs in row-major order.
    fn iter(&self) -> impl Iterator<Item = (ExecutorId, ExecutorId, u64)> + '_ {
        (0..self.rows.len()).flat_map(move |from| {
            let id = ExecutorId::new(from as u32);
            let row = self.row(from);
            self.dst[row.clone()]
                .iter()
                .zip(&self.tuples[row])
                .map(move |(&to, &tuples)| (id, ExecutorId::new(to), tuples))
        })
    }
}

/// Raw counters accumulated since the last drain — the per-window readings
/// the load monitor consumes.
///
/// Executor ids are dense (minted sequentially at submit time), so CPU
/// cycles are index-addressed (`Vec<u64>`), and pair traffic lives in a
/// `PairStore` of per-source rows kept sorted by destination, whose
/// iteration is deterministic by construction.
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
    /// Grows the cycle table and the pair rows to cover `n` executors,
    /// preserving recorded values (called when a topology submission
    /// adds executors).
    pub(super) fn ensure_executors(&mut self, n: usize) {
        if n > self.cycles.len() {
            self.cycles.resize(n, 0);
        }
        if n > self.pairs.rows.len() {
            self.pairs.rows.resize(n, RowBlock::default());
        }
    }

    /// Hands over the window's readings and leaves zeroed counters for
    /// `n` executors, their pair store sized by the window just ended.
    pub(super) fn drain(&mut self, n: usize) -> Self {
        let next = Self {
            cycles: vec![0; n],
            pairs: self.pairs.next_window(n),
            ..Self::default()
        };
        std::mem::replace(self, next)
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

    /// Bytes allocated by the pair-traffic store right now — the
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
    pub fn pair_tuples(&self) -> impl Iterator<Item = (ExecutorId, ExecutorId, u64)> + '_ {
        self.pairs.iter()
    }

    /// True if the window recorded no CPU, no traffic, and no failures.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.failures == 0 && self.pairs.observed() == 0 && self.cycles.iter().all(|c| *c == 0)
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
    /// Largest number of events ever pending in the event queue.
    pub queue_high_water: u64,
    /// Span-duration subtractions whose end preceded their start. Always
    /// zero in a healthy run: a non-zero count means some scheduling
    /// path produced an out-of-order timestamp pair that the old
    /// `saturating_sub` arithmetic would have silently clamped to 0µs.
    pub clock_inversions: u64,
    /// High-water allocation of the pair-traffic store, in bytes (the
    /// arrays holding every source's row of observed pairs, plus the
    /// row index), sampled at every counter drain and at stats read
    /// time.
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
}

impl Simulation {
    /// Drains the monitoring counters accumulated since the last call,
    /// leaving zeroed tables sized for the current executor count.
    pub fn drain_counters(&mut self) -> SimCounters {
        self.note_pair_state();
        self.counters.drain(self.executors.len())
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

    /// Tuples dropped undelivered by routine relocation or a kill: a
    /// Storm-mode rollout or [`Simulation::kill_topology`] stopped their
    /// worker while they were queued or in service, or an endpoint was
    /// unplaced while no fault had fired. Crash losses count in
    /// [`Simulation::tuples_lost`] instead.
    #[must_use]
    pub fn dropped_in_flight(&self) -> u64 {
        self.dropped_in_flight
    }

    /// Pending roots that [`Simulation::kill_topology`] forgot without
    /// failing them. After a kill, `emitted == completed + failed +
    /// in_flight + forgotten` still holds.
    #[must_use]
    pub fn forgotten(&self) -> u64 {
        self.forgotten
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

    /// Sum of every completed tuple's latency, in ms (the latencies
    /// themselves are in [`RunReport::latency_hist`]).
    #[must_use]
    pub fn completion_latency_sum_ms(&self) -> f64 {
        self.latency_sum_ms
    }

    /// Ack-tree edges retired by ackers.
    #[must_use]
    pub fn acks(&self) -> u64 {
        self.acks
    }

    /// Tuple transfers of one locality class, and their payload bytes.
    #[must_use]
    pub fn transfers(&self, hop: HopClass) -> (u64, u64) {
        self.transfers[hop as usize]
    }

    /// Assignments applied to the cluster: the initial one, then one per
    /// Storm-mode rollout and one per T-Storm per-node switch.
    #[must_use]
    pub fn assignments_applied(&self) -> u64 {
        self.assignment_version
    }

    /// Assignments that re-placed executors after a crash fault.
    #[must_use]
    pub fn recovery_reassignments(&self) -> u64 {
        self.recovery_reassignments
    }

    /// Every executor's receive-queue depth at the latest supervisor
    /// poll, indexed by executor id; `None` unless
    /// [`Simulation::sample_queue_depths`] asked for it, empty before
    /// the first poll after that.
    #[must_use]
    pub fn queue_depth_sample(&self) -> Option<&[usize]> {
        self.queue_depth_sample.as_deref()
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use tstorm_types::DetRng;

    /// Checks every pair read-out of `c` against the model.
    fn assert_matches(c: &SimCounters, model: &BTreeMap<(u32, u32), u64>, rng: &mut DetRng) {
        let got: Vec<(u32, u32, u64)> = c
            .pair_tuples()
            .map(|(f, t, n)| (f.index(), t.index(), n))
            .collect();
        let want: Vec<(u32, u32, u64)> = model.iter().map(|(&(f, t), &n)| (f, t, n)).collect();
        assert_eq!(got, want, "pair_tuples() order and values");
        for (&(f, t), &n) in model {
            assert_eq!(
                c.pair(ExecutorId::new(f), ExecutorId::new(t)),
                n,
                "{f}->{t}"
            );
        }
        for _ in 0..200 {
            let (f, t) = (rng.below(6_000) as u32, rng.below(6_000) as u32);
            let want = model.get(&(f, t)).copied().unwrap_or(0);
            assert_eq!(c.pair(ExecutorId::new(f), ExecutorId::new(t)), want);
        }
        assert_eq!(c.pair(ExecutorId::new(u32::MAX), ExecutorId::new(0)), 0);
        assert_eq!(c.pairs_observed(), model.len());
        assert_eq!(c.is_empty(), model.is_empty());
    }

    /// Seeded transfers across several drains against a `BTreeMap`
    /// model: sparse ids, sources past the row count the window was
    /// sized for, self-pairs, one source with hundreds of destinations,
    /// and an empty window.
    #[test]
    fn pair_counters_match_a_btreemap_model_across_drains() {
        let mut rng = DetRng::seed_from(0x5eed_c0de);
        let sparse: Vec<u32> = (0..48).map(|_| rng.below(5_000) as u32).collect();
        let hub = 4_321u32;
        let mut executors = 64usize;
        let mut live = SimCounters::default();
        live.ensure_executors(executors);
        for window in 0..7 {
            let mut model: BTreeMap<(u32, u32), u64> = BTreeMap::new();
            let transfers = if window == 3 {
                0
            } else {
                500 + rng.below(3_000)
            };
            for i in 0..transfers {
                let from = match rng.below(8) {
                    0 => hub,
                    1 => rng.below(executors) as u32,
                    _ => sparse[rng.below(sparse.len())],
                };
                let to = match rng.below(8) {
                    0 => from,
                    1 if from == hub => 10_000 + rng.below(700) as u32,
                    _ => sparse[rng.below(sparse.len())],
                };
                live.add_pair(from as usize, to as usize);
                *model.entry((from, to)).or_insert(0) += 1;
                if i == transfers / 2 {
                    // A topology submitted mid-window keeps what was
                    // recorded so far.
                    executors += 16;
                    live.ensure_executors(executors);
                    assert_matches(&live, &model, &mut rng);
                }
            }
            for k in 0..700 {
                // The hub reaches several hundred destinations in every
                // non-empty window, some of them more than once.
                if window != 3 {
                    let to = 10_000 + (k * 7) % 601;
                    live.add_pair(hub as usize, to as usize);
                    *model.entry((hub, to)).or_insert(0) += 1;
                }
            }
            let drained = live.drain(executors);
            assert_matches(&drained, &model, &mut rng);
            assert!(live.is_empty(), "a drain leaves zeroed counters");
            assert_eq!(live.pairs_observed(), 0);
            assert_eq!(live.pair_tuples().count(), 0);
            if window != 3 {
                let hub_row = model.keys().filter(|(f, _)| *f == hub).count();
                assert!(hub_row >= 500, "hub reached {hub_row} destinations");
            }
        }
    }
}
