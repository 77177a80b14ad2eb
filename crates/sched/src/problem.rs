//! The scheduling problem instance (Table I of the paper).

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use tstorm_cluster::{ClusterSpec, ExecutorCtx};
use tstorm_types::{ComponentId, ExecutorId, Mhz, TopologyId};

/// Everything the schedulers need to know about one executor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutorInfo {
    /// Global executor id (`i`).
    pub id: ExecutorId,
    /// Owning topology.
    pub topology: TopologyId,
    /// Owning component within the topology.
    pub component: ComponentId,
    /// Estimated CPU workload (`l_i`), from the load monitor's EWMA.
    pub load: Mhz,
}

impl ExecutorInfo {
    /// Creates an executor description.
    #[must_use]
    pub fn new(id: ExecutorId, topology: TopologyId, component: ComponentId, load: Mhz) -> Self {
        Self {
            id,
            topology,
            component,
            load,
        }
    }
}

/// The directed inter-executor traffic estimate `r_{ii'}` in tuples per
/// second, from the load monitor's EWMA.
///
/// Entries are sparse: absent pairs carry zero traffic. They are held
/// as one flat array sorted by `(from, to)`, so iteration order is
/// deterministic, which keeps the greedy schedulers reproducible, and
/// the whole path from the monitor's estimates to Algorithm 1 is linear
/// walks over sorted arrays.
///
/// # Example
///
/// ```
/// use tstorm_sched::TrafficMatrix;
/// use tstorm_types::ExecutorId;
///
/// let mut m = TrafficMatrix::new();
/// m.set(ExecutorId::new(0), ExecutorId::new(1), 150.0);
/// m.add(ExecutorId::new(1), ExecutorId::new(0), 50.0);
/// // Algorithm 1 sorts executors by total (in + out) traffic:
/// assert_eq!(m.total_of(ExecutorId::new(0)), 200.0);
/// assert_eq!(m.between(ExecutorId::new(0), ExecutorId::new(1)), 200.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TrafficMatrix {
    /// `(from, to, rate)`, strictly increasing in `(from, to)`.
    entries: Vec<(ExecutorId, ExecutorId, f64)>,
}

impl TrafficMatrix {
    /// Creates an empty matrix.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn find(&self, from: ExecutorId, to: ExecutorId) -> Result<usize, usize> {
        self.entries
            .binary_search_by(|&(f, t, _)| (f, t).cmp(&(from, to)))
    }

    /// Sets the traffic rate from `from` to `to` (tuples/second).
    pub fn set(&mut self, from: ExecutorId, to: ExecutorId, rate: f64) {
        match (self.find(from, to), rate > 0.0) {
            (Ok(i), true) => self.entries[i].2 = rate,
            (Err(i), true) => self.entries.insert(i, (from, to, rate)),
            (Ok(i), false) => {
                self.entries.remove(i);
            }
            (Err(_), false) => {}
        }
    }

    /// Adds to the traffic rate from `from` to `to`.
    pub fn add(&mut self, from: ExecutorId, to: ExecutorId, rate: f64) {
        if rate != 0.0 {
            match self.find(from, to) {
                Ok(i) => self.entries[i].2 += rate,
                Err(i) => self.entries.insert(i, (from, to, 0.0 + rate)),
            }
        }
    }

    /// The directed rate from `from` to `to` (zero if unrecorded).
    #[must_use]
    pub fn get(&self, from: ExecutorId, to: ExecutorId) -> f64 {
        self.find(from, to).map_or(0.0, |i| self.entries[i].2)
    }

    /// The undirected rate between two executors
    /// (`r_{ii'} + r_{i'i}`).
    #[must_use]
    pub fn between(&self, a: ExecutorId, b: ExecutorId) -> f64 {
        self.get(a, b) + self.get(b, a)
    }

    /// Total incoming plus outgoing traffic of one executor — the sort key
    /// of Algorithm 1 line 2.
    #[must_use]
    pub fn total_of(&self, executor: ExecutorId) -> f64 {
        self.entries
            .iter()
            .filter(|(f, t, _)| *f == executor || *t == executor)
            .map(|(_, _, r)| *r)
            .sum()
    }

    /// Iterates `(from, to, rate)` triples in key order.
    pub fn iter(&self) -> impl Iterator<Item = (ExecutorId, ExecutorId, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// All undirected neighbours of one executor with positive traffic,
    /// as `(other, undirected_rate)`.
    #[must_use]
    pub fn neighbours_of(&self, executor: ExecutorId) -> Vec<(ExecutorId, f64)> {
        let mut acc: BTreeMap<ExecutorId, f64> = BTreeMap::new();
        for &(f, t, r) in &self.entries {
            if f == executor {
                *acc.entry(t).or_insert(0.0) += r;
            } else if t == executor {
                *acc.entry(f).or_insert(0.0) += r;
            }
        }
        acc.into_iter().collect()
    }

    /// Number of directed entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no traffic has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of all directed rates.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.entries.iter().map(|(_, _, r)| r).sum()
    }
}

/// Takes `(from, to, rate)` triples, skipping non-positive rates like
/// [`TrafficMatrix::set`]; if a pair repeats, its last rate wins. Input
/// already in strictly increasing key order is kept as it is, in one
/// pass; any other input is stably sorted in place.
impl From<Vec<(ExecutorId, ExecutorId, f64)>> for TrafficMatrix {
    fn from(mut entries: Vec<(ExecutorId, ExecutorId, f64)>) -> Self {
        entries.retain(|(_, _, rate)| *rate > 0.0);
        if !entries
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1))
        {
            entries.sort_by_key(|&(f, t, _)| (f, t));
            // `dedup_by` passes the later entry first and keeps the
            // earlier one, so carry the later rate over.
            entries.dedup_by(|later, kept| {
                let repeat = (later.0, later.1) == (kept.0, kept.1);
                if repeat {
                    kept.2 = later.2;
                }
                repeat
            });
        }
        Self { entries }
    }
}

/// Collects `(from, to, rate)` triples under the rules of the
/// `From<Vec<_>>` conversion.
impl FromIterator<(ExecutorId, ExecutorId, f64)> for TrafficMatrix {
    fn from_iter<I: IntoIterator<Item = (ExecutorId, ExecutorId, f64)>>(iter: I) -> Self {
        Self::from(iter.into_iter().collect::<Vec<_>>())
    }
}

/// One entry of an [`Adjacency`] row: the other endpoint of a matrix
/// entry and that entry's directed rate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Neighbour {
    /// The other endpoint.
    pub(crate) id: ExecutorId,
    /// Its position in [`SchedulingInput::executors`], or
    /// [`Adjacency::OUTSIDE`] when the input does not hold it.
    pub(crate) pos: u32,
    /// The directed rate of the matrix entry.
    pub(crate) rate: f64,
}

/// The undirected traffic adjacency of an input's executors, in
/// compressed sparse rows: one flat entry array plus row offsets.
///
/// Row `p` belongs to the executor at position `p` of
/// [`SchedulingInput::executors`]. It lists every matrix entry touching
/// that executor, in matrix key order, so sums over a row repeat the
/// same float additions in the same order on every build. A neighbour
/// outside the input stays in the row (its traffic counts toward the
/// executor's total), and a self-pair appears twice, once per endpoint.
#[derive(Debug)]
pub(crate) struct Adjacency {
    /// Row `p` is `entries[offsets[p]..offsets[p + 1]]`.
    offsets: Vec<usize>,
    entries: Vec<Neighbour>,
}

impl Adjacency {
    /// The position of a neighbour that is not in the input.
    pub(crate) const OUTSIDE: u32 = u32::MAX;

    /// Builds the rows with one counting and one filling walk over the
    /// matrix.
    pub(crate) fn build(input: &SchedulingInput) -> Self {
        // Positions by executor id. Ids are minted densely, so the
        // table is about as long as the input.
        let ids = input.executors.iter().map(|e| e.id.as_usize() + 1).max();
        let mut positions = vec![Self::OUTSIDE; ids.unwrap_or(0)];
        for (p, e) in input.executors.iter().enumerate() {
            positions[e.id.as_usize()] = u32::try_from(p).expect("fewer than 2^32 executors");
        }
        let pos = |id: ExecutorId| {
            positions
                .get(id.as_usize())
                .copied()
                .unwrap_or(Self::OUTSIDE)
        };
        let n = input.executors.len();
        let mut offsets = vec![0usize; n + 1];
        for (from, to, _) in input.traffic.iter() {
            for p in [pos(from), pos(to)] {
                if p != Self::OUTSIDE {
                    offsets[p as usize + 1] += 1;
                }
            }
        }
        for p in 0..n {
            offsets[p + 1] += offsets[p];
        }
        let mut fill = offsets.clone();
        let empty = Neighbour {
            id: ExecutorId::new(0),
            pos: Self::OUTSIDE,
            rate: 0.0,
        };
        let mut entries = vec![empty; offsets[n]];
        for (from, to, rate) in input.traffic.iter() {
            let (pf, pt) = (pos(from), pos(to));
            for (p, id, other) in [(pf, to, pt), (pt, from, pf)] {
                if p != Self::OUTSIDE {
                    let slot = &mut fill[p as usize];
                    entries[*slot] = Neighbour {
                        id,
                        pos: other,
                        rate,
                    };
                    *slot += 1;
                }
            }
        }
        Self { offsets, entries }
    }

    /// The row of the executor at position `pos`.
    pub(crate) fn row(&self, pos: usize) -> &[Neighbour] {
        &self.entries[self.offsets[pos]..self.offsets[pos + 1]]
    }

    /// Groups the row of executor `id`, at position `pos`, by neighbour
    /// into `out`, reusing its buffer.
    pub(crate) fn group_row(&self, pos: usize, id: ExecutorId, out: &mut RowTraffic) {
        let row = self.row(pos);
        // A self-pair sits in its row twice, once per endpoint; it
        // counts once.
        let mut self_seen = false;
        out.total = row
            .iter()
            .filter(|nb| nb.id != id || !std::mem::replace(&mut self_seen, true))
            .map(|nb| nb.rate)
            .sum();
        let neighbours = &mut out.neighbours;
        neighbours.clear();
        neighbours.extend(row.iter().filter(|nb| nb.id != id));
        // The stable sort keeps each neighbour's two directions in key
        // order; the merge adds them onto `0.0`.
        neighbours.sort_by_key(|nb| nb.id);
        let mut merged = 0;
        for i in 0..neighbours.len() {
            let nb = neighbours[i];
            if merged > 0 && neighbours[merged - 1].id == nb.id {
                neighbours[merged - 1].rate += nb.rate;
            } else {
                neighbours[merged] = Neighbour {
                    rate: 0.0 + nb.rate,
                    ..nb
                };
                merged += 1;
            }
        }
        neighbours.truncate(merged);
    }
}

/// One executor's traffic grouped by neighbour, from its
/// [`Adjacency`] row.
///
/// The sums repeat a per-executor scan of the matrix bit for bit:
/// `total` adds the touching entries in key order, a self-pair once
/// (as [`TrafficMatrix::total_of`] does), and `neighbours` lists every
/// other executor in id order with its undirected rate `0.0 + r(a,b) +
/// r(b,a)` in [`Neighbour::rate`], the two directions added in key order
/// (as [`TrafficMatrix::neighbours_of`] does, less the executor itself).
#[derive(Debug, Default)]
pub(crate) struct RowTraffic {
    /// Incoming plus outgoing traffic (tuples/s).
    pub(crate) total: f64,
    /// Neighbours in id order, each with its undirected rate.
    pub(crate) neighbours: Vec<Neighbour>,
}

/// Tunable scheduling parameters (Section IV-C), adjustable on the fly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedParams {
    /// The consolidation factor γ: each node may host at most
    /// `⌈γ·Ne/K⌉` executors. `γ = 1` spreads executors almost evenly over
    /// all nodes; larger γ consolidates onto fewer nodes.
    pub gamma: f64,
    /// Fraction of each node's capacity `C_k` the scheduler may fill —
    /// "the capacity of worker node k can be set to a fraction of its
    /// actual capacity to prevent overloading".
    pub capacity_fraction: f64,
    /// The user-requested number of workers per topology (`Nu`), consumed
    /// by the round-robin schedulers.
    pub workers_requested: BTreeMap<TopologyId, u32>,
}

impl Default for SchedParams {
    fn default() -> Self {
        Self {
            gamma: 1.0,
            capacity_fraction: 1.0,
            workers_requested: BTreeMap::new(),
        }
    }
}

impl SchedParams {
    /// Builder-style γ override.
    #[must_use]
    pub fn with_gamma(mut self, gamma: f64) -> Self {
        self.gamma = gamma;
        self
    }

    /// Builder-style capacity-fraction override.
    #[must_use]
    pub fn with_capacity_fraction(mut self, fraction: f64) -> Self {
        self.capacity_fraction = fraction;
        self
    }

    /// Builder-style per-topology worker request.
    #[must_use]
    pub fn with_workers(mut self, topology: TopologyId, workers: u32) -> Self {
        self.workers_requested.insert(topology, workers);
        self
    }

    /// Workers requested for a topology (Storm's default config is 1).
    #[must_use]
    pub fn workers_for(&self, topology: TopologyId) -> u32 {
        self.workers_requested.get(&topology).copied().unwrap_or(1)
    }
}

/// One scheduling problem instance: `(E, S, <r_ii'>, <l_i>)` plus
/// parameters.
#[derive(Debug, Clone)]
pub struct SchedulingInput {
    /// The physical cluster (provides `S`, `ω(j)` and `C_k`).
    pub cluster: ClusterSpec,
    /// All executors of all topologies (`E`, with `|E| = Ne`).
    pub executors: Vec<ExecutorInfo>,
    /// Estimated inter-executor traffic (`<r_ii'>`).
    pub traffic: TrafficMatrix,
    /// Tunables.
    pub params: SchedParams,
    /// Component adjacency per topology `(topology, from, to)` — used only
    /// by the Aniello *offline* scheduler, which looks at the topology
    /// graph instead of runtime traffic.
    pub component_edges: Vec<(TopologyId, ComponentId, ComponentId)>,
}

impl SchedulingInput {
    /// Creates an input without component-edge information.
    #[must_use]
    pub fn new(
        cluster: ClusterSpec,
        executors: Vec<ExecutorInfo>,
        traffic: TrafficMatrix,
        params: SchedParams,
    ) -> Self {
        Self {
            cluster,
            executors,
            traffic,
            params,
            component_edges: Vec::new(),
        }
    }

    /// Builder-style attachment of component edges (for the offline
    /// baseline).
    #[must_use]
    pub fn with_component_edges(
        mut self,
        edges: Vec<(TopologyId, ComponentId, ComponentId)>,
    ) -> Self {
        self.component_edges = edges;
        self
    }

    /// Number of executors (`Ne`).
    #[must_use]
    pub fn num_executors(&self) -> usize {
        self.executors.len()
    }

    /// The executor-context map used by assignment validation.
    #[must_use]
    pub fn executor_ctx(&self) -> HashMap<ExecutorId, ExecutorCtx> {
        self.executors
            .iter()
            .map(|e| {
                (
                    e.id,
                    ExecutorCtx {
                        topology: e.topology,
                        load: e.load,
                    },
                )
            })
            .collect()
    }

    /// Distinct topologies present, in id order.
    #[must_use]
    pub fn topologies(&self) -> Vec<TopologyId> {
        let mut ids: Vec<TopologyId> = self.executors.iter().map(|e| e.topology).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The per-node executor cap `⌈γ·Ne/K⌉` (at least 1). `K` counts
    /// *live* nodes: when part of the cluster is down, the surviving
    /// nodes must be allowed to absorb the displaced executors.
    #[must_use]
    pub fn node_executor_cap(&self) -> usize {
        let k = self.cluster.num_live_nodes().max(1) as f64;
        let ne = self.num_executors() as f64;
        ((self.params.gamma * ne / k).ceil() as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tstorm_types::Mhz;

    fn e(id: u32) -> ExecutorId {
        ExecutorId::new(id)
    }

    #[test]
    fn traffic_matrix_basics() {
        let mut m = TrafficMatrix::new();
        m.set(e(0), e(1), 10.0);
        m.add(e(0), e(1), 5.0);
        m.add(e(1), e(0), 3.0);
        assert_eq!(m.get(e(0), e(1)), 15.0);
        assert_eq!(m.get(e(1), e(0)), 3.0);
        assert_eq!(m.between(e(0), e(1)), 18.0);
        assert_eq!(m.total_of(e(0)), 18.0);
        assert_eq!(m.total_of(e(1)), 18.0);
        assert_eq!(m.total_of(e(2)), 0.0);
        assert_eq!(m.len(), 2);
        assert_eq!(m.total(), 18.0);
        assert!(!m.is_empty());
    }

    #[test]
    fn collecting_matches_repeated_set() {
        let triples = [
            (e(2), e(0), 4.0),
            (e(0), e(1), 10.0),
            (e(0), e(3), 0.0),
            (e(1), e(2), -1.0),
            (e(0), e(1), 7.0),
        ];
        let collected: TrafficMatrix = triples.into_iter().collect();
        let mut set = TrafficMatrix::new();
        for (from, to, rate) in triples {
            set.set(from, to, rate);
        }
        assert_eq!(collected, set);
        assert_eq!(
            collected.iter().collect::<Vec<_>>(),
            vec![(e(0), e(1), 7.0), (e(2), e(0), 4.0)]
        );
    }

    #[test]
    fn traffic_set_zero_removes() {
        let mut m = TrafficMatrix::new();
        m.set(e(0), e(1), 10.0);
        m.set(e(0), e(1), 0.0);
        assert!(m.is_empty());
    }

    #[test]
    fn neighbours_merge_directions() {
        let mut m = TrafficMatrix::new();
        m.set(e(0), e(1), 2.0);
        m.set(e(1), e(0), 3.0);
        m.set(e(0), e(2), 1.0);
        let n = m.neighbours_of(e(0));
        assert_eq!(n, vec![(e(1), 5.0), (e(2), 1.0)]);
    }

    #[test]
    fn node_cap_follows_gamma() {
        let cluster = ClusterSpec::homogeneous(10, 4, Mhz::new(4000.0)).unwrap();
        let executors: Vec<ExecutorInfo> = (0..45)
            .map(|i| {
                ExecutorInfo::new(
                    e(i),
                    TopologyId::new(0),
                    ComponentId::new(0),
                    Mhz::new(10.0),
                )
            })
            .collect();
        let mk = |gamma| {
            SchedulingInput::new(
                cluster.clone(),
                executors.clone(),
                TrafficMatrix::new(),
                SchedParams::default().with_gamma(gamma),
            )
        };
        assert_eq!(mk(1.0).node_executor_cap(), 5); // ceil(45/10)
        assert_eq!(mk(1.7).node_executor_cap(), 8); // ceil(1.7*4.5)
        assert_eq!(mk(6.0).node_executor_cap(), 27);
    }

    #[test]
    fn params_accessors() {
        let p = SchedParams::default()
            .with_gamma(2.0)
            .with_capacity_fraction(0.8)
            .with_workers(TopologyId::new(0), 40);
        assert_eq!(p.gamma, 2.0);
        assert_eq!(p.capacity_fraction, 0.8);
        assert_eq!(p.workers_for(TopologyId::new(0)), 40);
        assert_eq!(p.workers_for(TopologyId::new(9)), 1);
    }

    #[test]
    fn topologies_deduped() {
        let cluster = ClusterSpec::homogeneous(1, 1, Mhz::new(100.0)).unwrap();
        let input = SchedulingInput::new(
            cluster,
            vec![
                ExecutorInfo::new(e(0), TopologyId::new(1), ComponentId::new(0), Mhz::ZERO),
                ExecutorInfo::new(e(1), TopologyId::new(0), ComponentId::new(0), Mhz::ZERO),
                ExecutorInfo::new(e(2), TopologyId::new(1), ComponentId::new(1), Mhz::ZERO),
            ],
            TrafficMatrix::new(),
            SchedParams::default(),
        );
        assert_eq!(
            input.topologies(),
            vec![TopologyId::new(0), TopologyId::new(1)]
        );
        assert_eq!(input.executor_ctx().len(), 3);
    }
}
