//! The scheduling problem instance (Table I of the paper), and the
//! traffic adjacency the schedulers read it through.
//!
//! The adjacency gives each executor a row of the matrix entries that
//! touch it, in key order, while storing each pair once: the matrix's
//! own sorted entries serve as every executor's outgoing row, and a
//! transposed index of `u32` matrix indexes lists the incoming ones.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::Arc;
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
/// The invariant: keys are strictly increasing in `(from, to)`, so a
/// pair is held at most once and one executor's outgoing entries are
/// contiguous. [`TrafficMatrix::set`] and collecting store only rates
/// above zero; [`TrafficMatrix::add`] stores any nonzero sum, so adding
/// a negative rate can leave an entry at zero or below. The load
/// monitor's matrices hold positive rates only. The schedulers'
/// adjacency indexes the entries and relies on the key order alone.
///
/// The array is shared and copied on write. A clone only counts one
/// more reference to it, and [`TrafficMatrix::set`] and
/// [`TrafficMatrix::add`] copy it only while another holder shares it,
/// so no edit ever shows through another matrix. The conversion from
/// an `Arc<Vec<_>>` keeps entries that already hold the invariant with
/// positive rates, without a copy: the load monitor's database hands
/// the scheduler its own estimates this way.
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
    entries: Arc<Vec<(ExecutorId, ExecutorId, f64)>>,
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

    /// The entries for writing, copied first if they are shared.
    fn entries_mut(&mut self) -> &mut Vec<(ExecutorId, ExecutorId, f64)> {
        Arc::make_mut(&mut self.entries)
    }

    /// Sets the traffic rate from `from` to `to` (tuples/second).
    pub fn set(&mut self, from: ExecutorId, to: ExecutorId, rate: f64) {
        match (self.find(from, to), rate > 0.0) {
            (Ok(i), true) => self.entries_mut()[i].2 = rate,
            (Err(i), true) => self.entries_mut().insert(i, (from, to, rate)),
            (Ok(i), false) => {
                self.entries_mut().remove(i);
            }
            (Err(_), false) => {}
        }
    }

    /// Adds to the traffic rate from `from` to `to`.
    pub fn add(&mut self, from: ExecutorId, to: ExecutorId, rate: f64) {
        if rate != 0.0 {
            match self.find(from, to) {
                Ok(i) => self.entries_mut()[i].2 += rate,
                Err(i) => self.entries_mut().insert(i, (from, to, 0.0 + rate)),
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
        for &(f, t, r) in self.entries.iter() {
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

/// Takes `(from, to, rate)` triples and keeps those with a rate above
/// zero; if a kept pair repeats, its last rate wins. Non-positive
/// rates are dropped before repeats resolve, so unlike
/// [`TrafficMatrix::set`] they never remove a pair:
/// `[(a, b, 5.0), (a, b, 0.0)]` collects to `{(a, b): 5.0}`, while
/// setting the same triples in turn leaves the matrix empty. Input
/// already in strictly increasing key order is kept as it is, in one
/// pass; any other input is stably sorted in place.
impl From<Vec<(ExecutorId, ExecutorId, f64)>> for TrafficMatrix {
    fn from(mut entries: Vec<(ExecutorId, ExecutorId, f64)>) -> Self {
        entries.retain(|(_, _, rate)| *rate > 0.0);
        if !keys_increase(&entries) {
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
        Self {
            entries: Arc::new(entries),
        }
    }
}

/// Takes shared `(from, to, rate)` triples. If their keys strictly
/// increase and every rate is above zero, the matrix keeps the shared
/// array as it is, after one checking walk; the caller and the matrix
/// then hold the same entries, and a write by either copies them
/// first. Any other input is normalised on a copy under the rules of
/// the `From<Vec<_>>` conversion (an array no one else holds is
/// normalised in place).
impl From<Arc<Vec<(ExecutorId, ExecutorId, f64)>>> for TrafficMatrix {
    fn from(entries: Arc<Vec<(ExecutorId, ExecutorId, f64)>>) -> Self {
        if entries.iter().all(|(_, _, rate)| *rate > 0.0) && keys_increase(&entries) {
            Self { entries }
        } else {
            Self::from(Arc::try_unwrap(entries).unwrap_or_else(|shared| shared.to_vec()))
        }
    }
}

/// True if the keys of `entries` strictly increase in `(from, to)`.
fn keys_increase(entries: &[(ExecutorId, ExecutorId, f64)]) -> bool {
    entries
        .windows(2)
        .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1))
}

/// Collects `(from, to, rate)` triples under the rules of the
/// `From<Vec<_>>` conversion.
impl FromIterator<(ExecutorId, ExecutorId, f64)> for TrafficMatrix {
    fn from_iter<I: IntoIterator<Item = (ExecutorId, ExecutorId, f64)>>(iter: I) -> Self {
        Self::from(iter.into_iter().collect::<Vec<_>>())
    }
}

/// One item of an [`Adjacency`] row: the other endpoint of a matrix
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

/// The undirected traffic adjacency of an input's executors, over the
/// traffic matrix's own entries.
///
/// Row `p` belongs to the executor at position `p` of
/// [`SchedulingInput::executors`]. It lists every matrix entry touching
/// that executor, in matrix key order, so sums over a row repeat the
/// same float additions in the same order on every build. A neighbour
/// outside the input stays in the row with its id (its traffic counts
/// toward the executor's total), and a self-pair appears twice, once
/// per endpoint.
///
/// Each pair is stored once. The matrix's `(from, to)`-sorted entries
/// are every executor's outgoing row, found through one `(start, end)`
/// bound per position. A transposed index holds each position's
/// incoming entries as `u32` matrix indexes in key order: 4 bytes a
/// pair, and no rate is copied. A row merges the two by matrix index:
/// incoming entries with a lower `from`, then the outgoing entries,
/// then incoming entries with a higher `from`. A self-pair is both
/// outgoing and incoming, so the merge yields it twice.
#[derive(Debug)]
pub(crate) struct Adjacency<'a> {
    /// The matrix's entries, strictly increasing in `(from, to)`.
    entries: &'a [(ExecutorId, ExecutorId, f64)],
    /// Position of each executor id, or [`Self::OUTSIDE`].
    positions: Vec<u32>,
    /// Position `p`'s outgoing entries are
    /// `entries[outgoing[p].0..outgoing[p].1]`.
    outgoing: Vec<(u32, u32)>,
    /// Position `p`'s incoming entries are the matrix indexes
    /// `incoming[offsets[p]..offsets[p + 1]]`, ascending.
    offsets: Vec<usize>,
    incoming: Vec<u32>,
}

impl<'a> Adjacency<'a> {
    /// The position of a neighbour that is not in the input.
    pub(crate) const OUTSIDE: u32 = u32::MAX;

    /// Bounds the outgoing rows and builds the incoming index with one
    /// counting and one filling walk over the matrix.
    pub(crate) fn build(input: &'a SchedulingInput) -> Self {
        let entries = input.traffic.entries.as_slice();
        // Matrix indexes are held as `u32`.
        assert!(
            u32::try_from(entries.len()).is_ok(),
            "fewer than 2^32 traffic entries"
        );
        // Positions by executor id. Ids are minted densely, so the
        // table is about as long as the input.
        let ids = input.executors.iter().map(|e| e.id.as_usize() + 1).max();
        let mut positions = vec![Self::OUTSIDE; ids.unwrap_or(0)];
        for (p, e) in input.executors.iter().enumerate() {
            positions[e.id.as_usize()] = u32::try_from(p).expect("fewer than 2^32 executors");
        }
        let pos = |id| position(&positions, id);
        let n = input.executors.len();
        let mut outgoing = vec![(0, 0); n];
        let mut start = 0;
        for run in entries.chunk_by(|a, b| a.0 == b.0) {
            let end = start + run.len();
            let p = pos(run[0].0);
            if p != Self::OUTSIDE {
                outgoing[p as usize] = (start as u32, end as u32);
            }
            start = end;
        }
        let mut offsets = vec![0usize; n + 1];
        for &(_, to, _) in entries {
            let p = pos(to);
            if p != Self::OUTSIDE {
                offsets[p as usize + 1] += 1;
            }
        }
        for p in 0..n {
            offsets[p + 1] += offsets[p];
        }
        let mut fill = offsets.clone();
        let mut incoming = vec![0u32; offsets[n]];
        for (i, &(_, to, _)) in entries.iter().enumerate() {
            let p = pos(to);
            if p != Self::OUTSIDE {
                let slot = &mut fill[p as usize];
                incoming[*slot] = i as u32;
                *slot += 1;
            }
        }
        Self {
            entries,
            positions,
            outgoing,
            offsets,
            incoming,
        }
    }

    /// Each position's row total: its row's rates added in row order,
    /// a self-pair twice. One walk over the matrix in key order visits
    /// every row's entries in that order.
    pub(crate) fn totals(&self) -> Vec<f64> {
        let mut totals = vec![0.0; self.outgoing.len()];
        for &(from, to, rate) in self.entries {
            for id in [from, to] {
                let p = position(&self.positions, id);
                if p != Self::OUTSIDE {
                    totals[p as usize] += rate;
                }
            }
        }
        totals
    }

    /// The row of the executor at position `pos`.
    pub(crate) fn row(&self, pos: usize) -> Row<'_> {
        let (start, end) = self.outgoing[pos];
        Row {
            entries: self.entries,
            positions: &self.positions,
            outgoing: start..end,
            incoming: &self.incoming[self.offsets[pos]..self.offsets[pos + 1]],
        }
    }

    /// Groups the row of executor `id`, at position `pos`, by neighbour
    /// into `out`, reusing its buffer.
    pub(crate) fn group_row(&self, pos: usize, id: ExecutorId, out: &mut RowTraffic) {
        // A self-pair sits in its row twice, once per endpoint; it
        // counts once.
        let mut self_seen = false;
        out.total = self
            .row(pos)
            .filter(|nb| nb.id != id || !std::mem::replace(&mut self_seen, true))
            .map(|nb| nb.rate)
            .sum();
        let neighbours = &mut out.neighbours;
        neighbours.clear();
        neighbours.extend(self.row(pos).filter(|nb| nb.id != id));
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

/// The items of one [`Adjacency`] row: its outgoing entries and its
/// incoming index merged by matrix index.
pub(crate) struct Row<'r> {
    entries: &'r [(ExecutorId, ExecutorId, f64)],
    positions: &'r [u32],
    /// Matrix indexes of the outgoing entries not yet yielded.
    outgoing: Range<u32>,
    /// Matrix indexes of the incoming entries not yet yielded.
    incoming: &'r [u32],
}

impl Iterator for Row<'_> {
    type Item = Neighbour;

    #[inline]
    fn next(&mut self) -> Option<Neighbour> {
        // On a self-pair's tie the outgoing copy goes first; the two
        // copies are the same item.
        let (i, incoming) = match self.incoming.split_first() {
            Some((&i, rest)) if self.outgoing.is_empty() || i < self.outgoing.start => {
                self.incoming = rest;
                (i, true)
            }
            _ => (self.outgoing.next()?, false),
        };
        let (from, to, rate) = self.entries[i as usize];
        let id = if incoming { from } else { to };
        Some(Neighbour {
            id,
            pos: position(self.positions, id),
            rate,
        })
    }
}

/// The position of executor `id` in a table indexed by id, or
/// [`Adjacency::OUTSIDE`].
fn position(positions: &[u32], id: ExecutorId) -> u32 {
    positions
        .get(id.as_usize())
        .copied()
        .unwrap_or(Adjacency::OUTSIDE)
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
        // A non-positive rate removes a pair under `set` but is dropped
        // before repeats resolve when collecting.
        let repeat = [(e(0), e(1), 5.0), (e(0), e(1), 0.0)];
        let collected: TrafficMatrix = repeat.into_iter().collect();
        let mut set = TrafficMatrix::new();
        for (from, to, rate) in repeat {
            set.set(from, to, rate);
        }
        assert_eq!(
            collected.iter().collect::<Vec<_>>(),
            vec![(e(0), e(1), 5.0)]
        );
        assert!(set.is_empty());
    }

    #[test]
    fn clones_share_entries_until_a_write() {
        let mut a = TrafficMatrix::new();
        a.set(e(0), e(1), 10.0);
        a.set(e(1), e(2), 20.0);
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.entries, &b.entries));
        // Setting an absent pair to zero writes nothing.
        b.set(e(5), e(6), 0.0);
        assert!(Arc::ptr_eq(&a.entries, &b.entries));
        b.add(e(0), e(1), 5.0);
        assert!(!Arc::ptr_eq(&a.entries, &b.entries));
        assert_eq!(a.get(e(0), e(1)), 10.0);
        assert_eq!(b.get(e(0), e(1)), 15.0);
        // Entries held alone are written in place.
        let held = Arc::as_ptr(&b.entries);
        b.set(e(1), e(2), 1.0);
        assert_eq!(Arc::as_ptr(&b.entries), held);
        assert_eq!(a.get(e(1), e(2)), 20.0);
    }

    #[test]
    fn shared_entries_are_kept_only_when_normal() {
        let normal = Arc::new(vec![
            (e(0), e(1), 1.0),
            (e(0), e(2), 2.0),
            (e(1), e(0), 3.0),
        ]);
        let m = TrafficMatrix::from(Arc::clone(&normal));
        assert!(Arc::ptr_eq(&m.entries, &normal));
        // Out of order, a repeated pair, a non-positive rate: each is
        // normalised on a copy, as the `Vec` conversion would.
        for entries in [
            vec![(e(1), e(0), 3.0), (e(0), e(1), 1.0)],
            vec![(e(0), e(1), 1.0), (e(0), e(1), 2.0)],
            vec![(e(0), e(1), 0.0), (e(0), e(2), 2.0)],
            vec![(e(0), e(1), -1.0)],
        ] {
            let shared = Arc::new(entries.clone());
            let m = TrafficMatrix::from(Arc::clone(&shared));
            assert!(!Arc::ptr_eq(&m.entries, &shared));
            assert_eq!(*shared, entries, "the caller's array is untouched");
            assert_eq!(m, TrafficMatrix::from(entries));
        }
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
