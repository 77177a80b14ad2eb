//! Executor-to-slot assignments — the paper's `X = <x_ij>` — and the
//! algebra schedulers and supervisors need on top of them.

use crate::spec::ClusterSpec;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use tstorm_types::{ExecutorId, Mhz, NodeId, SlotId, TopologyId};

/// Per-executor context needed to check assignment constraints: which
/// topology the executor belongs to and its current estimated workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutorCtx {
    /// Owning topology.
    pub topology: TopologyId,
    /// Estimated CPU workload (`l_i`).
    pub load: Mhz,
}

/// A total or partial mapping of executors to slots.
///
/// Internally a `BTreeMap` so iteration order is deterministic — important
/// for reproducible simulations and stable diffing.
///
/// # Example
///
/// ```
/// use tstorm_cluster::Assignment;
/// use tstorm_types::{ExecutorId, SlotId};
///
/// let mut a = Assignment::new();
/// a.assign(ExecutorId::new(0), SlotId::new(3));
/// a.assign(ExecutorId::new(1), SlotId::new(3));
/// assert_eq!(a.executors_on_slot(SlotId::new(3)).len(), 2);
///
/// let mut b = a.clone();
/// b.assign(ExecutorId::new(1), SlotId::new(4));
/// let diff = a.diff(&b);
/// assert_eq!(diff.moved.len(), 1); // the supervisor restarts both slots
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Assignment {
    map: BTreeMap<ExecutorId, SlotId>,
}

/// The difference between two assignments, from a supervisor's viewpoint:
/// which slots' executor sets changed (those workers must be restarted),
/// and which executors moved.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AssignmentDiff {
    /// Slots whose executor set changed in any way (worker restart).
    pub changed_slots: BTreeSet<SlotId>,
    /// Executors present only in the new assignment.
    pub added: BTreeSet<ExecutorId>,
    /// Executors present only in the old assignment.
    pub removed: BTreeSet<ExecutorId>,
    /// Executors present in both but on a different slot.
    pub moved: BTreeSet<ExecutorId>,
}

impl AssignmentDiff {
    /// True if the two assignments are identical.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.changed_slots.is_empty()
            && self.added.is_empty()
            && self.removed.is_empty()
            && self.moved.is_empty()
    }
}

impl Assignment {
    /// Creates an empty assignment.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns an executor to a slot, returning the previous slot if the
    /// executor was already assigned.
    pub fn assign(&mut self, executor: ExecutorId, slot: SlotId) -> Option<SlotId> {
        self.map.insert(executor, slot)
    }

    /// Removes an executor from the assignment.
    pub fn unassign(&mut self, executor: ExecutorId) -> Option<SlotId> {
        self.map.remove(&executor)
    }

    /// The slot an executor is assigned to, if any.
    #[must_use]
    pub fn slot_of(&self, executor: ExecutorId) -> Option<SlotId> {
        self.map.get(&executor).copied()
    }

    /// Number of assigned executors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no executor is assigned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates `(executor, slot)` pairs in executor order.
    pub fn iter(&self) -> impl Iterator<Item = (ExecutorId, SlotId)> + '_ {
        self.map.iter().map(|(e, s)| (*e, *s))
    }

    /// Executors assigned to the given slot, in id order.
    #[must_use]
    pub fn executors_on_slot(&self, slot: SlotId) -> Vec<ExecutorId> {
        self.map
            .iter()
            .filter(|(_, s)| **s == slot)
            .map(|(e, _)| *e)
            .collect()
    }

    /// The set of slots that host at least one executor.
    #[must_use]
    pub fn slots_used(&self) -> BTreeSet<SlotId> {
        self.map.values().copied().collect()
    }

    /// The set of nodes that host at least one executor.
    #[must_use]
    pub fn nodes_used(&self, cluster: &ClusterSpec) -> BTreeSet<NodeId> {
        self.map.values().map(|s| cluster.node_of(*s)).collect()
    }

    /// Total estimated load per node, given executor contexts.
    #[must_use]
    pub fn node_loads(
        &self,
        cluster: &ClusterSpec,
        ctx: &HashMap<ExecutorId, ExecutorCtx>,
    ) -> HashMap<NodeId, Mhz> {
        let mut loads: HashMap<NodeId, Mhz> = HashMap::new();
        for (e, s) in &self.map {
            let node = cluster.node_of(*s);
            let load = ctx.get(e).map_or(Mhz::ZERO, |c| c.load);
            *loads.entry(node).or_insert(Mhz::ZERO) += load;
        }
        loads
    }

    /// Diffs `self` (old) against `new`, producing what a supervisor needs
    /// to act on a re-assignment.
    #[must_use]
    pub fn diff(&self, new: &Assignment) -> AssignmentDiff {
        let mut d = AssignmentDiff::default();
        for (e, old_slot) in &self.map {
            match new.map.get(e) {
                None => {
                    d.removed.insert(*e);
                    d.changed_slots.insert(*old_slot);
                }
                Some(new_slot) if new_slot != old_slot => {
                    d.moved.insert(*e);
                    d.changed_slots.insert(*old_slot);
                    d.changed_slots.insert(*new_slot);
                }
                Some(_) => {}
            }
        }
        for (e, new_slot) in &new.map {
            if !self.map.contains_key(e) {
                d.added.insert(*e);
                d.changed_slots.insert(*new_slot);
            }
        }
        d
    }

    /// Checks the structural constraints T-Storm enforces (Section IV-C)
    /// and Storm's own slot rule, returning a human-readable description of
    /// each violation:
    ///
    /// 1. every slot id exists in the cluster;
    /// 2. a slot hosts executors of at most one topology (a Storm worker
    ///    belongs to exactly one topology);
    /// 3. on each node, executors of one topology occupy at most one slot
    ///    (T-Storm's anti-inter-process-traffic rule);
    /// 4. if `capacity_fraction` is given, each node's total estimated
    ///    load stays within `capacity_fraction × C_k`.
    #[must_use]
    pub fn constraint_violations(
        &self,
        cluster: &ClusterSpec,
        ctx: &HashMap<ExecutorId, ExecutorCtx>,
        capacity_fraction: Option<f64>,
    ) -> Vec<String> {
        let mut violations = Vec::new();

        for (e, s) in &self.map {
            if s.as_usize() >= cluster.num_slots() {
                violations.push(format!("{e} assigned to nonexistent {s}"));
            }
        }
        if !violations.is_empty() {
            return violations; // later checks would index out of range
        }

        // Rule 2: one topology per slot.
        let mut slot_topo: HashMap<SlotId, TopologyId> = HashMap::new();
        for (e, s) in &self.map {
            if let Some(c) = ctx.get(e) {
                match slot_topo.get(s) {
                    None => {
                        slot_topo.insert(*s, c.topology);
                    }
                    Some(t) if *t != c.topology => {
                        violations.push(format!(
                            "{s} hosts executors of both {t} and {}",
                            c.topology
                        ));
                    }
                    Some(_) => {}
                }
            }
        }

        // Rule 3: per (node, topology), at most one slot.
        let mut node_topo_slots: HashMap<(NodeId, TopologyId), BTreeSet<SlotId>> = HashMap::new();
        for (e, s) in &self.map {
            if let Some(c) = ctx.get(e) {
                node_topo_slots
                    .entry((cluster.node_of(*s), c.topology))
                    .or_default()
                    .insert(*s);
            }
        }
        for ((node, topo), slots) in &node_topo_slots {
            if slots.len() > 1 {
                violations.push(format!(
                    "{topo} uses {} slots on {node}; T-Storm requires at most one",
                    slots.len()
                ));
            }
        }

        // Rule 4: node capacity.
        if let Some(frac) = capacity_fraction {
            for (node, load) in self.node_loads(cluster, ctx) {
                let cap = cluster.node(node).capacity * frac;
                if load > cap {
                    violations.push(format!(
                        "{node} load {load} exceeds {:.0}% of capacity {}",
                        frac * 100.0,
                        cluster.node(node).capacity
                    ));
                }
            }
        }

        violations
    }
}

/// An [`Assignment`] stamped with the schedule-store epoch under which it
/// was published.
///
/// The paper's components communicate through a shared DB; a schedule read
/// from that DB is only meaningful together with its version. Supervisors
/// compare their locally applied epoch against the published one to decide
/// whether a fetch actually carries news, and stale reads (an epoch older
/// than the latest publish) are detectable instead of silently rolling a
/// cluster backwards.
///
/// Epoch `0` is reserved for the initial assignment installed at topology
/// submission; every store publish afterwards uses a strictly increasing
/// epoch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VersionedAssignment {
    /// Monotonically increasing publish version.
    pub epoch: u64,
    /// The executor-to-slot mapping published under that epoch.
    pub assignment: Assignment,
}

impl VersionedAssignment {
    /// Wraps an assignment with its publish epoch.
    pub fn new(epoch: u64, assignment: Assignment) -> Self {
        Self { epoch, assignment }
    }
}

impl FromIterator<(ExecutorId, SlotId)> for Assignment {
    fn from_iter<I: IntoIterator<Item = (ExecutorId, SlotId)>>(iter: I) -> Self {
        Self {
            map: iter.into_iter().collect(),
        }
    }
}

impl Extend<(ExecutorId, SlotId)> for Assignment {
    fn extend<I: IntoIterator<Item = (ExecutorId, SlotId)>>(&mut self, iter: I) {
        self.map.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tstorm_types::Mhz;

    fn cluster() -> ClusterSpec {
        ClusterSpec::homogeneous(2, 2, Mhz::new(1000.0)).expect("valid")
    }

    fn ctx(entries: &[(u32, u32, f64)]) -> HashMap<ExecutorId, ExecutorCtx> {
        entries
            .iter()
            .map(|(e, t, l)| {
                (
                    ExecutorId::new(*e),
                    ExecutorCtx {
                        topology: TopologyId::new(*t),
                        load: Mhz::new(*l),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn assign_and_lookup() {
        let mut a = Assignment::new();
        assert!(a.is_empty());
        a.assign(ExecutorId::new(1), SlotId::new(2));
        assert_eq!(a.slot_of(ExecutorId::new(1)), Some(SlotId::new(2)));
        assert_eq!(a.len(), 1);
        let prev = a.assign(ExecutorId::new(1), SlotId::new(3));
        assert_eq!(prev, Some(SlotId::new(2)));
        assert_eq!(a.unassign(ExecutorId::new(1)), Some(SlotId::new(3)));
        assert!(a.is_empty());
    }

    #[test]
    fn aggregation_by_slot_and_node() {
        let c = cluster();
        let a: Assignment = [
            (ExecutorId::new(0), SlotId::new(0)),
            (ExecutorId::new(1), SlotId::new(0)),
            (ExecutorId::new(2), SlotId::new(2)),
        ]
        .into_iter()
        .collect();
        assert_eq!(a.executors_on_slot(SlotId::new(0)).len(), 2);
        assert_eq!(a.slots_used().len(), 2);
        let nodes = a.nodes_used(&c);
        assert!(nodes.contains(&NodeId::new(0)));
        assert!(nodes.contains(&NodeId::new(1)));
    }

    #[test]
    fn node_loads_sum_executor_loads() {
        let c = cluster();
        let ctx = ctx(&[(0, 0, 100.0), (1, 0, 200.0), (2, 0, 400.0)]);
        let a: Assignment = [
            (ExecutorId::new(0), SlotId::new(0)),
            (ExecutorId::new(1), SlotId::new(1)),
            (ExecutorId::new(2), SlotId::new(2)),
        ]
        .into_iter()
        .collect();
        let loads = a.node_loads(&c, &ctx);
        assert_eq!(loads[&NodeId::new(0)].get(), 300.0);
        assert_eq!(loads[&NodeId::new(1)].get(), 400.0);
    }

    #[test]
    fn diff_tracks_moves_adds_removes() {
        let old: Assignment = [
            (ExecutorId::new(0), SlotId::new(0)),
            (ExecutorId::new(1), SlotId::new(1)),
            (ExecutorId::new(2), SlotId::new(1)),
        ]
        .into_iter()
        .collect();
        let new: Assignment = [
            (ExecutorId::new(0), SlotId::new(0)), // unchanged
            (ExecutorId::new(1), SlotId::new(2)), // moved
            (ExecutorId::new(3), SlotId::new(3)), // added
        ]
        .into_iter()
        .collect();
        let d = old.diff(&new);
        assert_eq!(d.moved, BTreeSet::from([ExecutorId::new(1)]));
        assert_eq!(d.added, BTreeSet::from([ExecutorId::new(3)]));
        assert_eq!(d.removed, BTreeSet::from([ExecutorId::new(2)]));
        assert!(d.changed_slots.contains(&SlotId::new(1)));
        assert!(d.changed_slots.contains(&SlotId::new(2)));
        assert!(d.changed_slots.contains(&SlotId::new(3)));
        assert!(!d.changed_slots.contains(&SlotId::new(0)));
        assert!(!d.is_empty());
    }

    #[test]
    fn diff_of_identical_assignments_is_empty() {
        let a: Assignment = [(ExecutorId::new(0), SlotId::new(0))].into_iter().collect();
        assert!(a.diff(&a.clone()).is_empty());
    }

    #[test]
    fn detects_multi_topology_slot() {
        let c = cluster();
        let ctx = ctx(&[(0, 0, 1.0), (1, 1, 1.0)]);
        let a: Assignment = [
            (ExecutorId::new(0), SlotId::new(0)),
            (ExecutorId::new(1), SlotId::new(0)),
        ]
        .into_iter()
        .collect();
        let v = a.constraint_violations(&c, &ctx, None);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("hosts executors of both"));
    }

    #[test]
    fn detects_topology_split_across_slots_on_node() {
        let c = cluster();
        let ctx = ctx(&[(0, 0, 1.0), (1, 0, 1.0)]);
        // Slots 0 and 1 are both on node 0.
        let a: Assignment = [
            (ExecutorId::new(0), SlotId::new(0)),
            (ExecutorId::new(1), SlotId::new(1)),
        ]
        .into_iter()
        .collect();
        let v = a.constraint_violations(&c, &ctx, None);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("at most one"));
    }

    #[test]
    fn detects_capacity_violation() {
        let c = cluster();
        let ctx = ctx(&[(0, 0, 900.0)]);
        let a: Assignment = [(ExecutorId::new(0), SlotId::new(0))].into_iter().collect();
        assert!(a.constraint_violations(&c, &ctx, Some(1.0)).is_empty());
        let v = a.constraint_violations(&c, &ctx, Some(0.8));
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("exceeds"));
    }

    #[test]
    fn detects_nonexistent_slot() {
        let c = cluster();
        let ctx = ctx(&[(0, 0, 1.0)]);
        let a: Assignment = [(ExecutorId::new(0), SlotId::new(99))]
            .into_iter()
            .collect();
        let v = a.constraint_violations(&c, &ctx, None);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("nonexistent"));
    }

    #[test]
    fn valid_assignment_has_no_violations() {
        let c = cluster();
        let ctx = ctx(&[(0, 0, 100.0), (1, 0, 100.0), (2, 1, 100.0)]);
        // Topology 0 on node0/slot0 and node1/slot2; topology 1 on slot3.
        let a: Assignment = [
            (ExecutorId::new(0), SlotId::new(0)),
            (ExecutorId::new(1), SlotId::new(2)),
            (ExecutorId::new(2), SlotId::new(3)),
        ]
        .into_iter()
        .collect();
        assert!(a.constraint_violations(&c, &ctx, Some(1.0)).is_empty());
    }
}
