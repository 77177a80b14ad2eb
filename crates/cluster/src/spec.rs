//! Cluster topology: nodes and their slots.

use serde::{Deserialize, Serialize};
use tstorm_types::{Mhz, NodeId, Result, SlotId, TStormError};

/// One worker node: CPU capacity `C_k` and a number of slots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// The node's id (`k`).
    pub id: NodeId,
    /// Total CPU capacity in MHz (the paper's `C_k`); e.g. two 2.0 GHz
    /// dual-core Xeons ≈ 8000 MHz, but the evaluation cluster's "dual
    /// 2.0 GHz Xeon CPUs" is modelled as 4000 MHz of schedulable capacity.
    pub capacity: Mhz,
    /// Number of slots configured on this node ("usually ... the number of
    /// cores on that worker node").
    pub num_slots: u32,
    /// NIC speed class in bits per second, when it differs from the
    /// simulation-wide default. `None` means "use the default NIC" so
    /// that existing serialized clusters (and golden traces) are
    /// unchanged byte for byte.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub nic_bits_per_sec: Option<u64>,
}

impl NodeSpec {
    /// A node with the default NIC class.
    #[must_use]
    pub fn new(id: NodeId, capacity: Mhz, num_slots: u32) -> Self {
        Self {
            id,
            capacity,
            num_slots,
            nic_bits_per_sec: None,
        }
    }

    /// Sets an explicit NIC speed class (bits per second).
    #[must_use]
    pub fn with_nic(mut self, bits_per_sec: u64) -> Self {
        self.nic_bits_per_sec = Some(bits_per_sec);
        self
    }
}

/// A slot together with its owning node — the resolved `(j, ω(j))` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotInfo {
    /// Global slot id (`j`).
    pub slot: SlotId,
    /// Owning node (`ω(j)`).
    pub node: NodeId,
    /// Index of this slot among its node's slots.
    pub local_index: u32,
}

/// A cluster description: the set of worker nodes, the global slot
/// table, and per-node liveness.
///
/// Slot ids are dense and ordered node-major: node 0's slots come first,
/// then node 1's, and so on. This gives `ω(j)` O(1) lookup.
///
/// The node/slot *shape* is immutable, but nodes can be marked dead and
/// revived ([`ClusterSpec::set_node_live`]) — a crashed node keeps its
/// ids (so existing assignments stay resolvable) while schedulers skip
/// it via [`ClusterSpec::is_node_live`] / [`ClusterSpec::live_nodes`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    nodes: Vec<NodeSpec>,
    slots: Vec<SlotInfo>,
    /// `live[k]` is false while node `k` is crashed. Kept as a dense
    /// vector (not a set) so equality and iteration stay deterministic.
    live: Vec<bool>,
}

impl ClusterSpec {
    /// Builds a cluster from explicit node specs.
    ///
    /// # Errors
    ///
    /// Returns [`TStormError::InvalidCluster`] if there are no nodes, a
    /// node has zero slots or zero capacity, node ids are not the dense
    /// sequence `0..K` (dense ids keep every per-node table an array), or
    /// the total slot count would overflow the dense `u32` slot-id space
    /// (checked *before* the slot table is allocated, so a hostile spec
    /// cannot trigger a huge allocation or silently wrap slot ids).
    pub fn new(nodes: Vec<NodeSpec>) -> Result<Self> {
        if nodes.is_empty() {
            return Err(TStormError::invalid_cluster("no worker nodes"));
        }
        let mut total_slots: u64 = 0;
        for (i, n) in nodes.iter().enumerate() {
            if n.id.as_usize() != i {
                return Err(TStormError::invalid_cluster(format!(
                    "node ids must be dense and ordered; found {} at position {i}",
                    n.id
                )));
            }
            if n.num_slots == 0 {
                return Err(TStormError::invalid_cluster(format!(
                    "node {} has zero slots",
                    n.id
                )));
            }
            if n.capacity.get() <= 0.0 {
                return Err(TStormError::invalid_cluster(format!(
                    "node {} has zero capacity",
                    n.id
                )));
            }
            total_slots += u64::from(n.num_slots);
        }
        if total_slots > u64::from(u32::MAX) {
            return Err(TStormError::invalid_cluster(format!(
                "total slot count {total_slots} overflows the u32 slot-id space"
            )));
        }
        let mut slots = Vec::new();
        for n in &nodes {
            for local in 0..n.num_slots {
                slots.push(SlotInfo {
                    slot: SlotId::new(slots.len() as u32),
                    node: n.id,
                    local_index: local,
                });
            }
        }
        let live = vec![true; nodes.len()];
        Ok(Self { nodes, slots, live })
    }

    /// Builds a homogeneous cluster of `num_nodes` nodes with
    /// `slots_per_node` slots and the given per-node capacity — the shape
    /// of the paper's 10-blade testbed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ClusterSpec::new`].
    pub fn homogeneous(num_nodes: u32, slots_per_node: u32, capacity: Mhz) -> Result<Self> {
        let nodes = (0..num_nodes)
            .map(|k| NodeSpec::new(NodeId::new(k), capacity, slots_per_node))
            .collect();
        Self::new(nodes)
    }

    /// Builds a heterogeneous cluster by cycling CPU and NIC classes
    /// over the nodes: node `k` gets `cpu_classes[k % len]` capacity and
    /// `nic_classes[k % len]` bits per second. Pass an empty
    /// `nic_classes` to leave every node on the default NIC.
    ///
    /// This is the construction behind the `--scale` scenario family,
    /// where CPU and NIC speed are first-class per-node dimensions.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ClusterSpec::new`], plus an error when
    /// `cpu_classes` is empty.
    pub fn heterogeneous(
        num_nodes: u32,
        slots_per_node: u32,
        cpu_classes: &[Mhz],
        nic_classes: &[u64],
    ) -> Result<Self> {
        if cpu_classes.is_empty() {
            return Err(TStormError::invalid_cluster("no CPU classes"));
        }
        let nodes = (0..num_nodes)
            .map(|k| {
                let mut n = NodeSpec::new(
                    NodeId::new(k),
                    cpu_classes[k as usize % cpu_classes.len()],
                    slots_per_node,
                );
                if !nic_classes.is_empty() {
                    n = n.with_nic(nic_classes[k as usize % nic_classes.len()]);
                }
                n
            })
            .collect();
        Self::new(nodes)
    }

    /// All nodes, ordered by id.
    #[must_use]
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// Number of worker nodes (`K`).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The global slot table, ordered by slot id.
    #[must_use]
    pub fn slots(&self) -> &[SlotInfo] {
        &self.slots
    }

    /// Total number of slots (`Ns`).
    #[must_use]
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Looks up a node by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &NodeSpec {
        &self.nodes[id.as_usize()]
    }

    /// The node owning a slot — the paper's `ω(j)`.
    ///
    /// # Panics
    ///
    /// Panics if the slot id is out of range.
    #[must_use]
    pub fn node_of(&self, slot: SlotId) -> NodeId {
        self.slots[slot.as_usize()].node
    }

    /// Slots belonging to one node, in local order: a node-major slice
    /// found by binary search, not a scan of every slot (Algorithm 1 asks
    /// once per node for every executor it places).
    pub fn slots_of(&self, node: NodeId) -> impl Iterator<Item = &SlotInfo> {
        let start = self.slots.partition_point(|s| s.node < node);
        let len = self.nodes.get(node.as_usize()).map_or(0, |n| n.num_slots);
        self.slots[start..start + len as usize].iter()
    }

    /// Marks a node crashed (`live == false`) or recovered.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn set_node_live(&mut self, node: NodeId, live: bool) {
        self.live[node.as_usize()] = live;
    }

    /// Whether a node is currently up.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn is_node_live(&self, node: NodeId) -> bool {
        self.live[node.as_usize()]
    }

    /// Live nodes only, ordered by id.
    pub fn live_nodes(&self) -> impl Iterator<Item = &NodeSpec> {
        self.nodes.iter().filter(|n| self.is_node_live(n.id))
    }

    /// Number of live nodes — the `K` schedulers should balance over.
    #[must_use]
    pub fn num_live_nodes(&self) -> usize {
        self.live.iter().filter(|l| **l).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_builds_dense_slot_table() {
        let c = ClusterSpec::homogeneous(3, 4, Mhz::new(4000.0)).expect("valid");
        assert_eq!(c.num_nodes(), 3);
        assert_eq!(c.num_slots(), 12);
        assert_eq!(c.node_of(SlotId::new(0)), NodeId::new(0));
        assert_eq!(c.node_of(SlotId::new(4)), NodeId::new(1));
        assert_eq!(c.node_of(SlotId::new(11)), NodeId::new(2));
        assert_eq!(c.slots_of(NodeId::new(1)).count(), 4);
    }

    #[test]
    fn slot_local_indices_are_per_node() {
        let c = ClusterSpec::homogeneous(2, 3, Mhz::new(1000.0)).expect("valid");
        let locals: Vec<u32> = c.slots_of(NodeId::new(1)).map(|s| s.local_index).collect();
        assert_eq!(locals, vec![0, 1, 2]);
    }

    #[test]
    fn slots_of_matches_a_scan_of_the_slot_table() {
        let nodes = [3, 1, 5, 2]
            .iter()
            .enumerate()
            .map(|(k, slots)| NodeSpec::new(NodeId::new(k as u32), Mhz::new(1000.0), *slots))
            .collect();
        let c = ClusterSpec::new(nodes).expect("valid");
        for k in 0..5 {
            let node = NodeId::new(k);
            let scanned: Vec<&SlotInfo> = c.slots().iter().filter(|s| s.node == node).collect();
            assert_eq!(c.slots_of(node).collect::<Vec<_>>(), scanned, "node {k}");
        }
        assert_eq!(c.slots_of(NodeId::new(4)).count(), 0, "unknown node");
    }

    #[test]
    fn rejects_empty_cluster() {
        assert!(ClusterSpec::new(vec![]).is_err());
    }

    #[test]
    fn rejects_zero_slots() {
        let err =
            ClusterSpec::new(vec![NodeSpec::new(NodeId::new(0), Mhz::new(1000.0), 0)]).unwrap_err();
        assert!(err.to_string().contains("zero slots"));
    }

    #[test]
    fn rejects_zero_capacity() {
        let err = ClusterSpec::new(vec![NodeSpec::new(NodeId::new(0), Mhz::ZERO, 1)]).unwrap_err();
        assert!(err.to_string().contains("zero capacity"));
    }

    #[test]
    fn rejects_non_dense_node_ids() {
        let err =
            ClusterSpec::new(vec![NodeSpec::new(NodeId::new(5), Mhz::new(1000.0), 1)]).unwrap_err();
        assert!(err.to_string().contains("dense"));
    }

    #[test]
    fn rejects_slot_count_overflowing_u32() {
        // Two nodes with u32::MAX slots each: the sum wraps the u32
        // slot-id space. The check must fire before the slot table is
        // built — a wrapped table would alias slot ids (or the build
        // would attempt a multi-gigabyte allocation).
        let nodes = vec![
            NodeSpec::new(NodeId::new(0), Mhz::new(1000.0), u32::MAX),
            NodeSpec::new(NodeId::new(1), Mhz::new(1000.0), u32::MAX),
        ];
        let err = ClusterSpec::new(nodes).unwrap_err();
        assert!(err.to_string().contains("overflows"));
    }

    #[test]
    fn five_hundred_node_boundary_is_fine() {
        // The scale-500 preset's shape sits comfortably inside the
        // index arithmetic: 500 nodes x 4 slots.
        let c = ClusterSpec::homogeneous(500, 4, Mhz::new(8000.0)).expect("valid");
        assert_eq!(c.num_nodes(), 500);
        assert_eq!(c.num_slots(), 2000);
        assert_eq!(c.node_of(SlotId::new(1999)), NodeId::new(499));
    }

    #[test]
    fn heterogeneous_cycles_cpu_and_nic_classes() {
        let c = ClusterSpec::heterogeneous(
            5,
            4,
            &[Mhz::new(4000.0), Mhz::new(8000.0), Mhz::new(16000.0)],
            &[1_000_000_000, 10_000_000_000],
        )
        .expect("valid");
        assert_eq!(c.node(NodeId::new(0)).capacity.get(), 4000.0);
        assert_eq!(c.node(NodeId::new(1)).capacity.get(), 8000.0);
        assert_eq!(c.node(NodeId::new(2)).capacity.get(), 16000.0);
        assert_eq!(c.node(NodeId::new(3)).capacity.get(), 4000.0);
        assert_eq!(c.node(NodeId::new(0)).nic_bits_per_sec, Some(1_000_000_000));
        assert_eq!(
            c.node(NodeId::new(1)).nic_bits_per_sec,
            Some(10_000_000_000)
        );
        assert_eq!(c.node(NodeId::new(2)).nic_bits_per_sec, Some(1_000_000_000));
        assert!(ClusterSpec::heterogeneous(2, 1, &[], &[]).is_err());
        // Empty NIC classes leave every node on the default NIC.
        let plain = ClusterSpec::heterogeneous(2, 1, &[Mhz::new(1000.0)], &[]).expect("valid");
        assert_eq!(plain.node(NodeId::new(0)).nic_bits_per_sec, None);
    }

    #[test]
    fn nic_class_defaults_to_none_and_is_settable() {
        let spec = NodeSpec::new(NodeId::new(0), Mhz::new(1000.0), 2);
        assert_eq!(spec.nic_bits_per_sec, None);
        let fast = spec.with_nic(10_000_000_000);
        assert_eq!(fast.nic_bits_per_sec, Some(10_000_000_000));
    }

    #[test]
    fn liveness_defaults_to_all_up_and_toggles() {
        let mut c = ClusterSpec::homogeneous(3, 2, Mhz::new(4000.0)).expect("valid");
        assert_eq!(c.num_live_nodes(), 3);
        assert!(c.is_node_live(NodeId::new(1)));

        c.set_node_live(NodeId::new(1), false);
        assert!(!c.is_node_live(NodeId::new(1)));
        assert!(!c.is_node_live(c.node_of(SlotId::new(2))));
        assert!(c.is_node_live(c.node_of(SlotId::new(0))));
        assert_eq!(c.num_live_nodes(), 2);
        assert_eq!(c.live_nodes().count(), 2);
        // The shape is untouched: ids still resolve.
        assert_eq!(c.num_nodes(), 3);
        assert_eq!(c.node_of(SlotId::new(2)), NodeId::new(1));

        c.set_node_live(NodeId::new(1), true);
        assert_eq!(c.num_live_nodes(), 3);
    }

    #[test]
    fn heterogeneous_clusters_supported() {
        let c = ClusterSpec::new(vec![
            NodeSpec::new(NodeId::new(0), Mhz::new(8000.0), 8),
            NodeSpec::new(NodeId::new(1), Mhz::new(2000.0), 2),
        ])
        .expect("valid");
        assert_eq!(c.num_slots(), 10);
        assert_eq!(c.node(NodeId::new(1)).capacity.get(), 2000.0);
    }
}
