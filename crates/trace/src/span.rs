//! Per-root span trees and streaming critical-path attribution.
//!
//! Every in-flight ack-tree root owns a [`SpanTree`]: the [`SpanSeg`]s
//! its messages recorded — how much virtual time a tuple spent queued,
//! being serviced, in flight on the network, or waiting for a replay —
//! each stored as a step with its parent step's index. A message carries
//! only the index of its newest step. On fan-out each output envelope
//! extends that step with its own network segment, so sibling branches
//! share their common prefix. The tree lives as long as its root; the
//! engine clears and reuses it when the root completes or times out. A
//! message whose root is already gone carries [`NO_SPAN`]: it can never
//! complete a root, so nothing it would have recorded is ever folded.
//!
//! When an ack root completes, the engine folds the path from the
//! completing message's step back to the emission. That path *is* the
//! critical path: the root finishes exactly when its last outstanding
//! branch does, so the completing branch is the latest-finishing one.
//! The [`CriticalPathCollector`] folds each path into per-component,
//! per-edge, per-node-pair and per-hop-class aggregates.
//!
//! Invariant (checked on every root, see
//! [`PathTotals::mismatched_roots`]): `queue_us + service_us +
//! network_us` along the critical path equals the root's completion
//! latency *exactly* — all quantities are integer microseconds carved
//! from the same virtual clock, so the segments telescope from emit to
//! completion with no rounding loss. A replayed root's path starts with
//! one replay segment, the wait from timeout to re-emission. It sits
//! *outside* that telescoped interval (latency is counted from the
//! re-emission).
//!
//! Transfer batching preserves the invariant: when the engine coalesces
//! several tuples into one batch envelope, the batch's single network
//! delivery is fanned back out into one [`SpanKind::Network`] segment
//! *per tuple*, each spanning that tuple's staging instant to the shared
//! batch delivery instant. A tuple that waited inside an open batch
//! therefore charges the wait to its network segment, and every path
//! still telescopes emit → completion exactly.
//!
//! Everything here is deterministic: aggregation is integer arithmetic
//! over dense tables, and every table is sorted by label string, node
//! pair or hop label when it is written, so same-seed runs write
//! byte-identical summaries. The text views of a summary live in
//! [`crate::view`], which reads it back from a recording.

use crate::event::HopClass;
use crate::json::{array, ObjectWriter};
use tstorm_types::{ExecutorId, FxHashMap, NodeId, SimTime};

/// What a span segment's time was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// Waiting in an executor's input queue.
    Queue,
    /// Being processed by an executor.
    Service,
    /// In flight between two executors (any hop class).
    Network,
    /// Waiting in the spout's replay queue after a timeout.
    Replay,
}

impl SpanKind {
    /// Stable lower-case label used in JSON artifacts.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Queue => "queue",
            SpanKind::Service => "service",
            SpanKind::Network => "network",
            SpanKind::Replay => "replay",
        }
    }
}

/// One latency segment on a tuple's causal path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSeg {
    /// What the time was spent on.
    pub kind: SpanKind,
    /// Duration in integer virtual microseconds.
    pub micros: u64,
    /// Sending executor (network) or the owning executor otherwise.
    pub from_executor: ExecutorId,
    /// Receiving/owning executor.
    pub executor: ExecutorId,
    /// Node the segment started on.
    pub from_node: NodeId,
    /// Node the segment ended on (differs only for inter-node hops).
    pub node: NodeId,
    /// Hop classification, set for network segments only.
    pub hop: Option<HopClass>,
}

impl SpanSeg {
    /// A queue-wait segment at `executor` on `node`.
    #[must_use]
    pub fn queue(executor: ExecutorId, node: NodeId, micros: u64) -> Self {
        Self {
            kind: SpanKind::Queue,
            micros,
            from_executor: executor,
            executor,
            from_node: node,
            node,
            hop: None,
        }
    }

    /// A service segment at `executor` on `node`.
    #[must_use]
    pub fn service(executor: ExecutorId, node: NodeId, micros: u64) -> Self {
        Self {
            kind: SpanKind::Service,
            micros,
            from_executor: executor,
            executor,
            from_node: node,
            node,
            hop: None,
        }
    }

    /// A network segment from one executor to another.
    #[must_use]
    pub fn network(
        from_executor: ExecutorId,
        from_node: NodeId,
        executor: ExecutorId,
        node: NodeId,
        hop: HopClass,
        micros: u64,
    ) -> Self {
        Self {
            kind: SpanKind::Network,
            micros,
            from_executor,
            executor,
            from_node,
            node,
            hop: Some(hop),
        }
    }

    /// A replay-wait segment attributed to the re-emitting spout.
    #[must_use]
    pub fn replay(executor: ExecutorId, node: NodeId, micros: u64) -> Self {
        Self {
            kind: SpanKind::Replay,
            micros,
            from_executor: executor,
            executor,
            from_node: node,
            node,
            hop: None,
        }
    }
}

/// Step index meaning "no step": an empty path, or a message whose root
/// has already completed or timed out.
pub const NO_SPAN: u32 = u32::MAX;

/// One recorded segment and the index of the step before it.
#[derive(Debug, Clone, Copy)]
struct SpanStep {
    seg: SpanSeg,
    /// [`NO_SPAN`] for a path's first segment.
    parent: u32,
}

/// One ack-tree root's span segments, as steps that each point at
/// their parent. Extending a step is one `Vec` push, and siblings share
/// their prefix. An empty tree never allocates.
#[derive(Debug, Clone, Default)]
pub struct SpanTree {
    steps: Vec<SpanStep>,
}

impl SpanTree {
    /// Records `seg` after step `parent` ([`NO_SPAN`] starts a path) and
    /// returns the new step's index.
    pub fn extend(&mut self, parent: u32, seg: SpanSeg) -> u32 {
        debug_assert!(parent == NO_SPAN || (parent as usize) < self.steps.len());
        let step = u32::try_from(self.steps.len()).expect("span tree below u32::MAX steps");
        self.steps.push(SpanStep { seg, parent });
        step
    }

    /// The segments from step `head` back to the path's first one,
    /// newest first. Empty for [`NO_SPAN`].
    pub fn path(&self, head: u32) -> impl Iterator<Item = &SpanSeg> {
        let mut cur = head;
        std::iter::from_fn(move || {
            let step = self.steps.get(cur as usize)?;
            cur = step.parent;
            Some(&step.seg)
        })
    }

    /// Forgets every step and keeps the allocation.
    pub fn clear(&mut self) {
        self.steps.clear();
    }
}

/// Per-component queue/service totals over all observed critical paths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComponentAgg {
    /// Queue + service segments attributed to the component.
    pub segments: u64,
    /// Total queue-wait microseconds.
    pub queue_us: u64,
    /// Total service microseconds.
    pub service_us: u64,
}

/// Per-edge (sending component → receiving component) network totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeAgg {
    /// Network hops observed on critical paths.
    pub hops: u64,
    /// Total network microseconds.
    pub network_us: u64,
    /// How many of those hops crossed nodes.
    pub inter_node_hops: u64,
}

/// Per-(source node, destination node) network totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodePairAgg {
    /// Network hops observed on critical paths.
    pub hops: u64,
    /// Total network microseconds.
    pub network_us: u64,
}

/// Grand totals over all observed roots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathTotals {
    /// Completed roots observed.
    pub roots: u64,
    /// Roots whose path contained a replay segment.
    pub replayed_roots: u64,
    /// Sum of completion latencies (µs).
    pub latency_us: u64,
    /// Maximum single-root latency (µs).
    pub max_latency_us: u64,
    /// Sum of critical-path queue waits (µs).
    pub queue_us: u64,
    /// Sum of critical-path service times (µs).
    pub service_us: u64,
    /// Sum of critical-path network times (µs).
    pub network_us: u64,
    /// Sum of replay waits (µs).
    pub replay_us: u64,
    /// Roots whose queue + service + network did not equal their
    /// latency — the module invariant, checked on every root. Replay
    /// waits sit outside the latency and are not part of the check.
    /// Not written into the JSON.
    pub mismatched_roots: u64,
}

/// The roots a per-root breakdown list once kept; the JSON's
/// `dropped_breakdowns` key still reports the roots past it, so
/// recordings keep their format.
const BREAKDOWN_CAP: u64 = 1 << 18;

/// Label id of an executor not yet labelled or seen.
const NO_LABEL: u32 = u32::MAX;

/// Hop-class table slots: the three [`HopClass`] values, then network
/// segments with no class.
const HOP_LABELS: [&str; 4] = ["intra_worker", "inter_process", "inter_node", "unknown"];

fn hop_slot(hop: Option<HopClass>) -> usize {
    match hop {
        Some(HopClass::IntraWorker) => 0,
        Some(HopClass::InterProcess) => 1,
        Some(HopClass::InterNode) => 2,
        None => 3,
    }
}

/// Streaming aggregator of completed roots' critical paths.
///
/// The engine feeds it one path per completion; the collector never
/// stores paths, only integer aggregates, so memory stays flat on long
/// runs. Labels are interned once into dense ids: components live in a
/// `Vec` by label id and edges in one `Vec` indexed `from × labels +
/// to`. The tables are sorted by label string, node pair and hop label
/// only when they are written.
#[derive(Debug, Default)]
pub struct CriticalPathCollector {
    /// Interned label strings, indexed by label id. A topology has a
    /// handful of components, so interning scans this list.
    names: Vec<Box<str>>,
    /// Label id per executor index ([`NO_LABEL`] until labelled or seen).
    exec_labels: Vec<u32>,
    totals: PathTotals,
    /// Per label id.
    components: Vec<ComponentAgg>,
    /// Indexed `from × names.len() + to`.
    edges: Vec<EdgeAgg>,
    node_pairs: FxHashMap<(NodeId, NodeId), NodePairAgg>,
    /// Indexed by [`hop_slot`].
    hop_classes: [NodePairAgg; 4],
}

impl CriticalPathCollector {
    /// Creates an empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a display label (component name) for an executor.
    /// Unlabelled executors are labelled `exec-N`.
    pub fn set_label(&mut self, executor: ExecutorId, label: &str) {
        let id = self.intern(label);
        self.set_label_id(executor, id);
    }

    fn set_label_id(&mut self, executor: ExecutorId, id: u32) {
        let i = executor.as_usize();
        if i >= self.exec_labels.len() {
            self.exec_labels.resize(i + 1, NO_LABEL);
        }
        self.exec_labels[i] = id;
    }

    /// The label id of `label`, interning it on first use. A new label
    /// widens the edge table's stride by one.
    fn intern(&mut self, label: &str) -> u32 {
        if let Some(id) = self.names.iter().position(|name| **name == *label) {
            return id as u32;
        }
        let n = self.names.len();
        let id = n as u32;
        self.names.push(label.into());
        self.components.push(ComponentAgg::default());
        let mut edges = vec![EdgeAgg::default(); (n + 1) * (n + 1)];
        for from in 0..n {
            edges[from * (n + 1)..from * (n + 1) + n]
                .copy_from_slice(&self.edges[from * n..(from + 1) * n]);
        }
        self.edges = edges;
        id
    }

    /// The executor's label id; an unlabelled executor interns `exec-N`
    /// on first sight.
    fn label_id(&mut self, executor: ExecutorId) -> usize {
        match self.exec_labels.get(executor.as_usize()) {
            Some(&id) if id != NO_LABEL => id as usize,
            _ => {
                let id = self.intern(&executor.to_string());
                self.set_label_id(executor, id);
                id as usize
            }
        }
    }

    /// Folds one completed root into the aggregates.
    ///
    /// `path` is the critical path: the segments of the message whose
    /// arrival completed the root, in any order ([`SpanTree::path`]
    /// gives newest first). `emit_at`/`completed_at` bound the measured
    /// latency. Each segment folds straight into the aggregates.
    pub fn observe_root<'s>(
        &mut self,
        emit_at: SimTime,
        completed_at: SimTime,
        path: impl IntoIterator<Item = &'s SpanSeg>,
    ) {
        let latency_us = completed_at.saturating_sub(emit_at).as_micros();
        let mut sums = [0u64; 4];
        for seg in path {
            match seg.kind {
                SpanKind::Queue | SpanKind::Service => {
                    let id = self.label_id(seg.executor);
                    let c = &mut self.components[id];
                    c.segments += 1;
                    if seg.kind == SpanKind::Queue {
                        sums[0] += seg.micros;
                        c.queue_us += seg.micros;
                    } else {
                        sums[1] += seg.micros;
                        c.service_us += seg.micros;
                    }
                }
                SpanKind::Network => {
                    sums[2] += seg.micros;
                    self.fold_network(seg);
                }
                SpanKind::Replay => sums[3] += seg.micros,
            }
        }

        let [queue_us, service_us, network_us, replay_us] = sums;
        let t = &mut self.totals;
        t.roots += 1;
        if replay_us > 0 {
            t.replayed_roots += 1;
        }
        if queue_us + service_us + network_us != latency_us {
            t.mismatched_roots += 1;
        }
        t.latency_us += latency_us;
        t.max_latency_us = t.max_latency_us.max(latency_us);
        t.queue_us += queue_us;
        t.service_us += service_us;
        t.network_us += network_us;
        t.replay_us += replay_us;
    }

    /// Adds one network segment to the edge, node-pair and hop-class
    /// tables.
    fn fold_network(&mut self, net: &SpanSeg) {
        let from = self.label_id(net.from_executor);
        let to = self.label_id(net.executor);
        let e = &mut self.edges[from * self.names.len() + to];
        e.hops += 1;
        e.network_us += net.micros;
        if net.from_node != net.node {
            e.inter_node_hops += 1;
        }
        let np = self
            .node_pairs
            .entry((net.from_node, net.node))
            .or_default();
        np.hops += 1;
        np.network_us += net.micros;
        let hc = &mut self.hop_classes[hop_slot(net.hop)];
        hc.hops += 1;
        hc.network_us += net.micros;
    }

    /// Grand totals so far.
    #[must_use]
    pub fn totals(&self) -> &PathTotals {
        &self.totals
    }

    /// True if no root has been observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.totals.roots == 0
    }

    /// Components seen on a path, sorted by label.
    fn sorted_components(&self) -> Vec<(&str, &ComponentAgg)> {
        let mut rows: Vec<_> = self
            .components
            .iter()
            .enumerate()
            .filter(|(_, c)| c.segments > 0)
            .map(|(id, c)| (&*self.names[id], c))
            .collect();
        rows.sort_unstable_by(|a, b| a.0.cmp(b.0));
        rows
    }

    /// Edges seen on a path, sorted by (from, to) label.
    fn sorted_edges(&self) -> Vec<(&str, &str, &EdgeAgg)> {
        let n = self.names.len();
        let mut rows: Vec<_> = self
            .edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.hops > 0)
            .map(|(i, e)| (&*self.names[i / n], &*self.names[i % n], e))
            .collect();
        rows.sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        rows
    }

    /// Node pairs seen on a path, sorted by (from, to) node.
    fn sorted_node_pairs(&self) -> Vec<(&(NodeId, NodeId), &NodePairAgg)> {
        let mut rows: Vec<_> = self.node_pairs.iter().collect();
        rows.sort_unstable_by_key(|(k, _)| **k);
        rows
    }

    /// Hop classes seen on a path, sorted by label.
    fn sorted_hop_classes(&self) -> Vec<(&'static str, &NodePairAgg)> {
        let mut rows: Vec<_> = HOP_LABELS
            .iter()
            .zip(&self.hop_classes)
            .filter(|(_, h)| h.hops > 0)
            .map(|(label, h)| (*label, h))
            .collect();
        rows.sort_unstable_by_key(|(label, _)| *label);
        rows
    }

    /// One deterministic JSON object with totals and every aggregate
    /// table — the flight recorder's `critical_path` payload.
    #[must_use]
    pub fn to_json(&self) -> String {
        let t = &self.totals;
        let mut o = ObjectWriter::new();
        o.u64("roots", t.roots)
            .u64("replayed_roots", t.replayed_roots)
            .u64("latency_us", t.latency_us)
            .u64("max_latency_us", t.max_latency_us)
            .u64("queue_us", t.queue_us)
            .u64("service_us", t.service_us)
            .u64("network_us", t.network_us)
            .u64("replay_us", t.replay_us)
            .u64("dropped_breakdowns", t.roots.saturating_sub(BREAKDOWN_CAP));

        let components = array(self.sorted_components(), |out, (name, c)| {
            let mut co = ObjectWriter::new();
            co.str("component", name)
                .u64("segments", c.segments)
                .u64("queue_us", c.queue_us)
                .u64("service_us", c.service_us);
            out.push_str(&co.finish());
        });
        let edges = array(self.sorted_edges(), |out, (from, to, e)| {
            let mut eo = ObjectWriter::new();
            eo.str("from", from)
                .str("to", to)
                .u64("hops", e.hops)
                .u64("network_us", e.network_us)
                .u64("inter_node_hops", e.inter_node_hops);
            out.push_str(&eo.finish());
        });
        let pairs = array(self.sorted_node_pairs(), |out, ((from, to), p)| {
            let mut po = ObjectWriter::new();
            po.u64("from", u64::from(from.index()))
                .u64("to", u64::from(to.index()))
                .u64("hops", p.hops)
                .u64("network_us", p.network_us);
            out.push_str(&po.finish());
        });
        let classes = array(self.sorted_hop_classes(), |out, (label, h)| {
            let mut ho = ObjectWriter::new();
            ho.str("class", label)
                .u64("hops", h.hops)
                .u64("network_us", h.network_us);
            out.push_str(&ho.finish());
        });
        o.raw("components", &components)
            .raw("edges", &edges)
            .raw("node_pairs", &pairs)
            .raw("hop_classes", &classes);
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn e(i: u32) -> ExecutorId {
        ExecutorId::new(i)
    }

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn tree_siblings_share_their_prefix() {
        let mut tree = SpanTree::default();
        let base = tree.extend(NO_SPAN, SpanSeg::service(e(0), n(0), 100));
        let left = tree.extend(
            base,
            SpanSeg::network(e(0), n(0), e(1), n(1), HopClass::InterNode, 500),
        );
        let right = tree.extend(
            base,
            SpanSeg::network(e(0), n(0), e(2), n(0), HopClass::InterProcess, 120),
        );
        let left: Vec<&SpanSeg> = tree.path(left).collect();
        let right: Vec<&SpanSeg> = tree.path(right).collect();
        assert_eq!(
            (left[0].micros, right[0].micros, left[1].micros),
            (500, 120, 100)
        );
        assert!(
            std::ptr::eq(left[1], right[1]),
            "both branches end in the same parent step"
        );
    }

    #[test]
    fn path_yields_newest_first() {
        let mut tree = SpanTree::default();
        let mut head = NO_SPAN;
        for micros in [1, 2, 3] {
            head = tree.extend(head, SpanSeg::queue(e(0), n(0), micros));
        }
        let micros: Vec<u64> = tree.path(head).map(|s| s.micros).collect();
        assert_eq!(micros, [3, 2, 1]);
        assert_eq!(tree.path(NO_SPAN).count(), 0, "NO_SPAN is an empty path");
        tree.clear();
        assert_eq!(tree.path(head).count(), 0, "a cleared tree has no steps");
    }

    /// Folds one root whose critical path is `segs`, oldest first,
    /// through a span tree as the engine does.
    fn observe(c: &mut CriticalPathCollector, emit_us: u64, done_us: u64, segs: &[SpanSeg]) {
        let mut tree = SpanTree::default();
        let mut head = NO_SPAN;
        for seg in segs {
            head = tree.extend(head, *seg);
        }
        c.observe_root(
            SimTime::from_micros(emit_us),
            SimTime::from_micros(done_us),
            tree.path(head),
        );
    }

    #[test]
    fn collector_attributes_segments() {
        let mut c = CriticalPathCollector::new();
        c.set_label(e(0), "spout");
        c.set_label(e(1), "bolt");
        observe(
            &mut c,
            1_000,
            1_600,
            &[
                SpanSeg::network(e(0), n(0), e(1), n(1), HopClass::InterNode, 500),
                SpanSeg::queue(e(1), n(1), 40),
                SpanSeg::service(e(1), n(1), 60),
            ],
        );
        let t = c.totals();
        assert_eq!(t.roots, 1);
        assert_eq!(t.latency_us, 600);
        assert_eq!((t.queue_us, t.service_us, t.network_us), (40, 60, 500));
        assert_eq!(t.mismatched_roots, 0);

        let json = parse(&c.to_json()).expect("valid json");
        assert_eq!(json.get("roots").unwrap().as_f64(), Some(1.0));
        let edges = json.get("edges").unwrap().as_array().unwrap();
        assert_eq!(edges[0].get("from").unwrap().as_str(), Some("spout"));
        assert_eq!(edges[0].get("to").unwrap().as_str(), Some("bolt"));
        assert_eq!(edges[0].get("inter_node_hops").unwrap().as_f64(), Some(1.0));
        let classes = json.get("hop_classes").unwrap().as_array().unwrap();
        assert_eq!(
            classes[0].get("class").unwrap().as_str(),
            Some("inter_node")
        );
    }

    #[test]
    fn mismatched_roots_count_paths_that_do_not_telescope() {
        let mut c = CriticalPathCollector::new();
        observe(&mut c, 0, 100, &[SpanSeg::service(e(0), n(0), 100)]);
        observe(&mut c, 0, 100, &[SpanSeg::service(e(0), n(0), 90)]);
        observe(&mut c, 0, 100, &[]);
        assert_eq!(c.totals().mismatched_roots, 2);
        assert!(
            !c.to_json().contains("mismatched"),
            "the check stays out of recordings"
        );
    }

    #[test]
    fn batched_delivery_fans_out_per_tuple_segments() {
        // Two tuples staged into the same batch at different instants
        // (t=100 and t=150) and delivered together at t=600: the fan-out
        // gives each its own network segment (500 µs and 450 µs), so both
        // paths still telescope to their own emit → completion latency.
        let mut c = CriticalPathCollector::new();
        let mut tree = SpanTree::default();
        let service = tree.extend(NO_SPAN, SpanSeg::service(e(0), n(0), 100));
        let first = tree.extend(
            service,
            SpanSeg::network(e(0), n(0), e(1), n(1), HopClass::InterNode, 500),
        );
        let second = tree.extend(
            service,
            SpanSeg::network(e(0), n(0), e(1), n(1), HopClass::InterNode, 450),
        );
        c.observe_root(SimTime::ZERO, SimTime::from_micros(600), tree.path(first));
        c.observe_root(
            SimTime::from_micros(50),
            SimTime::from_micros(600),
            tree.path(second),
        );
        let t = c.totals();
        assert_eq!(t.roots, 2);
        assert_eq!(t.latency_us, 600 + 550);
        assert_eq!(t.queue_us + t.service_us + t.network_us, 600 + 550);
        assert_eq!(t.mismatched_roots, 0, "each root telescopes on its own");
    }

    #[test]
    fn replay_segments_sit_outside_latency() {
        let mut c = CriticalPathCollector::new();
        observe(
            &mut c,
            100,
            300,
            &[
                SpanSeg::replay(e(0), n(0), 30_000),
                SpanSeg::service(e(1), n(0), 200),
            ],
        );
        let t = c.totals();
        assert_eq!(t.replayed_roots, 1);
        assert_eq!(t.replay_us, 30_000);
        assert_eq!(t.latency_us, 200);
        assert_eq!(
            t.mismatched_roots, 0,
            "the replay wait is outside the check"
        );
    }

    #[test]
    fn observe_root_folds_every_segment_kind_in_one_walk() {
        let mut c = CriticalPathCollector::new();
        c.set_label(e(0), "spout");
        c.set_label(e(1), "bolt");
        observe(
            &mut c,
            1_000,
            1_600,
            &[
                SpanSeg::replay(e(0), n(0), 7_000),
                SpanSeg::network(e(0), n(0), e(1), n(1), HopClass::InterNode, 500),
                SpanSeg::queue(e(1), n(1), 40),
                SpanSeg::service(e(1), n(1), 60),
            ],
        );
        let t = c.totals();
        assert_eq!((t.roots, t.replayed_roots), (1, 1));
        assert_eq!(t.latency_us, 600);
        assert_eq!(
            (t.queue_us, t.service_us, t.network_us, t.replay_us),
            (40, 60, 500, 7_000)
        );
        let json = c.to_json();
        assert!(
            json.contains(r#"{"component":"bolt","segments":2,"queue_us":40,"service_us":60}"#),
            "{json}"
        );
        assert!(!json.contains(r#""component":"spout""#), "{json}");
    }

    /// A network segment with no hop class, which is written as `unknown`.
    fn unclassified(from: ExecutorId, to: ExecutorId, node: NodeId, micros: u64) -> SpanSeg {
        SpanSeg {
            hop: None,
            ..SpanSeg::network(from, node, to, node, HopClass::IntraWorker, micros)
        }
    }

    /// Tables are written sorted by label string, node pair and hop label,
    /// not in the order labels were registered or segments arrived.
    #[test]
    fn renders_sort_by_label_node_pair_and_hop_class() {
        let mut c = CriticalPathCollector::new();
        c.set_label(e(0), "zeta");
        c.set_label(e(1), "alpha");
        observe(
            &mut c,
            0,
            1_000,
            &[
                SpanSeg::network(e(0), n(3), e(1), n(1), HopClass::InterNode, 500),
                SpanSeg::queue(e(1), n(1), 40),
                SpanSeg::service(e(1), n(1), 60),
                SpanSeg::network(e(1), n(1), e(0), n(1), HopClass::InterProcess, 100),
                SpanSeg::queue(e(0), n(1), 100),
                SpanSeg::service(e(0), n(1), 200),
            ],
        );
        observe(
            &mut c,
            0,
            300,
            &[
                unclassified(e(0), e(1), n(0), 100),
                SpanSeg::service(e(1), n(0), 200),
            ],
        );
        assert_eq!(
            c.to_json(),
            r#"{"roots":2,"replayed_roots":0,"latency_us":1300,"max_latency_us":1000,"queue_us":140,"service_us":460,"network_us":700,"replay_us":0,"dropped_breakdowns":0,"components":[{"component":"alpha","segments":3,"queue_us":40,"service_us":260},{"component":"zeta","segments":2,"queue_us":100,"service_us":200}],"edges":[{"from":"alpha","to":"zeta","hops":1,"network_us":100,"inter_node_hops":0},{"from":"zeta","to":"alpha","hops":2,"network_us":600,"inter_node_hops":1}],"node_pairs":[{"from":0,"to":0,"hops":1,"network_us":100},{"from":1,"to":1,"hops":1,"network_us":100},{"from":3,"to":1,"hops":1,"network_us":500}],"hop_classes":[{"class":"inter_node","hops":1,"network_us":500},{"class":"inter_process","hops":1,"network_us":100},{"class":"unknown","hops":1,"network_us":100}]}"#
        );
    }

    /// Unlabelled executors are labelled `exec-N` and sort as strings, so
    /// `exec-10` precedes `exec-9`.
    #[test]
    fn unlabelled_executors_sort_as_strings() {
        let mut c = CriticalPathCollector::new();
        observe(
            &mut c,
            0,
            70,
            &[
                SpanSeg::service(e(9), n(0), 10),
                SpanSeg::network(e(9), n(0), e(10), n(0), HopClass::IntraWorker, 20),
                SpanSeg::service(e(10), n(0), 40),
            ],
        );
        assert_eq!(
            c.to_json(),
            r#"{"roots":1,"replayed_roots":0,"latency_us":70,"max_latency_us":70,"queue_us":0,"service_us":50,"network_us":20,"replay_us":0,"dropped_breakdowns":0,"components":[{"component":"exec-10","segments":1,"queue_us":0,"service_us":40},{"component":"exec-9","segments":1,"queue_us":0,"service_us":10}],"edges":[{"from":"exec-9","to":"exec-10","hops":1,"network_us":20,"inter_node_hops":0}],"node_pairs":[{"from":0,"to":0,"hops":1,"network_us":20}],"hop_classes":[{"class":"intra_worker","hops":1,"network_us":20}]}"#
        );
    }

    /// Two executors of one component fold into one row per table.
    #[test]
    fn executors_sharing_a_label_share_a_row() {
        let mut c = CriticalPathCollector::new();
        c.set_label(e(0), "split");
        c.set_label(e(1), "split");
        c.set_label(e(2), "count");
        observe(
            &mut c,
            0,
            100,
            &[
                SpanSeg::service(e(0), n(0), 10),
                SpanSeg::network(e(0), n(0), e(1), n(1), HopClass::InterNode, 30),
                SpanSeg::service(e(1), n(1), 20),
                SpanSeg::network(e(1), n(1), e(2), n(1), HopClass::IntraWorker, 15),
                SpanSeg::service(e(2), n(1), 25),
            ],
        );
        assert_eq!(
            c.to_json(),
            r#"{"roots":1,"replayed_roots":0,"latency_us":100,"max_latency_us":100,"queue_us":0,"service_us":55,"network_us":45,"replay_us":0,"dropped_breakdowns":0,"components":[{"component":"count","segments":1,"queue_us":0,"service_us":25},{"component":"split","segments":2,"queue_us":0,"service_us":30}],"edges":[{"from":"split","to":"count","hops":1,"network_us":15,"inter_node_hops":0},{"from":"split","to":"split","hops":1,"network_us":30,"inter_node_hops":1}],"node_pairs":[{"from":0,"to":1,"hops":1,"network_us":30},{"from":1,"to":1,"hops":1,"network_us":15}],"hop_classes":[{"class":"inter_node","hops":1,"network_us":30},{"class":"intra_worker","hops":1,"network_us":15}]}"#
        );
    }

    /// Roots past the first 2^18 count as `dropped_breakdowns`; the
    /// aggregates keep counting them.
    #[test]
    fn dropped_breakdowns_count_roots_past_the_first_2_pow_18() {
        let mut c = CriticalPathCollector::new();
        for _ in 0..(1u64 << 18) + 3 {
            observe(&mut c, 0, 10, &[SpanSeg::service(e(0), n(0), 10)]);
        }
        assert_eq!(
            c.to_json(),
            r#"{"roots":262147,"replayed_roots":0,"latency_us":2621470,"max_latency_us":10,"queue_us":0,"service_us":2621470,"network_us":0,"replay_us":0,"dropped_breakdowns":3,"components":[{"component":"exec-0","segments":262147,"queue_us":0,"service_us":2621470}],"edges":[],"node_pairs":[],"hop_classes":[]}"#
        );
    }

    #[test]
    fn empty_collector_summary() {
        let c = CriticalPathCollector::new();
        assert!(c.is_empty());
        assert!(parse(&c.to_json()).is_some());
    }
}
