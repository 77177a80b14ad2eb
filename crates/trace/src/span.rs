//! Causal span chains and streaming critical-path attribution.
//!
//! Every live tuple tree in the simulator carries a *span chain*: a
//! persistent (structurally shared) linked list of [`SpanSeg`]s recording
//! how much virtual time the tuple spent queued, being serviced, in
//! flight on the network, or waiting for a replay. On fan-out each
//! output envelope extends its parent's chain with one network segment —
//! an `Arc` bump plus one allocation — so sibling branches share their
//! common prefix.
//!
//! When an ack root completes, the chain reaching the completing message
//! *is* the critical path: in an and-join tuple tree the root finishes
//! exactly when its last outstanding branch does, so the completing
//! branch is the latest-finishing — critical — one. The
//! [`CriticalPathCollector`] folds each completed root's chain into
//! per-component, per-edge, per-node-pair and per-hop-class aggregates,
//! plus a bounded list of per-root breakdowns.
//!
//! Invariant (asserted by an integration test): for a never-replayed
//! root, `queue_us + service_us + network_us` along the critical path
//! equals the root's completion latency *exactly* — all quantities are
//! integer microseconds carved from the same virtual clock, so the
//! segments telescope from emit to completion with no rounding loss.
//! Replay segments measure re-emission wait and sit *outside* that
//! telescoped interval (latency is counted from the re-emission).
//!
//! Transfer batching preserves the invariant: when the engine coalesces
//! several tuples into one batch envelope, the batch's single network
//! delivery is fanned back out into one [`SpanKind::Network`] segment
//! *per tuple*, each spanning that tuple's staging instant to the shared
//! batch delivery instant. A tuple that waited inside an open batch
//! therefore charges the wait to its network segment, and every chain
//! still telescopes emit → completion exactly.
//!
//! Everything here is deterministic: aggregation uses ordered maps and
//! integer arithmetic only, so same-seed runs render byte-identical
//! summaries.

use crate::event::HopClass;
use crate::json::ObjectWriter;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use tstorm_types::{ExecutorId, NodeId, SimTime, TupleId};

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

/// One link of a persistent span chain. Chains grow at the head; the
/// shared tail is reference-counted so fan-out costs one `Arc` clone.
/// Atomic counting (rather than `Rc`) keeps chains — and so whole
/// simulations — `Send`.
#[derive(Debug)]
pub struct SpanLink {
    /// The newest segment.
    pub seg: SpanSeg,
    /// The rest of the path back to the root emission (`None` at emit).
    pub parent: SpanChain,
}

/// A possibly-empty span chain. `None` both for "no segments yet" and
/// for "spans disabled", which keeps the disabled path allocation-free.
pub type SpanChain = Option<Arc<SpanLink>>;

/// Returns `parent` extended by `seg` (O(1), shares the prefix).
#[must_use]
pub fn extend(parent: &SpanChain, seg: SpanSeg) -> SpanChain {
    Some(Arc::new(SpanLink {
        seg,
        parent: parent.clone(),
    }))
}

/// Sums a chain's segment durations as
/// `[queue, service, network, replay]` microseconds.
#[must_use]
pub fn sum_by_kind(chain: &SpanChain) -> [u64; 4] {
    let mut sums = [0u64; 4];
    let mut cur = chain;
    while let Some(link) = cur {
        let idx = match link.seg.kind {
            SpanKind::Queue => 0,
            SpanKind::Service => 1,
            SpanKind::Network => 2,
            SpanKind::Replay => 3,
        };
        sums[idx] += link.seg.micros;
        cur = &link.parent;
    }
    sums
}

/// One completed root's critical-path decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RootBreakdown {
    /// The root tuple.
    pub tuple: TupleId,
    /// Completion latency (completion − emit) in microseconds.
    pub latency_us: u64,
    /// Queue-wait microseconds on the critical path.
    pub queue_us: u64,
    /// Service microseconds on the critical path.
    pub service_us: u64,
    /// Network microseconds on the critical path.
    pub network_us: u64,
    /// Replay-wait microseconds (outside `latency_us`, see module docs).
    pub replay_us: u64,
    /// Number of segments on the critical path.
    pub segments: u32,
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
}

/// Streaming aggregator of completed roots' critical paths.
///
/// The engine feeds it one `(root, chain)` pair per completion; the
/// collector never stores chains, only integer aggregates and a bounded
/// per-root breakdown list, so memory stays flat on long runs.
#[derive(Debug, Default)]
pub struct CriticalPathCollector {
    labels: BTreeMap<ExecutorId, Arc<str>>,
    totals: PathTotals,
    components: BTreeMap<Arc<str>, ComponentAgg>,
    edges: BTreeMap<(Arc<str>, Arc<str>), EdgeAgg>,
    node_pairs: BTreeMap<(NodeId, NodeId), NodePairAgg>,
    hop_classes: BTreeMap<&'static str, NodePairAgg>,
    breakdowns: Vec<RootBreakdown>,
    max_breakdowns: usize,
    dropped_breakdowns: u64,
}

impl CriticalPathCollector {
    /// Default cap on retained per-root breakdowns (aggregates keep
    /// counting past it).
    pub const DEFAULT_MAX_BREAKDOWNS: usize = 1 << 18;

    /// Creates an empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self {
            max_breakdowns: Self::DEFAULT_MAX_BREAKDOWNS,
            ..Self::default()
        }
    }

    /// Overrides the per-root breakdown retention cap.
    #[must_use]
    pub fn with_max_breakdowns(mut self, cap: usize) -> Self {
        self.max_breakdowns = cap;
        self
    }

    /// Registers a display label (component name) for an executor.
    /// Unlabelled executors render as `exec-N`.
    pub fn set_label(&mut self, executor: ExecutorId, label: &str) {
        self.labels.insert(executor, Arc::from(label));
    }

    fn label_of(&self, executor: ExecutorId) -> Arc<str> {
        self.labels
            .get(&executor)
            .cloned()
            .unwrap_or_else(|| Arc::from(executor.to_string().as_str()))
    }

    /// Folds one completed root into the aggregates.
    ///
    /// `chain` is the span chain of the message whose arrival completed
    /// the root (the critical path); `emit_at`/`completed_at` bound the
    /// measured latency. The chain is walked once, folding each segment
    /// straight into the aggregates.
    pub fn observe_root(
        &mut self,
        tuple: TupleId,
        emit_at: SimTime,
        completed_at: SimTime,
        chain: &SpanChain,
    ) {
        let latency_us = completed_at.saturating_sub(emit_at).as_micros();
        let mut sums = [0u64; 4];
        let mut segments: u32 = 0;
        let mut cur = chain;
        while let Some(link) = cur {
            let seg = &link.seg;
            segments += 1;
            match seg.kind {
                SpanKind::Queue | SpanKind::Service => {
                    let c = self
                        .components
                        .entry(self.label_of(seg.executor))
                        .or_default();
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
            cur = &link.parent;
        }

        let b = RootBreakdown {
            tuple,
            latency_us,
            queue_us: sums[0],
            service_us: sums[1],
            network_us: sums[2],
            replay_us: sums[3],
            segments,
        };
        self.totals.roots += 1;
        if b.replay_us > 0 {
            self.totals.replayed_roots += 1;
        }
        self.totals.latency_us += b.latency_us;
        self.totals.max_latency_us = self.totals.max_latency_us.max(b.latency_us);
        self.totals.queue_us += b.queue_us;
        self.totals.service_us += b.service_us;
        self.totals.network_us += b.network_us;
        self.totals.replay_us += b.replay_us;

        if self.breakdowns.len() < self.max_breakdowns {
            self.breakdowns.push(b);
        } else {
            self.dropped_breakdowns += 1;
        }
    }

    /// Adds one network segment to the edge, node-pair and hop-class
    /// tables.
    fn fold_network(&mut self, net: &SpanSeg) {
        let key = (
            self.label_of(net.from_executor),
            self.label_of(net.executor),
        );
        let e = self.edges.entry(key).or_default();
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
        let label = net.hop.map_or("unknown", HopClass::label);
        let hc = self.hop_classes.entry(label).or_default();
        hc.hops += 1;
        hc.network_us += net.micros;
    }

    /// Grand totals so far.
    #[must_use]
    pub fn totals(&self) -> &PathTotals {
        &self.totals
    }

    /// Retained per-root breakdowns (bounded by the retention cap).
    #[must_use]
    pub fn breakdowns(&self) -> &[RootBreakdown] {
        &self.breakdowns
    }

    /// Breakdowns dropped after the retention cap filled.
    #[must_use]
    pub fn dropped_breakdowns(&self) -> u64 {
        self.dropped_breakdowns
    }

    /// True if no root has been observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.totals.roots == 0
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
            .u64("dropped_breakdowns", self.dropped_breakdowns);

        let mut components = String::from("[");
        for (i, (name, c)) in self.components.iter().enumerate() {
            if i > 0 {
                components.push(',');
            }
            let mut co = ObjectWriter::new();
            co.str("component", name)
                .u64("segments", c.segments)
                .u64("queue_us", c.queue_us)
                .u64("service_us", c.service_us);
            components.push_str(&co.finish());
        }
        components.push(']');
        o.raw("components", &components);

        let mut edges = String::from("[");
        for (i, ((from, to), e)) in self.edges.iter().enumerate() {
            if i > 0 {
                edges.push(',');
            }
            let mut eo = ObjectWriter::new();
            eo.str("from", from)
                .str("to", to)
                .u64("hops", e.hops)
                .u64("network_us", e.network_us)
                .u64("inter_node_hops", e.inter_node_hops);
            edges.push_str(&eo.finish());
        }
        edges.push(']');
        o.raw("edges", &edges);

        let mut pairs = String::from("[");
        for (i, ((from, to), p)) in self.node_pairs.iter().enumerate() {
            if i > 0 {
                pairs.push(',');
            }
            let mut po = ObjectWriter::new();
            po.u64("from", u64::from(from.index()))
                .u64("to", u64::from(to.index()))
                .u64("hops", p.hops)
                .u64("network_us", p.network_us);
            pairs.push_str(&po.finish());
        }
        pairs.push(']');
        o.raw("node_pairs", &pairs);

        let mut classes = String::from("[");
        for (i, (label, h)) in self.hop_classes.iter().enumerate() {
            if i > 0 {
                classes.push(',');
            }
            let mut ho = ObjectWriter::new();
            ho.str("class", label)
                .u64("hops", h.hops)
                .u64("network_us", h.network_us);
            classes.push_str(&ho.finish());
        }
        classes.push(']');
        o.raw("hop_classes", &classes);
        o.finish()
    }

    /// Human-readable summary tables for the CLI's `--spans` output.
    #[must_use]
    pub fn render_summary(&self) -> String {
        let t = &self.totals;
        let mut out = String::new();
        if t.roots == 0 {
            out.push_str("critical path: no completed roots observed\n");
            return out;
        }
        let ms = |us: u64| us as f64 / 1e3;
        let per_root = |us: u64| us as f64 / 1e3 / t.roots as f64;
        let _ = writeln!(
            out,
            "critical path over {} roots (mean latency {:.3} ms, max {:.3} ms)",
            t.roots,
            per_root(t.latency_us),
            ms(t.max_latency_us),
        );
        let measured = t.queue_us + t.service_us + t.network_us;
        let pct = |us: u64| {
            if measured == 0 {
                0.0
            } else {
                100.0 * us as f64 / measured as f64
            }
        };
        let _ = writeln!(
            out,
            "  queue {:.3} ms/root ({:.1}%)  service {:.3} ms/root ({:.1}%)  network {:.3} ms/root ({:.1}%)",
            per_root(t.queue_us),
            pct(t.queue_us),
            per_root(t.service_us),
            pct(t.service_us),
            per_root(t.network_us),
            pct(t.network_us),
        );
        if t.replayed_roots > 0 {
            let _ = writeln!(
                out,
                "  {} replayed roots waited {:.3} ms total in the replay queue",
                t.replayed_roots,
                ms(t.replay_us),
            );
        }

        if !self.components.is_empty() {
            let _ = writeln!(
                out,
                "  {:<18} {:>10} {:>12} {:>12}",
                "component", "segments", "queue(ms)", "service(ms)"
            );
            for (name, c) in &self.components {
                let _ = writeln!(
                    out,
                    "  {:<18} {:>10} {:>12.3} {:>12.3}",
                    name,
                    c.segments,
                    ms(c.queue_us),
                    ms(c.service_us),
                );
            }
        }
        if !self.edges.is_empty() {
            let _ = writeln!(
                out,
                "  {:<24} {:>8} {:>12} {:>12}",
                "edge", "hops", "network(ms)", "inter-node"
            );
            for ((from, to), e) in &self.edges {
                let _ = writeln!(
                    out,
                    "  {:<24} {:>8} {:>12.3} {:>11.1}%",
                    format!("{from}->{to}"),
                    e.hops,
                    ms(e.network_us),
                    if e.hops == 0 {
                        0.0
                    } else {
                        100.0 * e.inter_node_hops as f64 / e.hops as f64
                    },
                );
            }
        }
        if !self.hop_classes.is_empty() {
            let _ = writeln!(
                out,
                "  {:<18} {:>8} {:>12}",
                "hop class", "hops", "network(ms)"
            );
            for (label, h) in &self.hop_classes {
                let _ = writeln!(
                    out,
                    "  {:<18} {:>8} {:>12.3}",
                    label,
                    h.hops,
                    ms(h.network_us),
                );
            }
        }
        out
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
    fn chains_share_prefixes_on_fanout() {
        let base = extend(&None, SpanSeg::service(e(0), n(0), 100));
        let left = extend(
            &base,
            SpanSeg::network(e(0), n(0), e(1), n(1), HopClass::InterNode, 500),
        );
        let right = extend(
            &base,
            SpanSeg::network(e(0), n(0), e(2), n(0), HopClass::InterProcess, 120),
        );
        // Both branches point at the same parent link.
        assert!(Arc::ptr_eq(
            left.as_ref().unwrap().parent.as_ref().unwrap(),
            right.as_ref().unwrap().parent.as_ref().unwrap(),
        ));
        assert_eq!(sum_by_kind(&left), [0, 100, 500, 0]);
        assert_eq!(sum_by_kind(&right), [0, 100, 120, 0]);
    }

    #[test]
    fn collector_attributes_segments() {
        let mut c = CriticalPathCollector::new();
        c.set_label(e(0), "spout");
        c.set_label(e(1), "bolt");
        let chain = extend(
            &extend(
                &extend(
                    &None,
                    SpanSeg::network(e(0), n(0), e(1), n(1), HopClass::InterNode, 500),
                ),
                SpanSeg::queue(e(1), n(1), 40),
            ),
            SpanSeg::service(e(1), n(1), 60),
        );
        c.observe_root(
            TupleId::new(7),
            SimTime::from_micros(1_000),
            SimTime::from_micros(1_600),
            &chain,
        );
        let t = c.totals();
        assert_eq!(t.roots, 1);
        assert_eq!(t.latency_us, 600);
        assert_eq!(t.queue_us + t.service_us + t.network_us, 600);
        let b = c.breakdowns()[0];
        assert_eq!(b.queue_us, 40);
        assert_eq!(b.service_us, 60);
        assert_eq!(b.network_us, 500);
        assert_eq!(b.segments, 3);

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
    fn batched_delivery_fans_out_per_tuple_segments() {
        // Two tuples staged into the same batch at different instants
        // (t=100 and t=150) and delivered together at t=600: the fan-out
        // gives each its own network segment (500 µs and 450 µs), so both
        // chains still telescope to their own emit → completion latency.
        let mut c = CriticalPathCollector::new();
        let service = extend(&None, SpanSeg::service(e(0), n(0), 100));
        let first = extend(
            &service,
            SpanSeg::network(e(0), n(0), e(1), n(1), HopClass::InterNode, 500),
        );
        let second = extend(
            &service,
            SpanSeg::network(e(0), n(0), e(1), n(1), HopClass::InterNode, 450),
        );
        c.observe_root(
            TupleId::new(1),
            SimTime::ZERO,
            SimTime::from_micros(600),
            &first,
        );
        c.observe_root(
            TupleId::new(2),
            SimTime::from_micros(50),
            SimTime::from_micros(600),
            &second,
        );
        let t = c.totals();
        assert_eq!(t.roots, 2);
        assert_eq!(t.latency_us, 600 + 550);
        assert_eq!(t.queue_us + t.service_us + t.network_us, 600 + 550);
        for b in c.breakdowns() {
            assert_eq!(b.queue_us + b.service_us + b.network_us, b.latency_us);
        }
    }

    #[test]
    fn replay_segments_sit_outside_latency() {
        let mut c = CriticalPathCollector::new();
        let chain = extend(
            &extend(&None, SpanSeg::replay(e(0), n(0), 30_000)),
            SpanSeg::service(e(1), n(0), 200),
        );
        c.observe_root(
            TupleId::new(1),
            SimTime::from_micros(100),
            SimTime::from_micros(300),
            &chain,
        );
        let t = c.totals();
        assert_eq!(t.replayed_roots, 1);
        assert_eq!(t.replay_us, 30_000);
        assert_eq!(t.latency_us, 200);
    }

    #[test]
    fn observe_root_folds_every_segment_kind_in_one_walk() {
        let chain = extend(
            &extend(
                &extend(
                    &extend(&None, SpanSeg::replay(e(0), n(0), 7_000)),
                    SpanSeg::network(e(0), n(0), e(1), n(1), HopClass::InterNode, 500),
                ),
                SpanSeg::queue(e(1), n(1), 40),
            ),
            SpanSeg::service(e(1), n(1), 60),
        );
        let mut c = CriticalPathCollector::new();
        c.set_label(e(0), "spout");
        c.set_label(e(1), "bolt");
        c.observe_root(
            TupleId::new(3),
            SimTime::from_micros(1_000),
            SimTime::from_micros(1_600),
            &chain,
        );
        let t = c.totals();
        assert_eq!((t.roots, t.replayed_roots), (1, 1));
        assert_eq!(t.latency_us, 600);
        assert_eq!(
            (t.queue_us, t.service_us, t.network_us, t.replay_us),
            (40, 60, 500, 7_000)
        );
        assert_eq!(c.breakdowns()[0].segments, 4);
        let json = c.to_json();
        assert!(
            json.contains(r#"{"component":"bolt","segments":2,"queue_us":40,"service_us":60}"#),
            "{json}"
        );
        assert!(!json.contains(r#""component":"spout""#), "{json}");
    }

    #[test]
    fn breakdown_cap_is_respected() {
        let mut c = CriticalPathCollector::new().with_max_breakdowns(2);
        for i in 0..5 {
            c.observe_root(
                TupleId::new(i),
                SimTime::ZERO,
                SimTime::from_micros(10),
                &None,
            );
        }
        assert_eq!(c.breakdowns().len(), 2);
        assert_eq!(c.dropped_breakdowns(), 3);
        assert_eq!(c.totals().roots, 5);
    }

    #[test]
    fn summary_renders_unlabelled_executors() {
        let mut c = CriticalPathCollector::new();
        let chain = extend(&None, SpanSeg::service(e(9), n(0), 50));
        c.observe_root(
            TupleId::new(0),
            SimTime::ZERO,
            SimTime::from_micros(50),
            &chain,
        );
        let text = c.render_summary();
        assert!(text.contains("exec-9"), "{text}");
        assert!(text.contains("critical path over 1 roots"), "{text}");
    }

    #[test]
    fn empty_collector_summary() {
        let c = CriticalPathCollector::new();
        assert!(c.is_empty());
        assert!(c.render_summary().contains("no completed roots"));
        assert!(parse(&c.to_json()).is_some());
    }
}
