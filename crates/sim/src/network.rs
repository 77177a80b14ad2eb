//! The network model: hop classification, latency and the shared 1 Gbps
//! per-node NIC.

use crate::config::NetworkConfig;
use tstorm_types::{Bytes, NodeId, SimTime};

/// Where two executors sit relative to each other — determines hand-off
/// cost (Observation 1 of the paper). The trace vocabulary owns the type.
pub use tstorm_trace::HopClass;

/// Stateful network model: computes delivery times and tracks per-node
/// NIC availability so cross-node traffic contends for the 1 Gbps link.
///
/// NICs are full duplex: each node has an independent transmit timeline
/// and receive timeline. An inter-node send occupies the source's tx
/// side *and* the destination's rx side for the payload's transmission
/// time, so both a chatty sender and a hot fan-in receiver queue.
#[derive(Debug, Clone)]
pub struct Network {
    config: NetworkConfig,
    /// Earliest time each node's NIC is free to start transmitting.
    tx_free: Vec<SimTime>,
    /// Earliest time each node's NIC is free to start receiving.
    rx_free: Vec<SimTime>,
    /// Transient per-node slowdown multipliers (fault injection); 1.0
    /// when healthy. Transmissions touching a slowed node's NIC take
    /// `factor`× as long on the wire.
    slow_factor: Vec<f64>,
    /// Per-node NIC speed class (bits/s). Initialised to the config
    /// default for every node; heterogeneous clusters override
    /// individual nodes via [`Network::set_node_nic`]. A transfer runs
    /// at the slower endpoint's speed.
    nic_bits: Vec<u64>,
}

impl Network {
    /// Creates the model for `num_nodes` nodes, all on the config's
    /// default NIC class.
    #[must_use]
    pub fn new(config: NetworkConfig, num_nodes: usize) -> Self {
        let nic = config.nic_bits_per_sec;
        Self {
            config,
            tx_free: vec![SimTime::ZERO; num_nodes],
            rx_free: vec![SimTime::ZERO; num_nodes],
            slow_factor: vec![1.0; num_nodes],
            nic_bits: vec![nic; num_nodes],
        }
    }

    /// The configured parameters.
    #[must_use]
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Overrides one node's NIC speed class (bits per second). Part of
    /// the cluster *shape*, not transient state: [`Network::reset`]
    /// keeps it (unlike [`Network::set_slow_factor`], which models a
    /// fault).
    pub fn set_node_nic(&mut self, node: NodeId, bits_per_sec: u64) {
        self.nic_bits[node.as_usize()] = bits_per_sec.max(1);
    }

    /// Sets a node's transient NIC slowdown multiplier (≥ 1; `1.0`
    /// restores full speed).
    pub fn set_slow_factor(&mut self, node: NodeId, factor: f64) {
        self.slow_factor[node.as_usize()] = factor.max(1.0);
    }

    /// The node's current slowdown multiplier.
    #[must_use]
    pub fn slow_factor(&self, node: NodeId) -> f64 {
        self.slow_factor[node.as_usize()]
    }

    /// Computes when a message sent at `now` arrives, given source and
    /// destination placement. `dst_extra_workers` is the number of worker
    /// processes on the destination node beyond the first — crowded nodes
    /// delay delivery (OS scheduling of the receiving worker's threads).
    ///
    /// Inter-node sends occupy the source NIC's tx timeline and the
    /// destination NIC's rx timeline for the transmission time, so heavy
    /// cross-node traffic queues at either end.
    ///
    /// A batch of coalesced messages travels as one frame: `payload` is
    /// the summed tuple payloads, so the batch pays a **single**
    /// `header_bytes` framing overhead, base hop latency and receiver
    /// scheduling delay. That amortisation is the serialization cost
    /// model that makes transfer batching pay: `n` tuples shipped
    /// separately cost `n` of each; batched they cost one.
    pub fn delivery_time(
        &mut self,
        now: SimTime,
        hop: HopClass,
        payload: Bytes,
        src_node: NodeId,
        dst_node: NodeId,
        dst_extra_workers: u32,
    ) -> SimTime {
        match hop {
            HopClass::IntraWorker => now + SimTime::from_micros(self.config.intra_worker_micros),
            HopClass::InterProcess => {
                let sched = SimTime::from_micros(
                    self.config.recv_sched_delay_per_extra_worker * u64::from(dst_extra_workers),
                );
                now + SimTime::from_micros(self.config.inter_process_micros) + sched
            }
            HopClass::InterNode => {
                let bytes = Bytes::new(payload.get() + self.config.header_bytes);
                // A slowed NIC at either end throttles the whole
                // transfer (the link runs at the slower endpoint).
                let factor = self
                    .slow_factor(src_node)
                    .max(self.slow_factor(dst_node))
                    .max(1.0);
                // The transfer runs at the slower endpoint's NIC class
                // (homogeneous clusters: both equal the config default,
                // so timings are unchanged).
                let bits_per_sec =
                    self.nic_bits[src_node.as_usize()].min(self.nic_bits[dst_node.as_usize()]);
                let wire = bytes.transmit_micros(bits_per_sec) as f64 * factor;
                let tx = SimTime::from_micros(wire.round() as u64);
                // Sender side: wait for our tx slot.
                let tx_nic = &mut self.tx_free[src_node.as_usize()];
                let tx_start = if *tx_nic > now { *tx_nic } else { now };
                let tx_end = tx_start + tx;
                *tx_nic = tx_end;
                // Receiver side: the frame also needs the destination's
                // rx capacity; a hot fan-in node makes senders queue.
                let rx_nic = &mut self.rx_free[dst_node.as_usize()];
                let rx_start = if *rx_nic > tx_start {
                    *rx_nic
                } else {
                    tx_start
                };
                let rx_end = rx_start + tx;
                *rx_nic = rx_end;
                let done = if rx_end > tx_end { rx_end } else { tx_end };
                let sched = SimTime::from_micros(
                    self.config.recv_sched_delay_per_extra_worker * u64::from(dst_extra_workers),
                );
                done + SimTime::from_micros(self.config.inter_node_micros) + sched
            }
        }
    }

    /// Resets NIC state (used between experiment repetitions).
    pub fn reset(&mut self) {
        for t in self.tx_free.iter_mut().chain(self.rx_free.iter_mut()) {
            *t = SimTime::ZERO;
        }
        for f in &mut self.slow_factor {
            *f = 1.0;
        }
    }
}

/// Classifies a hop from slot placement.
#[must_use]
pub fn classify(src_slot: u32, dst_slot: u32, src_node: NodeId, dst_node: NodeId) -> HopClass {
    if src_slot == dst_slot {
        HopClass::IntraWorker
    } else if src_node == dst_node {
        HopClass::InterProcess
    } else {
        HopClass::InterNode
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn network() -> Network {
        Network::new(NetworkConfig::default(), 2)
    }

    #[test]
    fn classification() {
        let n0 = NodeId::new(0);
        let n1 = NodeId::new(1);
        assert_eq!(classify(0, 0, n0, n0), HopClass::IntraWorker);
        assert_eq!(classify(0, 1, n0, n0), HopClass::InterProcess);
        assert_eq!(classify(0, 4, n0, n1), HopClass::InterNode);
    }

    fn node(k: u32) -> NodeId {
        NodeId::new(k)
    }

    #[test]
    fn latency_ordering() {
        let mut net = network();
        let now = SimTime::from_secs(1);
        let p = Bytes::from_kib(1);
        let intra = net.delivery_time(now, HopClass::IntraWorker, p, node(0), node(0), 0);
        let proc = net.delivery_time(now, HopClass::InterProcess, p, node(0), node(0), 0);
        let inter = net.delivery_time(now, HopClass::InterNode, p, node(0), node(1), 0);
        assert!(intra < proc);
        assert!(proc < inter);
    }

    #[test]
    fn crowded_destination_slows_delivery() {
        let mut net = network();
        let now = SimTime::from_secs(1);
        let p = Bytes::new(100);
        let quiet = net.delivery_time(now, HopClass::InterProcess, p, node(0), node(0), 0);
        let crowded = net.delivery_time(now, HopClass::InterProcess, p, node(0), node(0), 3);
        assert_eq!(
            (crowded - quiet).as_micros(),
            3 * NetworkConfig::default().recv_sched_delay_per_extra_worker
        );
    }

    #[test]
    fn nic_serialises_transmissions() {
        let mut net = Network::new(NetworkConfig::default(), 4);
        let now = SimTime::from_secs(1);
        let big = Bytes::from_kib(100); // ~819 us on 1 Gbps
        let first = net.delivery_time(now, HopClass::InterNode, big, node(0), node(1), 0);
        let second = net.delivery_time(now, HopClass::InterNode, big, node(0), node(1), 0);
        assert!(second > first, "second transfer queues behind the first");
        // A pair of fresh NICs is unaffected.
        let other = net.delivery_time(now, HopClass::InterNode, big, node(2), node(3), 0);
        assert_eq!(other, first);
    }

    #[test]
    fn fan_in_queues_on_the_receiver_nic() {
        // Regression: rx capacity used to be unmodelled, so any number
        // of senders could deliver to one node simultaneously. With
        // full-duplex per-node timelines, distinct senders with free tx
        // NICs still serialise on the shared receiver.
        let mut net = Network::new(NetworkConfig::default(), 4);
        let now = SimTime::from_secs(1);
        let big = Bytes::from_kib(100);
        let hot = node(3);
        let t0 = net.delivery_time(now, HopClass::InterNode, big, node(0), hot, 0);
        let t1 = net.delivery_time(now, HopClass::InterNode, big, node(1), hot, 0);
        let t2 = net.delivery_time(now, HopClass::InterNode, big, node(2), hot, 0);
        assert!(t1 > t0, "second sender queues behind the receiver's rx");
        assert!(t2 > t1, "third sender queues further");
        // The gap is one transmission time per queued frame.
        let tx_micros = Bytes::new(big.get() + NetworkConfig::default().header_bytes)
            .transmit_micros(NetworkConfig::default().nic_bits_per_sec);
        assert_eq!((t1 - t0).as_micros(), tx_micros);
        assert_eq!((t2 - t1).as_micros(), tx_micros);
        // A transfer avoiding the hot receiver is unaffected by its queue.
        let mut fresh = Network::new(NetworkConfig::default(), 4);
        let cold = fresh.delivery_time(now, HopClass::InterNode, big, node(0), node(1), 0);
        assert_eq!(cold, t0);
    }

    #[test]
    fn slow_factor_stretches_transfers_at_either_end() {
        let now = SimTime::from_secs(1);
        let big = Bytes::from_kib(100);
        let mut healthy = Network::new(NetworkConfig::default(), 4);
        let base = healthy.delivery_time(now, HopClass::InterNode, big, node(0), node(1), 0);

        let mut slowed = Network::new(NetworkConfig::default(), 4);
        slowed.set_slow_factor(node(1), 4.0);
        assert_eq!(slowed.slow_factor(node(1)), 4.0);
        let to_slow = slowed.delivery_time(now, HopClass::InterNode, big, node(0), node(1), 0);
        assert!(to_slow > base, "rx-side slowdown delays delivery");
        let from_slow = slowed.delivery_time(now, HopClass::InterNode, big, node(1), node(2), 0);
        assert!(from_slow > base, "tx-side slowdown delays delivery");
        let elsewhere = slowed.delivery_time(now, HopClass::InterNode, big, node(2), node(3), 0);
        assert_eq!(elsewhere, base, "unrelated pairs run at full speed");

        // Restoring the factor restores timings (fresh NICs).
        slowed.reset();
        assert_eq!(slowed.slow_factor(node(1)), 1.0);
        let after = slowed.delivery_time(now, HopClass::InterNode, big, node(0), node(1), 0);
        assert_eq!(after, base);
    }

    #[test]
    fn heterogeneous_nic_runs_at_the_slower_endpoint() {
        let now = SimTime::from_secs(1);
        let big = Bytes::from_kib(100);
        let mut base = Network::new(NetworkConfig::default(), 4);
        let default_time = base.delivery_time(now, HopClass::InterNode, big, node(0), node(1), 0);

        // Upgrading BOTH endpoints to 10 Gbps speeds the transfer up.
        let mut fast = Network::new(NetworkConfig::default(), 4);
        fast.set_node_nic(node(0), 10_000_000_000);
        fast.set_node_nic(node(1), 10_000_000_000);
        let fast_time = fast.delivery_time(now, HopClass::InterNode, big, node(0), node(1), 0);
        assert!(
            fast_time < default_time,
            "{fast_time:?} vs {default_time:?}"
        );

        // A fast sender talking to a default (1 Gbps) receiver runs at
        // the receiver's speed — identical to the all-default timing.
        let mut mixed = Network::new(NetworkConfig::default(), 4);
        mixed.set_node_nic(node(0), 10_000_000_000);
        let mixed_time = mixed.delivery_time(now, HopClass::InterNode, big, node(0), node(1), 0);
        assert_eq!(mixed_time, default_time);

        // NIC classes are cluster shape: reset() keeps them.
        fast.reset();
        let after = fast.delivery_time(now, HopClass::InterNode, big, node(0), node(1), 0);
        assert_eq!(after, fast_time);
    }

    #[test]
    fn reset_clears_nic_state() {
        let mut net = network();
        let now = SimTime::from_secs(1);
        let big = Bytes::from_kib(100);
        let first = net.delivery_time(now, HopClass::InterNode, big, node(0), node(1), 0);
        let _ = net.delivery_time(now, HopClass::InterNode, big, node(0), node(1), 0);
        net.reset();
        let after_reset = net.delivery_time(now, HopClass::InterNode, big, node(0), node(1), 0);
        assert_eq!(after_reset, first);
    }

    #[test]
    fn batching_amortises_headers_and_base_latency() {
        // Eight 100-byte tuples cross-node: sent separately they pay
        // eight headers, eight base latencies and eight NIC slots;
        // batched they pay one of each on the summed payload.
        let now = SimTime::from_secs(1);
        let n = 8u64;
        let per_tuple = Bytes::new(100);
        let mut separate = Network::new(NetworkConfig::default(), 2);
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            last = separate.delivery_time(now, HopClass::InterNode, per_tuple, node(0), node(1), 2);
        }
        let mut coalesced = Network::new(NetworkConfig::default(), 2);
        let batch = coalesced.delivery_time(
            now,
            HopClass::InterNode,
            Bytes::new(per_tuple.get() * n),
            node(0),
            node(1),
            2,
        );
        assert!(
            batch < last,
            "batched arrival {batch:?} should beat the last of {n} separate sends {last:?}"
        );
        // The batch's wire time covers the payload sum plus ONE header.
        let cfg = NetworkConfig::default();
        let wire = Bytes::new(per_tuple.get() * n + cfg.header_bytes)
            .transmit_micros(cfg.nic_bits_per_sec);
        let sched = 2 * cfg.recv_sched_delay_per_extra_worker;
        assert_eq!(
            (batch - now).as_micros(),
            wire + cfg.inter_node_micros + sched
        );
    }

    #[test]
    fn intra_worker_ignores_payload_size() {
        let mut net = network();
        let now = SimTime::ZERO;
        let small = net.delivery_time(
            now,
            HopClass::IntraWorker,
            Bytes::new(1),
            node(0),
            node(0),
            0,
        );
        let large = net.delivery_time(
            now,
            HopClass::IntraWorker,
            Bytes::from_kib(100),
            node(0),
            node(0),
            0,
        );
        assert_eq!(small, large);
    }
}
