//! The transfer-density workload: a deliberately network-bound fan-out
//! pipeline for exercising tuple *transfer* rather than tuple
//! *processing*.
//!
//! `spout → fan → sink`, one executor each, with near-free logic: the
//! fan re-emits every spout tuple [`TransferParams::copies`] times, so
//! the fan → sink edge carries `copies`× the spout rate in tiny tuples.
//! Scheduled round-robin onto two single-slot nodes, every edge crosses
//! the wire, and with tuples this small the fixed per-message costs —
//! the frame header and the base hop latency — dominate the link: the
//! configuration is sized so the fan's output exceeds what the NIC can
//! carry one message at a time. That makes the scenario the natural A/B
//! for transfer batching, which amortises exactly those fixed
//! per-message costs across a whole batch (the reason Storm coalesces
//! transfers per destination in practice).
//!
//! Acking is disabled and the message timeout is effectively infinite:
//! a saturated link backlogs tuples for the whole run by design, and
//! replay feedback would otherwise snowball the offered load and
//! obscure the measurement. Roots complete inline when their anchored
//! tuples finish; whatever the wire never delivered stays in flight.

use crate::logic::{CountingBolt, FanOutBolt, RandomStringSpout};
use tstorm_sim::ExecutorLogic;
use tstorm_topology::{
    ComponentKind, ComponentSpec, CostProfile, Grouping, Topology, TopologyBuilder,
};
use tstorm_types::{Bytes, Result, SimTime};

/// Parameters of the transfer-density topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferParams {
    /// Spout executors.
    pub spouts: u32,
    /// Fan executors.
    pub fans: u32,
    /// Tuples the fan re-emits per input tuple.
    pub copies: u32,
    /// Sink executors.
    pub sinks: u32,
    /// Workers requested.
    pub workers: u32,
    /// Spout payload string size in bytes (kept tiny: the point is
    /// per-message overhead, not per-byte cost).
    pub payload_bytes: usize,
    /// Spout pacing.
    pub emit_interval_ms: u64,
}

impl TransferParams {
    /// The transfer-density overload (the benchmark's `overload-b8`
    /// workload runs these parameters): one executor per component
    /// across two single-slot nodes (so both edges are inter-node), a
    /// 48× fan multiplier, and zero-length payload strings — each data
    /// tuple is 16 payload bytes (8-byte seq + 8-byte emit overhead)
    /// against a 32-byte frame header.
    #[must_use]
    pub fn overload() -> Self {
        Self {
            spouts: 1,
            fans: 1,
            copies: 48,
            sinks: 1,
            workers: 2,
            payload_bytes: 0,
            emit_interval_ms: 1,
        }
    }
}

impl Default for TransferParams {
    fn default() -> Self {
        Self::overload()
    }
}

/// Builds the transfer-density topology.
///
/// # Errors
///
/// Propagates topology validation failures.
pub fn topology(p: &TransferParams) -> Result<Topology> {
    // Near-free logic with a small 8-byte per-emit framing estimate:
    // the benchmark wants transfer costs, not compute, to dominate.
    let cheap = CostProfile {
        cycles_per_tuple: 2_000,
        cycles_per_emit: 500,
        cycles_per_input_byte: 0,
        emit_overhead_bytes: Bytes::new(8),
    };
    let spout_cost = CostProfile {
        cycles_per_tuple: 4_000,
        ..cheap
    };
    TopologyBuilder::new("transfer-density")
        .spout_with(
            "spout",
            p.spouts,
            &["seq", "payload"],
            spout_cost,
            SimTime::from_millis(p.emit_interval_ms),
        )
        .bolt_with_cost(
            "fan",
            p.fans,
            &["seq", "payload"],
            &[("spout", Grouping::Shuffle)],
            cheap,
        )
        .bolt_with_cost(
            "sink",
            p.sinks,
            &["count"],
            &[("fan", Grouping::Shuffle)],
            cheap,
        )
        .num_ackers(0)
        .num_workers(p.workers)
        .message_timeout(SimTime::from_secs(3_600))
        .build()
}

/// Builds the logic factory for [`topology`].
pub fn factory(p: &TransferParams, seed: u64) -> impl FnMut(&ComponentSpec, u32) -> ExecutorLogic {
    let bytes = p.payload_bytes;
    let copies = p.copies;
    move |spec, index| match (spec.kind(), spec.name()) {
        (ComponentKind::Spout, _) => ExecutorLogic::spout(RandomStringSpout::new(
            bytes,
            seed ^ (u64::from(index) << 32),
        )),
        (_, "fan") => ExecutorLogic::bolt(FanOutBolt::new(copies)),
        _ => ExecutorLogic::bolt(CountingBolt::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tstorm_cluster::{Assignment, ClusterSpec};
    use tstorm_sim::{SimConfig, Simulation};
    use tstorm_types::{Mhz, SlotId};

    #[test]
    fn overload_parameters_expand_to_three_executors() {
        let t = topology(&TransferParams::overload()).expect("valid");
        assert_eq!(t.total_executors(), 3);
        assert_eq!(t.num_workers(), 2);
    }

    #[test]
    fn runs_end_to_end_and_fans_out() {
        let p = TransferParams::overload();
        let t = topology(&p).expect("valid");
        let cluster = ClusterSpec::homogeneous(2, 1, Mhz::new(8000.0)).expect("valid");
        let mut sim = Simulation::new(cluster, SimConfig::default());
        let mut f = factory(&p, 7);
        sim.submit_topology(&t, &mut f);
        // Alternate slots so both edges cross between the two nodes,
        // like the scheduled benchmark placement.
        let a: Assignment = sim
            .executor_descriptors()
            .into_iter()
            .enumerate()
            .map(|(i, d)| (d.id, SlotId::new((i % 2) as u32)))
            .collect();
        sim.apply_assignment(&a);
        // Workers take 2 simulated seconds to start; run well past that.
        sim.run_until(SimTime::from_secs(6));
        // Every spout emission fans out `copies` ways; with an
        // unconstrained default network some roots must finish.
        assert!(sim.completed() > 0, "roots complete inline without ackers");
        assert!(
            sim.emitted() > 100,
            "the 1 ms spout keeps the pipeline fed ({})",
            sim.emitted()
        );
    }
}
