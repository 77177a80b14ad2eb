//! The structured trace event vocabulary.
//!
//! Every observable state transition in the simulated T-Storm cluster is
//! one [`TraceEvent`] variant. Events carry plain identifiers (executor
//! indices, node indices, tuple ids) rather than references into
//! simulator state, so a writer can buffer or serialise them without
//! lifetime entanglement.
//!
//! Rendering to JSONL is part of this module so that the byte layout of
//! a trace line is defined in exactly one place: field order is fixed,
//! floats use Rust's shortest round-trip formatting, and nothing in a
//! line depends on wall-clock time or hash-map iteration order. Two runs
//! with the same seed therefore produce byte-identical trace files.

use crate::json::ObjectWriter;
use tstorm_types::SimTime;

/// Locality class of a tuple transfer, mirroring the paper's three-level
/// cost model (§III): intra-executor/worker hops are nearly free,
/// inter-process hops pay IPC, inter-node hops pay the network.
///
/// The one definition of the classification: the simulator's network
/// model re-exports it as `tstorm_sim::network::HopClass`, so the cost
/// model and the trace share the type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HopClass {
    /// Producer and consumer share a worker (JVM) — in-memory hand-off.
    IntraWorker,
    /// Same node, different worker process — local IPC.
    InterProcess,
    /// Different nodes — pays full network latency and bandwidth.
    InterNode,
}

impl HopClass {
    /// Stable lower-case label used in JSONL output and metric labels.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            HopClass::IntraWorker => "intra_worker",
            HopClass::InterProcess => "inter_process",
            HopClass::InterNode => "inter_node",
        }
    }
}

/// Coarse event category, used for trace filtering and sampling.
///
/// High-frequency data-plane categories (`Tuple`, `Queue`, `Process`)
/// are eligible for 1-in-N sampling; control-plane categories are
/// always recorded when their category passes the filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventCategory {
    /// Tuple lifecycle: emit, transfer, ack, complete, timeout, replay.
    Tuple,
    /// Executor receive-queue occupancy changes.
    Queue,
    /// Executor processing start/finish.
    Process,
    /// Worker/assignment lifecycle.
    Worker,
    /// Scheduler and control-plane decisions.
    Control,
}

impl EventCategory {
    /// All categories, in filter-string order.
    pub const ALL: [EventCategory; 5] = [
        EventCategory::Tuple,
        EventCategory::Queue,
        EventCategory::Process,
        EventCategory::Worker,
        EventCategory::Control,
    ];

    /// Stable lower-case name (also the `--trace-filter` token).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventCategory::Tuple => "tuple",
            EventCategory::Queue => "queue",
            EventCategory::Process => "process",
            EventCategory::Worker => "worker",
            EventCategory::Control => "control",
        }
    }

    /// Parses a filter token (case-insensitive).
    #[must_use]
    pub fn parse(token: &str) -> Option<EventCategory> {
        let t = token.trim().to_ascii_lowercase();
        Self::ALL.into_iter().find(|c| c.name() == t)
    }

    /// True for high-frequency data-plane categories that 1-in-N
    /// sampling applies to.
    #[must_use]
    pub fn is_sampled(self) -> bool {
        matches!(
            self,
            EventCategory::Tuple | EventCategory::Queue | EventCategory::Process
        )
    }
}

/// One structured trace event.
///
/// Identifier conventions: `executor`/`from_executor`/`to_executor` are
/// global executor indices, `node` is a cluster node index, `worker` is
/// a worker-slot index, `tuple` is the root tuple id the event belongs
/// to (the anchor for at-least-once tracking).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A spout finished emitting a new root tuple.
    TupleEmit {
        /// Root tuple id.
        tuple: u64,
        /// Emitting spout executor.
        executor: u32,
    },
    /// A tuple (root or derived) was sent between two executors.
    TupleTransfer {
        /// Root tuple id.
        tuple: u64,
        /// Producing executor.
        from_executor: u32,
        /// Consuming executor.
        to_executor: u32,
        /// Locality class of the hop.
        hop: HopClass,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// A tuple entered an executor's receive queue.
    QueueEnter {
        /// Root tuple id.
        tuple: u64,
        /// Queue owner.
        executor: u32,
        /// Queue depth after the push.
        depth: u64,
    },
    /// A tuple left an executor's receive queue to start processing.
    QueueLeave {
        /// Root tuple id.
        tuple: u64,
        /// Queue owner.
        executor: u32,
        /// Queue depth after the pop.
        depth: u64,
    },
    /// An executor began processing a tuple.
    ProcessStart {
        /// Root tuple id.
        tuple: u64,
        /// Processing executor.
        executor: u32,
    },
    /// An executor finished processing a tuple.
    ProcessDone {
        /// Root tuple id.
        tuple: u64,
        /// Processing executor.
        executor: u32,
        /// Virtual service time spent, microseconds.
        service_us: u64,
    },
    /// The acker XOR-retired one tuple edge of a tree.
    Ack {
        /// Root tuple id.
        tuple: u64,
    },
    /// A root tuple's tree fully completed.
    Complete {
        /// Root tuple id.
        tuple: u64,
        /// End-to-end completion latency in milliseconds.
        latency_ms: f64,
    },
    /// A root tuple's message timeout expired before completion.
    Timeout {
        /// Root tuple id.
        tuple: u64,
    },
    /// A timed-out root tuple was replayed from the spout.
    Replay {
        /// Root tuple id (of the original emission).
        tuple: u64,
    },
    /// A new assignment version was applied to the cluster.
    AssignmentApplied {
        /// Assignment version number.
        version: u64,
        /// Number of executors whose slot changed vs. the previous
        /// assignment (the diff size — 0 for the initial assignment
        /// means a full rollout is counted in `added`).
        moved: u64,
        /// Executors newly assigned.
        added: u64,
        /// Executors removed from the assignment.
        removed: u64,
    },
    /// A worker process started on a node.
    WorkerStart {
        /// Host node index.
        node: u32,
        /// Worker slot index on that node.
        worker: u32,
    },
    /// A worker process stopped (relocation or failure).
    WorkerStop {
        /// Host node index.
        node: u32,
        /// Worker slot index on that node.
        worker: u32,
    },
    /// The scheduler produced a new candidate schedule.
    ScheduleGenerated {
        /// Scheduler algorithm name (e.g. `tstorm`, `round_robin`).
        algorithm: String,
        /// Predicted inter-node traffic of the schedule (tuples/s).
        inter_node_traffic: f64,
        /// Predicted inter-process traffic of the schedule (tuples/s).
        inter_process_traffic: f64,
    },
    /// The load monitor flagged a node as overloaded.
    OverloadDetected {
        /// Overloaded node index.
        node: u32,
        /// Observed CPU utilisation (0..=1 scale, may exceed 1).
        utilisation: f64,
    },
    /// The active scheduler implementation was hot-swapped.
    SchedulerSwapped {
        /// Name of the scheduler now active.
        to: String,
    },
    /// The traffic-balance weight γ was changed at runtime.
    GammaChanged {
        /// New γ value.
        gamma: f64,
    },
    /// A root tuple permanently failed: it timed out and cannot be
    /// replayed (replay disabled or the replay cap was exhausted).
    TupleFailed {
        /// Root tuple id.
        tuple: u64,
        /// Replays already attempted for this payload.
        replays: u64,
    },
    /// A scheduled fault from the fault plan fired.
    FaultInjected {
        /// Fault kind (`worker_crash`, `node_crash`, `nic_slowdown`,
        /// `nimbus_crash`, `heartbeat_loss`, `node_restart`,
        /// `nic_restored`, `nimbus_restored`, `heartbeat_restored`).
        kind: String,
        /// Targeted node index; `None` for master-level faults
        /// (`nimbus_crash`, `nimbus_restored`).
        node: Option<u32>,
        /// Targeted worker slot, for worker-level faults.
        worker: Option<u32>,
    },
    /// The control plane re-placed executors orphaned by a fault.
    ExecutorsReassigned {
        /// Assignment version carrying the recovery placement.
        version: u64,
        /// Executors moved or newly placed by the recovery assignment.
        count: u64,
    },
    /// First tuple completion after a recovery placement — the fault is
    /// healed end to end.
    RecoveryComplete {
        /// Fault-to-first-completion latency in milliseconds.
        latency_ms: f64,
    },
    /// A supervisor's periodic heartbeat reached Nimbus.
    HeartbeatSent {
        /// Heartbeating node.
        node: u32,
    },
    /// A supervisor fetched a schedule epoch it had not applied yet.
    SupervisorFetch {
        /// Fetching node.
        node: u32,
        /// The schedule-store epoch picked up.
        epoch: u64,
    },
    /// A supervisor finished applying its slice of a schedule epoch.
    EpochApplied {
        /// Applying node.
        node: u32,
        /// The epoch now in force on that node.
        epoch: u64,
    },
    /// Nimbus missed enough consecutive heartbeats to declare the node
    /// dead and exclude it from scheduling.
    NodeDeclaredDead {
        /// The node declared dead.
        node: u32,
        /// Consecutive heartbeat periods missed at declaration time.
        missed: u64,
    },
    /// A declared-dead node's heartbeats resumed: Nimbus reconciles it
    /// back into the schedulable set.
    NodeReconciled {
        /// The reconciled node.
        node: u32,
        /// True when the node never actually went down — the declaration
        /// (and any reassignment made under it) was a false positive.
        false_positive: bool,
    },
}

impl TraceEvent {
    /// Stable event-type name used in the JSONL `type` field.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            TraceEvent::TupleEmit { .. } => "tuple_emit",
            TraceEvent::TupleTransfer { .. } => "tuple_transfer",
            TraceEvent::QueueEnter { .. } => "queue_enter",
            TraceEvent::QueueLeave { .. } => "queue_leave",
            TraceEvent::ProcessStart { .. } => "process_start",
            TraceEvent::ProcessDone { .. } => "process_done",
            TraceEvent::Ack { .. } => "ack",
            TraceEvent::Complete { .. } => "complete",
            TraceEvent::Timeout { .. } => "timeout",
            TraceEvent::Replay { .. } => "replay",
            TraceEvent::AssignmentApplied { .. } => "assignment_applied",
            TraceEvent::WorkerStart { .. } => "worker_start",
            TraceEvent::WorkerStop { .. } => "worker_stop",
            TraceEvent::ScheduleGenerated { .. } => "schedule_generated",
            TraceEvent::OverloadDetected { .. } => "overload_detected",
            TraceEvent::SchedulerSwapped { .. } => "scheduler_swapped",
            TraceEvent::GammaChanged { .. } => "gamma_changed",
            TraceEvent::TupleFailed { .. } => "tuple_failed",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::ExecutorsReassigned { .. } => "executors_reassigned",
            TraceEvent::RecoveryComplete { .. } => "recovery_complete",
            TraceEvent::HeartbeatSent { .. } => "heartbeat",
            TraceEvent::SupervisorFetch { .. } => "supervisor_fetch",
            TraceEvent::EpochApplied { .. } => "epoch_applied",
            TraceEvent::NodeDeclaredDead { .. } => "node_declared_dead",
            TraceEvent::NodeReconciled { .. } => "node_reconciled",
        }
    }

    /// The category this event belongs to.
    #[must_use]
    pub fn category(&self) -> EventCategory {
        match self {
            TraceEvent::TupleEmit { .. }
            | TraceEvent::TupleTransfer { .. }
            | TraceEvent::Ack { .. }
            | TraceEvent::Complete { .. }
            | TraceEvent::Timeout { .. }
            | TraceEvent::Replay { .. }
            | TraceEvent::TupleFailed { .. } => EventCategory::Tuple,
            TraceEvent::QueueEnter { .. } | TraceEvent::QueueLeave { .. } => EventCategory::Queue,
            TraceEvent::ProcessStart { .. } | TraceEvent::ProcessDone { .. } => {
                EventCategory::Process
            }
            TraceEvent::AssignmentApplied { .. }
            | TraceEvent::WorkerStart { .. }
            | TraceEvent::WorkerStop { .. } => EventCategory::Worker,
            TraceEvent::ScheduleGenerated { .. }
            | TraceEvent::OverloadDetected { .. }
            | TraceEvent::SchedulerSwapped { .. }
            | TraceEvent::GammaChanged { .. }
            | TraceEvent::FaultInjected { .. }
            | TraceEvent::ExecutorsReassigned { .. }
            | TraceEvent::RecoveryComplete { .. }
            | TraceEvent::HeartbeatSent { .. }
            | TraceEvent::SupervisorFetch { .. }
            | TraceEvent::EpochApplied { .. }
            | TraceEvent::NodeDeclaredDead { .. }
            | TraceEvent::NodeReconciled { .. } => EventCategory::Control,
        }
    }

    /// Renders one JSONL line (without trailing newline).
    ///
    /// Field order is fixed: `t` (virtual time, µs), `type`, then the
    /// variant's payload fields in declaration order.
    #[must_use]
    pub fn to_jsonl(&self, at: SimTime) -> String {
        let mut o = ObjectWriter::new();
        o.u64("t", at.as_micros()).str("type", self.type_name());
        match self {
            TraceEvent::TupleEmit { tuple, executor } => {
                o.u64("tuple", *tuple).u64("executor", u64::from(*executor));
            }
            TraceEvent::TupleTransfer {
                tuple,
                from_executor,
                to_executor,
                hop,
                bytes,
            } => {
                o.u64("tuple", *tuple)
                    .u64("from", u64::from(*from_executor))
                    .u64("to", u64::from(*to_executor))
                    .str("hop", hop.label())
                    .u64("bytes", *bytes);
            }
            TraceEvent::QueueEnter {
                tuple,
                executor,
                depth,
            }
            | TraceEvent::QueueLeave {
                tuple,
                executor,
                depth,
            } => {
                o.u64("tuple", *tuple)
                    .u64("executor", u64::from(*executor))
                    .u64("depth", *depth);
            }
            TraceEvent::ProcessStart { tuple, executor } => {
                o.u64("tuple", *tuple).u64("executor", u64::from(*executor));
            }
            TraceEvent::ProcessDone {
                tuple,
                executor,
                service_us,
            } => {
                o.u64("tuple", *tuple)
                    .u64("executor", u64::from(*executor))
                    .u64("service_us", *service_us);
            }
            TraceEvent::Ack { tuple }
            | TraceEvent::Timeout { tuple }
            | TraceEvent::Replay { tuple } => {
                o.u64("tuple", *tuple);
            }
            TraceEvent::Complete { tuple, latency_ms } => {
                o.u64("tuple", *tuple).f64("latency_ms", *latency_ms);
            }
            TraceEvent::AssignmentApplied {
                version,
                moved,
                added,
                removed,
            } => {
                o.u64("version", *version)
                    .u64("moved", *moved)
                    .u64("added", *added)
                    .u64("removed", *removed);
            }
            TraceEvent::WorkerStart { node, worker } | TraceEvent::WorkerStop { node, worker } => {
                o.u64("node", u64::from(*node))
                    .u64("worker", u64::from(*worker));
            }
            TraceEvent::ScheduleGenerated {
                algorithm,
                inter_node_traffic,
                inter_process_traffic,
            } => {
                o.str("algorithm", algorithm)
                    .f64("inter_node_traffic", *inter_node_traffic)
                    .f64("inter_process_traffic", *inter_process_traffic);
            }
            TraceEvent::OverloadDetected { node, utilisation } => {
                o.u64("node", u64::from(*node))
                    .f64("utilisation", *utilisation);
            }
            TraceEvent::SchedulerSwapped { to } => {
                o.str("to", to);
            }
            TraceEvent::GammaChanged { gamma } => {
                o.f64("gamma", *gamma);
            }
            TraceEvent::TupleFailed { tuple, replays } => {
                o.u64("tuple", *tuple).u64("replays", *replays);
            }
            TraceEvent::FaultInjected { kind, node, worker } => {
                o.str("kind", kind);
                if let Some(n) = node {
                    o.u64("node", u64::from(*n));
                }
                if let Some(w) = worker {
                    o.u64("worker", u64::from(*w));
                }
            }
            TraceEvent::ExecutorsReassigned { version, count } => {
                o.u64("version", *version).u64("count", *count);
            }
            TraceEvent::RecoveryComplete { latency_ms } => {
                o.f64("latency_ms", *latency_ms);
            }
            TraceEvent::HeartbeatSent { node } => {
                o.u64("node", u64::from(*node));
            }
            TraceEvent::SupervisorFetch { node, epoch }
            | TraceEvent::EpochApplied { node, epoch } => {
                o.u64("node", u64::from(*node)).u64("epoch", *epoch);
            }
            TraceEvent::NodeDeclaredDead { node, missed } => {
                o.u64("node", u64::from(*node)).u64("missed", *missed);
            }
            TraceEvent::NodeReconciled {
                node,
                false_positive,
            } => {
                o.u64("node", u64::from(*node)).raw(
                    "false_positive",
                    if *false_positive { "true" } else { "false" },
                );
            }
        }
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn every_category_token_round_trips() {
        for c in EventCategory::ALL {
            assert_eq!(EventCategory::parse(c.name()), Some(c));
            assert_eq!(EventCategory::parse(&c.name().to_uppercase()), Some(c));
        }
        assert_eq!(EventCategory::parse("bogus"), None);
    }

    #[test]
    fn jsonl_lines_parse_and_carry_fields() {
        let at = SimTime::from_millis(1500);
        let ev = TraceEvent::TupleTransfer {
            tuple: 7,
            from_executor: 2,
            to_executor: 9,
            hop: HopClass::InterNode,
            bytes: 128,
        };
        let line = ev.to_jsonl(at);
        let v = parse(&line).expect("valid JSON");
        assert_eq!(v.get("t").unwrap().as_f64(), Some(1_500_000.0));
        assert_eq!(v.get("type").unwrap().as_str(), Some("tuple_transfer"));
        assert_eq!(v.get("hop").unwrap().as_str(), Some("inter_node"));
        assert_eq!(v.get("bytes").unwrap().as_f64(), Some(128.0));
    }

    #[test]
    fn schedule_generated_serialises_with_fixed_fields() {
        // No wall time: it varies run to run, so it reaches only the
        // metrics histogram, never the deterministic trace.
        let ev = TraceEvent::ScheduleGenerated {
            algorithm: "tstorm".into(),
            inter_node_traffic: 10.5,
            inter_process_traffic: 3.25,
        };
        assert_eq!(
            ev.to_jsonl(SimTime::ZERO),
            r#"{"t":0,"type":"schedule_generated","algorithm":"tstorm","inter_node_traffic":10.5,"inter_process_traffic":3.25}"#
        );
    }

    #[test]
    fn fault_events_serialise_with_fixed_fields() {
        let ev = TraceEvent::FaultInjected {
            kind: "node_crash".into(),
            node: Some(3),
            worker: None,
        };
        let line = ev.to_jsonl(SimTime::from_secs(400));
        assert_eq!(
            line,
            "{\"t\":400000000,\"type\":\"fault_injected\",\"kind\":\"node_crash\",\"node\":3}"
        );
        assert_eq!(ev.category(), EventCategory::Control);

        let ev = TraceEvent::FaultInjected {
            kind: "worker_crash".into(),
            node: Some(1),
            worker: Some(0),
        };
        assert!(ev.to_jsonl(SimTime::ZERO).contains("\"worker\":0"));

        // Master-level faults carry no node field at all.
        let ev = TraceEvent::FaultInjected {
            kind: "nimbus_crash".into(),
            node: None,
            worker: None,
        };
        let line = ev.to_jsonl(SimTime::from_secs(100));
        assert_eq!(
            line,
            "{\"t\":100000000,\"type\":\"fault_injected\",\"kind\":\"nimbus_crash\"}"
        );

        let ev = TraceEvent::ExecutorsReassigned {
            version: 4,
            count: 6,
        };
        let v = parse(&ev.to_jsonl(SimTime::ZERO)).expect("valid");
        assert_eq!(v.get("count").unwrap().as_f64(), Some(6.0));
        assert_eq!(ev.category(), EventCategory::Control);

        let ev = TraceEvent::RecoveryComplete { latency_ms: 1234.5 };
        assert!(ev.to_jsonl(SimTime::ZERO).contains("\"latency_ms\":1234.5"));

        let ev = TraceEvent::TupleFailed {
            tuple: 9,
            replays: 3,
        };
        assert_eq!(ev.category(), EventCategory::Tuple);
        assert!(ev.to_jsonl(SimTime::ZERO).contains("\"replays\":3"));
    }

    #[test]
    fn control_plane_events_serialise_with_fixed_fields() {
        let ev = TraceEvent::HeartbeatSent { node: 4 };
        assert_eq!(
            ev.to_jsonl(SimTime::from_secs(5)),
            "{\"t\":5000000,\"type\":\"heartbeat\",\"node\":4}"
        );
        assert_eq!(ev.category(), EventCategory::Control);

        let ev = TraceEvent::SupervisorFetch { node: 2, epoch: 7 };
        assert_eq!(
            ev.to_jsonl(SimTime::ZERO),
            "{\"t\":0,\"type\":\"supervisor_fetch\",\"node\":2,\"epoch\":7}"
        );

        let ev = TraceEvent::EpochApplied { node: 2, epoch: 7 };
        assert!(ev.to_jsonl(SimTime::ZERO).contains("\"epoch\":7"));
        assert_eq!(ev.category(), EventCategory::Control);

        let ev = TraceEvent::NodeDeclaredDead { node: 3, missed: 3 };
        assert_eq!(
            ev.to_jsonl(SimTime::ZERO),
            "{\"t\":0,\"type\":\"node_declared_dead\",\"node\":3,\"missed\":3}"
        );

        let ev = TraceEvent::NodeReconciled {
            node: 3,
            false_positive: true,
        };
        assert_eq!(
            ev.to_jsonl(SimTime::ZERO),
            "{\"t\":0,\"type\":\"node_reconciled\",\"node\":3,\"false_positive\":true}"
        );
        assert!(!ev.category().is_sampled(), "control events never sampled");
    }

    #[test]
    fn categories_match_sampling_policy() {
        assert!(TraceEvent::Ack { tuple: 1 }.category().is_sampled());
        assert!(!TraceEvent::GammaChanged { gamma: 0.5 }
            .category()
            .is_sampled());
        assert_eq!(
            TraceEvent::WorkerStart { node: 0, worker: 0 }.category(),
            EventCategory::Worker
        );
    }
}
