//! Nimbus: the cluster master's decision state.
//!
//! Owns what the real Nimbus daemon owns — the scheduler registry, the
//! active scheduling algorithm (a hot swap replaces it), the cluster-visible
//! assignment it last fetched from the [`crate::store::ScheduleStore`],
//! and a heartbeat-derived liveness table. Nimbus never observes node
//! health directly: a node is alive exactly as long as its supervisor's
//! heartbeats keep arriving, so a muted heartbeat stream (the
//! `heartbeat-loss` fault) produces a false-positive death declaration
//! and a genuinely crashed node stays schedulable until its silence
//! crosses the miss threshold.

use tstorm_cluster::{Assignment, ClusterSpec, VersionedAssignment};
use tstorm_sched::{ScheduleExplanation, Scheduler, SchedulerRegistry, SchedulingInput};
use tstorm_types::{NodeId, Result, SimTime};

/// Consecutive heartbeat periods a node may go silent before Nimbus
/// declares it dead and excludes it from scheduling.
pub const HEARTBEAT_MISS_THRESHOLD: u32 = 3;

/// Nimbus's record of a node it has declared dead.
#[derive(Debug, Clone, Copy)]
struct DeadNode {
    /// Whether a schedule was published while the node was considered
    /// dead (i.e. its executors were reassigned under the declaration).
    reassigned: bool,
}

/// A node newly declared dead by [`Nimbus::update_liveness`].
#[derive(Debug, Clone, Copy)]
pub struct DeadDeclaration {
    /// The node.
    pub node: NodeId,
    /// Heartbeat periods it had been silent for at declaration time.
    pub missed: u32,
}

/// The outcome of a heartbeat arriving for a previously-dead node.
#[derive(Debug, Clone, Copy)]
pub struct Reconciliation {
    /// The node taken back into the schedulable set.
    pub node: NodeId,
    /// True when the death declaration was a false positive: the node
    /// never actually went down (its heartbeats were merely lost) yet a
    /// reassignment was made under the declaration.
    pub false_positive: bool,
}

/// Aggregated control-plane counters, surfaced through
/// [`crate::TStormSystem::control_stats`] and the metrics registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlStats {
    /// Heartbeats that reached Nimbus.
    pub heartbeats_sent: u64,
    /// Heartbeat ticks that did not reach Nimbus (node down or stream
    /// muted by a `heartbeat-loss` fault).
    pub heartbeats_missed: u64,
    /// Supervisor fetches that picked up a new assignment epoch.
    pub fetches: u64,
    /// Assignment epochs applied across all supervisors — equal to
    /// `fetches`, since each such fetch applies its epoch.
    pub epochs_applied: u64,
    /// Nodes Nimbus declared dead from heartbeat silence.
    pub nodes_declared_dead: u64,
    /// Dead declarations later withdrawn when heartbeats resumed.
    pub reconciliations: u64,
    /// Reconciliations where the node had never failed but its
    /// executors had already been reassigned — the cost of trusting
    /// heartbeats.
    pub false_positive_reassignments: u64,
}

/// The cluster master: scheduler ownership plus heartbeat liveness.
pub struct Nimbus {
    registry: SchedulerRegistry,
    /// The active algorithm.
    scheduler: Box<dyn Scheduler>,
    /// Whether the active algorithm records per-placement decisions; an
    /// algorithm swapped in inherits it.
    explain: bool,
    /// The assignment Nimbus last fetched from the store and wrote to
    /// cluster state for the supervisors to pick up. `None` until the
    /// first fetch; the initial (epoch 0) assignment is applied directly
    /// at submission and never passes through here.
    cluster_assignment: Option<VersionedAssignment>,
    /// Last heartbeat arrival per node.
    last_heartbeat: Vec<SimTime>,
    /// Death declarations currently in force.
    dead: Vec<Option<DeadNode>>,
    nodes_declared_dead: u64,
    reconciliations: u64,
    false_positive_reassignments: u64,
}

impl std::fmt::Debug for Nimbus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Nimbus")
            .field("scheduler", &self.scheduler.name())
            .field("cluster_epoch", &self.cluster_epoch())
            .field("declared_dead", &self.declared_dead())
            .finish()
    }
}

impl Nimbus {
    /// Creates a Nimbus over `num_nodes` supervisors, with every node
    /// considered alive (heartbeats are due from `t = 0`).
    pub fn new(
        registry: SchedulerRegistry,
        initial_scheduler: &str,
        num_nodes: usize,
    ) -> Result<Self> {
        let scheduler = registry.create(initial_scheduler)?;
        Ok(Self {
            registry,
            scheduler,
            explain: false,
            cluster_assignment: None,
            last_heartbeat: vec![SimTime::ZERO; num_nodes],
            dead: vec![None; num_nodes],
            nodes_declared_dead: 0,
            reconciliations: 0,
            false_positive_reassignments: 0,
        })
    }

    /// Runs the active scheduling algorithm.
    ///
    /// # Errors
    ///
    /// Propagates the scheduler's own failure.
    pub fn schedule(&mut self, input: &SchedulingInput) -> Result<Assignment> {
        self.scheduler.schedule(input)
    }

    /// Name of the active scheduling algorithm.
    #[must_use]
    pub fn scheduler_name(&self) -> &'static str {
        self.scheduler.name()
    }

    /// Whether the active algorithm records per-placement decisions.
    #[must_use]
    pub(crate) fn explains(&self) -> bool {
        self.explain
    }

    /// Turns per-placement decision recording on or off for the active
    /// algorithm (and any algorithm hot-swapped in later).
    pub fn set_explain(&mut self, on: bool) {
        self.explain = on;
        self.scheduler.set_explain(on);
    }

    /// Takes the decision records of the most recent
    /// [`Nimbus::schedule`] call, if any were recorded.
    #[must_use]
    pub fn take_explanation(&mut self) -> Option<ScheduleExplanation> {
        self.scheduler.take_explanation()
    }

    /// Hot-swaps the active algorithm from the registry, carrying the
    /// explain flag over. An unknown name leaves the active algorithm in
    /// place.
    ///
    /// # Errors
    ///
    /// Returns [`tstorm_types::TStormError::UnknownScheduler`] when no
    /// such algorithm is registered.
    pub fn swap_scheduler(&mut self, name: &str) -> Result<()> {
        let mut scheduler = self.registry.create(name)?;
        scheduler.set_explain(self.explain);
        self.scheduler = scheduler;
        Ok(())
    }

    /// Registers a new algorithm for later swaps.
    pub fn register_scheduler(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn() -> Box<dyn Scheduler> + Send + Sync + 'static,
    ) {
        self.registry.register(name, factory);
    }

    /// Installs a fetched schedule as the cluster-visible assignment.
    pub fn install(&mut self, fetched: VersionedAssignment) {
        self.cluster_assignment = Some(fetched);
    }

    /// The cluster-visible assignment, if any fetch has happened.
    #[must_use]
    pub fn cluster_assignment(&self) -> Option<&VersionedAssignment> {
        self.cluster_assignment.as_ref()
    }

    /// Epoch of the cluster-visible assignment (0 = initial only).
    #[must_use]
    pub fn cluster_epoch(&self) -> u64 {
        self.cluster_assignment.as_ref().map_or(0, |v| v.epoch)
    }

    /// Records a heartbeat arrival. `was_down` is the supervisor's own
    /// report that its node had actually been down since the previous
    /// heartbeat (distinguishing a genuine crash-and-restart from mere
    /// heartbeat loss). Returns a reconciliation when the node had been
    /// declared dead.
    pub fn record_heartbeat(
        &mut self,
        node: NodeId,
        at: SimTime,
        was_down: bool,
    ) -> Option<Reconciliation> {
        self.last_heartbeat[node.as_usize()] = at;
        let dead = self.dead[node.as_usize()].take()?;
        self.reconciliations += 1;
        let false_positive = dead.reassigned && !was_down;
        if false_positive {
            self.false_positive_reassignments += 1;
        }
        Some(Reconciliation {
            node,
            false_positive,
        })
    }

    /// Sweeps the heartbeat table and declares dead every node whose
    /// silence has reached [`HEARTBEAT_MISS_THRESHOLD`] heartbeat
    /// periods. Call only while Nimbus is up — a crashed Nimbus declares
    /// nothing.
    pub fn update_liveness(
        &mut self,
        now: SimTime,
        heartbeat_period: SimTime,
    ) -> Vec<DeadDeclaration> {
        let mut declared = Vec::new();
        let period = heartbeat_period.as_micros();
        for (i, last) in self.last_heartbeat.iter().enumerate() {
            if self.dead[i].is_some() {
                continue;
            }
            let silence = now.as_micros().saturating_sub(last.as_micros());
            let missed = (silence / period) as u32;
            if missed >= HEARTBEAT_MISS_THRESHOLD {
                self.dead[i] = Some(DeadNode { reassigned: false });
                self.nodes_declared_dead += 1;
                declared.push(DeadDeclaration {
                    node: NodeId::new(i as u32),
                    missed,
                });
            }
        }
        declared
    }

    /// Whether Nimbus currently considers `node` dead.
    #[must_use]
    pub fn is_declared_dead(&self, node: NodeId) -> bool {
        self.dead[node.as_usize()].is_some()
    }

    /// Nodes currently declared dead, in id order.
    #[must_use]
    pub fn declared_dead(&self) -> Vec<NodeId> {
        self.dead
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.map(|_| NodeId::new(i as u32)))
            .collect()
    }

    /// Overwrites the cluster view's liveness with Nimbus's belief: a
    /// node is schedulable iff it is not declared dead — even if it has
    /// in truth already crashed (the declaration just hasn't caught up).
    pub fn apply_liveness_view(&self, cluster: &mut ClusterSpec) {
        for i in 0..self.dead.len() {
            let node = NodeId::new(i as u32);
            cluster.set_node_live(node, self.dead[i].is_none());
        }
    }

    /// Notes that a schedule was just published: any node currently
    /// under a death declaration has now had executors reassigned away
    /// from it, which turns a later same-node reconciliation into a
    /// false positive if the node never actually failed.
    pub fn note_publish(&mut self) {
        for dead in self.dead.iter_mut().flatten() {
            dead.reassigned = true;
        }
    }

    /// Nimbus's share of the control-plane counters.
    #[must_use]
    pub fn stats(&self) -> ControlStats {
        ControlStats {
            nodes_declared_dead: self.nodes_declared_dead,
            reconciliations: self.reconciliations,
            false_positive_reassignments: self.false_positive_reassignments,
            ..ControlStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nimbus(nodes: usize) -> Nimbus {
        Nimbus::new(SchedulerRegistry::with_builtins(), "t-storm", nodes).expect("builtin")
    }

    /// Four independent executors on 2 nodes × 2 slots.
    fn input() -> SchedulingInput {
        use tstorm_sched::{ExecutorInfo, SchedParams, TrafficMatrix};
        use tstorm_types::{ComponentId, ExecutorId, Mhz, TopologyId};
        let cluster = ClusterSpec::homogeneous(2, 2, Mhz::new(4000.0)).expect("valid spec");
        let executors = (0..4)
            .map(|i| {
                ExecutorInfo::new(
                    ExecutorId::new(i),
                    TopologyId::new(0),
                    ComponentId::new(0),
                    Mhz::new(10.0),
                )
            })
            .collect();
        SchedulingInput::new(
            cluster,
            executors,
            TrafficMatrix::new(),
            SchedParams::default().with_workers(TopologyId::new(0), 4),
        )
    }

    #[test]
    fn explain_flag_carries_over_a_swap() {
        let mut n =
            Nimbus::new(SchedulerRegistry::with_builtins(), "storm-default", 2).expect("builtin");
        n.set_explain(true);
        n.swap_scheduler("t-storm").expect("registered");
        assert_eq!(n.scheduler_name(), "t-storm");
        n.schedule(&input()).expect("feasible");
        let ex = n.take_explanation().expect("explanation survives the swap");
        assert_eq!(ex.algorithm, "t-storm");
        assert_eq!(ex.decisions.len(), 4);
    }

    #[test]
    fn unknown_swap_errors_and_keeps_the_current_algorithm() {
        let mut n = nimbus(2);
        assert!(matches!(
            n.swap_scheduler("bogus"),
            Err(tstorm_types::TStormError::UnknownScheduler { .. })
        ));
        assert_eq!(n.scheduler_name(), "t-storm");
        assert!(n.schedule(&input()).is_ok());
    }

    #[test]
    fn silence_crosses_threshold_into_death() {
        let mut n = nimbus(3);
        let period = SimTime::from_secs(5);
        // t=30s, node 1 heartbeated at 28s; others silent since 0.
        n.record_heartbeat(NodeId::new(1), SimTime::from_secs(28), false);
        let declared = n.update_liveness(SimTime::from_secs(30), period);
        let ids: Vec<u32> = declared.iter().map(|d| d.node.index()).collect();
        assert_eq!(ids, vec![0, 2]);
        assert!(declared.iter().all(|d| d.missed >= 3));
        assert!(n.is_declared_dead(NodeId::new(0)));
        assert!(!n.is_declared_dead(NodeId::new(1)));
        // Already-declared nodes are not re-declared.
        assert!(n.update_liveness(SimTime::from_secs(35), period).is_empty());
    }

    #[test]
    fn reconciliation_flags_false_positive_only_after_reassignment() {
        let mut n = nimbus(2);
        let period = SimTime::from_secs(5);
        let _ = n.update_liveness(SimTime::from_secs(20), period);
        assert!(n.is_declared_dead(NodeId::new(0)));

        // Node 0: heartbeats resume before any publish — benign.
        let rec = n
            .record_heartbeat(NodeId::new(0), SimTime::from_secs(22), false)
            .expect("was declared dead");
        assert!(!rec.false_positive);

        // Node 1: a publish lands while it is declared dead, then its
        // heartbeats resume without the node ever having been down.
        n.note_publish();
        let rec = n
            .record_heartbeat(NodeId::new(1), SimTime::from_secs(25), false)
            .expect("was declared dead");
        assert!(rec.false_positive);
        assert_eq!(n.stats().false_positive_reassignments, 1);
        assert_eq!(n.stats().reconciliations, 2);
    }

    #[test]
    fn genuine_restart_is_not_a_false_positive() {
        let mut n = nimbus(1);
        let _ = n.update_liveness(SimTime::from_secs(20), SimTime::from_secs(5));
        n.note_publish();
        // The supervisor reports the node really was down.
        let rec = n
            .record_heartbeat(NodeId::new(0), SimTime::from_secs(40), true)
            .expect("was declared dead");
        assert!(!rec.false_positive);
    }

    #[test]
    fn liveness_view_follows_belief_not_truth() {
        let mut n = nimbus(2);
        let mut cluster =
            ClusterSpec::homogeneous(2, 4, tstorm_types::Mhz::new(8_000.0)).expect("valid spec");
        // Ground truth: node 0 crashed. Belief: node 1 is dead.
        cluster.set_node_live(NodeId::new(0), false);
        n.record_heartbeat(NodeId::new(0), SimTime::from_secs(19), false);
        let _ = n.update_liveness(SimTime::from_secs(20), SimTime::from_secs(5));
        assert!(n.is_declared_dead(NodeId::new(1)));
        n.apply_liveness_view(&mut cluster);
        assert!(
            cluster.is_node_live(NodeId::new(0)),
            "undeclared crash stays schedulable"
        );
        assert!(
            !cluster.is_node_live(NodeId::new(1)),
            "declared node is excluded"
        );
    }
}
