//! Per-node supervisor state machines.
//!
//! Each worker node runs a supervisor that (a) heartbeats to Nimbus on
//! a jittered interval — Nimbus's *only* evidence the node is alive —
//! and (b) periodically fetches the cluster-visible assignment and
//! applies its own node's slice when the epoch is newer than what it
//! runs. Fetch timers are per-node, phase-staggered and jittered, so a
//! published schedule rolls out node by node: for a short window
//! different nodes run different assignment epochs, exactly as in a real
//! Storm cluster where supervisors poll ZooKeeper independently.
//!
//! Timers are driven by the system's control loop (the simulated
//! timeline), not wall clocks, and each supervisor draws jitter from its
//! own [`DetRng`] stream seeded from `(run seed, node id)` — adding or
//! muting one node's activity never perturbs another's schedule, which
//! keeps same-seed runs byte-identical.

use tstorm_types::{DetRng, NodeId, SimTime};

/// What happened at a heartbeat tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeartbeatOutcome {
    /// The heartbeat reached Nimbus. `was_down` reports whether the
    /// supervisor observed its node actually down since the last
    /// successful heartbeat (a genuine crash-and-restart, as opposed to
    /// heartbeats lost in transit).
    Sent {
        /// The node was really down at some point since the last
        /// heartbeat that got through.
        was_down: bool,
    },
    /// The heartbeat did not reach Nimbus: the node is down or the
    /// stream is muted by a `heartbeat-loss` fault.
    Missed,
}

/// One node's supervisor.
#[derive(Debug)]
pub struct Supervisor {
    node: NodeId,
    rng: DetRng,
    heartbeat_period: SimTime,
    fetch_period: SimTime,
    jitter: f64,
    next_heartbeat: SimTime,
    next_fetch: SimTime,
    /// Epoch of the assignment slice this node currently runs (0 = the
    /// initial assignment applied at submission).
    applied_epoch: u64,
    /// Set while the node is observed down at a heartbeat tick; consumed
    /// by the next successful heartbeat to report a genuine restart.
    observed_down: bool,
    heartbeats_sent: u64,
    heartbeats_missed: u64,
    /// Fetches that picked up a newer epoch, each of which applies it.
    epochs_applied: u64,
}

/// Phase-staggers initial timers: node `n` of `total` starts its period
/// at fraction `(n + 1) / (total + 1)` — no two nodes (and no node and
/// the global period boundary) coincide.
fn staggered(period: SimTime, index: usize, total: usize) -> SimTime {
    let frac = (index + 1) as f64 / (total + 1) as f64;
    SimTime::from_micros((period.as_micros() as f64 * frac) as u64)
}

impl Supervisor {
    /// Creates the supervisor for `node` out of `total` nodes.
    ///
    /// `seed` is the run seed; the supervisor derives its own
    /// decorrelated jitter stream from it, so supervisors are
    /// deterministic and mutually independent.
    #[must_use]
    pub fn new(
        node: NodeId,
        total: usize,
        seed: u64,
        heartbeat_period: SimTime,
        fetch_period: SimTime,
        jitter: f64,
    ) -> Self {
        // "supervis" in ASCII — a fixed salt keeping this stream family
        // apart from the data plane's, which seeds from the raw run seed.
        let mut parent = DetRng::seed_from(seed ^ 0x7375_7065_7276_6973);
        let rng = parent.split(&format!("supervisor-{}", node.index()));
        Self {
            node,
            rng,
            heartbeat_period,
            fetch_period,
            jitter,
            next_heartbeat: staggered(heartbeat_period, node.as_usize(), total),
            next_fetch: staggered(fetch_period, node.as_usize(), total),
            applied_epoch: 0,
            observed_down: false,
            heartbeats_sent: 0,
            heartbeats_missed: 0,
            epochs_applied: 0,
        }
    }

    /// The node this supervisor runs on.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The earliest virtual time this supervisor next acts.
    /// Heartbeats always run; the fetch timer only participates when
    /// store-driven rollout is enabled (T-Storm mode).
    #[must_use]
    pub fn next_event(&self, fetch_enabled: bool) -> SimTime {
        if fetch_enabled {
            self.next_heartbeat.min(self.next_fetch)
        } else {
            self.next_heartbeat
        }
    }

    /// Advances the heartbeat timer if due at `now`, reporting what
    /// happened; `None` when the timer is not due yet.
    pub fn poll_heartbeat(
        &mut self,
        now: SimTime,
        node_live: bool,
        muted: bool,
    ) -> Option<HeartbeatOutcome> {
        if now < self.next_heartbeat {
            return None;
        }
        self.next_heartbeat = now + self.jittered(self.heartbeat_period);
        if !node_live {
            self.observed_down = true;
            self.heartbeats_missed += 1;
            return Some(HeartbeatOutcome::Missed);
        }
        if muted {
            self.heartbeats_missed += 1;
            return Some(HeartbeatOutcome::Missed);
        }
        self.heartbeats_sent += 1;
        let was_down = std::mem::take(&mut self.observed_down);
        Some(HeartbeatOutcome::Sent { was_down })
    }

    /// Advances the fetch timer if due at `now`; returns the new epoch
    /// when the cluster assignment (`store_epoch`) is newer than what
    /// this node runs and the node is up to apply it.
    pub fn poll_fetch(&mut self, now: SimTime, node_live: bool, store_epoch: u64) -> Option<u64> {
        if now < self.next_fetch {
            return None;
        }
        self.next_fetch = now + self.jittered(self.fetch_period);
        if !node_live || store_epoch <= self.applied_epoch {
            return None;
        }
        self.applied_epoch = store_epoch;
        self.epochs_applied += 1;
        Some(store_epoch)
    }

    fn jittered(&mut self, period: SimTime) -> SimTime {
        let micros = self.rng.jitter(period.as_micros() as f64, self.jitter);
        SimTime::from_micros((micros as u64).max(1))
    }

    /// Epoch of the assignment slice this node currently runs.
    #[must_use]
    pub fn applied_epoch(&self) -> u64 {
        self.applied_epoch
    }

    /// Heartbeats that reached Nimbus.
    #[must_use]
    pub fn heartbeats_sent(&self) -> u64 {
        self.heartbeats_sent
    }

    /// Heartbeat ticks that never reached Nimbus.
    #[must_use]
    pub fn heartbeats_missed(&self) -> u64 {
        self.heartbeats_missed
    }

    /// Epochs applied on this node: one per fetch that picked up a
    /// newer epoch.
    #[must_use]
    pub fn epochs_applied(&self) -> u64 {
        self.epochs_applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn supervisor(node: u32) -> Supervisor {
        Supervisor::new(
            NodeId::new(node),
            4,
            42,
            SimTime::from_secs(5),
            SimTime::from_secs(10),
            0.2,
        )
    }

    #[test]
    fn initial_timers_are_staggered_per_node() {
        let phases: Vec<SimTime> = (0..4).map(|n| supervisor(n).next_event(true)).collect();
        for w in phases.windows(2) {
            assert!(
                w[0] < w[1],
                "phases must be strictly increasing: {phases:?}"
            );
        }
        assert!(phases[3] < SimTime::from_secs(5));
    }

    #[test]
    fn heartbeat_reports_restart_after_observed_downtime() {
        let mut s = supervisor(0);
        let t0 = s.next_event(false);
        assert!(s
            .poll_heartbeat(t0 - SimTime::from_micros(1), true, false)
            .is_none());
        assert_eq!(
            s.poll_heartbeat(t0, true, false),
            Some(HeartbeatOutcome::Sent { was_down: false })
        );
        // Node down over the next two ticks.
        let t1 = s.next_event(false);
        assert_eq!(
            s.poll_heartbeat(t1, false, false),
            Some(HeartbeatOutcome::Missed)
        );
        let t2 = s.next_event(false);
        assert_eq!(
            s.poll_heartbeat(t2, false, false),
            Some(HeartbeatOutcome::Missed)
        );
        // Back up: the first heartbeat through reports the downtime once.
        let t3 = s.next_event(false);
        assert_eq!(
            s.poll_heartbeat(t3, true, false),
            Some(HeartbeatOutcome::Sent { was_down: true })
        );
        let t4 = s.next_event(false);
        assert_eq!(
            s.poll_heartbeat(t4, true, false),
            Some(HeartbeatOutcome::Sent { was_down: false })
        );
        assert_eq!(s.heartbeats_sent(), 3);
        assert_eq!(s.heartbeats_missed(), 2);
    }

    #[test]
    fn muted_heartbeats_are_missed_without_marking_downtime() {
        let mut s = supervisor(1);
        let t0 = s.next_event(false);
        assert_eq!(
            s.poll_heartbeat(t0, true, true),
            Some(HeartbeatOutcome::Missed)
        );
        let t1 = s.next_event(false);
        // Mute lifted: the node was never down, so no restart report.
        assert_eq!(
            s.poll_heartbeat(t1, true, false),
            Some(HeartbeatOutcome::Sent { was_down: false })
        );
    }

    #[test]
    fn fetch_applies_only_newer_epochs() {
        let mut s = supervisor(2);
        let t0 = s.next_fetch;
        assert_eq!(s.poll_fetch(t0, true, 0), None, "epoch 0 is what we run");
        let t1 = s.next_fetch;
        assert_eq!(s.poll_fetch(t1, true, 3), Some(3));
        assert_eq!(s.applied_epoch(), 3);
        let t2 = s.next_fetch;
        assert_eq!(s.poll_fetch(t2, true, 3), None, "no news");
        let t3 = s.next_fetch;
        assert_eq!(s.poll_fetch(t3, false, 4), None, "down nodes cannot apply");
        assert_eq!(s.applied_epoch(), 3);
        assert_eq!(s.epochs_applied(), 1);
    }

    #[test]
    fn jitter_streams_are_deterministic_and_independent() {
        let mut a1 = supervisor(0);
        let mut a2 = supervisor(0);
        let mut b = supervisor(1);
        for _ in 0..10 {
            let t = a1.next_event(false);
            let _ = a1.poll_heartbeat(t, true, false);
            let t = a2.next_event(false);
            let _ = a2.poll_heartbeat(t, true, false);
            let t = b.next_event(false);
            let _ = b.poll_heartbeat(t, true, false);
        }
        assert_eq!(
            a1.next_heartbeat, a2.next_heartbeat,
            "same node, same stream"
        );
        assert_ne!(
            a1.next_heartbeat, b.next_heartbeat,
            "different nodes decorrelate"
        );
    }
}
