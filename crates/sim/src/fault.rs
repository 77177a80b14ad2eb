//! Deterministic fault injection: a [`FaultPlan`] is a time-ordered
//! schedule of crash/slowdown events applied by the engine.
//!
//! Faults are *part of the scenario*, not random perturbations: a plan
//! is parsed once (typically from repeated `--fault` CLI flags), its
//! events are enqueued into the simulation's event queue, and from
//! there on the usual determinism guarantee holds — same seed + same
//! plan ⇒ identical runs, byte-identical traces.
//!
//! Spec grammar (one fault per spec string):
//!
//! ```text
//! worker-crash@t=200,node=1,slot=0        kill one worker process
//! node-crash@t=400,node=3                 kill a whole node
//! node-crash@t=400,node=3,restart=120     ... node rejoins 120 s later
//! nic-slow@t=100,node=2,factor=4,dur=60   4x slower NIC for 60 s
//! nimbus-crash@t=100,dur=60               Nimbus down for 60 s
//! heartbeat-loss@t=100,node=2,dur=30      node 2's heartbeats lost 30 s
//! ```
//!
//! `t`, `restart` and `dur` are virtual seconds (fractions allowed);
//! `slot` is the node-local slot index.
//!
//! The last two are *control-plane* faults: they leave the data plane
//! untouched and instead degrade the Nimbus/supervisor coordination
//! layer — no schedule generations or recovery while Nimbus is down,
//! and a muted heartbeat stream makes Nimbus falsely declare a healthy
//! node dead until heartbeats resume.

use std::fmt;
use tstorm_types::{NodeId, SimTime};

/// What kind of fault fires, with its parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Kill one worker process: the slot's executors are dropped along
    /// with their queued tuples; the slot itself stays usable.
    WorkerCrash {
        /// Node hosting the worker.
        node: NodeId,
        /// Node-local slot index (0-based, see `SlotInfo::local_index`).
        local_slot: u32,
    },
    /// Kill a whole node: every worker on it dies and the node is
    /// marked dead in the cluster spec until (optionally) restarted.
    NodeCrash {
        /// The crashing node.
        node: NodeId,
        /// If set, the node rejoins this long after the crash.
        restart_after: Option<SimTime>,
    },
    /// A transient network slowdown on one node's NIC: transmissions
    /// through it take `factor`× as long for `duration`.
    NicSlowdown {
        /// The affected node.
        node: NodeId,
        /// Slowdown multiplier (≥ 1).
        factor: f64,
        /// How long the slowdown lasts.
        duration: SimTime,
    },
    /// Nimbus itself goes down: no schedule generations, store fetches
    /// or recovery decisions happen until it comes back. Data-plane
    /// workers and supervisors keep running whatever they last applied.
    NimbusCrash {
        /// How long Nimbus stays down.
        duration: SimTime,
    },
    /// The heartbeat stream from one (otherwise healthy) node is lost
    /// for `duration`. If the outage outlasts the miss threshold,
    /// Nimbus falsely declares the node dead and reassigns its
    /// executors; when heartbeats resume the node is reconciled.
    HeartbeatLoss {
        /// The node whose heartbeats go missing.
        node: NodeId,
        /// How long the heartbeat stream stays muted.
        duration: SimTime,
    },
}

impl FaultKind {
    /// Stable snake_case name, used in trace events.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::WorkerCrash { .. } => "worker_crash",
            FaultKind::NodeCrash { .. } => "node_crash",
            FaultKind::NicSlowdown { .. } => "nic_slowdown",
            FaultKind::NimbusCrash { .. } => "nimbus_crash",
            FaultKind::HeartbeatLoss { .. } => "heartbeat_loss",
        }
    }

    /// The node the fault targets, if it targets one at all: a Nimbus
    /// crash hits the master, not any worker node.
    #[must_use]
    pub fn node(&self) -> Option<NodeId> {
        match self {
            FaultKind::WorkerCrash { node, .. }
            | FaultKind::NodeCrash { node, .. }
            | FaultKind::NicSlowdown { node, .. }
            | FaultKind::HeartbeatLoss { node, .. } => Some(*node),
            FaultKind::NimbusCrash { .. } => None,
        }
    }
}

/// One timed fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Virtual time at which the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A parse failure with the offending spec and the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultParseError(pub String);

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for FaultParseError {}

/// A deterministic, time-ordered schedule of fault events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses a plan from spec strings, one fault each, e.g.
    /// `["worker-crash@t=200,node=1,slot=0", "node-crash@t=400,node=3"]`.
    ///
    /// # Errors
    ///
    /// Returns [`FaultParseError`] describing the first invalid spec.
    pub fn from_specs<I, S>(specs: I) -> Result<Self, FaultParseError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut plan = Self::new();
        for spec in specs {
            plan.push(parse_spec(spec.as_ref())?);
        }
        Ok(plan)
    }

    /// Adds one fault, keeping events ordered by time (stable for
    /// equal times, so plan order breaks ties deterministically).
    pub fn push(&mut self, event: FaultEvent) {
        let pos = self.events.partition_point(|e| e.at <= event.at);
        self.events.insert(pos, event);
    }

    /// The scheduled faults, earliest first.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan schedules anything.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

/// Parses one `kind@key=value,...` fault spec.
///
/// # Errors
///
/// Returns [`FaultParseError`] for unknown kinds, unknown/duplicate
/// keys, missing required keys, or out-of-domain values.
pub fn parse_spec(spec: &str) -> Result<FaultEvent, FaultParseError> {
    let err = |msg: String| FaultParseError(format!("--fault `{spec}`: {msg}"));
    let (kind, params) = spec
        .split_once('@')
        .ok_or_else(|| err("expected `kind@t=...,key=value,...`".to_owned()))?;

    let mut fields = Fields::parse(spec, params)?;
    let at = fields.time("t")?;
    let kind = match kind {
        "worker-crash" => FaultKind::WorkerCrash {
            node: fields.node()?,
            local_slot: fields.int("slot")?,
        },
        "node-crash" => FaultKind::NodeCrash {
            node: fields.node()?,
            restart_after: fields.optional_window(at, "restart")?,
        },
        "nic-slow" => {
            let factor = fields.float("factor")?;
            if factor < 1.0 {
                return Err(err(format!("factor must be >= 1, got {factor}")));
            }
            FaultKind::NicSlowdown {
                node: fields.node()?,
                factor,
                duration: fields.window(at, "dur")?,
            }
        }
        "nimbus-crash" => FaultKind::NimbusCrash {
            duration: fields.window(at, "dur")?,
        },
        "heartbeat-loss" => FaultKind::HeartbeatLoss {
            node: fields.node()?,
            duration: fields.window(at, "dur")?,
        },
        other => {
            return Err(err(format!(
                "unknown fault kind `{other}` (expected worker-crash, node-crash, nic-slow, \
                 nimbus-crash or heartbeat-loss)"
            )))
        }
    };
    fields.finish()?;
    Ok(FaultEvent { at, kind })
}

/// Key/value fields of one spec, consumed as the kind demands.
struct Fields<'a> {
    spec: &'a str,
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    fn parse(spec: &'a str, params: &'a str) -> Result<Self, FaultParseError> {
        let mut pairs = Vec::new();
        for part in params.split(',') {
            let (k, v) = part.split_once('=').ok_or_else(|| {
                FaultParseError(format!("--fault `{spec}`: `{part}` is not `key=value`"))
            })?;
            if pairs.iter().any(|(seen, _)| *seen == k) {
                return Err(FaultParseError(format!(
                    "--fault `{spec}`: duplicate key `{k}`"
                )));
            }
            pairs.push((k, v));
        }
        Ok(Self { spec, pairs })
    }

    fn take(&mut self, key: &str) -> Option<&'a str> {
        let idx = self.pairs.iter().position(|(k, _)| *k == key)?;
        Some(self.pairs.remove(idx).1)
    }

    fn required(&mut self, key: &str) -> Result<&'a str, FaultParseError> {
        self.take(key)
            .ok_or_else(|| FaultParseError(format!("--fault `{}`: missing `{key}=`", self.spec)))
    }

    fn float(&mut self, key: &str) -> Result<f64, FaultParseError> {
        let raw = self.required(key)?;
        let v: f64 = raw.parse().map_err(|_| {
            FaultParseError(format!(
                "--fault `{}`: `{key}={raw}` is not a number",
                self.spec
            ))
        })?;
        if !v.is_finite() || v < 0.0 {
            return Err(FaultParseError(format!(
                "--fault `{}`: `{key}={raw}` must be finite and non-negative",
                self.spec
            )));
        }
        Ok(v)
    }

    fn int(&mut self, key: &str) -> Result<u32, FaultParseError> {
        let raw = self.required(key)?;
        raw.parse().map_err(|_| {
            FaultParseError(format!(
                "--fault `{}`: `{key}={raw}` is not an integer",
                self.spec
            ))
        })
    }

    fn node(&mut self) -> Result<NodeId, FaultParseError> {
        Ok(NodeId::new(self.int("node")?))
    }

    /// A time in virtual seconds. `SimTime::from_secs_f64` saturates,
    /// so a value whose microsecond count does not fit `u64` is
    /// rejected here instead of turning into `SimTime::MAX`.
    fn time(&mut self, key: &str) -> Result<SimTime, FaultParseError> {
        let secs = self.float(key)?;
        if (secs * 1e6).round() >= u64::MAX as f64 {
            return Err(FaultParseError(format!(
                "--fault `{}`: `{key}` overflows the microsecond clock (at most {} s)",
                self.spec,
                u64::MAX / 1_000_000
            )));
        }
        Ok(SimTime::from_secs_f64(secs))
    }

    /// A window opening at `at`. The engine schedules its end at
    /// `at + window`, so that instant must fit the clock as well.
    fn window(&mut self, at: SimTime, key: &str) -> Result<SimTime, FaultParseError> {
        let window = self.time(key)?;
        at.checked_add(window).map(|_| window).ok_or_else(|| {
            FaultParseError(format!(
                "--fault `{}`: `t` + `{key}` overflows the microsecond clock",
                self.spec
            ))
        })
    }

    fn optional_window(
        &mut self,
        at: SimTime,
        key: &str,
    ) -> Result<Option<SimTime>, FaultParseError> {
        let present = self.pairs.iter().any(|(k, _)| *k == key);
        present.then(|| self.window(at, key)).transpose()
    }

    fn finish(self) -> Result<(), FaultParseError> {
        if let Some((k, _)) = self.pairs.first() {
            return Err(FaultParseError(format!(
                "--fault `{}`: unknown key `{k}`",
                self.spec
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_issue_examples() {
        let e = parse_spec("node-crash@t=400,node=3").expect("parses");
        assert_eq!(e.at, SimTime::from_secs(400));
        assert_eq!(
            e.kind,
            FaultKind::NodeCrash {
                node: NodeId::new(3),
                restart_after: None
            }
        );

        let e = parse_spec("worker-crash@t=200,node=1,slot=0").expect("parses");
        assert_eq!(e.at, SimTime::from_secs(200));
        assert_eq!(
            e.kind,
            FaultKind::WorkerCrash {
                node: NodeId::new(1),
                local_slot: 0
            }
        );
    }

    #[test]
    fn parses_restart_and_nic_slowdown() {
        let e = parse_spec("node-crash@t=400,node=3,restart=120").expect("parses");
        assert_eq!(
            e.kind,
            FaultKind::NodeCrash {
                node: NodeId::new(3),
                restart_after: Some(SimTime::from_secs(120))
            }
        );

        let e = parse_spec("nic-slow@t=100,node=2,factor=4,dur=60").expect("parses");
        assert_eq!(
            e.kind,
            FaultKind::NicSlowdown {
                node: NodeId::new(2),
                factor: 4.0,
                duration: SimTime::from_secs(60)
            }
        );
        assert_eq!(e.kind.name(), "nic_slowdown");
        assert_eq!(e.kind.node(), Some(NodeId::new(2)));
    }

    #[test]
    fn parses_control_plane_faults() {
        let e = parse_spec("nimbus-crash@t=100,dur=60").expect("parses");
        assert_eq!(e.at, SimTime::from_secs(100));
        assert_eq!(
            e.kind,
            FaultKind::NimbusCrash {
                duration: SimTime::from_secs(60)
            }
        );
        assert_eq!(e.kind.name(), "nimbus_crash");
        assert_eq!(e.kind.node(), None, "nimbus crash targets no worker node");

        let e = parse_spec("heartbeat-loss@t=100,node=2,dur=30").expect("parses");
        assert_eq!(
            e.kind,
            FaultKind::HeartbeatLoss {
                node: NodeId::new(2),
                duration: SimTime::from_secs(30)
            }
        );
        assert_eq!(e.kind.name(), "heartbeat_loss");
        assert_eq!(e.kind.node(), Some(NodeId::new(2)));
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "node-crash",                                   // no params
            "meteor-strike@t=1,node=0",                     // unknown kind
            "node-crash@node=3",                            // missing t
            "node-crash@t=1",                               // missing node
            "worker-crash@t=1,node=0",                      // missing slot
            "node-crash@t=1,node=0,node=1",                 // duplicate key
            "node-crash@t=1,node=0,color=red",              // unknown key
            "node-crash@t=banana,node=0",                   // non-numeric time
            "node-crash@t=-5,node=0",                       // negative time
            "nic-slow@t=1,node=0,factor=0.5,dur=9",         // factor < 1
            "worker-crash@t=1,node=0,slot=x",               // non-integer slot
            "node-crash@t=1,node",                          // key without value
            "nimbus-crash@t=1",                             // missing dur
            "nimbus-crash@t=1,node=0,dur=5",                // nimbus has no node
            "heartbeat-loss@t=1,node=0",                    // missing dur
            "heartbeat-loss@t=1,dur=5",                     // missing node
            "nimbus-crash@t=1e20,dur=1",                    // t overflows the clock
            "nimbus-crash@t=1,dur=1e20",                    // dur overflows the clock
            "nimbus-crash@t=18446744073709,dur=1",          // t + dur overflows
            "node-crash@t=18446744073709,node=0,restart=1", // t + restart overflows
        ] {
            let err = parse_spec(bad).expect_err(bad);
            assert!(err.to_string().contains(bad), "{err}");
        }
    }

    #[test]
    fn plan_orders_events_by_time_stably() {
        let plan = FaultPlan::from_specs([
            "node-crash@t=400,node=3",
            "worker-crash@t=200,node=1,slot=0",
            "nic-slow@t=200,node=2,factor=2,dur=10",
        ])
        .expect("parses");
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
        let ats: Vec<u64> = plan.events().iter().map(|e| e.at.as_secs()).collect();
        assert_eq!(ats, vec![200, 200, 400]);
        // Equal times keep spec order: the worker crash came first.
        assert_eq!(plan.events()[0].kind.name(), "worker_crash");
        assert_eq!(plan.events()[1].kind.name(), "nic_slowdown");
    }

    #[test]
    fn empty_plan_is_default() {
        assert!(FaultPlan::new().is_empty());
        assert_eq!(FaultPlan::default().len(), 0);
    }
}
