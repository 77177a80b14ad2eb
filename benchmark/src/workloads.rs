//! The four benchmark workloads.
//!
//! Each is spelled out from the public parameter structs of the
//! workload and cluster crates rather than taken from a CLI preset, so
//! a preset may change without moving the benchmark. Every workload runs
//! a fixed span of virtual time; spouts emit on a fixed virtual-time
//! schedule (an open loop), and the run itself is a batch job.

use crate::probes::{wrap_logic, LogicTally, RecorderSink, RecorderTally, SchedLog, SchedProbe};
use std::io::Write;
use std::sync::{Arc, Mutex};
use tstorm_cluster::ClusterSpec;
use tstorm_core::{SystemMode, TStormConfig, TStormSystem};
use tstorm_sched::{RoundRobinScheduler, Scheduler, TStormScheduler};
use tstorm_sim::{ExecutorLogic, FaultPlan};
use tstorm_topology::{ComponentSpec, Topology};
use tstorm_trace::FlightRecorder;
use tstorm_types::{Mhz, Result, SimTime, TStormError};
use tstorm_workloads::chain::{self, ChainParams};
use tstorm_workloads::throughput::{self, ThroughputParams};
use tstorm_workloads::transfer::{self, TransferParams};
use tstorm_workloads::wordcount::{self, WordCountParams, WordCountState};

/// One benchmark workload. See `benchmark/README.md` for why each was
/// chosen and which layer it stresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Word Count topology under T-Storm; CPU-bound.
    Wordcount,
    /// A network-bound fan-out at transfer batch 8 under Storm's default
    /// scheduler.
    OverloadB8,
    /// The Throughput Test under a fixed 14-fault plan with spans,
    /// explain and the flight recorder on.
    FaultRecorded,
    /// A 10,200-executor chain on 100 heterogeneous nodes under T-Storm.
    Scale100,
}

/// The fault plan of [`Workload::FaultRecorded`]: every fault kind, each
/// repeated, spread over the 1200 virtual seconds.
pub const FAULT_PLAN: [&str; 14] = [
    "nic-slow@t=15,node=1,factor=4,dur=20",
    "node-crash@t=30,node=2,restart=40",
    "worker-crash@t=150,node=4,slot=0",
    "node-crash@t=240,node=5,restart=60",
    "heartbeat-loss@t=330,node=3,dur=40",
    "nimbus-crash@t=420,dur=60",
    "node-crash@t=500,node=1,restart=40",
    "nic-slow@t=615,node=2,factor=4,dur=20",
    "node-crash@t=630,node=3,restart=40",
    "worker-crash@t=750,node=0,slot=1",
    "node-crash@t=840,node=4,restart=60",
    "heartbeat-loss@t=930,node=5,dur=40",
    "nimbus-crash@t=1020,dur=60",
    "node-crash@t=1100,node=0,restart=40",
];

/// Registry name of the scheduler probe the traced run swaps in.
const PROBE_NAME: &str = "benchmark-probe";

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Wordcount,
        Workload::OverloadB8,
        Workload::FaultRecorded,
        Workload::Scale100,
    ];

    /// Stable name, as declared in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Wordcount => "wordcount",
            Workload::OverloadB8 => "overload-b8",
            Workload::FaultRecorded => "fault-recorded",
            Workload::Scale100 => "scale-100",
        }
    }

    /// The workload called `name`, if any.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Virtual seconds one run simulates. Every T-Storm workload reaches
    /// at least one periodic schedule generation; the runs are kept
    /// short enough that a measurement holds several of them, since a
    /// median of several runs is what keeps host noise out.
    #[must_use]
    pub fn virtual_secs(self) -> u64 {
        match self {
            Workload::Wordcount => 300,
            Workload::OverloadB8 => 200,
            Workload::FaultRecorded => 1200,
            Workload::Scale100 => 300,
        }
    }

    fn mode(self) -> SystemMode {
        match self {
            Workload::OverloadB8 => SystemMode::StormDefault,
            _ => SystemMode::TStorm,
        }
    }

    /// A fresh instance of the algorithm this workload's Nimbus runs.
    #[must_use]
    pub fn fresh_scheduler(self) -> Box<dyn Scheduler> {
        match self.mode() {
            SystemMode::TStorm => Box::new(TStormScheduler::new()),
            SystemMode::StormDefault => Box::new(RoundRobinScheduler::storm_default()),
        }
    }

    /// Whether the workload runs with spans, explain and the flight
    /// recorder on.
    #[must_use]
    pub fn observed(self) -> bool {
        self == Workload::FaultRecorded
    }

    fn cluster(self) -> Result<ClusterSpec> {
        let mhz = Mhz::new(8000.0);
        match self {
            Workload::Wordcount => ClusterSpec::homogeneous(10, 4, mhz),
            Workload::OverloadB8 => ClusterSpec::homogeneous(2, 1, mhz),
            Workload::FaultRecorded => ClusterSpec::homogeneous(6, 4, mhz),
            Workload::Scale100 => ClusterSpec::heterogeneous(
                100,
                4,
                &[Mhz::new(4000.0), Mhz::new(8000.0), Mhz::new(16000.0)],
                &[1_000_000_000, 10_000_000_000],
            ),
        }
    }

    fn config(self, seed: u64) -> TStormConfig {
        let mut config = TStormConfig::default()
            .with_mode(self.mode())
            .with_seed(seed);
        match self {
            Workload::OverloadB8 => {
                config.sim.batch_size = 8;
                config.sim.network.nic_bits_per_sec = 10_000_000;
            }
            // Two Algorithm 1 solves (150 s and 300 s) in a run short
            // enough to repeat; the paper's period is 300 s.
            Workload::Scale100 => config.generation_period = SimTime::from_secs(150),
            Workload::Wordcount | Workload::FaultRecorded => {}
        }
        config
    }
}

/// The shared tallies of the traced run's probes.
#[derive(Default)]
pub struct Probes {
    /// Scheduler probe log.
    pub sched: Arc<Mutex<SchedLog>>,
    /// Workload-logic call counts and sampled time.
    pub logic: Arc<Mutex<LogicTally>>,
}

/// A system ready to run.
pub struct Built {
    /// The assembled, started system.
    pub system: TStormSystem,
    /// The recorder sink's tally, when the flight recorder is on; it is
    /// complete once `finish_recording` has dropped the recorder.
    pub recorder: Option<Arc<Mutex<RecorderTally>>>,
}

/// Sets a workload up: builds the system, attaches observability when
/// `observability` is set, installs `probes` when given, submits the
/// topology, starts it and applies the fault plan. This is what
/// `setup_s` measures.
///
/// # Errors
///
/// Propagates configuration, topology and scheduling errors.
pub fn build(
    workload: Workload,
    seed: u64,
    observability: bool,
    probes: Option<&Probes>,
) -> Result<Built> {
    let mut system = TStormSystem::new(workload.cluster()?, workload.config(seed))?;
    let recorder = observability.then(|| {
        system.enable_spans();
        system.set_explain(true);
        let tally = Arc::new(Mutex::new(RecorderTally::default()));
        let sink = RecorderSink::new(probes.is_some(), Arc::clone(&tally));
        let mut recorder = FlightRecorder::new(Box::new(sink) as Box<dyn Write + Send>);
        recorder.meta(|o| {
            o.str("scenario", workload.name()).u64("seed", seed);
        });
        system.set_flight_recorder(recorder);
        tally
    });
    if let Some(probes) = probes {
        let log = Arc::clone(&probes.sched);
        match workload.mode() {
            SystemMode::TStorm => system.register_scheduler(PROBE_NAME, move || {
                Box::new(SchedProbe::new(
                    TStormScheduler::new(),
                    TStormScheduler::last_solve_was_incremental,
                    Arc::clone(&log),
                ))
            }),
            SystemMode::StormDefault => system.register_scheduler(PROBE_NAME, move || {
                Box::new(SchedProbe::new(
                    RoundRobinScheduler::storm_default(),
                    |_| false,
                    Arc::clone(&log),
                ))
            }),
        }
        system.swap_scheduler(PROBE_NAME)?;
    }
    let logic = probes.map(|p| &p.logic);
    match workload {
        Workload::Wordcount => {
            let p = WordCountParams {
                readers: 2,
                splitters: 5,
                counters: 5,
                mongos: 5,
                ackers: 3,
                workers: 20,
                emit_interval_ms: 5,
            };
            let state = WordCountState::new();
            state.attach_corpus_producer(SimTime::ZERO, 300.0);
            let topology = wordcount::topology(&p)?;
            submit(
                &mut system,
                &topology,
                &mut wordcount::factory(&state),
                logic,
            )?;
        }
        Workload::OverloadB8 => {
            let p = TransferParams {
                spouts: 1,
                fans: 1,
                copies: 48,
                sinks: 1,
                workers: 2,
                payload_bytes: 0,
                emit_interval_ms: 1,
            };
            let topology = transfer::topology(&p)?;
            submit(
                &mut system,
                &topology,
                &mut transfer::factory(&p, seed),
                logic,
            )?;
        }
        Workload::FaultRecorded => {
            let p = ThroughputParams {
                spouts: 5,
                identities: 15,
                counters: 15,
                ackers: 10,
                workers: 40,
                tuple_bytes: 10 * 1024,
                emit_interval_ms: 5,
            };
            let topology = throughput::topology(&p)?;
            submit(
                &mut system,
                &topology,
                &mut throughput::factory(&p, seed),
                logic,
            )?;
        }
        Workload::Scale100 => {
            // 64 + 10 × 1000 + 136 = 10,200 executors; the slow 200 ms
            // spout pacing keeps tuple volume modest, so control-plane
            // state, not raw event throughput, dominates.
            let p = ChainParams {
                spouts: 64,
                bolts: 10,
                bolt_parallelism: 1000,
                ackers: 136,
                workers: 400,
                tuple_bytes: 1024,
                emit_interval_ms: 200,
            };
            let topology = chain::topology(&p)?;
            submit(&mut system, &topology, &mut chain::factory(&p, seed), logic)?;
        }
    }
    system.start()?;
    if workload == Workload::FaultRecorded {
        let plan = FaultPlan::from_specs(FAULT_PLAN)
            .map_err(|e| TStormError::invalid_config("fault plan", e.to_string()))?;
        system.simulation_mut().apply_fault_plan(&plan)?;
    }
    Ok(Built { system, recorder })
}

fn submit(
    system: &mut TStormSystem,
    topology: &Topology,
    factory: &mut dyn FnMut(&ComponentSpec, u32) -> ExecutorLogic,
    logic: Option<&Arc<Mutex<LogicTally>>>,
) -> Result<()> {
    match logic {
        None => system.submit(topology, factory)?,
        Some(tally) => system.submit(topology, &mut |spec, index| {
            wrap_logic(factory(spec, index), tally)
        })?,
    };
    Ok(())
}
