//! Dependency-free command-line parsing.

use crate::scenario::Topology;
use std::fmt;
use tstorm_core::SystemMode;
use tstorm_sched::SchedulerRegistry;
use tstorm_sim::fault::FaultKind;

/// A `--scale` preset: a named large-cluster shape with heterogeneous
/// CPU and NIC classes and a wide chain workload sized to ≥10k
/// executors. Selecting one overrides `--topology`, `--nodes` and
/// `--slots`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleClass {
    /// 100 nodes × 4 slots, ~10k executors.
    Scale100,
    /// 500 nodes × 4 slots, ~12k executors.
    Scale500,
}

impl ScaleClass {
    /// The preset's CLI spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Scale100 => "scale-100",
            Self::Scale500 => "scale-500",
        }
    }

    /// Worker nodes in the preset cluster.
    #[must_use]
    pub fn nodes(self) -> u32 {
        match self {
            Self::Scale100 => 100,
            Self::Scale500 => 500,
        }
    }

    /// Slots per node in the preset cluster.
    #[must_use]
    pub fn slots(self) -> u32 {
        4
    }

    /// Parses the CLI spelling.
    ///
    /// # Errors
    ///
    /// Returns the unknown token back for the caller's error message.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "scale-100" => Ok(Self::Scale100),
            "scale-500" => Ok(Self::Scale500),
            other => Err(other.to_owned()),
        }
    }
}

/// Everything `tstorm run`/`compare` accept.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// Workload to run.
    pub topology: Topology,
    /// System under test (`run` only; `compare` runs both).
    pub mode: SystemMode,
    /// Scheduler name for the schedule generator.
    pub scheduler: String,
    /// Consolidation factor γ.
    pub gamma: f64,
    /// Worker nodes in the simulated cluster.
    pub nodes: u32,
    /// Slots per node.
    pub slots: u32,
    /// Virtual run duration in seconds.
    pub duration_secs: u64,
    /// RNG seed.
    pub seed: u64,
    /// Input rate in lines/s for the queue-fed workloads (ignored by
    /// throughput/chain, which are spout-paced).
    pub rate: f64,
    /// Write the 1-minute series as CSV to this path.
    pub csv: Option<String>,
    /// Stream trace events as JSON Lines to this path.
    pub trace: Option<String>,
    /// Comma-separated trace categories to keep (default: all).
    pub trace_filter: Option<String>,
    /// Keep 1 in N data-plane trace events (default: 1 = keep all).
    pub trace_sample: u64,
    /// Write the metrics registry in Prometheus text format to this
    /// path at the end of the run.
    pub prom: Option<String>,
    /// Fault-plan specs (repeatable `--fault`), e.g.
    /// `node-crash@t=400,node=3`. Validated at parse time, applied to
    /// the simulation before the run.
    pub faults: Vec<String>,
    /// Maximum replays per tuple before it is permanently failed
    /// (`None` = unbounded, Storm's behaviour).
    pub max_replays: Option<u32>,
    /// Transfer-batching threshold: outbound tuples coalesce per
    /// (source, destination) executor pair until a batch holds this
    /// many. `1` (the default) keeps the original per-tuple path.
    pub batch_size: u32,
    /// Supervisor heartbeat period in seconds (liveness is derived from
    /// these heartbeats, never from direct observation).
    pub heartbeat_secs: u64,
    /// Per-node jitter fraction on supervisor fetch/heartbeat timers,
    /// in `[0, 1)`; staggers rollouts across nodes.
    pub fetch_jitter: f64,
    /// Suppress the per-window table (summary only).
    pub quiet: bool,
    /// Print engine hot-path statistics (envelope-pool hit rate, event
    /// queue high-water mark, clock inversions, pair state) after the
    /// run.
    pub engine_stats: bool,
    /// Stream a flight recording (windowed cluster state, scheduler
    /// decision records, control events, critical-path summary) to this
    /// path. Collects per-tuple span trees and decision records for it;
    /// `inspect` renders the recording.
    pub flight_recorder: Option<String>,
    /// Large-cluster preset; overrides topology/nodes/slots with a
    /// heterogeneous scale scenario.
    pub scale: Option<ScaleClass>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            topology: Topology::Throughput,
            mode: SystemMode::TStorm,
            scheduler: "t-storm".to_owned(),
            gamma: 1.7,
            nodes: 10,
            slots: 4,
            duration_secs: 600,
            seed: 42,
            rate: 300.0,
            csv: None,
            trace: None,
            trace_filter: None,
            trace_sample: 1,
            prom: None,
            faults: Vec::new(),
            max_replays: None,
            batch_size: 1,
            heartbeat_secs: 5,
            fetch_jitter: 0.2,
            quiet: false,
            engine_stats: false,
            flight_recorder: None,
            scale: None,
        }
    }
}

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one workload under one system.
    Run(RunOptions),
    /// Run Storm and T-Storm back to back and compare.
    Compare(RunOptions),
    /// List registered schedulers.
    Schedulers,
    /// Print usage.
    Help,
}

/// A human-readable parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Usage text.
pub const USAGE: &str = "\
tstorm — T-Storm (ICDCS 2014) reproduction CLI

USAGE:
    tstorm run     [OPTIONS]   run one workload under one system
    tstorm compare [OPTIONS]   run Storm and T-Storm and compare
    tstorm schedulers          list scheduling algorithms
    tstorm help                this text

OPTIONS (run/compare):
    --topology  throughput|wordcount|logstream|chain   [throughput]
    --system    storm|t-storm                          [t-storm]  (run only)
    --scheduler NAME   schedule-generator algorithm    [t-storm]
    --gamma     F      consolidation factor            [1.7]
    --nodes     N      worker nodes                    [10]
    --slots     N      slots per node                  [4]
    --duration  SECS   virtual run time                [600]
    --seed      N      RNG seed                        [42]
    --rate      F      input lines/s (queue workloads) [300]
    --csv       PATH   write 1-minute series as CSV  (run only)
    --trace PATH       stream trace events as JSON Lines  (run only)
    --trace-filter CAT[,CAT...]  keep only these trace categories
                       (tuple|queue|process|worker|control; needs --trace)
    --trace-sample N   keep 1 in N data-plane trace events  [1]
                       (needs --trace)
    --prom  PATH       write metrics in Prometheus text format  (run only)
    --fault SPEC       inject a fault (repeatable). Specs:
                       worker-crash@t=SECS,node=N,slot=S
                       node-crash@t=SECS,node=N[,restart=SECS]
                       nic-slow@t=SECS,node=N,factor=F,dur=SECS
                       nimbus-crash@t=SECS,dur=SECS
                       heartbeat-loss@t=SECS,node=N,dur=SECS
    --max-replays N    permanently fail a tuple after N replays
                       [unbounded, like Storm]
    --batch-size N     coalesce outbound tuples per (src, dst) executor
                       pair into batches of N transfers  [1 = off]
    --heartbeat SECS   supervisor heartbeat period               [5]
    --fetch-jitter F   per-node fetch/heartbeat jitter in [0,1)  [0.2]
    --quiet            summary only
    --engine-stats     print engine hot-path statistics after the run
    --flight-recorder PATH  stream a flight recording (JSONL) of the
                       run: windows, scheduler decisions, control
                       events, critical path. Render it with `inspect`
                       (run only)
    --scale scale-100|scale-500  large-cluster preset: heterogeneous
                       CPU (4/8/16 GHz classes) and NIC (1/10 Gbps)
                       nodes with a wide chain topology of 10k+
                       executors; overrides --topology/--nodes/--slots
";

/// Parses a full argument list (excluding `argv[0]`).
///
/// # Errors
///
/// Returns [`ParseError`] describing the first invalid flag or value.
pub fn parse<I, S>(args: I) -> Result<Command, ParseError>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut it = args.into_iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    match cmd.as_ref() {
        "run" => Ok(Command::Run(parse_options(it, false)?)),
        "compare" => Ok(Command::Compare(parse_options(it, true)?)),
        "schedulers" => Ok(Command::Schedulers),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(ParseError(format!(
            "unknown command `{other}` (try `tstorm help`)"
        ))),
    }
}

/// Most slots `--nodes × --slots` may ask for: 500× the 2,000 of
/// `scale-500`. A larger cluster exhausts memory while it is built,
/// before the run even starts.
const MAX_CLUSTER_SLOTS: u64 = 1_000_000;

/// Flags `compare` rejects: it runs both systems, so `--system` means
/// nothing there, and both runs would write each output path, the
/// second overwriting the first.
const RUN_ONLY: [&str; 5] = [
    "--system",
    "--csv",
    "--trace",
    "--prom",
    "--flight-recorder",
];

fn parse_options<I, S>(mut it: I, compare: bool) -> Result<RunOptions, ParseError>
where
    I: Iterator<Item = S>,
    S: AsRef<str>,
{
    let mut opts = RunOptions::default();
    let mut trace_sampled = false;
    let mut faults = Vec::new();
    while let Some(flag) = it.next() {
        let flag = flag.as_ref();
        if compare && RUN_ONLY.contains(&flag) {
            return Err(ParseError(format!(
                "{flag} is run-only; `compare` does not accept it"
            )));
        }
        let mut value = |name: &str| -> Result<String, ParseError> {
            it.next()
                .map(|v| v.as_ref().to_owned())
                .ok_or_else(|| ParseError(format!("{name} requires a value")))
        };
        match flag {
            "--topology" => {
                opts.topology = match value(flag)?.as_str() {
                    "throughput" => Topology::Throughput,
                    "wordcount" => Topology::WordCount,
                    "logstream" => Topology::LogStream,
                    "chain" => Topology::Chain,
                    other => return Err(ParseError(format!("unknown topology `{other}`"))),
                }
            }
            "--system" => {
                opts.mode = match value(flag)?.as_str() {
                    "storm" => SystemMode::StormDefault,
                    "t-storm" | "tstorm" => SystemMode::TStorm,
                    other => return Err(ParseError(format!("unknown system `{other}`"))),
                }
            }
            "--scheduler" => {
                let name = value(flag)?;
                let registry = SchedulerRegistry::with_builtins();
                if !registry.names().contains(&name.as_str()) {
                    return Err(ParseError(format!(
                        "--scheduler: unknown scheduler `{name}` (known: {})",
                        registry.names().join(", ")
                    )));
                }
                opts.scheduler = name;
            }
            "--gamma" => opts.gamma = parse_positive(flag, &value(flag)?)?,
            "--rate" => opts.rate = parse_positive(flag, &value(flag)?)?,
            "--nodes" => opts.nodes = parse_int(flag, &value(flag)?)?,
            "--slots" => opts.slots = parse_int(flag, &value(flag)?)?,
            "--duration" => {
                opts.duration_secs = u64::from(parse_int::<u32>(flag, &value(flag)?)?);
            }
            "--seed" => opts.seed = parse_int(flag, &value(flag)?)?,
            "--csv" => opts.csv = Some(value(flag)?),
            "--trace" => opts.trace = Some(value(flag)?),
            "--trace-filter" => {
                let spec = value(flag)?;
                tstorm_trace::TraceFilter::parse(&spec).map_err(|tok| {
                    ParseError(format!("--trace-filter: unknown category `{tok}`"))
                })?;
                opts.trace_filter = Some(spec);
            }
            "--trace-sample" => {
                trace_sampled = true;
                opts.trace_sample = u64::from(parse_int::<u32>(flag, &value(flag)?)?);
                if opts.trace_sample == 0 {
                    return Err(ParseError("--trace-sample must be positive".to_owned()));
                }
            }
            "--prom" => opts.prom = Some(value(flag)?),
            "--fault" => {
                let spec = value(flag)?;
                let fault = tstorm_sim::fault::parse_spec(&spec)
                    .map_err(|e| ParseError(format!("--fault: {e}")))?;
                faults.push(fault.kind);
                opts.faults.push(spec);
            }
            "--max-replays" => opts.max_replays = Some(parse_int(flag, &value(flag)?)?),
            "--batch-size" => {
                opts.batch_size = parse_int(flag, &value(flag)?)?;
                if opts.batch_size == 0 {
                    return Err(ParseError("--batch-size must be positive".to_owned()));
                }
            }
            "--heartbeat" => {
                opts.heartbeat_secs = u64::from(parse_int::<u32>(flag, &value(flag)?)?);
                if opts.heartbeat_secs == 0 {
                    return Err(ParseError("--heartbeat must be positive".to_owned()));
                }
            }
            "--fetch-jitter" => {
                opts.fetch_jitter = parse_num(flag, &value(flag)?)?;
                if !(0.0..1.0).contains(&opts.fetch_jitter) {
                    return Err(ParseError(
                        "--fetch-jitter must be within [0, 1)".to_owned(),
                    ));
                }
            }
            "--quiet" => opts.quiet = true,
            "--engine-stats" => opts.engine_stats = true,
            "--flight-recorder" => opts.flight_recorder = Some(value(flag)?),
            "--scale" => {
                let spec = value(flag)?;
                opts.scale = Some(ScaleClass::parse(&spec).map_err(|tok| {
                    ParseError(format!(
                        "--scale: unknown preset `{tok}` (scale-100|scale-500)"
                    ))
                })?);
            }
            other => return Err(ParseError(format!("unknown flag `{other}`"))),
        }
    }
    if opts.nodes == 0 || opts.slots == 0 {
        return Err(ParseError("--nodes/--slots must be positive".to_owned()));
    }
    let slots = u64::from(opts.nodes) * u64::from(opts.slots);
    if slots > MAX_CLUSTER_SLOTS {
        return Err(ParseError(format!(
            "--nodes {} × --slots {} is {slots} slots, above the limit of {MAX_CLUSTER_SLOTS}",
            opts.nodes, opts.slots
        )));
    }
    if opts.duration_secs == 0 {
        return Err(ParseError("--duration must be positive".to_owned()));
    }
    if opts.trace.is_none() {
        // Without a trace there is nothing to filter or sample; under
        // `compare`, which takes no `--trace`, neither flag can work.
        for (flag, given) in [
            ("--trace-filter", opts.trace_filter.is_some()),
            ("--trace-sample", trace_sampled),
        ] {
            if given {
                return Err(ParseError(format!("{flag} needs --trace")));
            }
        }
    }
    // A preset overrides `--nodes`/`--slots`, so targets are checked
    // against the cluster the run will build.
    let (nodes, slots) = opts.scale.map_or((opts.nodes, opts.slots), |class| {
        (class.nodes(), class.slots())
    });
    for (spec, kind) in opts.faults.iter().zip(&faults) {
        if let Some(node) = kind.node().filter(|n| n.index() >= nodes) {
            return Err(ParseError(format!(
                "--fault `{spec}`: node {} is outside the cluster's {nodes} nodes",
                node.index()
            )));
        }
        if let FaultKind::WorkerCrash { local_slot, .. } = kind {
            if *local_slot >= slots {
                return Err(ParseError(format!(
                    "--fault `{spec}`: slot {local_slot} is outside the {slots} slots of a node"
                )));
            }
        }
    }
    Ok(opts)
}

fn parse_num(flag: &str, v: &str) -> Result<f64, ParseError> {
    v.parse()
        .map_err(|_| ParseError(format!("{flag}: `{v}` is not a number")))
}

/// A finite, strictly positive number: rates and γ feed divisions and
/// capacity bounds, where 0, negatives, NaN and infinities either panic
/// deep in the run or fail late with a vague configuration error.
fn parse_positive(flag: &str, v: &str) -> Result<f64, ParseError> {
    let x = parse_num(flag, v)?;
    if x.is_finite() && x > 0.0 {
        Ok(x)
    } else {
        Err(ParseError(format!(
            "{flag}: `{v}` must be finite and positive"
        )))
    }
}

fn parse_int<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, ParseError> {
    v.parse()
        .map_err(|_| ParseError(format!("{flag}: `{v}` is not an integer")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<&str> {
        s.split_whitespace().collect()
    }

    #[test]
    fn parses_run_with_defaults() {
        let cmd = parse(args("run")).expect("parses");
        assert_eq!(cmd, Command::Run(RunOptions::default()));
    }

    #[test]
    fn parses_full_run() {
        let cmd = parse(args(
            "run --topology wordcount --system storm --gamma 2.2 --nodes 5 \
             --slots 2 --duration 120 --seed 7 --rate 150 --csv out.csv --quiet",
        ))
        .expect("parses");
        let Command::Run(o) = cmd else {
            panic!("expected run");
        };
        assert_eq!(o.topology, Topology::WordCount);
        assert_eq!(o.mode, SystemMode::StormDefault);
        assert_eq!(o.gamma, 2.2);
        assert_eq!(o.nodes, 5);
        assert_eq!(o.slots, 2);
        assert_eq!(o.duration_secs, 120);
        assert_eq!(o.seed, 7);
        assert_eq!(o.rate, 150.0);
        assert_eq!(o.csv.as_deref(), Some("out.csv"));
        assert!(o.quiet);
    }

    #[test]
    fn parses_other_commands() {
        assert_eq!(parse(args("schedulers")).unwrap(), Command::Schedulers);
        assert_eq!(parse(args("help")).unwrap(), Command::Help);
        assert_eq!(parse(Vec::<&str>::new()).unwrap(), Command::Help);
    }

    #[test]
    fn seed_takes_the_full_u64_range() {
        // `sweep` records per-trial seeds anywhere in u64; each must
        // replay through `tstorm run --seed`.
        let Command::Run(o) = parse(args("run --seed 18446744073709551615")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(o.seed, u64::MAX);
        assert!(parse(args("run --seed 18446744073709551616")).is_err());
    }

    #[test]
    fn rejects_unknown_things() {
        assert!(parse(args("frobnicate")).is_err());
        assert!(parse(args("run --what 3")).is_err());
        assert!(parse(args("run --topology nope")).is_err());
        assert!(parse(args("run --system nope")).is_err());
        assert!(parse(args("run --gamma banana")).is_err());
        assert!(parse(args("run --gamma")).is_err());
    }

    #[test]
    fn parses_a_registered_scheduler_name() {
        let Command::Run(o) = parse(args("run --scheduler aniello-online")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(o.scheduler, "aniello-online");
    }

    #[test]
    fn rejects_degenerate_values() {
        assert!(parse(args("run --nodes 0")).is_err());
        assert!(parse(args("run --duration 0")).is_err());
        assert!(parse(args("run --trace-sample 0")).is_err());
        assert!(parse(args("run --trace-filter tuple,bogus")).is_err());
        assert!(parse(args("run --batch-size 0")).is_err());
        assert!(parse(args("run --batch-size nope")).is_err());
        for bad in ["0", "-1", "nan", "NaN", "inf", "-inf"] {
            for flag in ["--rate", "--gamma"] {
                let err = parse(vec!["run", flag, bad]).unwrap_err();
                assert!(err.0.contains("finite and positive"), "{flag} {bad}: {err}");
            }
        }
    }

    #[test]
    fn parses_batch_size() {
        let Command::Run(o) = parse(args("run --batch-size 16")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(o.batch_size, 16);
        let Command::Run(o) = parse(args("run")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(o.batch_size, 1, "batching is opt-in");
    }

    #[test]
    fn parses_fault_flags() {
        let cmd = parse(args(
            "run --fault node-crash@t=400,node=3 \
             --fault worker-crash@t=200,node=1,slot=0 --max-replays 5",
        ))
        .expect("parses");
        let Command::Run(o) = cmd else {
            panic!("expected run");
        };
        assert_eq!(
            o.faults,
            vec![
                "node-crash@t=400,node=3".to_owned(),
                "worker-crash@t=200,node=1,slot=0".to_owned(),
            ]
        );
        assert_eq!(o.max_replays, Some(5));
    }

    #[test]
    fn rejects_malformed_fault_specs() {
        assert!(parse(args("run --fault")).is_err());
        assert!(parse(args("run --fault gremlin@t=1,node=0")).is_err());
        assert!(parse(args("run --fault node-crash@node=3")).is_err());
        assert!(parse(args("run --fault nimbus-crash@t=100")).is_err());
        assert!(parse(args("run --fault heartbeat-loss@t=100,dur=30")).is_err());
        assert!(parse(args("run --max-replays x")).is_err());
    }

    #[test]
    fn parses_control_plane_flags_and_faults() {
        let cmd = parse(args(
            "run --heartbeat 2 --fetch-jitter 0.4 \
             --fault nimbus-crash@t=100,dur=60 \
             --fault heartbeat-loss@t=200,node=2,dur=30",
        ))
        .expect("parses");
        let Command::Run(o) = cmd else {
            panic!("expected run");
        };
        assert_eq!(o.heartbeat_secs, 2);
        assert_eq!(o.fetch_jitter, 0.4);
        assert_eq!(
            o.faults,
            vec![
                "nimbus-crash@t=100,dur=60".to_owned(),
                "heartbeat-loss@t=200,node=2,dur=30".to_owned(),
            ]
        );
        assert!(parse(args("run --heartbeat 0")).is_err());
        assert!(parse(args("run --fetch-jitter 1.0")).is_err());
        assert!(parse(args("run --fetch-jitter -0.1")).is_err());
    }

    #[test]
    fn parses_engine_stats_flag() {
        let cmd = parse(args("run --engine-stats --quiet")).expect("parses");
        let Command::Run(o) = cmd else {
            panic!("expected run");
        };
        assert!(o.engine_stats);
        assert!(o.quiet);
        let Command::Run(o) = parse(args("run")).unwrap() else {
            panic!("expected run");
        };
        assert!(!o.engine_stats);
    }

    #[test]
    fn parses_observability_flags() {
        let cmd = parse(args(
            "run --trace t.jsonl --trace-filter tuple,control --trace-sample 10 \
             --prom m.prom",
        ))
        .expect("parses");
        let Command::Run(o) = cmd else {
            panic!("expected run");
        };
        assert_eq!(o.trace.as_deref(), Some("t.jsonl"));
        assert_eq!(o.trace_filter.as_deref(), Some("tuple,control"));
        assert_eq!(o.trace_sample, 10);
        assert_eq!(o.prom.as_deref(), Some("m.prom"));
    }

    #[test]
    fn parses_scale_flag() {
        let Command::Run(o) = parse(args("run --scale scale-100")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(o.scale, Some(ScaleClass::Scale100));

        let Command::Run(o) = parse(args("run --scale scale-500")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(o.scale, Some(ScaleClass::Scale500));

        assert!(parse(args("run --scale scale-9000")).is_err());
        assert!(parse(args("run --scale")).is_err());
    }

    #[test]
    fn scale_presets_have_expected_shapes() {
        assert_eq!(ScaleClass::Scale100.name(), "scale-100");
        assert_eq!(ScaleClass::Scale100.nodes(), 100);
        assert_eq!(ScaleClass::Scale500.nodes(), 500);
        assert_eq!(ScaleClass::Scale500.slots(), 4);
        assert_eq!(ScaleClass::parse("scale-100"), Ok(ScaleClass::Scale100));
        assert!(ScaleClass::parse("mega").is_err());
    }

    #[test]
    fn parses_span_and_recorder_flags() {
        let Command::Run(o) = parse(args("run --flight-recorder run.jsonl")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(o.flight_recorder.as_deref(), Some("run.jsonl"));

        assert!(parse(args("run --flight-recorder")).is_err());
        for retired in ["--spans", "--explain"] {
            let err = parse(vec!["run", retired]).unwrap_err();
            assert_eq!(err.0, format!("unknown flag `{retired}`"));
        }

        let Command::Run(o) = parse(args("run")).unwrap() else {
            panic!("expected run");
        };
        assert!(o.flight_recorder.is_none() && !o.engine_stats);
    }
}
