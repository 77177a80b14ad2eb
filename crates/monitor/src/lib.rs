//! Load monitoring (Section IV-B of the paper).
//!
//! T-Storm runs a *load monitor* daemon on every worker node that collects,
//! every 20 seconds:
//!
//! 1. the workload of each executor (CPU usage in MHz, from thread CPU
//!    time);
//! 2. the workload of each worker node (sum of its executors);
//! 3. the inter-executor traffic load (tuples sent per pair during the
//!    sampling period).
//!
//! Instead of storing instantaneous readings, the values are smoothed with
//! an exponentially weighted moving average
//! `Y = αY + (1 − α)·Sample` (α = 0.5 by default) and written to a
//! database that the schedule generator reads as its input.
//!
//! In this reproduction the "database" is [`StatsDb`]; the simulator
//! produces one [`WindowSnapshot`] per monitoring period (playing the role
//! of the per-node daemons + JMX thread accounting), and
//! [`LoadMonitor::ingest`] applies the EWMA update. [`OverloadDetector`]
//! implements the overload signal that triggers T-Storm's fast
//! rescheduling path. The monitor keeps no metrics of its own: the
//! `--prom` exposition reads the database's window count and load
//! estimates once the run ends.
//!
//! # Example
//!
//! ```
//! use tstorm_monitor::{LoadMonitor, WindowSnapshot};
//! use tstorm_types::{ExecutorId, SimTime};
//!
//! let mut monitor = LoadMonitor::new(0.5);
//! let mut snap = WindowSnapshot::new(SimTime::from_secs(20));
//! // Executor 0 consumed 8e9 cycles in 20 s => 400 MHz.
//! snap.record_cpu(ExecutorId::new(0), 8_000_000_000);
//! snap.record_traffic(ExecutorId::new(0), ExecutorId::new(1), 4000);
//! monitor.ingest(&snap);
//! let loads = monitor.db().executor_loads();
//! assert!((loads[&ExecutorId::new(0)].get() - 400.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ewma;
pub mod overload;
pub mod snapshot;
pub mod statsdb;

pub use ewma::Ewma;
pub use overload::{OverloadDetector, OverloadReport};
pub use snapshot::WindowSnapshot;
pub use statsdb::StatsDb;

/// The paper's default estimation coefficient (Table II).
pub const DEFAULT_ALPHA: f64 = 0.5;

/// The paper's load monitoring and estimation period (Table II).
pub const DEFAULT_MONITOR_PERIOD_SECS: u64 = 20;

/// The front door of the monitoring subsystem: applies EWMA
/// smoothing of window snapshots into a [`StatsDb`].
#[derive(Debug)]
pub struct LoadMonitor {
    db: StatsDb,
}

impl LoadMonitor {
    /// Creates a monitor with the paper's EWMA at estimation coefficient
    /// `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `[0, 1]`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        Self {
            db: StatsDb::new(alpha),
        }
    }

    /// Applies one monitoring window's readings
    /// (`Y = αY + (1 − α)·Sample` per parameter).
    pub fn ingest(&mut self, snapshot: &WindowSnapshot) {
        self.db.ingest(snapshot);
    }

    /// The estimates database.
    #[must_use]
    pub fn db(&self) -> &StatsDb {
        &self.db
    }

    /// Mutable access to the database (e.g. to clear estimates of
    /// executors removed by a topology kill).
    #[must_use]
    pub fn db_mut(&mut self) -> &mut StatsDb {
        &mut self.db
    }
}
