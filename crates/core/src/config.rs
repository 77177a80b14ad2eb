//! System configuration — Table II of the paper, plus mode selection.

use serde::{Deserialize, Serialize};
use tstorm_sim::SimConfig;
use tstorm_types::{Result, SimTime, TStormError};

/// Which system the run models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SystemMode {
    /// Plain Storm 0.8.2: the default round-robin scheduler runs once at
    /// submission, there is no load monitoring, and re-assignments
    /// (crash recovery) kill and restart the affected workers at the next
    /// supervisor poll ([`tstorm_sim::Simulation::submit_assignment`]).
    StormDefault,
    /// T-Storm: modified initial assignment, load monitoring, periodic
    /// traffic-aware re-scheduling, overload fast path, and the smooth
    /// re-assignment protocol, applied node by node as each supervisor
    /// fetches its slice
    /// ([`tstorm_sim::Simulation::apply_assignment_for_node`]).
    TStorm,
}

/// Full configuration of a system run. Defaults reproduce Table II.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TStormConfig {
    /// System under test.
    pub mode: SystemMode,
    /// Estimation coefficient α (Table II: 0.5).
    pub alpha: f64,
    /// Load monitoring and estimation period (Table II: 20 s).
    pub monitor_period: SimTime,
    /// Schedule fetching period of the custom scheduler (Table II: 10 s).
    pub fetch_period: SimTime,
    /// Schedule generation period (Table II: 300 s).
    pub generation_period: SimTime,
    /// Consolidation factor γ (Section IV-C).
    pub gamma: f64,
    /// Fraction of node capacity the scheduler may fill (Section IV-C
    /// suggests a fraction below 1 to "prevent overloading from happening
    /// with high probability").
    pub capacity_fraction: f64,
    /// Name of the scheduling algorithm the generator starts with
    /// (resolved through the hot-swap registry).
    pub scheduler: String,
    /// Interval at which each node's supervisor heartbeats to Nimbus.
    /// Liveness is heartbeat-derived: Nimbus never observes node health
    /// directly, only this stream.
    pub heartbeat_period: SimTime,
    /// Per-node jitter fraction applied to every supervisor fetch (and
    /// heartbeat) interval, in `[0, 1)`. Non-zero jitter staggers the
    /// nodes so a rollout is applied node by node rather than in one
    /// synchronized step — different nodes briefly run different
    /// assignment epochs, as in real Storm.
    pub fetch_jitter: f64,
    /// Underlying simulator configuration.
    pub sim: SimConfig,
}

impl Default for TStormConfig {
    fn default() -> Self {
        Self {
            mode: SystemMode::TStorm,
            alpha: 0.5,
            monitor_period: SimTime::from_secs(20),
            fetch_period: SimTime::from_secs(10),
            generation_period: SimTime::from_secs(300),
            gamma: 1.0,
            capacity_fraction: 0.9,
            scheduler: "t-storm".to_owned(),
            heartbeat_period: SimTime::from_secs(5),
            fetch_jitter: 0.2,
            sim: SimConfig::default(),
        }
    }
}

impl TStormConfig {
    /// Builder-style mode selection.
    #[must_use]
    pub fn with_mode(mut self, mode: SystemMode) -> Self {
        self.mode = mode;
        self
    }

    /// Builder-style γ override.
    #[must_use]
    pub fn with_gamma(mut self, gamma: f64) -> Self {
        self.gamma = gamma;
        self
    }

    /// Builder-style seed override.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.sim.seed = seed;
        self
    }

    /// Builder-style scheduler-name override.
    #[must_use]
    pub fn with_scheduler(mut self, name: impl Into<String>) -> Self {
        self.scheduler = name.into();
        self
    }

    /// Validates parameter domains.
    ///
    /// # Errors
    ///
    /// Returns [`TStormError::InvalidConfig`] for out-of-domain values.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(TStormError::invalid_config(
                "alpha",
                "must be within [0, 1]",
            ));
        }
        if self.gamma <= 0.0 || !self.gamma.is_finite() {
            return Err(TStormError::invalid_config("gamma", "must be positive"));
        }
        if self.capacity_fraction <= 0.0 || self.capacity_fraction > 1.0 {
            return Err(TStormError::invalid_config(
                "capacity_fraction",
                "must be within (0, 1]",
            ));
        }
        if self.monitor_period == SimTime::ZERO
            || self.fetch_period == SimTime::ZERO
            || self.generation_period == SimTime::ZERO
        {
            return Err(TStormError::invalid_config(
                "periods",
                "monitor/fetch/generation periods must be non-zero",
            ));
        }
        if self.heartbeat_period == SimTime::ZERO {
            return Err(TStormError::invalid_config(
                "heartbeat_period",
                "must be non-zero",
            ));
        }
        if !(0.0..1.0).contains(&self.fetch_jitter) {
            return Err(TStormError::invalid_config(
                "fetch_jitter",
                "must be within [0, 1)",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_ii() {
        let c = TStormConfig::default();
        assert_eq!(c.alpha, 0.5);
        assert_eq!(c.monitor_period, SimTime::from_secs(20));
        assert_eq!(c.fetch_period, SimTime::from_secs(10));
        assert_eq!(c.generation_period, SimTime::from_secs(300));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_values() {
        assert!(TStormConfig::default().with_gamma(0.0).validate().is_err());
        let c = TStormConfig {
            alpha: 1.5,
            ..TStormConfig::default()
        };
        assert!(c.validate().is_err());
        let c = TStormConfig {
            capacity_fraction: 0.0,
            ..TStormConfig::default()
        };
        assert!(c.validate().is_err());
        let c = TStormConfig {
            monitor_period: SimTime::ZERO,
            ..TStormConfig::default()
        };
        assert!(c.validate().is_err());
        let c = TStormConfig {
            heartbeat_period: SimTime::ZERO,
            ..TStormConfig::default()
        };
        assert!(c.validate().is_err());
        let c = TStormConfig {
            fetch_jitter: 1.0,
            ..TStormConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn builders_chain() {
        let c = TStormConfig::default()
            .with_gamma(1.7)
            .with_seed(9)
            .with_scheduler("aniello-online");
        assert_eq!(c.gamma, 1.7);
        assert_eq!(c.sim.seed, 9);
        assert_eq!(c.scheduler, "aniello-online");
    }
}
