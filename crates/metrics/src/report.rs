//! Run reports: the bundle of series one simulation run produces, with
//! table/CSV rendering and the comparison arithmetic behind the paper's
//! headline numbers.

use crate::counter::WindowedCounter;
use crate::histogram::LogHistogram;
use crate::series::{WindowPoint, WindowedSeries};
use crate::step::StepSeries;
use crate::{mean_after, speedup_percent};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use tstorm_types::SimTime;

/// Everything measured during one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Label, e.g. `"Storm"` or `"T-Storm (gamma=1.7)"`.
    pub label: String,
    /// 1-minute average tuple processing time, in milliseconds.
    pub proc_time_ms: WindowedSeries,
    /// Full-run latency distribution (milliseconds) for percentiles.
    pub latency_hist: LogHistogram,
    /// Failed (timed-out) tuples per window.
    pub failed: WindowedCounter,
    /// Number of worker nodes in use over time.
    pub nodes_used: StepSeries<u32>,
    /// Completed (fully acked) tuple count.
    pub completed: u64,
    /// Tuples emitted by spouts (including replays).
    pub emitted: u64,
    /// Timed-out tuples re-queued for spout replay.
    pub replays: u64,
    /// Tuples that timed out with no replay possible (replay disabled or
    /// the replay cap exhausted) — permanent losses.
    pub perm_failed: u64,
    /// Queued/in-service tuples destroyed by injected crashes.
    pub tuples_lost: u64,
    /// Fault-to-first-completion latency (ms) per recovered fault.
    pub recovery_latency_ms: Vec<f64>,
}

impl RunReport {
    /// Creates an empty report with 1-minute windows.
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            proc_time_ms: WindowedSeries::new(crate::ONE_MINUTE),
            latency_hist: LogHistogram::new(),
            failed: WindowedCounter::new(crate::ONE_MINUTE),
            nodes_used: StepSeries::new(),
            completed: 0,
            emitted: 0,
            replays: 0,
            perm_failed: 0,
            tuples_lost: 0,
            recovery_latency_ms: Vec::new(),
        }
    }

    /// Mean 1-minute-average processing time counting windows starting at
    /// or after `from` — the paper's "counting measurements after NNN s".
    #[must_use]
    pub fn mean_proc_time_after(&self, from: SimTime) -> Option<f64> {
        mean_after(&self.proc_time_ms.points(), from)
    }

    /// Final number of nodes in use.
    #[must_use]
    pub fn final_nodes_used(&self) -> Option<u32> {
        self.nodes_used.last().copied()
    }

    /// Records one completed tuple's latency into both the windowed
    /// series and the percentile histogram.
    pub fn record_latency(&mut self, at: SimTime, latency_ms: f64) {
        self.proc_time_ms.record(at, latency_ms);
        self.latency_hist.record(latency_ms);
    }

    /// The whole-run `q`-quantile of completion latency in milliseconds.
    #[must_use]
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        self.latency_hist.quantile(q)
    }

    /// Latency samples rejected as unrepresentable (NaN, ±∞, zero,
    /// negative) — quarantined by the histogram instead of poisoning the
    /// low quantiles.
    #[must_use]
    pub fn invalid_latency_samples(&self) -> u64 {
        self.latency_hist.invalid()
    }

    /// Renders the 1-minute series as an aligned text table, one row per
    /// window: time, avg proc time (ms), samples, failed.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.label);
        let _ = writeln!(
            out,
            "{:>8}  {:>16}  {:>10}  {:>8}",
            "time(s)", "avg proc (ms)", "samples", "failed"
        );
        let failed = self.failed.points();
        for (i, p) in self.proc_time_ms.points().iter().enumerate() {
            let f = failed.get(i).map_or(0, |(_, n)| *n);
            if p.count == 0 {
                let _ = writeln!(
                    out,
                    "{:>8}  {:>16}  {:>10}  {:>8}",
                    p.start.as_secs(),
                    "-",
                    0,
                    f
                );
            } else {
                let _ = writeln!(
                    out,
                    "{:>8}  {:>16.3}  {:>10}  {:>8}",
                    p.start.as_secs(),
                    p.mean,
                    p.count,
                    f
                );
            }
        }
        let _ = writeln!(
            out,
            "completed={} emitted={} final_nodes={:?}",
            self.completed,
            self.emitted,
            self.final_nodes_used()
        );
        if self.invalid_latency_samples() > 0 {
            let _ = writeln!(
                out,
                "invalid_latency_samples={} (rejected from quantiles)",
                self.invalid_latency_samples()
            );
        }
        if self.tuples_lost > 0 || self.perm_failed > 0 || !self.recovery_latency_ms.is_empty() {
            let recoveries: Vec<String> = self
                .recovery_latency_ms
                .iter()
                .map(|ms| format!("{ms:.1}ms"))
                .collect();
            let _ = writeln!(
                out,
                "faults: lost={} replays={} perm_failed={} recovery=[{}]",
                self.tuples_lost,
                self.replays,
                self.perm_failed,
                recoveries.join(", ")
            );
        }
        out
    }

    /// Renders the series as CSV with header
    /// `time_s,avg_proc_ms,samples,failed,nodes`.
    #[must_use]
    pub fn render_csv(&self) -> String {
        let mut out = String::from("time_s,avg_proc_ms,samples,failed,nodes\n");
        let failed = self.failed.points();
        for (i, p) in self.proc_time_ms.points().iter().enumerate() {
            let f = failed.get(i).map_or(0, |(_, n)| *n);
            let nodes = self.nodes_used.at(p.start).copied().unwrap_or(0);
            let _ = writeln!(
                out,
                "{},{:.6},{},{},{}",
                p.start.as_secs(),
                if p.count == 0 { f64::NAN } else { p.mean },
                p.count,
                f,
                nodes
            );
        }
        out
    }

    /// The windowed latency points (convenience passthrough).
    #[must_use]
    pub fn proc_points(&self) -> Vec<WindowPoint> {
        self.proc_time_ms.points()
    }
}

/// One row of a baseline-vs-candidate comparison (a paper figure caption).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonRow {
    /// Experiment label (e.g. `"Fig.5(b) gamma=1.7"`).
    pub label: String,
    /// Baseline mean proc time (ms) after stabilisation.
    pub baseline_ms: f64,
    /// Candidate mean proc time (ms) after stabilisation.
    pub candidate_ms: f64,
    /// Speedup percent (positive = candidate faster).
    pub speedup_percent: f64,
    /// Nodes used by baseline.
    pub baseline_nodes: u32,
    /// Nodes used by candidate.
    pub candidate_nodes: u32,
}

impl ComparisonRow {
    /// Builds a comparison row from two reports, counting windows at or
    /// after `stable_from`. Returns `None` if either series has no data in
    /// range.
    #[must_use]
    pub fn from_reports(
        label: impl Into<String>,
        baseline: &RunReport,
        candidate: &RunReport,
        stable_from: SimTime,
    ) -> Option<Self> {
        let b = baseline.mean_proc_time_after(stable_from)?;
        let c = candidate.mean_proc_time_after(stable_from)?;
        Some(Self {
            label: label.into(),
            baseline_ms: b,
            candidate_ms: c,
            speedup_percent: speedup_percent(b, c)?,
            baseline_nodes: baseline.final_nodes_used().unwrap_or(0),
            candidate_nodes: candidate.final_nodes_used().unwrap_or(0),
        })
    }

    /// Renders a set of rows as an aligned text table.
    #[must_use]
    pub fn render_table(rows: &[ComparisonRow]) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>14} {:>14} {:>10} {:>7} {:>7}",
            "experiment", "Storm (ms)", "T-Storm (ms)", "speedup%", "nodesS", "nodesT"
        );
        for r in rows {
            let _ = writeln!(
                out,
                "{:<28} {:>14.3} {:>14.3} {:>10.1} {:>7} {:>7}",
                r.label,
                r.baseline_ms,
                r.candidate_ms,
                r.speedup_percent,
                r.baseline_nodes,
                r.candidate_nodes
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(label: &str, values: &[(u64, f64)], nodes: u32) -> RunReport {
        let mut r = RunReport::new(label);
        for (sec, v) in values {
            r.proc_time_ms.record(SimTime::from_secs(*sec), *v);
        }
        r.nodes_used.record(SimTime::ZERO, nodes);
        r.completed = values.len() as u64;
        r.emitted = values.len() as u64;
        r
    }

    #[test]
    fn comparison_row_computes_speedup() {
        let storm = report("Storm", &[(200, 10.0), (260, 10.0)], 10);
        let tstorm = report("T-Storm", &[(200, 1.0), (260, 1.0)], 7);
        let row =
            ComparisonRow::from_reports("fig", &storm, &tstorm, SimTime::from_secs(200)).unwrap();
        assert!((row.speedup_percent - 90.0).abs() < 1e-9);
        assert_eq!(row.baseline_nodes, 10);
        assert_eq!(row.candidate_nodes, 7);
    }

    #[test]
    fn comparison_none_when_no_data() {
        let storm = report("Storm", &[], 10);
        let tstorm = report("T-Storm", &[(200, 1.0)], 7);
        assert!(ComparisonRow::from_reports("fig", &storm, &tstorm, SimTime::ZERO).is_none());
    }

    #[test]
    fn table_renders_gaps_for_empty_windows() {
        let r = report("x", &[(130, 5.0)], 1);
        let table = r.render_table();
        assert!(table.contains("== x =="));
        // Window 0 and 1 are empty -> "-" cells.
        assert!(table.contains('-'));
        assert!(table.contains("5.000"));
    }

    #[test]
    fn fault_line_renders_only_when_faults_happened() {
        let clean = report("x", &[(0, 2.0)], 1);
        assert!(!clean.render_table().contains("faults:"));
        let mut faulty = report("x", &[(0, 2.0)], 1);
        faulty.tuples_lost = 12;
        faulty.replays = 9;
        faulty.perm_failed = 2;
        faulty.recovery_latency_ms.push(1500.0);
        let table = faulty.render_table();
        assert!(table.contains("faults: lost=12 replays=9 perm_failed=2"));
        assert!(table.contains("1500.0ms"));
    }

    #[test]
    fn invalid_latency_samples_surface_in_table() {
        let mut r = report("x", &[(0, 2.0)], 1);
        assert!(!r.render_table().contains("invalid_latency_samples"));
        r.latency_hist.record(f64::NAN);
        r.latency_hist.record(-1.0);
        assert_eq!(r.invalid_latency_samples(), 2);
        assert!(r.render_table().contains("invalid_latency_samples=2"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let r = report("x", &[(0, 2.0), (70, 4.0)], 3);
        let csv = r.render_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_s,avg_proc_ms,samples,failed,nodes");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("0,"));
        assert!(lines[2].starts_with("60,"));
        assert!(lines[1].ends_with(",3"));
    }

    #[test]
    fn comparison_table_renders_all_rows() {
        let storm = report("Storm", &[(0, 10.0)], 10);
        let tstorm = report("T-Storm", &[(0, 5.0)], 5);
        let row = ComparisonRow::from_reports("exp-1", &storm, &tstorm, SimTime::ZERO).unwrap();
        let txt = ComparisonRow::render_table(&[row]);
        assert!(txt.contains("exp-1"));
        assert!(txt.contains("50.0"));
    }
}

/// Renders a compact ASCII sparkline of the per-window means — a
/// terminal rendition of the paper's time-series figures. Empty windows
/// render as spaces; values are scaled to the series maximum.
#[must_use]
pub fn sparkline(points: &[WindowPoint]) -> String {
    const LEVELS: &[char] = &['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = points
        .iter()
        .filter(|p| p.count > 0)
        .map(|p| p.mean)
        .fold(0.0f64, f64::max);
    if max <= 0.0 {
        return String::new();
    }
    points
        .iter()
        .map(|p| {
            if p.count == 0 {
                ' '
            } else {
                let idx = ((p.mean / max) * (LEVELS.len() - 1) as f64).round() as usize;
                LEVELS[idx.min(LEVELS.len() - 1)]
            }
        })
        .collect()
}

#[cfg(test)]
mod sparkline_tests {
    use super::*;
    use tstorm_types::SimTime;

    #[test]
    fn sparkline_scales_to_max() {
        let mut s = WindowedSeries::new(SimTime::from_secs(60));
        s.record(SimTime::from_secs(0), 1.0);
        s.record(SimTime::from_secs(60), 8.0);
        s.record(SimTime::from_secs(180), 4.0);
        let line = sparkline(&s.points());
        let chars: Vec<char> = line.chars().collect();
        assert_eq!(chars.len(), 4);
        assert_eq!(chars[1], '█'); // the max
        assert_eq!(chars[2], ' '); // the gap
        assert!(chars[0] < chars[1]);
    }

    #[test]
    fn sparkline_of_empty_series_is_empty() {
        let s = WindowedSeries::new(SimTime::from_secs(60));
        assert_eq!(sparkline(&s.points()), "");
    }
}
