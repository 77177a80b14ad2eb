//! Text views of a flight recording, one renderer per view.
//!
//! Each of [`SECTIONS`] answers one question from a [`RecordedRun`]:
//!
//! - `breakdown`: where did a tuple's latency go? (`critical_path`)
//! - `heatmap`: which node pairs did its hops cross? (`critical_path`)
//! - `timeline`: when did the control plane act? (`control`, `decision`)
//! - `windows`: what did each monitoring window hold? (`window`)
//! - `decisions`: why did each executor land where it did? (`decision`)
//!
//! [`meta`] renders the run's provenance. `inspect` prints it, then each
//! section below its `== title ==` heading. A missing line or key renders
//! as a note or a zero, and line types no section reads are skipped, so
//! a recording from an older build still renders.

use crate::json::JsonValue;
use crate::recorder::RecordedRun;
use std::fmt::Write as _;

/// Renders one section's body, every line ending in `\n`.
pub type Render = fn(&RecordedRun) -> String;

/// Every section as (name for `inspect --section`, heading, renderer),
/// in the order `inspect` prints them by default.
pub const SECTIONS: [(&str, &str, Render); 5] = [
    ("breakdown", "critical-path breakdown", breakdown),
    (
        "heatmap",
        "traffic heatmap (critical-path hops, from row to column)",
        heatmap,
    ),
    ("timeline", "rebalance timeline", timeline),
    ("windows", "windows", windows),
    ("decisions", "decisions", decisions),
];

/// Per-table row cap. A scale recording (100+ nodes, 10k+ executors)
/// carries far more components/edges than a terminal table can hold;
/// tables keep the heaviest rows and say how many were dropped.
const MAX_TABLE_ROWS: usize = 16;

/// Heatmap dimension cap: above this many nodes only the busiest are
/// drawn, with a note counting the hops outside the shown sub-grid.
const MAX_HEATMAP_NODES: usize = 24;

/// Appends the dropped-rows note when a table was truncated.
fn note_dropped(out: &mut String, total: usize, metric: &str) {
    if total > MAX_TABLE_ROWS {
        let _ = writeln!(
            out,
            "  … {} more rows dropped (showing top {MAX_TABLE_ROWS} by {metric})",
            total - MAX_TABLE_ROWS,
        );
    }
}

/// Provenance from the `meta` line, in a fixed key order; other keys
/// are skipped.
#[must_use]
pub fn meta(run: &RecordedRun) -> String {
    let mut out = String::new();
    for key in [
        "scenario",
        "seed",
        "mode",
        "gamma",
        "nodes",
        "slots_per_node",
        "duration_secs",
        "workspace_version",
    ] {
        if let Some(v) = run.meta.get(key) {
            let rendered = match v {
                JsonValue::String(s) => s.clone(),
                JsonValue::Number(n) => trim_num(*n),
                JsonValue::Bool(b) => b.to_string(),
                _ => continue,
            };
            let _ = writeln!(out, "  {key:<18} {rendered}");
        }
    }
    let _ = writeln!(
        out,
        "  {:<18} {} window, {} decision, {} control",
        "lines",
        run.lines_of("window").len(),
        run.lines_of("decision").len(),
        run.lines_of("control").len(),
    );
    out
}

/// Critical-path breakdown tables from the closing `critical_path`
/// line's summary object, heaviest rows first.
#[must_use]
pub fn breakdown(run: &RecordedRun) -> String {
    let mut out = String::new();
    let Some(summary) = run
        .lines_of("critical_path")
        .last()
        .and_then(|l| l.get("summary"))
    else {
        out.push_str("  (no critical_path line: run was recorded without --spans)\n");
        return out;
    };
    let roots = u(summary, "roots");
    if roots == 0 {
        out.push_str("  no completed roots observed\n");
        return out;
    }
    let per_root_ms = |key: &str| u(summary, key) as f64 / 1e3 / roots as f64;
    let measured = u(summary, "queue_us") + u(summary, "service_us") + u(summary, "network_us");
    let pct = |key: &str| {
        if measured == 0 {
            0.0
        } else {
            100.0 * u(summary, key) as f64 / measured as f64
        }
    };
    let _ = writeln!(
        out,
        "  {} roots, mean latency {:.3} ms, max {:.3} ms",
        roots,
        per_root_ms("latency_us"),
        u(summary, "max_latency_us") as f64 / 1e3,
    );
    let _ = writeln!(
        out,
        "  queue {:.3} ms/root ({:.1}%)  service {:.3} ms/root ({:.1}%)  network {:.3} ms/root ({:.1}%)",
        per_root_ms("queue_us"),
        pct("queue_us"),
        per_root_ms("service_us"),
        pct("service_us"),
        per_root_ms("network_us"),
        pct("network_us"),
    );
    let replayed = u(summary, "replayed_roots");
    if replayed > 0 {
        let _ = writeln!(
            out,
            "  {} replayed roots waited {:.3} ms total in the replay queue",
            replayed,
            u(summary, "replay_us") as f64 / 1e3,
        );
    }

    if let Some(components) = summary.get("components").and_then(JsonValue::as_array) {
        // Heaviest first: a scale recording carries more component rows
        // than a table can hold, so order by critical-path time.
        let mut rows: Vec<&JsonValue> = components.iter().collect();
        rows.sort_by_key(|c| std::cmp::Reverse(u(c, "queue_us") + u(c, "service_us")));
        let _ = writeln!(
            out,
            "\n  {:<18} {:>10} {:>12} {:>12}",
            "component", "segments", "queue(ms)", "service(ms)"
        );
        for c in rows.iter().take(MAX_TABLE_ROWS) {
            let _ = writeln!(
                out,
                "  {:<18} {:>10} {:>12.3} {:>12.3}",
                s(c, "component"),
                u(c, "segments"),
                u(c, "queue_us") as f64 / 1e3,
                u(c, "service_us") as f64 / 1e3,
            );
        }
        note_dropped(&mut out, rows.len(), "queue+service time");
    }
    if let Some(edges) = summary.get("edges").and_then(JsonValue::as_array) {
        let mut rows: Vec<&JsonValue> = edges.iter().collect();
        rows.sort_by_key(|e| std::cmp::Reverse(u(e, "network_us")));
        let _ = writeln!(
            out,
            "\n  {:<24} {:>8} {:>12} {:>12}",
            "edge", "hops", "network(ms)", "inter-node"
        );
        for e in rows.iter().take(MAX_TABLE_ROWS) {
            let hops = u(e, "hops");
            let inter = if hops == 0 {
                0.0
            } else {
                100.0 * u(e, "inter_node_hops") as f64 / hops as f64
            };
            let _ = writeln!(
                out,
                "  {:<24} {:>8} {:>12.3} {:>11.1}%",
                format!("{}->{}", s(e, "from"), s(e, "to")),
                hops,
                u(e, "network_us") as f64 / 1e3,
                inter,
            );
        }
        note_dropped(&mut out, rows.len(), "network time");
    }
    if let Some(classes) = summary.get("hop_classes").and_then(JsonValue::as_array) {
        let _ = writeln!(
            out,
            "\n  {:<12} {:>8} {:>12}",
            "hop class", "hops", "network(ms)"
        );
        for h in classes {
            let _ = writeln!(
                out,
                "  {:<12} {:>8} {:>12.3}",
                s(h, "class"),
                u(h, "hops"),
                u(h, "network_us") as f64 / 1e3,
            );
        }
    }
    out
}

/// Node-by-node traffic heatmap: network hops between node pairs on
/// completed tuples' critical paths, shaded by intensity.
#[must_use]
pub fn heatmap(run: &RecordedRun) -> String {
    let mut out = String::new();
    let pairs = run
        .lines_of("critical_path")
        .last()
        .and_then(|l| l.get("summary"))
        .and_then(|s| s.get("node_pairs"))
        .and_then(JsonValue::as_array)
        .unwrap_or(&[]);
    if pairs.is_empty() {
        out.push_str("  (no node-pair data: run was recorded without --spans)\n");
        return out;
    }
    let mut max_node = 0u64;
    let mut cells: Vec<(u64, u64, u64)> = Vec::new();
    for p in pairs {
        let (from, to, hops) = (u(p, "from"), u(p, "to"), u(p, "hops"));
        max_node = max_node.max(from).max(to);
        cells.push((from, to, hops));
    }
    let n = (max_node + 1) as usize;
    let mut grid = vec![0u64; n * n];
    for (from, to, hops) in cells {
        grid[from as usize * n + to as usize] += hops;
    }
    // A scale recording has too many nodes for a full matrix: keep the
    // busiest rows/columns and account for the hops left out.
    let mut shown: Vec<usize> = (0..n).collect();
    if n > MAX_HEATMAP_NODES {
        let mut volume: Vec<(u64, usize)> = (0..n)
            .map(|k| ((0..n).map(|j| grid[k * n + j] + grid[j * n + k]).sum(), k))
            .collect();
        volume.sort_by_key(|&(v, k)| (std::cmp::Reverse(v), k));
        shown = volume
            .iter()
            .take(MAX_HEATMAP_NODES)
            .map(|&(_, k)| k)
            .collect();
        shown.sort_unstable();
        let total: u64 = grid.iter().sum();
        let mut kept = 0u64;
        for &r in &shown {
            for &c in &shown {
                kept += grid[r * n + c];
            }
        }
        let _ = writeln!(
            out,
            "  showing the {} busiest of {} nodes; {} hops fall outside the shown sub-grid",
            shown.len(),
            n,
            total - kept,
        );
    }
    let mut peak = 1u64;
    for &r in &shown {
        for &c in &shown {
            peak = peak.max(grid[r * n + c]);
        }
    }
    // Shade ramp, darkest last; zero stays blank.
    const RAMP: &[char] = &['.', ':', '-', '=', '+', '*', '#', '@'];
    out.push_str("        ");
    for &col in &shown {
        let _ = write!(out, "{col:>6}");
    }
    out.push('\n');
    for &row in &shown {
        let _ = write!(out, "  n{row:<4} ");
        for &col in &shown {
            let hops = grid[row * n + col];
            if hops == 0 {
                out.push_str("     .");
            } else {
                let shade = RAMP[((hops * (RAMP.len() as u64 - 1)) / peak) as usize];
                let _ = write!(out, "{:>5}{shade}", compact(hops));
            }
        }
        out.push('\n');
    }
    let _ = writeln!(out, "  peak cell: {peak} hops; shade ramp {RAMP:?}");
    if let Some(last) = run.lines_of("window").last() {
        if let Some(top) = last.get("top_pairs").and_then(JsonValue::as_array) {
            if !top.is_empty() {
                out.push_str("\n  heaviest executor pairs (last window, tuples since start):\n");
                for p in top {
                    let _ = writeln!(
                        out,
                        "    {:<14} -> {:<14} {:>10}",
                        s(p, "from"),
                        s(p, "to"),
                        u(p, "tuples"),
                    );
                }
            }
        }
    }
    out
}

/// The rebalance timeline: `control` and `decision` lines merged in
/// virtual-time order.
#[must_use]
pub fn timeline(run: &RecordedRun) -> String {
    let mut out = String::new();
    // (t, file order, rendered) — stable sort keeps same-instant lines
    // in file order, which is causal order.
    let mut entries: Vec<(u64, usize, String)> = Vec::new();
    for (order, line) in run.lines.iter().enumerate() {
        let t = u(line, "t");
        match line.get("type").and_then(JsonValue::as_str) {
            Some("control") => {
                entries.push((
                    t,
                    order,
                    format!("{:<20} {}", s(line, "event"), s(line, "detail")),
                ));
            }
            Some("decision") => {
                let mut text = format!(
                    "{:<20} epoch {} by {}: {} placements, objective {:.1}",
                    "schedule_decision",
                    u(line, "epoch"),
                    s(line, "algorithm"),
                    placements(line).len(),
                    f(line, "objective"),
                );
                for note in notes(line) {
                    let _ = write!(text, "\n    {:<20} note: {note}", "");
                }
                entries.push((t, order, text));
            }
            _ => {}
        }
    }
    if entries.is_empty() {
        out.push_str("  (no control or decision lines recorded)\n");
        return out;
    }
    entries.sort_by_key(|(t, order, _)| (*t, *order));
    for (t, _, text) in entries {
        let _ = writeln!(out, "  [{:>10.3}s] {text}", t as f64 / 1e6);
    }
    out
}

/// Windowed cluster state: one row per `window` line.
#[must_use]
pub fn windows(run: &RecordedRun) -> String {
    let mut out = String::new();
    let windows = run.lines_of("window");
    if windows.is_empty() {
        out.push_str("  (no window lines recorded)\n");
        return out;
    }
    let _ = writeln!(
        out,
        "  {:>10} {:>9} {:>11} {:>11} {:>10} {:>9}",
        "t(s)", "max cpu", "mean cpu", "deep queue", "high water", "diverged"
    );
    for w in windows {
        let cpus: Vec<f64> = w
            .get("nodes")
            .and_then(JsonValue::as_array)
            .map(|nodes| nodes.iter().map(|node| f(node, "cpu")).collect())
            .unwrap_or_default();
        let max_cpu = cpus.iter().copied().fold(0.0f64, f64::max);
        let mean_cpu = if cpus.is_empty() {
            0.0
        } else {
            cpus.iter().sum::<f64>() / cpus.len() as f64
        };
        let deep = w
            .get("queues")
            .and_then(JsonValue::as_array)
            .and_then(|q| q.first())
            .map_or(0, |q| u(q, "depth"));
        let diverged = w
            .get("belief_divergence")
            .and_then(JsonValue::as_array)
            .map_or(0, <[JsonValue]>::len);
        let _ = writeln!(
            out,
            "  {:>10.1} {:>8.1}% {:>10.1}% {:>11} {:>10} {:>9}",
            u(w, "t") as f64 / 1e6,
            max_cpu * 100.0,
            mean_cpu * 100.0,
            deep,
            u(w, "event_queue_high_water"),
            diverged,
        );
    }
    out
}

/// Every `decision` line's placement table, in file order: the epoch
/// and time, the algorithm and its total inter-node objective, the
/// notes, then one row per placed executor with its load, its
/// objective delta and the rationale, a relaxation in brackets.
#[must_use]
pub fn decisions(run: &RecordedRun) -> String {
    let mut out = String::new();
    let lines = run.lines_of("decision");
    if lines.is_empty() {
        out.push_str("  (no decision lines recorded)\n");
        return out;
    }
    for line in lines {
        let placements = placements(line);
        let _ = writeln!(
            out,
            "epoch {} @ {:.1}s ({} placements):",
            u(line, "epoch"),
            u(line, "t") as f64 / 1e6,
            placements.len(),
        );
        let _ = writeln!(
            out,
            "schedule explanation: {} ({} placements, objective {:.1} tuples/s inter-node)",
            s(line, "algorithm"),
            placements.len(),
            f(line, "objective"),
        );
        for note in notes(line) {
            let _ = writeln!(out, "  note: {note}");
        }
        let _ = writeln!(
            out,
            "  {:<10} {:>8} {:>8} {:>12} {:>12}  rationale",
            "executor", "slot", "node", "load MHz", "obj delta"
        );
        for d in placements {
            let _ = write!(
                out,
                "  {:<10} {:>8} {:>8} {:>12.1} {:>12.1}  {}",
                s(d, "executor"),
                s(d, "slot"),
                s(d, "node"),
                f(d, "load_mhz"),
                f(d, "objective_delta"),
                s(d, "tie_break"),
            );
            if let Some(relaxation) = d.get("relaxation").and_then(JsonValue::as_str) {
                let _ = write!(out, " [{relaxation}]");
            }
            out.push('\n');
        }
    }
    out
}

/// A `decision` line's placement records (empty when absent).
fn placements(line: &JsonValue) -> &[JsonValue] {
    line.get("decisions")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
}

/// A `decision` line's notes (none when absent).
fn notes(line: &JsonValue) -> impl Iterator<Item = &str> {
    line.get("notes")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(JsonValue::as_str)
}

/// `obj[key]` as u64 (0 when absent or non-numeric).
fn u(v: &JsonValue, key: &str) -> u64 {
    f(v, key) as u64
}

/// `obj[key]` as f64 (0.0 when absent or non-numeric).
fn f(v: &JsonValue, key: &str) -> f64 {
    v.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0)
}

/// `obj[key]` as a string (empty when absent).
fn s<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key).and_then(JsonValue::as_str).unwrap_or_default()
}

/// Renders a JSON number without a trailing `.0` for integers.
fn trim_num(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// Compacts a count for a 5-character heatmap cell (`12345`, `99k`, `3M`).
fn compact(n: u64) -> String {
    if n < 100_000 {
        n.to_string()
    } else if n < 100_000_000 {
        format!("{}k", n / 1_000)
    } else {
        format!("{}M", n / 1_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{parse_recording, FlightRecorder};
    use tstorm_types::SimTime;

    /// A synthetic recording exercising every section.
    fn recording() -> RecordedRun {
        let mut rec = FlightRecorder::new(Vec::new());
        rec.meta(|o| {
            o.str("scenario", "wordcount")
                .u64("seed", 42)
                .str("mode", "t-storm")
                .f64("gamma", 2.0)
                .u64("nodes", 4);
        });
        rec.line("window", SimTime::from_secs(20), |o| {
            o.raw("executors", r#"[{"id":"e0","mhz":120.5}]"#)
                .raw(
                    "nodes",
                    r#"[{"id":"n0","cpu":0.5,"nic_tx_bytes":1000},{"id":"n1","cpu":0.25,"nic_tx_bytes":0}]"#,
                )
                .raw("queues", r#"[{"id":"e0","depth":7}]"#)
                .u64("event_queue_high_water", 31)
                .raw("top_pairs", r#"[{"from":"splitter[2]","to":"counter[5]","tuples":900}]"#)
                .raw("belief_divergence", "[]");
        });
        rec.line("decision", SimTime::from_secs(25), |o| {
            o.u64("epoch", 1)
                .str("algorithm", "t-storm")
                .f64("objective", 123.5)
                .raw("notes", r#"["note one"]"#)
                .raw(
                    "decisions",
                    r#"[{"executor":"e0","slot":"n0:0","node":"n0","load_mhz":12.0,"traffic_total":4.0,"objective_delta":0.0,"tie_break":"opened a fresh node"}]"#,
                );
        });
        rec.line("control", SimTime::from_secs(30), |o| {
            o.str("event", "schedule_published")
                .str("detail", "epoch 1 published by t-storm");
        });
        rec.line("critical_path", SimTime::from_secs(60), |o| {
            o.raw(
                "summary",
                r#"{"roots":10,"replayed_roots":1,"latency_us":50000,"max_latency_us":9000,"queue_us":20000,"service_us":20000,"network_us":10000,"replay_us":500,"dropped_breakdowns":0,"components":[{"component":"counter","segments":10,"queue_us":20000,"service_us":20000}],"edges":[{"from":"splitter","to":"counter","hops":10,"network_us":10000,"inter_node_hops":4}],"node_pairs":[{"from":0,"to":1,"hops":4,"network_us":8000},{"from":1,"to":1,"hops":6,"network_us":2000}],"hop_classes":[{"class":"inter-node","hops":4,"network_us":8000},{"class":"intra-node","hops":6,"network_us":2000}]}"#,
            );
        });
        let bytes = rec.into_inner().unwrap();
        parse_recording(&String::from_utf8(bytes).unwrap()).expect("synthetic recording parses")
    }

    #[test]
    fn meta_renders_provenance_and_line_counts() {
        let out = meta(&recording());
        assert!(out.contains("scenario"), "{out}");
        assert!(out.contains("wordcount"), "{out}");
        assert!(out.contains("1 window, 1 decision, 1 control"), "{out}");
    }

    #[test]
    fn breakdown_renders_totals_components_edges_and_classes() {
        let out = breakdown(&recording());
        assert!(out.contains("10 roots"), "{out}");
        // 50000 us over 10 roots = 5 ms mean.
        assert!(out.contains("mean latency 5.000 ms"), "{out}");
        assert!(out.contains("counter"), "{out}");
        assert!(out.contains("splitter->counter"), "{out}");
        assert!(out.contains("inter-node"), "{out}");
        assert!(out.contains("1 replayed roots"), "{out}");
    }

    #[test]
    fn breakdown_without_spans_says_so() {
        let run = parse_recording("{\"type\":\"meta\",\"v\":1}\n").unwrap();
        let out = breakdown(&run);
        assert!(out.contains("without --spans"), "{out}");
    }

    #[test]
    fn heatmap_shades_node_pairs_and_lists_heavy_executor_pairs() {
        let out = heatmap(&recording());
        // Peak cell (1->1, 6 hops) gets the darkest shade.
        assert!(out.contains("6@"), "{out}");
        assert!(out.contains('4'), "{out}");
        assert!(out.contains("splitter[2]"), "{out}");
        assert!(out.contains("900"), "{out}");
    }

    #[test]
    fn timeline_merges_control_and_decision_lines_in_time_order() {
        let out = timeline(&recording());
        let decision = out.find("schedule_decision").expect("decision entry");
        let control = out.find("schedule_published").expect("control entry");
        assert!(
            decision < control,
            "decision at 25s precedes control at 30s: {out}"
        );
        assert!(out.contains("note: note one"), "{out}");
        assert!(out.contains("epoch 1 by t-storm: 1 placements"), "{out}");
    }

    #[test]
    fn windows_summarise_cpu_queues_and_divergence() {
        let out = windows(&recording());
        assert!(out.contains("50.0%"), "{out}");
        // Mean of 0.5 and 0.25.
        assert!(out.contains("37.5%"), "{out}");
        assert!(out.contains("31"), "{out}");
    }

    /// One `decision` line whose placement carries a relaxation: every
    /// row is listed, and the relaxation follows its rationale in
    /// brackets.
    #[test]
    fn decisions_list_every_placement_and_its_relaxation() {
        let mut rec = FlightRecorder::new(Vec::new());
        rec.meta(|_| {});
        rec.line("decision", SimTime::from_millis(160_250), |o| {
            o.u64("epoch", 2)
                .str("algorithm", "t-storm")
                .f64("objective", 30.25)
                .raw("notes", r#"["cap relaxed once"]"#)
                .raw(
                    "decisions",
                    r#"[{"executor":"exec-3","slot":"slot-1","node":"node-0","load_mhz":120,"traffic_total":900,"objective_delta":30.25,"tie_break":"min cost","relaxation":"executor cap 2 relaxed"},{"executor":"exec-12","slot":"slot-14","node":"node-3","load_mhz":7.5,"traffic_total":0,"objective_delta":-0,"tie_break":"opened a fresh node"}]"#,
                );
        });
        let bytes = rec.into_inner().unwrap();
        let run = parse_recording(&String::from_utf8(bytes).unwrap()).unwrap();
        assert_eq!(
            decisions(&run),
            concat!(
                "epoch 2 @ 160.2s (2 placements):\n",
                "schedule explanation: t-storm (2 placements, objective 30.2 tuples/s inter-node)\n",
                "  note: cap relaxed once\n",
                "  executor       slot     node     load MHz    obj delta  rationale\n",
                "  exec-3       slot-1   node-0        120.0         30.2  min cost [executor cap 2 relaxed]\n",
                "  exec-12     slot-14   node-3          7.5         -0.0  opened a fresh node\n",
            )
        );
    }

    #[test]
    fn decisions_without_decision_lines_say_so() {
        let run = parse_recording("{\"type\":\"meta\",\"v\":1}\n").unwrap();
        assert_eq!(decisions(&run), "  (no decision lines recorded)\n");
        let out = decisions(&recording());
        assert!(
            out.starts_with("epoch 1 @ 25.0s (1 placements):\n"),
            "{out}"
        );
        assert!(out.contains("  note: note one\n"), "{out}");
    }

    /// A scale-shaped recording: more nodes than the heatmap cap and
    /// more components than the table cap.
    fn scale_recording() -> RecordedRun {
        let mut components = String::from("[");
        for i in 0..30 {
            if i > 0 {
                components.push(',');
            }
            components.push_str(&format!(
                r#"{{"component":"bolt{i}","segments":10,"queue_us":{},"service_us":1000}}"#,
                (30 - i) * 1000,
            ));
        }
        components.push(']');
        // Node i talks to node i+1; node 0 -> 1 dominates.
        let mut pairs = String::from("[");
        for i in 0..30u64 {
            if i > 0 {
                pairs.push(',');
            }
            let hops = if i == 0 { 1000 } else { 10 };
            pairs.push_str(&format!(
                r#"{{"from":{i},"to":{},"hops":{hops},"network_us":100}}"#,
                i + 1,
            ));
        }
        pairs.push(']');
        let summary = format!(
            r#"{{"roots":10,"latency_us":50000,"max_latency_us":9000,"queue_us":20000,"service_us":20000,"network_us":10000,"components":{components},"node_pairs":{pairs}}}"#,
        );
        let mut rec = FlightRecorder::new(Vec::new());
        rec.meta(|o| {
            o.str("scenario", "scale-100").u64("seed", 42);
        });
        rec.line("critical_path", SimTime::from_secs(60), |o| {
            o.raw("summary", &summary);
        });
        let bytes = rec.into_inner().unwrap();
        parse_recording(&String::from_utf8(bytes).unwrap()).expect("synthetic recording parses")
    }

    #[test]
    fn breakdown_truncates_to_top_rows_with_a_note() {
        let out = breakdown(&scale_recording());
        // Heaviest component (bolt0, 30k us queue) survives; the
        // lightest (bolt29) is dropped, and the note counts the rest.
        assert!(out.contains("bolt0"), "{out}");
        assert!(!out.contains("bolt29"), "{out}");
        assert!(
            out.contains("… 14 more rows dropped (showing top 16 by queue+service time)"),
            "{out}"
        );
    }

    #[test]
    fn heatmap_truncates_to_busiest_nodes_with_a_note() {
        let out = heatmap(&scale_recording());
        assert!(out.contains("showing the 24 busiest of 31 nodes"), "{out}");
        // The dominant pair's hops stay in the shown sub-grid.
        assert!(out.contains("1000"), "{out}");
        // 31 nodes carry 1000 + 29*10 = 1290 hops; the busiest 24 keep
        // all heavy cells, the dropped note accounts for the remainder.
        assert!(
            out.contains("hops fall outside the shown sub-grid"),
            "{out}"
        );
    }

    #[test]
    fn small_runs_render_the_full_matrix_without_notes() {
        let out = heatmap(&recording());
        assert!(!out.contains("busiest"), "{out}");
        let bd = breakdown(&recording());
        assert!(!bd.contains("rows dropped"), "{bd}");
    }

    #[test]
    fn compact_counts_fit_heatmap_cells() {
        assert_eq!(compact(999), "999");
        assert_eq!(compact(99_999), "99999");
        assert_eq!(compact(1_500_000), "1500k");
        assert_eq!(compact(200_000_000), "200M");
    }
}
