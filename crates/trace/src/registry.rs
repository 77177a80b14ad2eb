//! A simulator-wide metrics registry: labelled counter, gauge, and
//! histogram families with Prometheus text exposition.
//!
//! Families auto-register on first touch — instrumentation sites call
//! `inc_counter`/`set_gauge`/`observe` with the family name, help text,
//! and label pairs, and the registry creates the family and series as
//! needed. Label *names* are fixed by the first touch of a family;
//! inconsistent later touches panic, which turns instrumentation typos
//! into immediate test failures instead of silently forked families.
//!
//! All storage is `BTreeMap`-ordered, so the exposition is
//! deterministic for a given set of recorded values.

use crate::json::write_escaped;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use tstorm_metrics::LogHistogram;

/// What a family measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Point-in-time value that can go up and down.
    Gauge,
    /// Distribution of observed values (log-scale buckets).
    Histogram,
}

impl MetricKind {
    fn prom_type(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Series {
    Counter(u64),
    Gauge(f64),
    Histogram { hist: LogHistogram, sum: f64 },
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: MetricKind,
    label_names: Vec<String>,
    series: BTreeMap<Vec<String>, Series>,
}

/// The registry: a flat namespace of metric families.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: BTreeMap<String, Family>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn series_mut(
        &mut self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
    ) -> &mut Series {
        let family = self
            .families
            .entry(name.to_owned())
            .or_insert_with(|| Family {
                help: help.to_owned(),
                kind,
                label_names: labels.iter().map(|(k, _)| (*k).to_owned()).collect(),
                series: BTreeMap::new(),
            });
        assert!(
            family.kind == kind,
            "metric {name} touched as {:?} but registered as {:?}",
            kind,
            family.kind
        );
        assert!(
            family.label_names.len() == labels.len()
                && family
                    .label_names
                    .iter()
                    .zip(labels)
                    .all(|(reg, (k, _))| reg == k),
            "metric {name} touched with labels {:?} but registered with {:?}",
            labels.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            family.label_names
        );
        let key: Vec<String> = labels.iter().map(|(_, v)| (*v).to_owned()).collect();
        family.series.entry(key).or_insert_with(|| match kind {
            MetricKind::Counter => Series::Counter(0),
            MetricKind::Gauge => Series::Gauge(0.0),
            MetricKind::Histogram => Series::Histogram {
                hist: LogHistogram::new(),
                sum: 0.0,
            },
        })
    }

    /// Adds `by` to a counter series, creating the family/series on
    /// first touch.
    pub fn inc_counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], by: u64) {
        match self.series_mut(name, help, MetricKind::Counter, labels) {
            Series::Counter(v) => *v += by,
            _ => unreachable!("kind checked in series_mut"),
        }
    }

    /// Sets a gauge series to `value`.
    pub fn set_gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        match self.series_mut(name, help, MetricKind::Gauge, labels) {
            Series::Gauge(v) => *v = value,
            _ => unreachable!("kind checked in series_mut"),
        }
    }

    /// Records `value` into a histogram series.
    pub fn observe(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        match self.series_mut(name, help, MetricKind::Histogram, labels) {
            Series::Histogram { hist, sum } => {
                hist.record(value);
                if value.is_finite() {
                    *sum += value;
                }
            }
            _ => unreachable!("kind checked in series_mut"),
        }
    }

    fn series(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Series> {
        let key: Vec<String> = labels.iter().map(|(_, v)| (*v).to_owned()).collect();
        self.families.get(name)?.series.get(&key)
    }

    /// Current value of a counter series, if it exists.
    #[must_use]
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.series(name, labels)? {
            Series::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Current value of a gauge series, if it exists.
    #[must_use]
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.series(name, labels)? {
            Series::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Number of registered families.
    #[must_use]
    pub fn len(&self) -> usize {
        self.families.len()
    }

    /// True if no family was ever touched.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    /// Renders the whole registry in the Prometheus text exposition
    /// format (version 0.0.4): `# HELP`/`# TYPE` headers per family,
    /// escaped label values, histograms as cumulative `_bucket` series
    /// plus `_sum` and `_count`.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, family) in &self.families {
            let _ = write!(out, "# HELP {name} ");
            escape_help(&mut out, &family.help);
            out.push('\n');
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.prom_type());
            for (values, series) in &family.series {
                match series {
                    Series::Counter(v) => {
                        write_sample(&mut out, name, &family.label_names, values, None);
                        let _ = writeln!(out, " {v}");
                    }
                    Series::Gauge(v) => {
                        write_sample(&mut out, name, &family.label_names, values, None);
                        let _ = writeln!(out, " {v}");
                    }
                    Series::Histogram { hist, sum } => {
                        let bucket_name = format!("{name}_bucket");
                        let mut cumulative = 0u64;
                        for (le, count) in hist.nonzero_buckets() {
                            cumulative += count;
                            write_sample(
                                &mut out,
                                &bucket_name,
                                &family.label_names,
                                values,
                                Some(&format!("{le}")),
                            );
                            let _ = writeln!(out, " {cumulative}");
                        }
                        write_sample(
                            &mut out,
                            &bucket_name,
                            &family.label_names,
                            values,
                            Some("+Inf"),
                        );
                        let _ = writeln!(out, " {}", hist.count());
                        write_sample(
                            &mut out,
                            &format!("{name}_sum"),
                            &family.label_names,
                            values,
                            None,
                        );
                        let _ = writeln!(out, " {sum}");
                        write_sample(
                            &mut out,
                            &format!("{name}_count"),
                            &family.label_names,
                            values,
                            None,
                        );
                        let _ = writeln!(out, " {}", hist.count());
                    }
                }
            }
        }
        out
    }
}

/// Escapes `# HELP` text: backslash and newline only, per the format
/// spec.
fn escape_help(out: &mut String, help: &str) {
    for c in help.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Writes `name{label="value",…,le="…"}` (no trailing space/value).
fn write_sample(
    out: &mut String,
    name: &str,
    label_names: &[String],
    values: &[String],
    le: Option<&str>,
) {
    out.push_str(name);
    if label_names.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in label_names.iter().zip(values) {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push('=');
        escape_label_value(out, v);
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str("le=");
        escape_label_value(out, le);
    }
    out.push('}');
}

/// Escapes a label value: backslash, double-quote, and newline.
fn escape_label_value(out: &mut String, v: &str) {
    // The JSON string escape is a superset of what Prometheus requires
    // for these three characters and is identical on them, so reuse it
    // (other control characters are rare in label values and the extra
    // \uXXXX escapes are still parseable by Prometheus ingesters).
    write_escaped(out, v);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let mut r = MetricsRegistry::new();
        r.inc_counter("hops_total", "hops", &[("hop", "inter_node")], 2);
        r.inc_counter("hops_total", "hops", &[("hop", "inter_node")], 3);
        r.inc_counter("hops_total", "hops", &[("hop", "intra_worker")], 1);
        assert_eq!(
            r.counter_value("hops_total", &[("hop", "inter_node")]),
            Some(5)
        );
        assert_eq!(
            r.counter_value("hops_total", &[("hop", "intra_worker")]),
            Some(1)
        );
        assert_eq!(r.counter_value("hops_total", &[("hop", "other")]), None);
    }

    #[test]
    fn gauges_overwrite() {
        let mut r = MetricsRegistry::new();
        r.set_gauge("depth", "queue depth", &[("executor", "3")], 7.0);
        r.set_gauge("depth", "queue depth", &[("executor", "3")], 2.0);
        assert_eq!(r.gauge_value("depth", &[("executor", "3")]), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "touched with labels")]
    fn inconsistent_label_names_panic() {
        let mut r = MetricsRegistry::new();
        r.inc_counter("x_total", "x", &[("a", "1")], 1);
        r.inc_counter("x_total", "x", &[("b", "1")], 1);
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_mismatch_panics() {
        let mut r = MetricsRegistry::new();
        r.inc_counter("x_total", "x", &[], 1);
        r.set_gauge("x_total", "x", &[], 1.0);
    }

    #[test]
    fn prometheus_exposition_has_headers_and_escaping() {
        let mut r = MetricsRegistry::new();
        r.inc_counter(
            "weird_total",
            "line1\nline2 \\slash",
            &[("name", "a\"b\\c\nd")],
            9,
        );
        let text = r.render_prometheus();
        assert!(text.contains("# HELP weird_total line1\\nline2 \\\\slash\n"));
        assert!(text.contains("# TYPE weird_total counter\n"));
        assert!(
            text.contains(r#"weird_total{name="a\"b\\c\nd"} 9"#),
            "{text}"
        );
    }

    #[test]
    fn prometheus_histogram_is_cumulative() {
        let mut r = MetricsRegistry::new();
        for v in [1.0, 1.0, 100.0] {
            r.observe("lat_ms", "latency", &[], v);
        }
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE lat_ms histogram\n"));
        // Two non-empty buckets → cumulative counts 2 then 3.
        let bucket_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("lat_ms_bucket"))
            .collect();
        assert_eq!(bucket_lines.len(), 3, "{text}"); // 2 finite + +Inf
        assert!(bucket_lines[0].ends_with(" 2"));
        assert!(bucket_lines[1].ends_with(" 3"));
        assert!(bucket_lines[2].contains(r#"le="+Inf""#));
        assert!(bucket_lines[2].ends_with(" 3"));
        assert!(text.contains("lat_ms_sum 102\n"));
        assert!(text.contains("lat_ms_count 3\n"));
    }

    #[test]
    fn prometheus_exposition_golden() {
        // Conformance golden: the exact exposition text is pinned so
        // any drift in headers, label escaping, bucket cumulation or
        // the closing `+Inf` bucket fails loudly.
        let mut r = MetricsRegistry::new();
        r.inc_counter(
            "tstorm_tuples_total",
            "tuples routed, line1\nline2 with \\slash",
            &[("path", "a\"quote\\slash\nnewline")],
            7,
        );
        r.set_gauge("tstorm_nodes_used", "nodes in use", &[], 4.0);
        for v in [1.0, 1.0, 100.0] {
            r.observe(
                "tstorm_latency_ms",
                "complete latency",
                &[("topo", "wc")],
                v,
            );
        }
        let golden = "\
# HELP tstorm_latency_ms complete latency
# TYPE tstorm_latency_ms histogram
tstorm_latency_ms_bucket{topo=\"wc\",le=\"1.189207115002721\"} 2
tstorm_latency_ms_bucket{topo=\"wc\",le=\"107.63474115247546\"} 3
tstorm_latency_ms_bucket{topo=\"wc\",le=\"+Inf\"} 3
tstorm_latency_ms_sum{topo=\"wc\"} 102
tstorm_latency_ms_count{topo=\"wc\"} 3
# HELP tstorm_nodes_used nodes in use
# TYPE tstorm_nodes_used gauge
tstorm_nodes_used 4
# HELP tstorm_tuples_total tuples routed, line1\\nline2 with \\\\slash
# TYPE tstorm_tuples_total counter
tstorm_tuples_total{path=\"a\\\"quote\\\\slash\\nnewline\"} 7
";
        assert_eq!(r.render_prometheus(), golden);
    }

    #[test]
    fn histogram_buckets_end_with_inf_and_are_cumulative_for_every_series() {
        let mut r = MetricsRegistry::new();
        r.observe("h_ms", "hist", &[("k", "a")], 1.0);
        r.observe("h_ms", "hist", &[("k", "b")], 5.0);
        let text = r.render_prometheus();
        for series in ["a", "b"] {
            let buckets: Vec<&str> = text
                .lines()
                .filter(|l| l.starts_with("h_ms_bucket") && l.contains(&format!("k=\"{series}\"")))
                .collect();
            assert!(
                buckets.last().unwrap().contains(r#"le="+Inf""#),
                "series {series} must close with +Inf: {text}"
            );
            let counts: Vec<u64> = buckets
                .iter()
                .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
                .collect();
            assert!(
                counts.windows(2).all(|w| w[0] <= w[1]),
                "bucket counts must be cumulative: {counts:?}"
            );
        }
    }

    #[test]
    fn empty_registry_renders_empty() {
        let r = MetricsRegistry::new();
        assert!(r.is_empty());
        assert_eq!(r.render_prometheus(), "");
    }
}
