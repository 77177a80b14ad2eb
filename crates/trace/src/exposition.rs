//! A write-once writer of the Prometheus text exposition format
//! (version 0.0.4).
//!
//! The caller writes each family once, in the order it wants them
//! listed: a [`Exposition::family`] header, then its series. Nothing is
//! registered or kept; the writer only formats, so the exposition of a
//! fixed set of values is fixed.

use crate::json::write_escaped;
use std::fmt::{Display, Write as _};
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

/// The exposition text being written.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
}

impl Exposition {
    /// Starts a family: its `# HELP` and `# TYPE` lines.
    pub fn family(&mut self, name: &str, help: &str, kind: MetricKind) -> &mut Self {
        let _ = write!(self.out, "# HELP {name} ");
        escape_help(&mut self.out, help);
        let _ = writeln!(self.out, "\n# TYPE {name} {}", kind.prom_type());
        self
    }

    /// One counter or gauge sample: `name{labels} value`.
    pub fn sample(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        value: impl Display,
    ) -> &mut Self {
        write_sample(&mut self.out, name, "", labels, None);
        let _ = writeln!(self.out, " {value}");
        self
    }

    /// One histogram series: a cumulative `_bucket` line per non-empty
    /// bucket of `hist`, closed by `le="+Inf"`, then `_sum` and
    /// `_count`.
    pub fn histogram(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        hist: &LogHistogram,
        sum: impl Display,
    ) -> &mut Self {
        let mut cumulative = 0u64;
        for (le, count) in hist.nonzero_buckets() {
            cumulative += count;
            write_sample(
                &mut self.out,
                name,
                "_bucket",
                labels,
                Some(&le.to_string()),
            );
            let _ = writeln!(self.out, " {cumulative}");
        }
        write_sample(&mut self.out, name, "_bucket", labels, Some("+Inf"));
        let _ = writeln!(self.out, " {}", hist.count());
        write_sample(&mut self.out, name, "_sum", labels, None);
        let _ = writeln!(self.out, " {sum}");
        write_sample(&mut self.out, name, "_count", labels, None);
        let _ = writeln!(self.out, " {}", hist.count());
        self
    }

    /// The text written so far.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
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

/// Writes `name{suffix}{label="value",…,le="…"}` (no trailing
/// space/value). Label values are escaped with the JSON string escape,
/// which matches Prometheus's on backslash, double quote and newline.
fn write_sample(
    out: &mut String,
    name: &str,
    suffix: &str,
    labels: &[(&str, &str)],
    le: Option<&str>,
) {
    out.push_str(name);
    out.push_str(suffix);
    let le = le.map(|le| ("le", le));
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().chain(&le).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        write_escaped(out, v);
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_has_headers_and_escaping() {
        let mut e = Exposition::default();
        e.family("weird_total", "line1\nline2 \\slash", MetricKind::Counter)
            .sample("weird_total", &[("name", "a\"b\\c\nd")], 9);
        let text = e.finish();
        assert!(text.contains("# HELP weird_total line1\\nline2 \\\\slash\n"));
        assert!(text.contains("# TYPE weird_total counter\n"));
        assert!(
            text.contains(r#"weird_total{name="a\"b\\c\nd"} 9"#),
            "{text}"
        );
    }

    #[test]
    fn histogram_is_cumulative_and_ends_with_inf() {
        let mut hist = LogHistogram::new();
        for v in [1.0, 1.0, 100.0] {
            hist.record(v);
        }
        let mut e = Exposition::default();
        e.family("lat_ms", "latency", MetricKind::Histogram)
            .histogram("lat_ms", &[], &hist, 102.0);
        let text = e.finish();
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
    fn exposition_golden() {
        // Conformance golden: the exact exposition text is pinned so
        // any drift in headers, label escaping, bucket cumulation or
        // the closing `+Inf` bucket fails loudly.
        let mut hist = LogHistogram::new();
        for v in [1.0, 1.0, 100.0] {
            hist.record(v);
        }
        let mut e = Exposition::default();
        e.family(
            "tstorm_latency_ms",
            "complete latency",
            MetricKind::Histogram,
        )
        .histogram("tstorm_latency_ms", &[("topo", "wc")], &hist, 102.0)
        .family("tstorm_nodes_used", "nodes in use", MetricKind::Gauge)
        .sample("tstorm_nodes_used", &[], 4.0)
        .family(
            "tstorm_tuples_total",
            "tuples routed, line1\nline2 with \\slash",
            MetricKind::Counter,
        )
        .sample(
            "tstorm_tuples_total",
            &[("path", "a\"quote\\slash\nnewline")],
            7,
        );
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
        assert_eq!(e.finish(), golden);
    }

    #[test]
    fn empty_exposition_is_empty() {
        assert_eq!(Exposition::default().finish(), "");
    }
}
