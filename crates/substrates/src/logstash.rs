//! Synthetic Microsoft IIS log stream, LogStash-style.
//!
//! The paper fed "Microsoft IIS log files obtained from the College of
//! Engineering and Computer Science at Syracuse University" through
//! LogStash, which "submits log lines as separate JSON values into a Redis
//! queue". Those logs are not available, so [`IisLogGenerator`] synthesises
//! W3C-extended-format entries with realistic skew (Zipfian URI and client
//! popularity, mostly-200 status codes) and encodes them as flat JSON the
//! way LogStash does. [`LogEntry`] is the parsed form used by the log-rules
//! bolt.

use crate::json;
use std::collections::BTreeMap;
use tstorm_types::rng::zipf_cdf;
use tstorm_types::DetRng;

const METHODS: &[&str] = &["GET", "GET", "GET", "GET", "POST", "HEAD"];
const STATUS: &[(u32, f64)] = &[
    (200, 0.87),
    (304, 0.06),
    (404, 0.04),
    (500, 0.02),
    (301, 0.01),
];
const USER_AGENTS: &[&str] = &[
    "Mozilla/4.0+(compatible;+MSIE+8.0;+Windows+NT+6.1)",
    "Mozilla/5.0+(Windows+NT+6.1)+Firefox/21.0",
    "Mozilla/5.0+(Macintosh;+Intel+Mac+OS+X)+Safari/536.26",
    "Googlebot/2.1+(+http://www.google.com/bot.html)",
    "curl/7.29.0",
];

/// One parsed IIS log entry — the value the log-rules bolt works on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Request timestamp, seconds since the (virtual) epoch.
    pub timestamp_s: u64,
    /// Client IP.
    pub client_ip: String,
    /// HTTP method.
    pub method: String,
    /// URI stem (path).
    pub uri: String,
    /// HTTP status code.
    pub status: u32,
    /// Response size in bytes.
    pub bytes: u64,
    /// Server processing time in milliseconds.
    pub time_taken_ms: u64,
    /// User agent string.
    pub user_agent: String,
}

impl LogEntry {
    /// Parses the flat JSON produced by [`IisLogGenerator::next_json`].
    ///
    /// Returns `None` if the JSON is malformed or a required field is
    /// missing/unparseable — the rules bolt drops such lines, as real
    /// log pipelines do.
    #[must_use]
    pub fn parse(line: &str) -> Option<Self> {
        let map = json::decode(line)?;
        Some(Self {
            timestamp_s: map.get("time")?.parse().ok()?,
            client_ip: map.get("c-ip")?.clone(),
            method: map.get("cs-method")?.clone(),
            uri: map.get("cs-uri-stem")?.clone(),
            status: map.get("sc-status")?.parse().ok()?,
            bytes: map.get("sc-bytes")?.parse().ok()?,
            time_taken_ms: map.get("time-taken")?.parse().ok()?,
            user_agent: map.get("cs(User-Agent)")?.clone(),
        })
    }

    /// True if the entry represents a server-side error (the rules bolt
    /// flags these).
    #[must_use]
    pub fn is_error(&self) -> bool {
        self.status >= 500
    }
}

/// Generates synthetic IIS log lines as flat JSON, deterministically from
/// a seed.
///
/// # Example
///
/// ```
/// use tstorm_substrates::{IisLogGenerator, LogEntry};
///
/// let mut gen = IisLogGenerator::new(42);
/// let line = gen.next_json();
/// let entry = LogEntry::parse(&line).expect("generator output parses");
/// assert!(entry.uri.starts_with('/'));
/// ```
#[derive(Debug, Clone)]
pub struct IisLogGenerator {
    rng: DetRng,
    uris: Vec<String>,
    uri_cdf: Vec<f64>,
    clients: Vec<String>,
    client_cdf: Vec<f64>,
    produced: u64,
}

impl IisLogGenerator {
    /// Number of distinct URIs in the synthetic site.
    pub const NUM_URIS: usize = 200;
    /// Number of distinct client IPs.
    pub const NUM_CLIENTS: usize = 500;

    /// Creates a generator with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let sections = ["", "/courses", "/people", "/research", "/news", "/files"];
        let uris: Vec<String> = (0..Self::NUM_URIS)
            .map(|i| {
                let section = sections[i % sections.len()];
                format!("{section}/page{:03}.html", i)
            })
            .collect();
        let clients: Vec<String> = (0..Self::NUM_CLIENTS)
            .map(|i| format!("128.230.{}.{}", (i / 250) + 1, (i % 250) + 2))
            .collect();
        Self {
            rng: DetRng::seed_from(seed),
            uri_cdf: zipf_cdf(uris.len(), 1.1),
            uris,
            client_cdf: zipf_cdf(clients.len(), 0.9),
            clients,
            produced: 0,
        }
    }

    /// Generates the next log line as flat JSON.
    pub fn next_json(&mut self) -> String {
        let mut map = BTreeMap::new();
        // Virtual timestamps: ~20 requests per "second" of log time.
        map.insert("time".to_owned(), (self.produced / 20).to_string());
        map.insert(
            "c-ip".to_owned(),
            self.clients[self.rng.zipf_index(&self.client_cdf)].clone(),
        );
        map.insert(
            "cs-method".to_owned(),
            METHODS[self.rng.below(METHODS.len())].to_owned(),
        );
        map.insert(
            "cs-uri-stem".to_owned(),
            self.uris[self.rng.zipf_index(&self.uri_cdf)].clone(),
        );
        map.insert("sc-status".to_owned(), self.sample_status().to_string());
        map.insert(
            "sc-bytes".to_owned(),
            ((self.rng.below(64) as u64 + 1) * 512).to_string(),
        );
        map.insert(
            "time-taken".to_owned(),
            (self.rng.below(250) as u64 + 1).to_string(),
        );
        map.insert(
            "cs(User-Agent)".to_owned(),
            USER_AGENTS[self.rng.below(USER_AGENTS.len())].to_owned(),
        );
        self.produced += 1;
        json::encode(&map)
    }

    fn sample_status(&mut self) -> u32 {
        let u = self.rng.uniform();
        let mut acc = 0.0;
        for (code, p) in STATUS {
            acc += p;
            if u < acc {
                return *code;
            }
        }
        200
    }

    /// Lines produced so far.
    #[must_use]
    pub fn produced(&self) -> u64 {
        self.produced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn output_parses_back() {
        let mut g = IisLogGenerator::new(1);
        for _ in 0..100 {
            let line = g.next_json();
            let e = LogEntry::parse(&line).expect("parses");
            assert!(e.uri.contains("page"));
            assert!(e.client_ip.starts_with("128.230."));
            assert!(e.bytes >= 512);
            assert!(e.time_taken_ms >= 1);
        }
        assert_eq!(g.produced(), 100);
    }

    #[test]
    fn generator_is_deterministic() {
        let mut a = IisLogGenerator::new(5);
        let mut b = IisLogGenerator::new(5);
        for _ in 0..50 {
            assert_eq!(a.next_json(), b.next_json());
        }
    }

    #[test]
    fn uri_popularity_is_skewed() {
        let mut g = IisLogGenerator::new(7);
        let mut counts: HashMap<String, u64> = HashMap::new();
        for _ in 0..20_000 {
            let e = LogEntry::parse(&g.next_json()).unwrap();
            *counts.entry(e.uri).or_insert(0) += 1;
        }
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        // Zipf(1.1) over 200 items: the top URI should dominate the median.
        assert!(freqs[0] > freqs[freqs.len() / 2] * 10);
    }

    #[test]
    fn status_distribution_is_mostly_ok() {
        let mut g = IisLogGenerator::new(9);
        let mut ok = 0;
        let mut errors = 0;
        for _ in 0..5_000 {
            let e = LogEntry::parse(&g.next_json()).unwrap();
            if e.status == 200 {
                ok += 1;
            }
            if e.is_error() {
                errors += 1;
            }
        }
        assert!(ok > 4_000, "expected mostly 200s, got {ok}");
        assert!(errors > 0, "expected some 5xx");
        assert!(errors < 300, "too many 5xx: {errors}");
    }

    #[test]
    fn error_classification() {
        let mk = |status: u32| LogEntry {
            timestamp_s: 0,
            client_ip: String::new(),
            method: "GET".into(),
            uri: "/".into(),
            status,
            bytes: 0,
            time_taken_ms: 0,
            user_agent: String::new(),
        };
        assert!(mk(500).is_error());
        assert!(!mk(404).is_error());
        assert!(!mk(200).is_error());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(LogEntry::parse("not json").is_none());
        assert!(LogEntry::parse(r#"{"time":"zero"}"#).is_none());
        assert!(LogEntry::parse("{}").is_none());
    }

    #[test]
    fn timestamps_advance() {
        let mut g = IisLogGenerator::new(3);
        let mut last = 0;
        for _ in 0..100 {
            let e = LogEntry::parse(&g.next_json()).unwrap();
            assert!(e.timestamp_s >= last);
            last = e.timestamp_s;
        }
        assert!(last >= 4); // 100 lines / 20 per second
    }
}
