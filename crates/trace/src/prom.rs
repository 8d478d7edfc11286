//! The Prometheus text exposition format (version 0.0.4).
//!
//! Every `/metrics` document in the workspace (the daemon's and the
//! gateway's) is written through [`Exposition`], so this is the one
//! module that writes `# HELP` / `# TYPE` lines, escapes label values
//! and formats sample values. [`Histogram`] is the one bucketed
//! distribution type: its bounds are data, so the daemons' request
//! latency and the load generator's are instances of it.
//! [`check_prometheus_text`] is the one definition of "parses" for
//! tests.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A sample value. Integers render as integers (`3`); floats always
/// keep a decimal point (`2.0`, `0.005`) so the two never blur.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    Int(u64),
    Float(f64),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl Value {
    /// Parses a sample value as this module writes it: an integer when
    /// the text is one, a float otherwise.
    pub fn parse(text: &str) -> Option<Value> {
        let float = || text.parse::<f64>().map(Value::Float);
        text.parse::<u64>()
            .map(Value::Int)
            .or_else(|_| float())
            .ok()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Float(v) => f.write_str(&fmt_f64(*v)),
        }
    }
}

/// Renders a float the Prometheus text parser accepts.
pub fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}") // keep a decimal point: `2.0`, not `2`
    } else {
        format!("{v}")
    }
}

/// Escapes a Prometheus label value.
pub fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// The `# TYPE` of a metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// A `/metrics` document under construction (start from `default()`).
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
}

impl Exposition {
    /// Writes one unlabelled counter or gauge with its header.
    pub fn scalar(&mut self, name: &str, kind: Kind, help: &str, value: impl Into<Value>) {
        self.family(name, kind, help).series(&[], value);
    }

    /// Writes a family's `# HELP` / `# TYPE` header and returns a
    /// writer for its series.
    pub fn family<'a>(&'a mut self, name: &'a str, kind: Kind, help: &str) -> Family<'a> {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {}", kind.as_str());
        Family {
            out: &mut self.out,
            name,
        }
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.out
    }
}

/// The series of one metric family; see [`Exposition::family`].
#[derive(Debug)]
pub struct Family<'a> {
    out: &'a mut String,
    name: &'a str,
}

impl Family<'_> {
    /// Writes one series: `name{labels} value`.
    pub fn series(&mut self, labels: &[(&str, &str)], value: impl Into<Value>) {
        self.sample("", labels, None, value.into());
    }

    /// Writes one histogram's `_bucket` (cumulative, then `+Inf`),
    /// `_sum` and `_count` series.
    pub fn histogram(&mut self, labels: &[(&str, &str)], h: &Histogram) {
        for (le, n) in h.buckets() {
            self.sample("_bucket", labels, Some(le), Value::Int(n));
        }
        self.sample("_bucket", labels, Some("+Inf"), Value::Int(h.count));
        self.sample("_sum", labels, None, Value::Float(h.sum));
        self.sample("_count", labels, None, Value::Int(h.count));
    }

    fn sample(&mut self, suffix: &str, labels: &[(&str, &str)], le: Option<&str>, value: Value) {
        let out = &mut *self.out;
        out.push_str(self.name);
        out.push_str(suffix);
        let mut sep = '{';
        for (name, v) in labels.iter().copied().chain(le.map(|le| ("le", le))) {
            let _ = write!(out, "{sep}{name}=\"{}\"", escape_label(v));
            sep = ',';
        }
        if sep == ',' {
            out.push('}');
        }
        let _ = writeln!(out, " {value}");
    }
}

/// Request latency bucket bounds, in seconds.
pub const LATENCY_BUCKETS: &[&str] = &[
    "0.005", "0.025", "0.1", "0.25", "1.0", "2.5", "10.0", "30.0", "60.0",
];

/// A fixed-bucket histogram. The bounds are given as their `le` label
/// text, so each family keeps the text it has always exposed (`1.0` for
/// request latency), and parsed once at construction, so
/// [`Histogram::observe`] neither allocates nor parses.
#[derive(Debug, Clone)]
pub struct Histogram {
    le: &'static [&'static str],
    bounds: Vec<f64>,
    /// Cumulative: `counts[i]` observations were `<= bounds[i]`.
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    /// An empty histogram over ascending bucket upper bounds (a `+Inf`
    /// bucket is implicit).
    pub fn new(le: &'static [&'static str]) -> Histogram {
        let bounds: Vec<f64> = le
            .iter()
            .map(|b| b.parse().expect("bucket bound is a number"))
            .collect();
        assert!(
            !bounds.is_empty() && bounds.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must be non-empty and ascending"
        );
        Histogram {
            le,
            counts: vec![0; bounds.len()],
            bounds,
            sum: 0.0,
            count: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        for (count, bound) in self.counts.iter_mut().zip(&self.bounds) {
            if v <= *bound {
                *count += 1;
            }
        }
        self.sum += v;
        self.count += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// `(le, cumulative count)` per finite bucket, in bound order.
    pub fn buckets(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.le.iter().copied().zip(self.counts.iter().copied())
    }

    /// Estimates the `q`-quantile (`0 < q <= 1`) from the cumulative
    /// bucket counts, interpolating linearly inside the owning bucket
    /// (the same estimator Prometheus's `histogram_quantile` applies
    /// server-side). Observations beyond the last finite bound clamp
    /// to that bound — the histogram cannot see past it. `None` with
    /// no observations or a `q` outside `(0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || q <= 0.0 || q > 1.0 {
            return None;
        }
        // 1-based rank of the target observation in sorted order.
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut prev_count = 0u64;
        let mut prev_bound = 0.0f64;
        for (&c, &bound) in self.counts.iter().zip(&self.bounds) {
            if rank <= c {
                let in_bucket = (c - prev_count) as f64;
                let frac = if in_bucket == 0.0 {
                    1.0
                } else {
                    (rank - prev_count) as f64 / in_bucket
                };
                return Some(prev_bound + (bound - prev_bound) * frac);
            }
            prev_count = c;
            prev_bound = bound;
        }
        self.bounds.last().copied()
    }
}

/// Parses a Prometheus label set body (the text between `{` and `}`)
/// into `(name, value)` pairs, enforcing the text format's escaping
/// rules: label values may contain only the `\\`, `\"`, and `\n`
/// escapes, and a bare `"` inside a value is a syntax error.
pub fn parse_label_set(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        let mut name = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            name.push(c);
        }
        let valid_name = !name.is_empty()
            && name
                .chars()
                .enumerate()
                .all(|(i, c)| c.is_ascii_alphabetic() || c == '_' || (i > 0 && c.is_ascii_digit()));
        if !valid_name {
            return Err(format!("bad label name {name:?}"));
        }
        if chars.next() != Some('"') {
            return Err(format!("label {name} value must be quoted"));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                None => return Err(format!("unterminated value for label {name}")),
                Some('"') => break,
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => return Err(format!("bad escape \\{other:?} in label {name}")),
                },
                Some(c) => value.push(c),
            }
        }
        labels.push((name, value));
        match chars.next() {
            None => return Ok(labels),
            Some(',') => continue,
            Some(c) => return Err(format!("expected ',' between labels, found {c:?}")),
        }
    }
}

/// Validates Prometheus text-format syntax line by line; returns the
/// first offence. Beyond per-line syntax it enforces three cross-line
/// properties:
///
/// * a metric name must not be introduced by two `# HELP` lines
///   (Prometheus treats the exposition as corrupt);
/// * within one metric and one label set, series that differ only in
///   their `quantile` label must be non-decreasing in value as the
///   quantile grows — a p95 below the p50 can only be an estimator or
///   rendering bug;
/// * likewise `_bucket` series that differ only in `le` must be
///   non-decreasing as `le` rises, since bucket counts are cumulative.
pub fn check_prometheus_text(text: &str) -> Result<(), String> {
    let mut help_seen: Vec<String> = Vec::new();
    // (ordering label, metric name + other labels) → [(label, value)]
    let mut ordered: BTreeMap<(&str, String), Vec<(f64, f64)>> = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with("# TYPE ") {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or("").to_string();
            if help_seen.contains(&name) {
                return Err(format!("duplicate HELP for {name:?}"));
            }
            help_seen.push(name);
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            return Err(format!("no value: {line:?}"));
        };
        let Ok(value) = value.parse::<f64>() else {
            return Err(format!("bad value {value:?} in {line:?}"));
        };
        let name_end = series.find('{').unwrap_or(series.len());
        let name = &series[..name_end];
        let valid_name = !name.is_empty()
            && name.chars().enumerate().all(|(i, c)| {
                c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
            });
        if !valid_name {
            return Err(format!("bad metric name {name:?} in {line:?}"));
        }
        if name_end == series.len() {
            continue;
        }
        if !series.ends_with('}') {
            return Err(format!("unclosed label set: {line:?}"));
        }
        let body = &series[name_end + 1..series.len() - 1];
        let labels = parse_label_set(body).map_err(|e| format!("{e} in {line:?}"))?;
        let order_by = if name.ends_with("_bucket") {
            "le"
        } else {
            "quantile"
        };
        let Some(position) = labels
            .iter()
            .find(|(n, _)| n == order_by)
            .and_then(|(_, v)| v.parse::<f64>().ok())
        else {
            continue;
        };
        let mut key = name.to_string();
        for (n, v) in &labels {
            if n != order_by {
                key.push_str(&format!(",{n}={v:?}"));
            }
        }
        ordered
            .entry((order_by, key))
            .or_default()
            .push((position, value));
    }
    for ((label, key), mut points) in ordered {
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        for pair in points.windows(2) {
            if pair[1].1 < pair[0].1 {
                return Err(format!(
                    "{label} series not monotone for {key}: {label} {} = {} > {label} {} = {}",
                    pair[0].0, pair[0].1, pair[1].0, pair[1].1
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut h = Histogram::new(LATENCY_BUCKETS);
        h.observe(0.001);
        h.observe(0.05);
        h.observe(120.0); // beyond the last bound: only +Inf (count)
        assert_eq!(h.count(), 3);
        let counts: Vec<u64> = h.buckets().map(|(_, n)| n).collect();
        assert_eq!(counts[0], 1, "0.005 bucket");
        assert_eq!(counts[2], 2, "0.1 bucket holds both finite obs");
        assert_eq!(
            counts[LATENCY_BUCKETS.len() - 1],
            2,
            "60s bucket excludes 120s"
        );
        assert!((h.sum() - 120.051).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_interpolate_and_clamp() {
        let empty = Histogram::new(LATENCY_BUCKETS);
        assert_eq!(empty.quantile(0.5), None, "no data, no estimate");

        let mut h = Histogram::new(LATENCY_BUCKETS);
        for _ in 0..100 {
            h.observe(0.05); // all land in the (0.025, 0.1] bucket
        }
        let p50 = h.quantile(0.5).expect("observations present");
        assert!(p50 > 0.025 && p50 <= 0.1, "p50 {p50} outside owning bucket");

        // Observations beyond the last finite bound clamp to it.
        let mut far = Histogram::new(LATENCY_BUCKETS);
        far.observe(500.0);
        assert_eq!(far.quantile(0.99), Some(60.0));

        // Quantiles are monotone in q.
        let mut spread = Histogram::new(LATENCY_BUCKETS);
        for i in 0..50 {
            spread.observe(0.002 * i as f64);
        }
        let q = |p: f64| spread.quantile(p).unwrap();
        assert!(q(0.5) <= q(0.95));
        assert!(q(0.95) <= q(0.99));
    }

    #[test]
    fn writer_renders_every_family_shape() {
        let mut h = Histogram::new(&["0.5", "1"]);
        h.observe(0.25);
        h.observe(3.0);
        let mut w = Exposition::default();
        w.scalar("m_total", Kind::Counter, "Things.", 3u64);
        w.family("g", Kind::Gauge, "Per peer.")
            .series(&[("peer", "a\"b"), ("state", "open")], 1.5);
        w.family("h", Kind::Histogram, "Ratios.")
            .histogram(&[("model", "serving")], &h);
        let text = w.finish();
        assert_eq!(
            text,
            "# HELP m_total Things.\n# TYPE m_total counter\nm_total 3\n\
             # HELP g Per peer.\n# TYPE g gauge\ng{peer=\"a\\\"b\",state=\"open\"} 1.5\n\
             # HELP h Ratios.\n# TYPE h histogram\n\
             h_bucket{model=\"serving\",le=\"0.5\"} 1\n\
             h_bucket{model=\"serving\",le=\"1\"} 1\n\
             h_bucket{model=\"serving\",le=\"+Inf\"} 2\n\
             h_sum{model=\"serving\"} 3.25\n\
             h_count{model=\"serving\"} 2\n"
        );
        check_prometheus_text(&text).expect("must parse");
    }

    #[test]
    fn values_keep_integers_integral() {
        assert_eq!(Value::from(7u64).to_string(), "7");
        assert_eq!(Value::from(2.0).to_string(), "2.0");
        assert_eq!(Value::parse("7"), Some(Value::Int(7)));
        assert_eq!(Value::parse("7.0"), Some(Value::Float(7.0)));
        assert_eq!(Value::parse("+Inf"), Some(Value::Float(f64::INFINITY)));
        assert_eq!(Value::parse("seven"), None);
    }

    #[test]
    fn checker_rejects_duplicate_help() {
        let text = "# HELP m one\n# TYPE m counter\nm 1\n# HELP m again\n";
        let err = check_prometheus_text(text).unwrap_err();
        assert!(err.contains("duplicate HELP"), "{err}");
    }

    #[test]
    fn checker_rejects_bad_label_escapes() {
        // \t is not a sanctioned escape in the text format.
        assert!(check_prometheus_text(r#"m{l="a\t"} 1"#).is_err());
        // An unescaped quote inside a value ends it early.
        assert!(check_prometheus_text(r#"m{l="a"b"} 1"#).is_err());
        // The three sanctioned escapes all pass.
        assert!(check_prometheus_text(r#"m{l="a\"b\\c\n"} 1"#).is_ok());
        // Label names follow metric-name rules.
        assert!(check_prometheus_text(r#"m{9bad="x"} 1"#).is_err());
    }

    #[test]
    fn checker_rejects_non_monotone_quantiles() {
        let bad = "m{endpoint=\"c\",quantile=\"0.5\"} 2.0\n\
                   m{endpoint=\"c\",quantile=\"0.95\"} 1.0\n";
        let err = check_prometheus_text(bad).unwrap_err();
        assert!(err.contains("not monotone"), "{err}");
        // Series differing in other labels are independent groups.
        let ok = "m{endpoint=\"a\",quantile=\"0.5\"} 2.0\n\
                  m{endpoint=\"b\",quantile=\"0.95\"} 1.0\n";
        assert!(check_prometheus_text(ok).is_ok());
    }

    #[test]
    fn checker_rejects_falling_bucket_counts() {
        let bad = "h_bucket{model=\"s\",le=\"0.5\"} 3\n\
                   h_bucket{model=\"s\",le=\"1\"} 2\n\
                   h_bucket{model=\"s\",le=\"+Inf\"} 3\n";
        let err = check_prometheus_text(bad).unwrap_err();
        assert!(err.contains("le series not monotone"), "{err}");
        // `+Inf` sorts last, whatever its position in the text.
        let bad_inf = "h_bucket{le=\"+Inf\"} 1\nh_bucket{le=\"1.0\"} 2\n";
        assert!(check_prometheus_text(bad_inf).is_err());
        // Other label sets are independent; `le` on a non-bucket series
        // orders nothing.
        let ok = "h_bucket{model=\"a\",le=\"0.5\"} 3\n\
                  h_bucket{model=\"b\",le=\"1\"} 2\n\
                  other{le=\"1\"} 5\nother{le=\"2\"} 1\n";
        assert!(check_prometheus_text(ok).is_ok());
    }

    #[test]
    fn checker_rejects_malformed_lines() {
        assert!(check_prometheus_text("just words without value structure").is_err());
        assert!(check_prometheus_text("metric_name not-a-number").is_err());
        assert!(check_prometheus_text("9bad_name 1").is_err());
        assert!(check_prometheus_text("unclosed{label=\"x\" 1").is_err());
        assert!(check_prometheus_text("ok_name{label=\"x\"} 1\nok_plain 2.5").is_ok());
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        // What the writer escapes, the rollup's label parser restores.
        let body = format!("version=\"{}\",git_sha=\"x\"", escape_label("a\"b\\c\nd"));
        let pairs = [("version", "a\"b\\c\nd"), ("git_sha", "x")];
        let expected: Vec<(String, String)> = pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        assert_eq!(parse_label_set(&body).unwrap(), expected);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(2.0), "2.0");
        assert_eq!(fmt_f64(0.005), "0.005");
        assert_eq!(fmt_f64(1.25), "1.25");
    }
}
