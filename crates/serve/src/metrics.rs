//! Prometheus text-exposition rendering (format version 0.0.4) for the
//! worker's and the gateway's `GET /metrics` endpoints — counters,
//! gauges, and (since the `mcdla-obs` layer) latency histograms — and
//! the metric table every telemetry surface renders from.
//!
//! Each tier declares every metric once, as a [`Metric`] entry: its
//! Prometheus name, kind, help, label, and read function, plus an
//! optional `/stats` key and its `/metrics/history` series. `/metrics`
//! (`render`), the counter blocks of `/stats` (`stats_blocks`), and
//! the history rings (`series_values`) are three views of the
//! same table, so they cannot drift apart.

use mcdla_obs::HistogramSnapshot;
use serde::Value;

/// The `content-type` a Prometheus scrape expects.
pub(crate) const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Accumulates one exposition document: `# HELP`/`# TYPE` headers
/// followed by sample lines, family by family.
#[derive(Debug, Default)]
pub(crate) struct MetricsBuilder {
    out: String,
}

impl MetricsBuilder {
    /// An empty document.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Starts a metric family: emits its `# HELP` and `# TYPE` lines.
    /// Follow with [`MetricsBuilder::sample`] calls for the same name.
    pub(crate) fn family(&mut self, name: &str, help: &str, kind: &str) -> &mut Self {
        self.out.push_str("# HELP ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(help);
        self.out.push_str("\n# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
        self
    }

    /// One sample line. `labels` are `(name, value)` pairs; label values
    /// are escaped per the exposition format.
    pub(crate) fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) -> &mut Self {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(k);
                self.out.push_str("=\"");
                for c in v.chars() {
                    match c {
                        '\\' => self.out.push_str("\\\\"),
                        '"' => self.out.push_str("\\\""),
                        '\n' => self.out.push_str("\\n"),
                        c => self.out.push(c),
                    }
                }
                self.out.push('"');
            }
            self.out.push('}');
        }
        self.out.push(' ');
        // Counters and gauges here are integral or seconds; `{}` prints
        // both without exponent noise.
        self.out.push_str(&format!("{value}"));
        self.out.push('\n');
        self
    }

    /// Starts a `histogram` family; follow with
    /// [`MetricsBuilder::histogram`] calls for each label set.
    pub(crate) fn histogram_family(&mut self, name: &str, help: &str) -> &mut Self {
        self.family(name, help, "histogram")
    }

    /// One histogram series: cumulative `{name}_bucket{le=...}` lines
    /// in ascending `le` order (ending at `le="+Inf"`, whose count
    /// equals `{name}_count`), then `{name}_sum` and `{name}_count`.
    pub(crate) fn histogram(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        snap: &HistogramSnapshot,
    ) -> &mut Self {
        let bucket = format!("{name}_bucket");
        for (bound, cum) in snap.cumulative() {
            let le = fmt_le(bound);
            let mut with_le: Vec<(&str, &str)> = labels.to_vec();
            with_le.push(("le", &le));
            self.sample(&bucket, &with_le, cum as f64);
        }
        self.sample(&format!("{name}_sum"), labels, snap.sum_seconds);
        self.sample(&format!("{name}_count"), labels, snap.count() as f64)
    }

    /// The finished exposition document.
    pub(crate) fn finish(self) -> String {
        self.out
    }
}

/// A metric family's type, as its `# TYPE` line names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Monotone count; history retains its per-second rate.
    Counter,
    /// Point-in-time value; history retains the value itself.
    Gauge,
    /// Latency histogram; history retains windowed rates and quantiles.
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

/// One read of a metric family.
#[derive(Debug, Clone)]
pub enum Reading {
    /// `(label value, value)` samples. An unlabeled family holds one
    /// sample labeled `""`; an empty list omits the family.
    Values(Vec<(String, f64)>),
    /// `(label value, histogram)` series.
    Histograms(Vec<(String, HistogramSnapshot)>),
}

impl Reading {
    /// The single sample of an unlabeled family.
    pub fn value(v: f64) -> Reading {
        Reading::Values(vec![(String::new(), v)])
    }

    /// Labeled samples.
    pub fn labeled<L: ToString>(samples: impl IntoIterator<Item = (L, f64)>) -> Reading {
        Reading::Values(
            samples
                .into_iter()
                .map(|(l, v)| (l.to_string(), v))
                .collect(),
        )
    }

    fn sample(&self, label: &str) -> f64 {
        match self {
            Reading::Values(samples) => samples
                .iter()
                .find(|(l, _)| l == label)
                .map_or(0.0, |(_, v)| *v),
            Reading::Histograms(_) => 0.0,
        }
    }
}

/// How a family feeds `/metrics/history`. Counters retain per-second
/// rates over the sample window, gauges their value; a `{}` in a name
/// takes each label value, and a labeled family under a name without
/// `{}` sums its samples.
#[derive(Debug, Clone, Copy)]
pub enum Series {
    /// Every sample (or their sum) under this name.
    Each(&'static str),
    /// Only the sample with label value `.0`, under name `.1`.
    Only(&'static str, &'static str),
    /// The windowed hit rate `hits / (hits + misses)` under name `.0`:
    /// this family counts hits, the family named `.1` the misses.
    HitRate(&'static str, &'static str),
    /// A latency histogram: the total request rate under this name, and
    /// `{label}.req_per_s`, `{label}.p50_ms`, `{label}.p99_ms` per label,
    /// all from histogram deltas over the window.
    Latency(&'static str),
}

/// One metric family, declared once (see the module docs).
pub struct Metric<S> {
    /// Prometheus family name.
    pub(crate) name: String,
    /// Family type.
    pub(crate) kind: Kind,
    /// `# HELP` text.
    pub(crate) help: &'static str,
    /// Label name of a labeled family (`""` for an unlabeled one).
    pub(crate) label: &'static str,
    /// Reads the family off the node's state.
    pub(crate) read: fn(&S) -> Reading,
    /// Dotted `/stats` path; labeled families add one key per label.
    pub(crate) stats: Option<&'static str>,
    /// Retained history series.
    pub(crate) series: Vec<Series>,
}

impl<S> std::fmt::Debug for Metric<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metric").field("name", &self.name).finish()
    }
}

impl<S> Metric<S> {
    fn new(
        kind: Kind,
        name: impl Into<String>,
        help: &'static str,
        read: fn(&S) -> Reading,
    ) -> Self {
        Metric {
            name: name.into(),
            kind,
            help,
            label: "",
            read,
            stats: None,
            series: Vec::new(),
        }
    }

    /// A counter family.
    pub fn counter(name: impl Into<String>, help: &'static str, read: fn(&S) -> Reading) -> Self {
        Metric::new(Kind::Counter, name, help, read)
    }

    /// A gauge family.
    pub fn gauge(name: impl Into<String>, help: &'static str, read: fn(&S) -> Reading) -> Self {
        Metric::new(Kind::Gauge, name, help, read)
    }

    /// A histogram family, labeled by `label`.
    pub fn histogram(
        name: impl Into<String>,
        help: &'static str,
        label: &'static str,
        read: fn(&S) -> Reading,
    ) -> Self {
        Metric::new(Kind::Histogram, name, help, read).labeled(label)
    }

    /// Labels the family's samples by `label`.
    pub fn labeled(mut self, label: &'static str) -> Self {
        self.label = label;
        self
    }

    /// Reports the family in `/stats` at `path`.
    pub fn stats(mut self, path: &'static str) -> Self {
        self.stats = Some(path);
        self
    }

    /// Retains `series` in `/metrics/history`.
    pub fn series(mut self, series: Series) -> Self {
        self.series.push(series);
        self
    }
}

/// Renders every family of `table` into an exposition document.
pub(crate) fn render<S>(b: &mut MetricsBuilder, table: &[Metric<S>], state: &S) {
    for m in table {
        match (m.read)(state) {
            Reading::Values(samples) if samples.is_empty() => {}
            Reading::Values(samples) => {
                b.family(&m.name, m.help, m.kind.as_str());
                for (label, v) in &samples {
                    if m.label.is_empty() {
                        b.sample(&m.name, &[], *v);
                    } else {
                        b.sample(&m.name, &[(m.label, label)], *v);
                    }
                }
            }
            Reading::Histograms(series) => {
                b.histogram_family(&m.name, m.help);
                for (label, snap) in &series {
                    b.histogram(&m.name, &[(m.label, label)], snap);
                }
            }
        }
    }
}

/// The `/stats` entries of every family with a stats key, nested by
/// their dotted paths, in table order. Stats-keyed families are
/// integral counters and gauges, so values render as integers.
pub(crate) fn stats_blocks<S>(table: &[Metric<S>], state: &S) -> Vec<(String, Value)> {
    let mut root = Vec::new();
    for m in table {
        let (Some(path), Reading::Values(samples)) = (m.stats, (m.read)(state)) else {
            continue;
        };
        for (label, v) in samples {
            let key = if m.label.is_empty() {
                path.to_owned()
            } else {
                format!("{path}.{label}")
            };
            insert_path(&mut root, &key, Value::U64(v as u64));
        }
    }
    root
}

fn insert_path(map: &mut Vec<(String, Value)>, path: &str, value: Value) {
    let Some((head, rest)) = path.split_once('.') else {
        map.push((path.to_owned(), value));
        return;
    };
    let i = match map.iter().position(|(k, _)| k == head) {
        Some(i) => i,
        None => {
            map.push((head.to_owned(), Value::Map(Vec::new())));
            map.len() - 1
        }
    };
    if let Value::Map(inner) = &mut map[i].1 {
        insert_path(inner, rest, value);
    }
}

/// Every history series of `table` with its value over the window
/// between two readings of the whole table (one [`Reading`] per
/// family, in table order) taken `dt` seconds apart.
pub(crate) fn series_values<S>(
    table: &[Metric<S>],
    prev: &[Reading],
    cur: &[Reading],
    dt: f64,
) -> Vec<(String, f64)> {
    let dt = dt.max(1e-3);
    let rate = |now: f64, then: f64| (now - then).max(0.0) / dt;
    let ratio = |h: f64, m: f64| if h + m > 0.0 { h / (h + m) } else { 0.0 };
    let mut out = Vec::new();
    for (i, m) in table.iter().enumerate() {
        let windowed = |label: &str| {
            let now = cur[i].sample(label);
            match m.kind {
                Kind::Counter => rate(now, prev[i].sample(label)),
                _ => now,
            }
        };
        for series in &m.series {
            match (*series, &cur[i], &prev[i]) {
                (Series::Each(name), Reading::Values(samples), _) if name.contains("{}") => {
                    for (label, _) in samples {
                        out.push((name.replace("{}", label), windowed(label)));
                    }
                }
                (Series::Each(name), Reading::Values(samples), _) => {
                    let sum = samples.iter().map(|(label, _)| windowed(label)).sum();
                    out.push((name.to_owned(), sum));
                }
                (Series::Only(label, name), ..) => out.push((name.to_owned(), windowed(label))),
                (Series::HitRate(name, misses), Reading::Values(samples), _) => {
                    let j = table.iter().position(|t| t.name == misses);
                    for (label, _) in samples {
                        let missed =
                            j.map_or(0.0, |j| rate(cur[j].sample(label), prev[j].sample(label)));
                        out.push((name.replace("{}", label), ratio(windowed(label), missed)));
                    }
                }
                (Series::Latency(name), Reading::Histograms(now), Reading::Histograms(then)) => {
                    let windows: Vec<(&String, HistogramSnapshot)> = now
                        .iter()
                        .map(
                            |(label, snap)| match then.iter().find(|(l, _)| l == label) {
                                Some((_, old)) => (label, snap.delta(old)),
                                None => (label, snap.clone()),
                            },
                        )
                        .collect();
                    let requests: u64 = windows.iter().map(|(_, w)| w.count()).sum();
                    out.push((name.to_owned(), requests as f64 / dt));
                    for (label, w) in windows {
                        out.push((format!("{label}.req_per_s"), w.count() as f64 / dt));
                        out.push((format!("{label}.p50_ms"), w.quantile(0.5) * 1e3));
                        out.push((format!("{label}.p99_ms"), w.quantile(0.99) * 1e3));
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// Formats a bucket bound as Prometheus expects: plain decimal for
/// finite bounds, the literal `+Inf` for the overflow bucket.
fn fmt_le(bound: f64) -> String {
    if bound.is_infinite() {
        "+Inf".to_string()
    } else {
        format!("{bound}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_families_labels_and_escapes() {
        let mut b = MetricsBuilder::new();
        b.family("x_total", "things", "counter");
        b.sample("x_total", &[("endpoint", "simulate")], 3.0);
        b.sample("x_total", &[("endpoint", "a\"b\\c")], 1.5);
        b.family("up", "liveness", "gauge").sample("up", &[], 1.0);
        let text = b.finish();
        assert!(text.contains("# HELP x_total things\n# TYPE x_total counter\n"));
        assert!(text.contains("x_total{endpoint=\"simulate\"} 3\n"));
        assert!(text.contains("x_total{endpoint=\"a\\\"b\\\\c\"} 1.5\n"));
        assert!(text.ends_with("up 1\n"));
    }

    #[test]
    fn histograms_render_cumulative_ordered_buckets() {
        let h = mcdla_obs::Histogram::new();
        h.observe(3e-6);
        h.observe(3e-6);
        h.observe(0.3);
        h.observe(1e9); // +Inf bucket
        let mut b = MetricsBuilder::new();
        b.histogram_family("lat_seconds", "latency");
        b.histogram("lat_seconds", &[("endpoint", "simulate")], &h.snapshot());
        let text = b.finish();
        assert!(text.contains("# TYPE lat_seconds histogram\n"));
        // Parse the bucket lines back out and check the contract.
        let buckets: Vec<(f64, f64)> = text
            .lines()
            .filter(|l| l.starts_with("lat_seconds_bucket{"))
            .map(|l| {
                let le_raw = l.split("le=\"").nth(1).unwrap().split('"').next().unwrap();
                let le = if le_raw == "+Inf" {
                    f64::INFINITY
                } else {
                    le_raw.parse().unwrap()
                };
                let count: f64 = l.rsplit(' ').next().unwrap().parse().unwrap();
                (le, count)
            })
            .collect();
        assert_eq!(buckets.len(), mcdla_obs::BUCKETS);
        for w in buckets.windows(2) {
            assert!(w[0].0 < w[1].0, "le bounds must ascend: {w:?}");
            assert!(w[0].1 <= w[1].1, "buckets must be cumulative: {w:?}");
        }
        let (inf_bound, inf_count) = buckets[buckets.len() - 1];
        assert!(inf_bound.is_infinite());
        assert!(text.contains("lat_seconds_count{endpoint=\"simulate\"} 4\n"));
        assert_eq!(inf_count, 4.0, "+Inf bucket equals _count");
        assert!(text.contains("lat_seconds_sum{endpoint=\"simulate\"} "));
        // Label escaping holds inside histogram label sets too.
        let mut b = MetricsBuilder::new();
        b.histogram("esc_seconds", &[("worker", "a\"b\\c")], &h.snapshot());
        assert!(b
            .finish()
            .contains("esc_seconds_sum{worker=\"a\\\"b\\\\c\"} "));
    }
}
