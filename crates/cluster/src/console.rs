//! `mcdla top`: a live fleet console over the telemetry history.
//!
//! Plain ANSI redraw (home + clear, no terminal library): each frame
//! polls `GET /metrics/history` + `GET /stats` on every worker — or one
//! `GET /cluster/history` + `GET /cluster/stats` on a gateway — and
//! repaints a per-node table, fleet sparklines, and the stage-cache hit
//! rates. Everything renders from the same JSON the script surface
//! (`mcdla query history`) exposes, so what the console shows is
//! exactly what the endpoints answer.

use std::io::Write;
use std::time::Duration;

use mcdla_serve::client::{request_once_with, Timeouts};
use serde::Value;

/// Everything `mcdla top` configures.
#[derive(Debug)]
pub struct TopConfig {
    /// Poll a gateway (`/cluster/history` + `/cluster/stats`) at this
    /// address. Mutually exclusive with `workers`.
    pub gateway: Option<String>,
    /// Poll each worker (`/metrics/history` + `/stats`) directly.
    pub workers: Vec<String>,
    /// Redraw cadence.
    pub interval: Duration,
    /// Stop after this many frames (`None` = run until killed) — the
    /// scriptable escape hatch CI uses.
    pub frames: Option<u64>,
    /// Per-request deadlines.
    pub timeouts: Timeouts,
}

/// One node's line in the console table — the newest history sample of
/// each displayed series.
#[derive(Debug, Default)]
struct NodeRow {
    name: String,
    addr: String,
    up: bool,
    req_s: f64,
    err_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    hit_rate: f64,
    entries: f64,
    evict_s: f64,
    open: f64,
    shed_s: f64,
    rss_bytes: f64,
    uptime_s: f64,
}

/// One rendered frame's data.
#[derive(Debug, Default)]
struct Frame {
    source: String,
    nodes: Vec<NodeRow>,
    /// Fleet request-rate ring (newest last), for the sparkline.
    req_ring: Vec<f64>,
    /// Fleet store hit-rate ring (newest last).
    hit_ring: Vec<f64>,
    /// Per-stage `(name, hits, misses)` totals across nodes. Ratios of
    /// sums are duplication-invariant: in-process fleets share one
    /// global stage cache and report identical tables, and
    /// `Σh/Σ(h+m)` over `k` identical copies equals each copy's rate.
    stages: Vec<(String, u64, u64)>,
    errors: Vec<String>,
}

/// `GET path` on `addr`, parsed; `None` unless it answered 200 JSON.
fn get_json(addr: &str, path: &str, timeouts: Timeouts) -> Option<Value> {
    let response = request_once_with(addr, "GET", path, None, timeouts).ok()?;
    (response.status == 200)
        .then(|| serde::json::parse(&response.body).ok())
        .flatten()
}

/// The newest sample of a named series in a history body, or 0.
fn last(history: &Value, name: &str) -> f64 {
    ring(history, name).last().copied().unwrap_or(0.0)
}

/// A named series of a history body, as floats (newest last).
fn ring(history: &Value, name: &str) -> Vec<f64> {
    let points = history.get("series").and_then(|s| s.get(name));
    let points = points.and_then(Value::as_seq).unwrap_or_default();
    points.iter().filter_map(Value::as_f64).collect()
}

/// The row of a node whose history could not be read.
fn down_row(name: String, addr: String) -> NodeRow {
    NodeRow {
        name,
        addr,
        up: false,
        ..NodeRow::default()
    }
}

/// Builds a node row from one worker's `/metrics/history` body.
fn node_row(name: String, addr: String, history: &Value) -> NodeRow {
    NodeRow {
        name,
        addr,
        up: true,
        req_s: last(history, "req_per_s"),
        err_s: last(history, "err_per_s"),
        p50_ms: last(history, "simulate.p50_ms").max(last(history, "grid.p50_ms")),
        p99_ms: last(history, "simulate.p99_ms").max(last(history, "grid.p99_ms")),
        hit_rate: last(history, "store.hit_rate"),
        entries: last(history, "store.entries"),
        evict_s: last(history, "store.evictions_per_s"),
        open: last(history, "conns.open"),
        shed_s: last(history, "conns.shed_per_s"),
        rss_bytes: last(history, "rss_bytes"),
        uptime_s: last(history, "uptime_seconds"),
    }
}

/// Folds one `/stats` body's stage tables into the frame totals.
fn fold_stages(stages: &mut Vec<(String, u64, u64)>, stats: &Value) {
    let tables = stats.get("store").and_then(|s| s.get("stages"));
    for table in tables.and_then(Value::as_seq).unwrap_or_default() {
        let Some(name) = table.get("stage").and_then(Value::as_str) else {
            continue;
        };
        let count = |key| table.get(key).and_then(Value::as_u64).unwrap_or(0);
        let (hits, misses) = (count("hits"), count("misses"));
        match stages.iter_mut().find(|(n, ..)| n == name) {
            Some((_, h, m)) => {
                *h += hits;
                *m += misses;
            }
            None => stages.push((name.to_owned(), hits, misses)),
        }
    }
}

/// Tail-aligned element-wise fold of rings (newest last) over the
/// window every ring covers: the shortest ring wins, so sample `j`
/// combines each ring's `j`-th sample of that window. Workers sample on
/// independent clocks, so this is how fleet series line up.
pub(crate) fn fold_rings<T: Copy>(rings: &[Vec<T>], fold: impl Fn(T, T) -> T) -> Vec<T> {
    let len = rings.iter().map(Vec::len).min().unwrap_or(0);
    (0..len)
        .filter_map(|j| rings.iter().map(|r| r[r.len() - len + j]).reduce(&fold))
        .collect()
}

/// The fleet view of worker history bodies, tail-aligned by
/// [`fold_rings`]: the sample timestamps (each the newest worker stamp
/// it folds in, the most recent moment the sample describes), and the
/// summed `req_per_s`, `store.hits_per_s`, and `store.misses_per_s`
/// rings followed by the windowed `store.hit_rate` of the two sums.
pub(crate) fn fleet_rings(histories: &[&Value]) -> (Vec<u64>, [Vec<f64>; 4]) {
    let stamps: Vec<Vec<u64>> = histories
        .iter()
        .map(|h| {
            let stamps = h.get("timestamps_ms").and_then(Value::as_seq);
            let stamps = stamps.unwrap_or_default().iter();
            stamps.filter_map(Value::as_u64).collect()
        })
        .collect();
    let [req, hits, misses] = ["req_per_s", "store.hits_per_s", "store.misses_per_s"].map(|name| {
        let rings: Vec<Vec<f64>> = histories.iter().map(|h| ring(h, name)).collect();
        fold_rings(&rings, |a, b| a + b)
    });
    let hit_rate = hits
        .iter()
        .zip(&misses)
        .map(|(h, m)| if h + m > 0.0 { h / (h + m) } else { 0.0 })
        .collect();
    (fold_rings(&stamps, u64::max), [req, hits, misses, hit_rate])
}

/// Collects one frame by polling every worker directly.
fn collect_workers(workers: &[String], timeouts: Timeouts) -> Frame {
    let mut frame = Frame {
        source: format!("{} workers", workers.len()),
        ..Frame::default()
    };
    let mut histories = Vec::new();
    for (i, addr) in workers.iter().enumerate() {
        let name = format!("w{i}");
        match get_json(addr, "/metrics/history", timeouts) {
            Some(history) => {
                frame.nodes.push(node_row(name, addr.clone(), &history));
                histories.push(history);
            }
            None => {
                frame.errors.push(format!("{addr}: history unreachable"));
                frame.nodes.push(down_row(name, addr.clone()));
                continue;
            }
        }
        if let Some(stats) = get_json(addr, "/stats", timeouts) {
            fold_stages(&mut frame.stages, &stats);
        }
    }
    let (_, [req, _, _, hit_rate]) = fleet_rings(&histories.iter().collect::<Vec<_>>());
    frame.req_ring = req;
    frame.hit_ring = hit_rate;
    frame
}

/// Collects one frame from a gateway's fleet aggregation.
fn collect_gateway(addr: &str, timeouts: Timeouts) -> Frame {
    let mut frame = Frame {
        source: format!("gateway {addr}"),
        ..Frame::default()
    };
    match get_json(addr, "/cluster/history", timeouts) {
        Some(cluster) => {
            if let Some(fleet) = cluster.get("fleet") {
                frame.req_ring = ring(fleet, "req_per_s");
                frame.hit_ring = ring(fleet, "store.hit_rate");
            }
            let workers = cluster.get("workers").and_then(Value::as_seq);
            for worker in workers.unwrap_or_default() {
                let index = worker.get("index").and_then(Value::as_u64).unwrap_or(0);
                let addr = worker
                    .get("addr")
                    .and_then(Value::as_str)
                    .unwrap_or_default();
                let name = format!("w{index}");
                match worker.get("history") {
                    Some(history @ Value::Map(_)) => {
                        frame.nodes.push(node_row(name, addr.to_owned(), history));
                    }
                    _ => frame.nodes.push(down_row(name, addr.to_owned())),
                }
            }
        }
        None => frame
            .errors
            .push(format!("{addr}: /cluster/history unreachable")),
    }
    if let Some(stats) = get_json(addr, "/cluster/stats", timeouts) {
        let workers = stats.get("workers").and_then(Value::as_seq);
        for wstats in workers
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("stats"))
        {
            fold_stages(&mut frame.stages, wstats);
        }
    }
    frame
}

/// An ASCII sparkline (oldest left, newest right), scaled to the ring's
/// own maximum; `width` caps the newest samples shown.
fn sparkline(ring: &[f64], width: usize) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let tail = &ring[ring.len().saturating_sub(width)..];
    let max = tail.iter().cloned().fold(0.0f64, f64::max);
    tail.iter()
        .map(|&v| {
            let level = if max > 0.0 {
                ((v / max) * (RAMP.len() - 1) as f64).round() as usize
            } else {
                0
            };
            RAMP[level.min(RAMP.len() - 1)] as char
        })
        .collect()
}

/// Bytes as a short human figure.
fn fmt_bytes(b: f64) -> String {
    if b >= 1e9 {
        format!("{:.1}G", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.0}M", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.0}K", b / 1e3)
    } else {
        format!("{b:.0}")
    }
}

/// Seconds as `h:mm:ss`.
fn fmt_uptime(s: f64) -> String {
    let s = s.max(0.0) as u64;
    format!("{}:{:02}:{:02}", s / 3600, (s % 3600) / 60, s % 60)
}

/// Renders one frame (without the ANSI preamble) into `out`.
fn render(frame: &Frame, interval: Duration, out: &mut dyn Write) -> std::io::Result<()> {
    let up = frame.nodes.iter().filter(|n| n.up).count();
    writeln!(
        out,
        "mcdla top — {} · {}/{} up · every {:.1}s · Ctrl-C quits",
        frame.source,
        up,
        frame.nodes.len(),
        interval.as_secs_f64(),
    )?;
    writeln!(
        out,
        "{:<4} {:<21} {:>3} {:>8} {:>7} {:>8} {:>8} {:>6} {:>8} {:>8} {:>5} {:>7} {:>6} {:>9}",
        "NODE",
        "ADDR",
        "UP",
        "REQ/S",
        "ERR/S",
        "P50ms",
        "P99ms",
        "HIT%",
        "ENTRIES",
        "EVICT/S",
        "OPEN",
        "SHED/S",
        "RSS",
        "UPTIME"
    )?;
    let mut fleet_req = 0.0;
    for n in &frame.nodes {
        fleet_req += n.req_s;
        writeln!(
            out,
            "{:<4} {:<21} {:>3} {:>8.1} {:>7.1} {:>8.2} {:>8.2} {:>5.1}% {:>8.0} {:>8.1} {:>5.0} {:>7.1} {:>6} {:>9}",
            n.name,
            n.addr,
            if n.up { "up" } else { "DOWN" },
            n.req_s,
            n.err_s,
            n.p50_ms,
            n.p99_ms,
            n.hit_rate * 100.0,
            n.entries,
            n.evict_s,
            n.open,
            n.shed_s,
            fmt_bytes(n.rss_bytes),
            fmt_uptime(n.uptime_s),
        )?;
    }
    let hit_now = frame.hit_ring.last().copied().unwrap_or(0.0);
    writeln!(
        out,
        "fleet  req/s {:>8.1}  [{}]",
        fleet_req,
        sparkline(&frame.req_ring, 60)
    )?;
    writeln!(
        out,
        "fleet  hit%  {:>7.1}%  [{}]",
        hit_now * 100.0,
        sparkline(&frame.hit_ring, 60)
    )?;
    if !frame.stages.is_empty() {
        let cells: Vec<String> = frame
            .stages
            .iter()
            .map(|(name, h, m)| {
                let rate = if h + m > 0 {
                    *h as f64 / (h + m) as f64
                } else {
                    0.0
                };
                format!("{name} {:.0}%", rate * 100.0)
            })
            .collect();
        writeln!(out, "stages {}", cells.join("  "))?;
    }
    for e in &frame.errors {
        writeln!(out, "! {e}")?;
    }
    Ok(())
}

/// Runs the console loop: clear, poll, repaint, sleep — until
/// `config.frames` frames have rendered (or forever).
pub fn run_top(config: &TopConfig, out: &mut dyn Write) -> Result<(), String> {
    if config.gateway.is_some() != config.workers.is_empty() {
        return Err("`top` needs exactly one of --addr (a gateway) or --backends (workers)".into());
    }
    let mut rendered = 0u64;
    loop {
        let frame = match &config.gateway {
            Some(addr) => collect_gateway(addr, config.timeouts),
            None => collect_workers(&config.workers, config.timeouts),
        };
        // Home + clear-to-end: repaint in place without flashing the
        // whole terminal the way a full clear-screen would.
        let mut text = Vec::new();
        let _ = write!(text, "\x1b[H\x1b[J");
        render(&frame, config.interval, &mut text).map_err(|e| format!("rendering frame: {e}"))?;
        out.write_all(&text)
            .and_then(|()| out.flush())
            .map_err(|e| format!("writing frame: {e}"))?;
        rendered += 1;
        if config.frames.is_some_and(|n| rendered >= n) {
            return Ok(());
        }
        std::thread::sleep(config.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history_fixture() -> Value {
        serde::json::parse(
            r#"{
                "service": "mcdla-serve",
                "timestamps_ms": [1000, 2000, 3000],
                "series": {
                    "req_per_s": [1.0, 2.0, 4.0],
                    "err_per_s": [0.0, 0.0, 1.0],
                    "simulate.p50_ms": [0.5, 0.4, 0.3],
                    "simulate.p99_ms": [2.0, 1.5, 1.0],
                    "grid.p50_ms": [0.0, 0.0, 0.0],
                    "grid.p99_ms": [0.0, 0.0, 0.0],
                    "store.hit_rate": [0.0, 0.5, 0.9],
                    "store.hits_per_s": [0.0, 1.0, 9.0],
                    "store.misses_per_s": [1.0, 1.0, 1.0],
                    "store.entries": [1, 2, 3],
                    "store.evictions_per_s": [0, 0, 0],
                    "conns.open": [1, 1, 2],
                    "conns.shed_per_s": [0, 0, 0],
                    "rss_bytes": [1000000, 1100000, 1200000],
                    "uptime_seconds": [1, 2, 3]
                }
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn node_rows_read_the_newest_sample() {
        let row = node_row("w0".into(), "127.0.0.1:1".into(), &history_fixture());
        assert!(row.up);
        assert_eq!(row.req_s, 4.0);
        assert_eq!(row.hit_rate, 0.9);
        assert_eq!(row.p99_ms, 1.0);
        assert_eq!(row.entries, 3.0);
    }

    #[test]
    fn sparklines_scale_to_the_ring_max() {
        let line = sparkline(&[0.0, 5.0, 10.0], 60);
        assert_eq!(line.len(), 3);
        assert!(line.starts_with(' '), "zero maps to the lowest level");
        assert!(line.ends_with('@'), "max maps to the highest level");
        // Constant-zero rings stay flat rather than dividing by zero.
        assert_eq!(sparkline(&[0.0, 0.0], 60), "  ");
        // Width caps the tail.
        assert_eq!(sparkline(&[1.0; 100], 10).len(), 10);
    }

    #[test]
    fn stage_tables_fold_duplication_invariantly() {
        let stats = serde::json::parse(
            r#"{"store": {"stages": [
                {"stage": "fabric", "hits": 90, "misses": 10},
                {"stage": "plan", "hits": 50, "misses": 50}
            ]}}"#,
        )
        .unwrap();
        let mut stages = Vec::new();
        // Two identical worker reports of the shared global tables.
        fold_stages(&mut stages, &stats);
        fold_stages(&mut stages, &stats);
        assert_eq!(stages.len(), 2);
        let (name, h, m) = &stages[0];
        assert_eq!(name, "fabric");
        // Ratio of sums equals each copy's own 90%.
        assert!((*h as f64 / (*h + *m) as f64 - 0.9).abs() < 1e-12);
    }

    #[test]
    fn frames_render_rows_sparklines_and_stages() {
        let frame = Frame {
            source: "2 workers".into(),
            nodes: vec![
                node_row("w0".into(), "127.0.0.1:7878".into(), &history_fixture()),
                down_row("w1".into(), "127.0.0.1:7879".into()),
            ],
            req_ring: vec![1.0, 2.0, 4.0],
            hit_ring: vec![0.0, 0.5, 0.9],
            stages: vec![("fabric".into(), 90, 10)],
            errors: vec!["127.0.0.1:7879: history unreachable".into()],
        };
        let mut out = Vec::new();
        render(&frame, Duration::from_secs(1), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("mcdla top — 2 workers · 1/2 up"), "{text}");
        assert!(text.contains("w0"), "{text}");
        assert!(text.contains("DOWN"), "{text}");
        assert!(text.contains("fleet  req/s"), "{text}");
        assert!(text.contains("90.0%"), "{text}");
        assert!(text.contains("stages fabric 90%"), "{text}");
        assert!(text.contains("history unreachable"), "{text}");
    }

    #[test]
    fn ring_sums_align_from_the_tail() {
        let sum = fold_rings(&[vec![1.0, 2.0, 3.0], vec![10.0, 20.0]], |a, b| a + b);
        // Shortest ring wins: the overlap is the last two samples.
        assert_eq!(sum, vec![12.0, 23.0]);
        assert!(fold_rings::<f64>(&[], |a, b| a + b).is_empty());
        // Timestamps fold by max over the same window.
        assert_eq!(fold_rings(&[vec![5, 9], vec![7]], u64::max), vec![9]);
    }

    #[test]
    fn top_rejects_ambiguous_targets() {
        let both = TopConfig {
            gateway: Some("127.0.0.1:1".into()),
            workers: vec!["127.0.0.1:2".into()],
            interval: Duration::from_millis(1),
            frames: Some(1),
            timeouts: Timeouts::default(),
        };
        let mut out = Vec::new();
        assert!(run_top(&both, &mut out).is_err());
        let neither = TopConfig {
            gateway: None,
            workers: Vec::new(),
            interval: Duration::from_millis(1),
            frames: Some(1),
            timeouts: Timeouts::default(),
        };
        assert!(run_top(&neither, &mut out).is_err());
    }
}
