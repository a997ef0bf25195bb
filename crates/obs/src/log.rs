//! Leveled, rate-limited structured logging: one JSON object per line
//! on stderr.
//!
//! `MCDLA_LOG` selects the level — `error|warn|info|debug|off`, default
//! `info` — optionally with per-target overrides in env_logger style:
//! `MCDLA_LOG=warn,serve=debug` keeps the fleet quiet but turns on the
//! worker's per-request wide events. Targets are short static strings
//! (`"serve"`, `"gateway"`, `"cluster"`) matched exactly.
//!
//! Every line is a flat JSON object: `ts_ms`, `level`, `target`, `msg`,
//! then the caller's fields in order. Lines are emitted with a single
//! `eprintln!`, so concurrent writers interleave only at line
//! granularity.
//!
//! A global token window caps emission at 500 lines per second.
//! Overflow is dropped, counted, and confessed by a `log_dropped` warn
//! line when the next window opens — a log flood degrades to a rate,
//! never to unbounded stderr.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or data-losing conditions.
    Error,
    /// Degraded but self-healing conditions.
    Warn,
    /// Operator-relevant lifecycle events; the default.
    Info,
    /// Per-request wide events and other high-volume detail.
    Debug,
}

impl Level {
    fn rank(self) -> u8 {
        match self {
            Level::Error => 1,
            Level::Warn => 2,
            Level::Info => 3,
            Level::Debug => 4,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// A typed field value for structured lines. Built via `From`, so call
/// sites read `("cells", loaded.into())`.
#[derive(Debug, Clone)]
pub enum LogValue {
    /// A string field (JSON-escaped on emission).
    Str(String),
    /// An unsigned integer field.
    U64(u64),
    /// A signed integer field.
    I64(i64),
    /// A float field (non-finite values emit as `null`).
    F64(f64),
    /// A boolean field.
    Bool(bool),
}

impl From<&str> for LogValue {
    fn from(v: &str) -> LogValue {
        LogValue::Str(v.to_string())
    }
}
impl From<String> for LogValue {
    fn from(v: String) -> LogValue {
        LogValue::Str(v)
    }
}
impl From<u64> for LogValue {
    fn from(v: u64) -> LogValue {
        LogValue::U64(v)
    }
}
impl From<usize> for LogValue {
    fn from(v: usize) -> LogValue {
        LogValue::U64(v as u64)
    }
}
impl From<u32> for LogValue {
    fn from(v: u32) -> LogValue {
        LogValue::U64(u64::from(v))
    }
}
impl From<u16> for LogValue {
    fn from(v: u16) -> LogValue {
        LogValue::U64(u64::from(v))
    }
}
impl From<i64> for LogValue {
    fn from(v: i64) -> LogValue {
        LogValue::I64(v)
    }
}
impl From<f64> for LogValue {
    fn from(v: f64) -> LogValue {
        LogValue::F64(v)
    }
}
impl From<bool> for LogValue {
    fn from(v: bool) -> LogValue {
        LogValue::Bool(v)
    }
}

/// Parsed `MCDLA_LOG` configuration: a default rank plus per-target
/// overrides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LogConfig {
    default_rank: u8,
    overrides: Vec<(String, u8)>,
}

fn parse_rank(s: &str) -> Option<u8> {
    match s.trim().to_ascii_lowercase().as_str() {
        "off" | "none" => Some(0),
        "error" => Some(1),
        "warn" | "warning" => Some(2),
        "info" => Some(3),
        "debug" | "trace" => Some(4),
        _ => None,
    }
}

impl LogConfig {
    /// Parses a spec like `info` or `warn,serve=debug`. Unknown levels
    /// fall back to `info`; malformed clauses are ignored.
    pub(crate) fn parse(spec: &str) -> LogConfig {
        let mut default_rank = 3;
        let mut overrides = Vec::new();
        for clause in spec.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            match clause.split_once('=') {
                None => {
                    if let Some(rank) = parse_rank(clause) {
                        default_rank = rank;
                    }
                }
                Some((target, level)) => {
                    if let Some(rank) = parse_rank(level) {
                        overrides.push((target.trim().to_string(), rank));
                    }
                }
            }
        }
        LogConfig {
            default_rank,
            overrides,
        }
    }

    /// Whether `level` passes the filter for `target`.
    pub(crate) fn enabled(&self, level: Level, target: &str) -> bool {
        let rank = self
            .overrides
            .iter()
            .find(|(t, _)| t == target)
            .map(|&(_, r)| r)
            .unwrap_or(self.default_rank);
        level.rank() <= rank
    }
}

fn config() -> &'static LogConfig {
    static CONFIG: OnceLock<LogConfig> = OnceLock::new();
    CONFIG.get_or_init(|| {
        LogConfig::parse(&std::env::var("MCDLA_LOG").unwrap_or_else(|_| "info".to_string()))
    })
}

/// Whether a line at `level` for `target` would be emitted (cheap; use
/// to skip field construction on hot paths).
pub fn log_enabled(level: Level, target: &str) -> bool {
    config().enabled(level, target)
}

/// Appends `s` to `out` as a JSON string literal.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders one structured line (without emitting it). Public so tests
/// and the wide-event path can pin the exact wire shape.
pub(crate) fn format_line(
    ts_ms: u64,
    level: Level,
    target: &str,
    msg: &str,
    fields: &[(&str, LogValue)],
) -> String {
    let mut out = String::with_capacity(96 + fields.len() * 24);
    out.push_str("{\"ts_ms\":");
    out.push_str(&ts_ms.to_string());
    out.push_str(",\"level\":\"");
    out.push_str(level.label());
    out.push_str("\",\"target\":");
    push_json_str(&mut out, target);
    out.push_str(",\"msg\":");
    push_json_str(&mut out, msg);
    for (key, value) in fields {
        out.push(',');
        push_json_str(&mut out, key);
        out.push(':');
        match value {
            LogValue::Str(s) => push_json_str(&mut out, s),
            LogValue::U64(v) => out.push_str(&v.to_string()),
            LogValue::I64(v) => out.push_str(&v.to_string()),
            LogValue::F64(v) if v.is_finite() => out.push_str(&format!("{v:.6}")),
            LogValue::F64(_) => out.push_str("null"),
            LogValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        }
    }
    out.push('}');
    out
}

/// A per-second emission window; the global limiter plus any test
/// instance. Lock-free: the window rolls via compare-exchange.
#[derive(Debug, Default)]
pub(crate) struct RateWindow {
    window_s: AtomicU64,
    emitted: AtomicU64,
    dropped: AtomicU64,
}

impl RateWindow {
    /// A fresh window.
    pub(crate) const fn new() -> RateWindow {
        RateWindow {
            window_s: AtomicU64::new(0),
            emitted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Charges one line at time `now_s` against `limit` lines/sec.
    /// Returns `(admit, drops_to_confess)`: when a new window opens,
    /// the previous window's drop count is handed to the caller to
    /// report.
    pub(crate) fn admit(&self, now_s: u64, limit: u64) -> (bool, u64) {
        let current = self.window_s.load(Ordering::Relaxed);
        let mut confess = 0;
        if now_s != current
            && self
                .window_s
                .compare_exchange(current, now_s, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            confess = self.dropped.swap(0, Ordering::Relaxed);
            self.emitted.store(0, Ordering::Relaxed);
        }
        if self.emitted.fetch_add(1, Ordering::Relaxed) < limit {
            (true, confess)
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            (false, confess)
        }
    }
}

/// The global window's emission cap, lines per second.
const LOG_LIMIT: u64 = 500;

static GLOBAL_WINDOW: RateWindow = RateWindow::new();

/// Emits one structured line if `level` passes the `MCDLA_LOG` filter
/// for `target` and the rate limiter admits it.
pub fn log(level: Level, target: &str, msg: &str, fields: &[(&str, LogValue)]) {
    if !log_enabled(level, target) {
        return;
    }
    let ts_ms = crate::sampler::unix_ms();
    let (admit, confess) = GLOBAL_WINDOW.admit(ts_ms / 1000, LOG_LIMIT);
    if confess > 0 {
        eprintln!(
            "{}",
            format_line(
                ts_ms,
                Level::Warn,
                "obs",
                "log_dropped",
                &[
                    ("dropped", confess.into()),
                    ("limit_per_sec", LOG_LIMIT.into())
                ],
            )
        );
    }
    if admit {
        eprintln!("{}", format_line(ts_ms, level, target, msg, fields));
    }
}

/// [`log`] at [`Level::Error`].
pub fn error(target: &str, msg: &str, fields: &[(&str, LogValue)]) {
    log(Level::Error, target, msg, fields);
}

/// [`log`] at [`Level::Info`].
pub fn info(target: &str, msg: &str, fields: &[(&str, LogValue)]) {
    log(Level::Info, target, msg, fields);
}

/// [`log`] at [`Level::Debug`].
pub fn debug(target: &str, msg: &str, fields: &[(&str, LogValue)]) {
    log(Level::Debug, target, msg, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_parses_default_and_target_overrides() {
        let c = LogConfig::parse("warn,serve=debug, gateway = error ,bogus=nope");
        assert!(c.enabled(Level::Warn, "cluster"));
        assert!(!c.enabled(Level::Info, "cluster"));
        assert!(c.enabled(Level::Debug, "serve"));
        assert!(c.enabled(Level::Error, "gateway"));
        assert!(!c.enabled(Level::Warn, "gateway"));
        // Unknown levels fall back to info; empty spec is info.
        assert!(LogConfig::parse("verbose").enabled(Level::Info, "x"));
        assert!(!LogConfig::parse("").enabled(Level::Debug, "x"));
        assert!(!LogConfig::parse("off").enabled(Level::Error, "x"));
    }

    #[test]
    fn lines_are_valid_flat_json() {
        let line = format_line(
            1723000000123,
            Level::Info,
            "serve",
            "snapshot \"warmed\"\n",
            &[
                ("cells", 1024usize.into()),
                ("path", "/tmp/a\\b.json".into()),
                ("rate", 0.5f64.into()),
                ("nan", f64::NAN.into()),
                ("neg", LogValue::I64(-3)),
                ("ok", true.into()),
            ],
        );
        assert_eq!(
            line,
            "{\"ts_ms\":1723000000123,\"level\":\"info\",\"target\":\"serve\",\
             \"msg\":\"snapshot \\\"warmed\\\"\\n\",\"cells\":1024,\
             \"path\":\"/tmp/a\\\\b.json\",\"rate\":0.500000,\"nan\":null,\
             \"neg\":-3,\"ok\":true}"
        );
    }

    #[test]
    fn rate_window_caps_and_confesses_drops() {
        let w = RateWindow::new();
        let mut admitted = 0;
        for _ in 0..10 {
            if w.admit(100, 4).0 {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 4);
        // Rolling into the next second confesses the 6 drops exactly once.
        let (ok, confess) = w.admit(101, 4);
        assert!(ok);
        assert_eq!(confess, 6);
        let (ok, confess) = w.admit(101, 4);
        assert!(ok);
        assert_eq!(confess, 0);
    }
}
