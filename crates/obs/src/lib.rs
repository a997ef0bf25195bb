//! # `mcdla-obs` — hand-rolled observability substrate
//!
//! Zero-dependency tracing and latency instrumentation for the mcdla
//! stack, threaded through every tier (engine stages, the serve
//! worker, the cluster gateway):
//!
//! * [`Span`] / [`TraceScope`] — RAII timed sections with a
//!   thread-local span stack; a request handler opens a scope, the
//!   code under it enters spans, and the finished [`TraceRecord`]
//!   carries the whole parent/child tree.
//! * [`FlightRecorder`] — a bounded ring buffer, behind one lock, of
//!   the last N completed traces per server (a serving node keeps
//!   1024), behind `GET /debug/trace/<id>` and `GET /debug/requests`.
//! * [`Histogram`] — fixed 1-2-5 log-bucket latency histograms with
//!   atomic buckets, rendered as Prometheus `_bucket`/`_sum`/`_count`
//!   families and backing the bench percentiles.
//! * [`request_id`] — `X-Mcdla-Request-Id` generation at the edge.
//! * [`History`] / [`Sampler`] — retained time-series telemetry: a
//!   background thread (`MCDLA_SAMPLE_MS`, default 1 s) records
//!   counter deltas and windowed quantiles into fixed-capacity
//!   per-series rings (600 samples on a serving node), behind
//!   `GET /metrics/history` and `GET /cluster/history`.
//! * [`log`] — leveled, rate-limited structured logging (`MCDLA_LOG`):
//!   one JSON object per line on stderr, including the per-request
//!   *wide events* emitted by the serve and gateway tiers.
//!
//! Span recording is disabled by default ([`set_enabled`]) so batch
//! paths pay one atomic load per would-be span; servers enable it at
//! bind time. Direct [`Histogram`] handles (the bench harness) always
//! record.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod hist;
pub mod log;
mod recorder;
mod sampler;
mod series;
mod span;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

pub use hist::{Histogram, HistogramSnapshot, BUCKETS};
pub use recorder::FlightRecorder;
pub use sampler::{rss_bytes, sample_ms_from_env, unix_ms, Sampler};
pub use series::{History, HistoryDump};
pub use span::{enabled, set_enabled, Span, SpanRecord, TraceRecord, TraceScope};

/// The crate (and workspace) version baked in at compile time.
pub fn build_version() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

/// A git-ish build id (`git rev-parse --short=12 HEAD` at compile
/// time; `"unknown"` outside a checkout). See `build.rs`.
pub fn build_id() -> &'static str {
    env!("MCDLA_BUILD_ID")
}

/// splitmix64: a tiny, well-distributed 64-bit mixer — good enough to
/// make request ids unguessably distinct across processes and time.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let pid = std::process::id() as u64;
        // The address of a static adds per-ASLR-image entropy.
        let aslr = &SEED as *const _ as u64;
        splitmix64(nanos ^ (pid << 32) ^ aslr)
    })
}

/// Generates a fresh request id: 16 lowercase hex characters, unique
/// per process (atomic counter) and distinct across processes and
/// restarts (time/pid-seeded mix).
pub fn request_id() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    format!("{:016x}", splitmix64(process_seed() ^ n))
}

/// Whether `s` is acceptable as a propagated request id: 1–64
/// characters from `[A-Za-z0-9._-]`. Anything else (huge values,
/// whitespace, JSON-breaking bytes) is discarded at the edge and
/// replaced by a fresh [`request_id`].
pub fn valid_request_id(s: &str) -> bool {
    (1..=64).contains(&s.len())
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_ids_are_distinct_well_formed_hex() {
        let a = request_id();
        let b = request_id();
        assert_ne!(a, b);
        for id in [&a, &b] {
            assert_eq!(id.len(), 16);
            assert!(id.bytes().all(|c| c.is_ascii_hexdigit()));
            assert!(valid_request_id(id));
        }
    }

    #[test]
    fn id_validation_rejects_hostile_values() {
        assert!(valid_request_id("abc-DEF_123.z"));
        assert!(!valid_request_id(""));
        assert!(!valid_request_id(&"x".repeat(65)));
        assert!(!valid_request_id("has space"));
        assert!(!valid_request_id("quote\"break"));
        assert!(!valid_request_id("new\nline"));
    }

    #[test]
    fn build_info_is_present() {
        assert!(!build_version().is_empty());
        assert!(!build_id().is_empty());
    }
}
