//! Request-trace wire helpers shared by the worker and the gateway:
//! request-id extraction, trace → JSON rendering, the `/debug/requests`
//! listing, wide-event levels, the `/metrics/history` body, and
//! build-info blocks.
//!
//! The observability contract (`docs/observability.md`):
//!
//! * every response echoes `X-Mcdla-Request-Id` (propagated from the
//!   request when well-formed, freshly generated otherwise) — including
//!   429 sheds, 408 timeouts, and streamed response heads;
//! * every request records a trace into the server's
//!   [`FlightRecorder`](mcdla_obs::FlightRecorder), whether or not the
//!   client asked to see it;
//! * `?trace=1` grafts the finished span tree into a JSON response
//!   body under a top-level `"trace"` key;
//! * every completed request emits one *wide event* — a single flat
//!   JSON line through [`mcdla_obs::log`] — at `info` when it was
//!   slow (over `MCDLA_SLOW_MS`), shed, timed out, or 5xx, and at
//!   `debug` otherwise.

use mcdla_obs::log::Level;
use mcdla_obs::{HistoryDump, TraceRecord};
use serde::Value;

use crate::http::{error_body, write_response_with, Request, WireError};

/// The request-id header, lower-cased as the parsed [`Request`] stores
/// header names.
pub const REQUEST_ID_HEADER: &str = "x-mcdla-request-id";

/// The request id for a request: the propagated `X-Mcdla-Request-Id`
/// when present and well-formed (see
/// [`valid_request_id`](mcdla_obs::valid_request_id)), else a fresh
/// id generated at this edge.
pub(crate) fn request_trace_id(request: &Request) -> String {
    match request.header(REQUEST_ID_HEADER) {
        Some(id) if mcdla_obs::valid_request_id(id) => id.to_string(),
        _ => mcdla_obs::request_id(),
    }
}

/// Renders a completed trace as the wire JSON: identity, outcome, and
/// the span tree (span `parent` indexes into the same `spans` array).
pub(crate) fn trace_value(service: &str, rec: &TraceRecord) -> Value {
    Value::Map(vec![
        ("id".into(), Value::Str(rec.id.clone())),
        ("service".into(), Value::Str(service.into())),
        ("endpoint".into(), Value::Str(rec.endpoint.clone())),
        ("status".into(), Value::U64(u64::from(rec.status))),
        ("started_unix_ms".into(), Value::U64(rec.started_unix_ms)),
        ("total_us".into(), Value::U64(rec.total_us)),
        (
            "spans".into(),
            Value::Seq(
                rec.spans
                    .iter()
                    .map(|s| {
                        Value::Map(vec![
                            ("name".into(), Value::Str(s.name.clone())),
                            (
                                "parent".into(),
                                match s.parent {
                                    Some(p) => Value::U64(p as u64),
                                    None => Value::Null,
                                },
                            ),
                            ("start_us".into(), Value::U64(s.start_us)),
                            ("dur_us".into(), Value::U64(s.dur_us)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One line of the `/debug/requests` listing: the trace identity and
/// totals without the span tree (fetch `/debug/trace/<id>` for that).
pub(crate) fn trace_summary(rec: &TraceRecord) -> Value {
    Value::Map(vec![
        ("id".into(), Value::Str(rec.id.clone())),
        ("endpoint".into(), Value::Str(rec.endpoint.clone())),
        ("status".into(), Value::U64(u64::from(rec.status))),
        ("started_unix_ms".into(), Value::U64(rec.started_unix_ms)),
        ("total_us".into(), Value::U64(rec.total_us)),
        ("spans".into(), Value::U64(rec.spans.len() as u64)),
        ("seq".into(), Value::U64(rec.seq)),
    ])
}

/// Builds the `GET /debug/requests` body from a recorder's contents:
/// newest first by default, slowest first with `sort=slow`, filtered
/// by `endpoint=<label>`, truncated to `limit=<n>` entries (default
/// 100).
pub(crate) fn debug_requests_value(
    service: &str,
    recorder: &mcdla_obs::FlightRecorder,
    sort: Option<&str>,
    endpoint: Option<&str>,
    limit: Option<&str>,
) -> Value {
    let mut traces = recorder.recent();
    if let Some(ep) = endpoint {
        traces.retain(|t| t.endpoint == ep);
    }
    if sort == Some("slow") {
        // A stable sort: equal-latency entries stay newest first, in
        // the recorder's own order.
        traces.sort_by_key(|t| std::cmp::Reverse(t.total_us));
    }
    let matched = traces.len();
    let limit = limit.and_then(|l| l.parse::<usize>().ok()).unwrap_or(100);
    traces.truncate(limit);
    Value::Map(vec![
        ("service".into(), Value::Str(service.into())),
        ("capacity".into(), Value::U64(recorder.capacity() as u64)),
        ("matched".into(), Value::U64(matched as u64)),
        ("count".into(), Value::U64(traces.len() as u64)),
        (
            "requests".into(),
            Value::Seq(traces.iter().map(|t| trace_summary(t)).collect()),
        ),
    ])
}

/// Grafts `(key, value)` into a JSON-object body, re-serializing
/// pretty. A body that does not parse as an object comes back
/// unchanged (defensive: graft targets are bodies this process just
/// serialized).
pub(crate) fn graft_json(body: &str, key: &str, value: Value) -> String {
    match serde::json::parse(body) {
        Ok(Value::Map(mut entries)) => {
            entries.push((key.into(), value));
            serde::json::to_string_pretty(&Value::Map(entries))
        }
        _ => body.to_string(),
    }
}

/// The build-info block for `/healthz` and `/stats`: crate version and
/// the compile-time git-ish build id.
pub fn build_value() -> Value {
    Value::Map(vec![
        (
            "version".into(),
            Value::Str(mcdla_obs::build_version().into()),
        ),
        ("id".into(), Value::Str(mcdla_obs::build_id().into())),
    ])
}

/// Reads `MCDLA_SLOW_MS`: a positive integer enables the slow-request
/// log at that threshold; unset, `0`, or unparsable disables it.
pub(crate) fn slow_ms_from_env() -> Option<u64> {
    std::env::var("MCDLA_SLOW_MS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&ms| ms > 0)
}

/// The wide-event level for a finished request: `info` when it needs
/// an operator's attention (slow per `MCDLA_SLOW_MS`, shed 429, timed
/// out 408, or 5xx), `debug` otherwise.
pub(crate) fn wide_event_level(slow_ms: Option<u64>, status: u16, total_us: u64) -> Level {
    let slow = slow_ms.is_some_and(|ms| total_us >= ms.saturating_mul(1000));
    if slow || status >= 500 || status == 429 || status == 408 {
        Level::Info
    } else {
        Level::Debug
    }
}

/// Serializes a wire-level failure answer (parse 4xx or stall 408):
/// the error body with a freshly generated request id echoed, plus the
/// failure's wide event (408 timeouts at `info`, parse rejections at
/// `debug`). The connection always closes after this answer.
pub(crate) fn wire_error_answer(target: &str, service: &str, error: &WireError) -> Vec<u8> {
    let rid = mcdla_obs::request_id();
    let level = wide_event_level(None, error.status, 0);
    mcdla_obs::log::log(
        level,
        target,
        "wire_error",
        &[
            ("id", rid.as_str().into()),
            ("service", service.into()),
            ("status", error.status.into()),
            ("error", error.message.as_str().into()),
        ],
    );
    let mut out = Vec::new();
    let _ = write_response_with(
        &mut out,
        error.status,
        "application/json",
        &[(REQUEST_ID_HEADER, &rid)],
        &error_body(&error.message),
        false,
    );
    out
}

/// Renders a [`HistoryDump`] as the `GET /metrics/history` body:
/// the shared timestamp column plus a `series` map, aligned
/// index-for-index, oldest sample first.
pub(crate) fn history_value(service: &str, dump: &HistoryDump) -> Value {
    Value::Map(vec![
        ("service".into(), Value::Str(service.into())),
        ("interval_ms".into(), Value::U64(dump.interval_ms)),
        ("capacity".into(), Value::U64(dump.capacity as u64)),
        (
            "samples".into(),
            Value::U64(dump.timestamps_ms.len() as u64),
        ),
        (
            "timestamps_ms".into(),
            Value::Seq(dump.timestamps_ms.iter().map(|&t| Value::U64(t)).collect()),
        ),
        (
            "series".into(),
            Value::Map(
                dump.series
                    .iter()
                    .map(|(name, values)| {
                        (
                            name.clone(),
                            Value::Seq(values.iter().map(|&v| Value::F64(v)).collect()),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Parses the `GET /metrics/history` query surface: `series=` a
/// comma-separated exact-name filter, `last=` the newest-N truncation.
pub fn history_query(query: Option<&str>) -> (Option<Vec<&str>>, Option<usize>) {
    let filter = crate::http::query_param(query, "series").map(|s| {
        s.split(',')
            .map(str::trim)
            .filter(|name| !name.is_empty())
            .collect::<Vec<_>>()
    });
    let last = crate::http::query_param(query, "last").and_then(|v| v.parse::<usize>().ok());
    (filter, last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdla_obs::{FlightRecorder, SpanRecord};

    fn rec(id: &str, endpoint: &str, total_us: u64) -> TraceRecord {
        TraceRecord {
            id: id.into(),
            endpoint: endpoint.into(),
            status: 200,
            started_unix_ms: 1,
            total_us,
            spans: vec![SpanRecord {
                name: "stage.fabric".into(),
                parent: None,
                start_us: 0,
                dur_us: total_us,
            }],
            seq: 0,
        }
    }

    #[test]
    fn request_id_propagates_or_regenerates() {
        let mut req = Request {
            method: "POST".into(),
            path: "/simulate".into(),
            body: Vec::new(),
            keep_alive: true,
            headers: vec![(REQUEST_ID_HEADER.into(), "abc-123".into())],
        };
        assert_eq!(request_trace_id(&req), "abc-123");
        req.headers[0].1 = "not valid!!".into();
        let fresh = request_trace_id(&req);
        assert_ne!(fresh, "not valid!!");
        assert_eq!(fresh.len(), 16);
    }

    #[test]
    fn debug_requests_sorts_filters_and_limits() {
        let r = FlightRecorder::new(64);
        r.record(rec("a", "simulate", 50));
        r.record(rec("b", "grid", 500));
        r.record(rec("c", "simulate", 5));
        let v = debug_requests_value("mcdla-serve", &r, Some("slow"), None, None);
        let text = serde::json::to_string(&v);
        let b_pos = text.find("\"b\"").unwrap();
        let a_pos = text.find("\"a\"").unwrap();
        let c_pos = text.find("\"c\"").unwrap();
        assert!(b_pos < a_pos && a_pos < c_pos, "slowest first: {text}");
        let v = debug_requests_value("mcdla-serve", &r, None, Some("simulate"), None);
        let text = serde::json::to_string(&v);
        assert!(text.contains("\"matched\":2"), "{text}");
        assert!(!text.contains("\"b\""));
        let v = debug_requests_value("mcdla-serve", &r, None, None, Some("1"));
        let text = serde::json::to_string(&v);
        assert!(text.contains("\"count\":1"), "{text}");
    }

    #[test]
    fn grafting_appends_a_top_level_key() {
        let body = "{\n  \"count\": 1\n}";
        let out = graft_json(
            body,
            "trace",
            trace_value("mcdla-serve", &rec("x", "grid", 9)),
        );
        assert!(out.contains("\"count\""));
        assert!(out.contains("\"trace\""));
        assert!(out.contains("\"stage.fabric\""));
        // Non-object bodies come back unchanged.
        assert_eq!(graft_json("[1,2]", "trace", Value::Null), "[1,2]");
    }

    #[test]
    fn wide_event_levels_follow_the_outcome() {
        // Slow, shed, timed-out, and 5xx requests are operator-facing.
        assert_eq!(wide_event_level(Some(100), 200, 250_000), Level::Info);
        assert_eq!(wide_event_level(None, 429, 10), Level::Info);
        assert_eq!(wide_event_level(None, 408, 10), Level::Info);
        assert_eq!(wide_event_level(None, 500, 10), Level::Info);
        // Ordinary successes and client errors stay at debug volume.
        assert_eq!(wide_event_level(Some(100), 200, 50_000), Level::Debug);
        assert_eq!(wide_event_level(None, 200, 250_000), Level::Debug);
        assert_eq!(wide_event_level(None, 404, 10), Level::Debug);
    }

    #[test]
    fn wire_error_answer_echoes_a_request_id() {
        let error = WireError {
            status: 408,
            message: "request header took too long".into(),
        };
        let bytes = wire_error_answer("serve", "mcdla-serve", &error);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 408"), "{text}");
        assert!(text.contains("x-mcdla-request-id:"), "{text}");
        assert!(text.contains("connection: close"), "{text}");
        assert!(text.contains("request header took too long"), "{text}");
    }

    #[test]
    fn history_body_zips_series_against_the_timestamps() {
        let dump = HistoryDump {
            timestamps_ms: vec![1000, 2000],
            series: vec![("req_per_s".into(), vec![5.0, 7.0])],
            capacity: 600,
            interval_ms: 1000,
        };
        let text = serde::json::to_string(&history_value("mcdla-serve", &dump));
        assert!(text.contains("\"interval_ms\":1000"), "{text}");
        assert!(text.contains("\"samples\":2"), "{text}");
        assert!(text.contains("\"timestamps_ms\":[1000,2000]"), "{text}");
        assert!(text.contains("\"req_per_s\":[5"), "{text}");
    }

    #[test]
    fn history_query_parses_filter_and_last() {
        let (filter, last) = history_query(Some("series=req_per_s, store.hit_rate,&last=30"));
        assert_eq!(filter, Some(vec!["req_per_s", "store.hit_rate"]));
        assert_eq!(last, Some(30));
        let (filter, last) = history_query(None);
        assert_eq!(filter, None);
        assert_eq!(last, None);
        // A bare or junk `last` is ignored rather than rejected.
        assert_eq!(history_query(Some("last=junk")).1, None);
    }
}
