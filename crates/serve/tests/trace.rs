//! End-to-end tracing contract against a real server: request-id
//! propagation and echo, `?trace=1` span trees, the reconciliation of
//! span counts with the staged engine's hit/miss counters, and the
//! `/debug/trace/<id>` + `/debug/requests` flight-recorder surface.
//!
//! This file is its own test binary (own process) on purpose: the
//! staged engine's tables are process-global, and the reconciliation
//! below compares counter deltas around a single request.

use mcdla_serve::client::Connection;
use mcdla_serve::{ServeConfig, Server, ServerHandle};
use serde::Value;

const RID_HEADER: &str = "x-mcdla-request-id";

/// A scenario no other test in this binary touches, so its first
/// `/simulate` is a genuine cold cell.
const CELL: &str =
    r#"{"design":"McDlaBwAware","benchmark":"GoogLeNet","strategy":"DataParallel","batch":272}"#;

fn start() -> (ServerHandle, String) {
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    })
    .expect("bind ephemeral server");
    let handle = server.spawn().expect("spawn event loop");
    let addr = handle.addr().to_string();
    (handle, addr)
}

/// `(stage, hits + misses)` per staged-engine table, scraped from
/// `GET /stats`.
fn stage_work(conn: &mut Connection) -> Vec<(String, u64)> {
    let resp = conn.request("GET", "/stats", None).expect("stats");
    assert_eq!(resp.status, 200);
    let parsed = serde::json::parse(&resp.body).expect("stats JSON");
    parsed
        .get("store")
        .and_then(|s| s.get("stages"))
        .and_then(|s| s.as_seq())
        .expect("store.stages")
        .iter()
        .map(|stage| {
            let name = stage.get("stage").and_then(|v| v.as_str()).unwrap();
            let hits = stage.get("hits").and_then(|v| v.as_u64()).unwrap();
            let misses = stage.get("misses").and_then(|v| v.as_u64()).unwrap();
            (name.to_owned(), hits + misses)
        })
        .collect()
}

/// Span names in a trace object, in recording order.
fn span_names(trace: &Value) -> Vec<String> {
    trace
        .get("spans")
        .and_then(|s| s.as_seq())
        .expect("trace.spans")
        .iter()
        .map(|s| s.get("name").and_then(|v| v.as_str()).unwrap().to_owned())
        .collect()
}

#[test]
fn traced_simulate_reconciles_spans_with_stage_counters() {
    let (handle, addr) = start();
    let mut conn = Connection::open(&addr).expect("open");

    // --- Cold request: every engine stage does one unit of work. ---
    let before = stage_work(&mut conn);
    let resp = conn
        .request_with(
            "POST",
            "/simulate?trace=1",
            &[(RID_HEADER, "trace-reconcile-cold")],
            Some(CELL),
        )
        .expect("cold traced simulate");
    assert_eq!(resp.status, 200, "{}", resp.body);
    // The response echoes the propagated request id.
    assert_eq!(resp.header(RID_HEADER), Some("trace-reconcile-cold"));
    let after = stage_work(&mut conn);

    let parsed = serde::json::parse(&resp.body).expect("simulate JSON");
    // The simulation payload is intact alongside the graft.
    assert!(parsed.get("report").is_some(), "{}", resp.body);
    let trace = parsed.get("trace").expect("trace grafted into the body");
    assert_eq!(
        trace.get("id").and_then(|v| v.as_str()),
        Some("trace-reconcile-cold")
    );
    assert_eq!(
        trace.get("endpoint").and_then(|v| v.as_str()),
        Some("simulate")
    );
    assert_eq!(trace.get("status").and_then(|v| v.as_u64()), Some(200));

    let names = span_names(trace);
    assert!(
        names.iter().any(|n| n == "store.get_or_compute"),
        "{names:?}"
    );
    assert!(names.iter().any(|n| n == "engine.simulate"), "{names:?}");

    // Reconcile: for each spanned stage table, the number of `stage.X`
    // spans in this trace equals the table's (hits + misses) delta
    // around the request. The per-op `collective` table runs inside the
    // `sync` section and is deliberately not spanned.
    for (stage, work_before) in &before {
        if stage == "collective" {
            continue;
        }
        let work_after = after
            .iter()
            .find(|(s, _)| s == stage)
            .map(|(_, w)| *w)
            .unwrap();
        let spans = names
            .iter()
            .filter(|n| **n == format!("stage.{stage}"))
            .count() as u64;
        assert_eq!(
            spans,
            work_after - work_before,
            "stage `{stage}`: {spans} spans vs {} lookups ({names:?})",
            work_after - work_before
        );
    }

    // --- Cached request: answered from the ResultStore, so the staged
    // engine never runs and the trace has no stage spans. ---
    let resp = conn
        .request_with(
            "POST",
            "/simulate?trace=1",
            &[(RID_HEADER, "trace-reconcile-warm")],
            Some(CELL),
        )
        .expect("warm traced simulate");
    assert_eq!(resp.status, 200);
    let parsed = serde::json::parse(&resp.body).expect("simulate JSON");
    let names = span_names(parsed.get("trace").expect("warm trace"));
    assert!(
        names.iter().any(|n| n == "store.get_or_compute"),
        "{names:?}"
    );
    assert!(
        !names.iter().any(|n| n.starts_with("stage.")),
        "a cached answer must not re-run engine stages: {names:?}"
    );

    // --- The flight recorder replays both traces. ---
    let rec = conn
        .request("GET", "/debug/trace/trace-reconcile-cold", None)
        .expect("debug trace");
    assert_eq!(rec.status, 200);
    let rec = serde::json::parse(&rec.body).expect("trace JSON");
    assert!(
        span_names(&rec).iter().any(|n| n == "engine.simulate"),
        "{}",
        serde::json::to_string(&rec)
    );

    let listing = conn
        .request("GET", "/debug/requests?endpoint=simulate&sort=slow", None)
        .expect("debug requests");
    assert_eq!(listing.status, 200);
    assert!(
        listing.body.contains("trace-reconcile-cold"),
        "{}",
        listing.body
    );
    assert!(
        listing.body.contains("trace-reconcile-warm"),
        "{}",
        listing.body
    );

    // An id the recorder never saw is a 404, not a panic.
    let missing = conn
        .request("GET", "/debug/trace/no-such-id", None)
        .expect("missing trace");
    assert_eq!(missing.status, 404);

    // Untraced responses carry no graft but still echo a generated id.
    let plain = conn
        .request("POST", "/simulate", Some(CELL))
        .expect("plain simulate");
    assert_eq!(plain.status, 200);
    assert!(!plain.body.contains("\"trace\""));
    let generated = plain.header(RID_HEADER).expect("generated request id");
    assert_eq!(generated.len(), 16, "generated id: {generated}");

    handle.shutdown();
}

#[test]
fn metrics_expose_request_and_stage_histograms() {
    let (handle, addr) = start();
    let mut conn = Connection::open(&addr).expect("open");
    // One request so the simulate endpoint histogram has a count.
    let resp = conn
        .request(
            "POST",
            "/simulate",
            Some(r#"{"design":"DcDla","benchmark":"AlexNet","strategy":"DataParallel"}"#),
        )
        .expect("simulate");
    assert_eq!(resp.status, 200, "{}", resp.body);

    let metrics = conn.request("GET", "/metrics", None).expect("metrics");
    assert_eq!(metrics.status, 200);
    let text = &metrics.body;
    for family in [
        "# TYPE mcdla_request_seconds histogram",
        "# TYPE mcdla_stage_seconds histogram",
        "mcdla_request_seconds_bucket{endpoint=\"simulate\",le=\"+Inf\"}",
        "mcdla_request_seconds_sum{endpoint=\"simulate\"}",
        "mcdla_request_seconds_count{endpoint=\"simulate\"}",
        "mcdla_stage_seconds_bucket{stage=\"fabric\",le=\"+Inf\"}",
        "mcdla_build_info{",
        "mcdla_uptime_seconds",
    ] {
        assert!(text.contains(family), "metrics missing `{family}`:\n{text}");
    }
    // The simulate endpoint saw at least one request.
    let count_line = text
        .lines()
        .find(|l| l.starts_with("mcdla_request_seconds_count{endpoint=\"simulate\"}"))
        .expect("simulate count line");
    let count: f64 = count_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(count >= 1.0, "{count_line}");

    // /healthz and /stats carry uptime + build info.
    let health = conn.request("GET", "/healthz", None).expect("healthz");
    assert!(health.body.contains("uptime_seconds"), "{}", health.body);
    assert!(health.body.contains("\"build\""), "{}", health.body);
    let stats = conn.request("GET", "/stats", None).expect("stats");
    assert!(stats.body.contains("uptime_seconds"), "{}", stats.body);
    assert!(stats.body.contains("\"recorder\""), "{}", stats.body);

    handle.shutdown();
}

/// The `/debug/requests?sort=slow` listing is a *total* order even when
/// racing writers fed the flight recorder: `total_us`
/// non-increasing, and within equal latencies `seq` strictly
/// decreasing (newest first). No pair of entries is ever incomparable
/// or duplicated.
#[test]
fn slow_sorted_listing_is_a_total_order_under_concurrent_writers() {
    let (handle, addr) = start();
    // Race cheap requests from several connections: healthz latencies
    // cluster in the same microsecond buckets, so ties are guaranteed.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let addr = addr.clone();
            scope.spawn(move || {
                let mut conn = Connection::open(&addr).expect("open");
                for _ in 0..100 {
                    let resp = conn.request("GET", "/healthz", None).expect("healthz");
                    assert_eq!(resp.status, 200);
                }
            });
        }
    });

    let mut conn = Connection::open(&addr).expect("open");
    let resp = conn
        .request("GET", "/debug/requests?sort=slow&limit=500", None)
        .expect("listing");
    assert_eq!(resp.status, 200);
    let parsed = serde::json::parse(&resp.body).expect("listing JSON");
    let requests = parsed
        .get("requests")
        .and_then(|v| v.as_seq())
        .expect("requests array");
    assert!(
        requests.len() >= 400,
        "all 400 raced requests are retained (cap 1024), got {}",
        requests.len()
    );
    let keys: Vec<(u64, u64)> = requests
        .iter()
        .map(|r| {
            (
                r.get("total_us")
                    .and_then(|v| v.as_u64())
                    .expect("total_us"),
                r.get("seq").and_then(|v| v.as_u64()).expect("seq"),
            )
        })
        .collect();
    for pair in keys.windows(2) {
        let ((us_a, seq_a), (us_b, seq_b)) = (pair[0], pair[1]);
        assert!(
            us_a > us_b || (us_a == us_b && seq_a > seq_b),
            "listing must be strictly ordered by (total_us desc, seq desc): \
             ({us_a}, {seq_a}) then ({us_b}, {seq_b})"
        );
    }
    handle.shutdown();
}

/// The worker's `/metrics/history` surface: the sampler populates the
/// rings, timestamps are monotone, and `?series=`/`?last=` filter and
/// bound the answer.
#[test]
fn metrics_history_serves_filtered_bounded_monotone_rings() {
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        sample_ms: Some(40),
        ..ServeConfig::default()
    })
    .expect("bind sampled server");
    let handle = server.spawn().expect("spawn event loop");
    let addr = handle.addr().to_string();
    let mut conn = Connection::open(&addr).expect("open");

    // Generate traffic across two sampler windows.
    for _ in 0..50 {
        let resp = conn.request("GET", "/healthz", None).expect("healthz");
        assert_eq!(resp.status, 200);
    }
    std::thread::sleep(std::time::Duration::from_millis(150));

    let resp = conn
        .request("GET", "/metrics/history", None)
        .expect("history");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let parsed = serde::json::parse(&resp.body).expect("history JSON");
    assert_eq!(
        parsed.get("service").and_then(|v| v.as_str()),
        Some("mcdla-serve")
    );
    let samples = parsed
        .get("samples")
        .and_then(|v| v.as_u64())
        .expect("samples");
    assert!(samples >= 2, "sampler at 40 ms must have ticked: {samples}");
    let stamps: Vec<u64> = parsed
        .get("timestamps_ms")
        .and_then(|v| v.as_seq())
        .expect("timestamps_ms")
        .iter()
        .map(|v| v.as_u64().expect("stamp"))
        .collect();
    assert_eq!(stamps.len() as u64, samples);
    assert!(
        stamps.windows(2).all(|w| w[0] <= w[1]),
        "timestamps must be monotone: {stamps:?}"
    );
    let series = parsed
        .get("series")
        .and_then(|v| v.as_map())
        .expect("series map");
    for name in [
        "req_per_s",
        "healthz.req_per_s",
        "store.hit_rate",
        "rss_bytes",
    ] {
        let ring = series
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_seq())
            .unwrap_or_else(|| panic!("series {name} missing"));
        assert_eq!(ring.len() as u64, samples, "every ring spans every sample");
    }
    // The 50 healthz requests show up in some window of their series.
    let healthz_peak = series
        .iter()
        .find(|(k, _)| k == "healthz.req_per_s")
        .and_then(|(_, v)| v.as_seq())
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap())
        .fold(0.0f64, f64::max);
    assert!(healthz_peak > 0.0, "healthz traffic must register");

    // ?series= filters, ?last= bounds.
    let resp = conn
        .request("GET", "/metrics/history?series=req_per_s&last=2", None)
        .expect("filtered history");
    let parsed = serde::json::parse(&resp.body).expect("filtered JSON");
    let series = parsed
        .get("series")
        .and_then(|v| v.as_map())
        .expect("filtered series");
    assert_eq!(series.len(), 1, "series filter must drop other rings");
    assert_eq!(series[0].0, "req_per_s");
    let bounded = parsed.get("samples").and_then(|v| v.as_u64()).unwrap();
    assert!(bounded <= 2, "last=2 must bound samples, got {bounded}");

    handle.shutdown();
}
