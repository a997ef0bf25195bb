//! Seeded mutation fuzzing of both serving tiers. Valid requests are
//! mutated at the byte level — spliced together, truncated, given
//! duplicate or conflicting framing headers, salted with non-UTF-8
//! bytes, nested deeply, or sent with a random method and path — and
//! each input goes to the worker or the gateway of a one-worker fleet.
//!
//! For every input:
//! * every answer is a well-formed HTTP/1.1 response with an allowed
//!   status (never 500 or 502) carrying `x-mcdla-request-id`, and the
//!   bytes end exactly where the last response does (a clean close);
//! * when the input was one complete request and the server kept the
//!   connection open, a valid `POST /simulate` pipelined behind it
//!   answers with the in-process `cell_value` body;
//! * `GET /healthz` on a fresh connection still answers 200.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use mcdla::cluster::{spawn_local_fleet, FleetConfig};
use mcdla::core::{Scenario, SystemDesign};
use mcdla::dnn::Benchmark;
use mcdla::parallel::ParallelStrategy;
use mcdla::serve::client::request_once;
use mcdla::serve::http::parse_request;
use rand::{rngs::StdRng, Rng, SeedableRng};

const SEED: u64 = 0x6d63_646c_615f_667a;
const ITERATIONS: usize = 240;
const ALLOWED: &[u16] = &[200, 400, 404, 405, 408, 413, 429, 431, 501];

fn raw(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nhost: fuzz\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Valid requests over cheap analytical cells, for both tiers.
fn base_requests(cells: &[Scenario]) -> Vec<Vec<u8>> {
    let grid = r#"{"benchmarks":["AlexNet"],"designs":["DcDla","McDlaBwAware"],"strategies":["DataParallel"]}"#;
    let mut bases: Vec<Vec<u8>> = cells
        .iter()
        .map(|c| raw("POST", "/simulate", &serde::json::to_string(c)))
        .collect();
    bases.push(raw("POST", "/grid", grid));
    bases.push(raw("POST", "/grid?stream=1", grid));
    for path in [
        "/healthz",
        "/stats",
        "/metrics",
        "/metrics/history?last=2",
        "/cluster/stats",
        "/debug/requests?limit=2",
    ] {
        bases.push(raw("GET", path, ""));
    }
    bases
}

fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

/// Inserts a header line right after the request line.
fn with_header(request: &[u8], header: &str) -> Vec<u8> {
    let at = request
        .windows(2)
        .position(|w| w == b"\r\n")
        .map_or(request.len(), |i| i + 2);
    [&request[..at], header.as_bytes(), &request[at..]].concat()
}

/// One mutated input, named for failure messages.
fn mutate(rng: &mut StdRng, bases: &[Vec<u8>]) -> (&'static str, Vec<u8>) {
    let base = pick(rng, bases).clone();
    match rng.gen_range(0..7u32) {
        0 => {
            let other = pick(rng, bases);
            let cut = rng.gen_range(0..=base.len());
            let from = rng.gen_range(0..=other.len());
            ("splice", [&base[..cut], &other[from..]].concat())
        }
        1 => ("truncate", base[..rng.gen_range(0..base.len())].to_vec()),
        2 => {
            let len = base.len() - base.windows(4).position(|w| w == b"\r\n\r\n").unwrap() - 4;
            let value = if rng.gen_bool(0.5) {
                len
            } else {
                rng.gen_range(0..64)
            };
            let header = format!("content-length: {value}\r\n");
            ("content-length", with_header(&base, &header))
        }
        3 => {
            let coding = pick(rng, &["chunked", "gzip", "identity", "x\u{1}y"]);
            let header = format!("transfer-encoding: {coding}\r\n");
            ("transfer-encoding", with_header(&base, &header))
        }
        4 => {
            let mut bytes = base;
            for _ in 0..rng.gen_range(1..4) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = rng.gen_range(0x80..=0xffu8);
            }
            ("non-utf8", bytes)
        }
        5 => {
            let depth = rng.gen_range(64..20_000);
            let unit = if rng.gen_bool(0.5) { "[" } else { "{\"a\":" };
            let path = pick(rng, &["/simulate", "/grid", "/grid?stream=1"]);
            ("nesting", raw("POST", path, &unit.repeat(depth)))
        }
        _ => {
            let method = pick(
                rng,
                &["GET", "POST", "PUT", "DELETE", "HEAD", "OPTIONS", "G\tT"],
            );
            let path = pick(
                rng,
                &[
                    "/simulate",
                    "/grid",
                    "/stats",
                    "/debug/trace/x",
                    "/nope",
                    "/%ff",
                    "*",
                ],
            );
            let body_at = base.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
            let body = String::from_utf8_lossy(&base[body_at..]).into_owned();
            ("method-path", raw(method, path, &body))
        }
    }
}

/// One parsed response.
struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        let found = self.headers.iter().find(|(k, _)| k == name);
        found.map(|(_, v)| v.as_str())
    }
}

fn find(bytes: &[u8], needle: &[u8]) -> Option<usize> {
    bytes.windows(needle.len()).position(|w| w == needle)
}

/// Splits a byte stream into complete responses; any leftover is an
/// error (a response cut off mid-frame is not a clean close).
fn parse_replies(mut rest: &[u8]) -> Result<Vec<Reply>, String> {
    let mut replies = Vec::new();
    while !rest.is_empty() {
        let head_end = find(rest, b"\r\n\r\n").ok_or("response head never ends")?;
        let head = std::str::from_utf8(&rest[..head_end]).map_err(|_| "non-UTF-8 head")?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status = status_line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .ok_or(format!("bad status line `{status_line}`"))?;
        let headers: Vec<(String, String)> = lines
            .map(|l| l.split_once(": ").ok_or(format!("bad header `{l}`")))
            .map(|h| h.map(|(k, v)| (k.to_ascii_lowercase(), v.to_owned())))
            .collect::<Result<_, _>>()?;
        let mut reply = Reply {
            status,
            headers,
            body: Vec::new(),
        };
        rest = &rest[head_end + 4..];
        if let Some(len) = reply.header("content-length") {
            let len: usize = len.parse().map_err(|_| "bad content-length")?;
            if rest.len() < len {
                return Err(format!("body cut at {} of {len} bytes", rest.len()));
            }
            reply.body = rest[..len].to_vec();
            rest = &rest[len..];
        } else if reply.header("transfer-encoding") == Some("chunked") {
            loop {
                let line_end = find(rest, b"\r\n").ok_or("chunk size never ends")?;
                let size = std::str::from_utf8(&rest[..line_end]).unwrap_or("?");
                let size = usize::from_str_radix(size, 16).map_err(|_| "bad chunk size")?;
                let chunk = rest.get(line_end + 2..line_end + 4 + size);
                let chunk = chunk.ok_or("chunk cut short")?;
                rest = &rest[line_end + 4 + size..];
                if size == 0 {
                    break;
                }
                reply.body.extend_from_slice(&chunk[..size]);
            }
        } else {
            return Err("response without framing".into());
        }
        replies.push(reply);
    }
    Ok(replies)
}

/// Sends `bytes`, half-closes, and reads until the server closes.
fn send_half_closed(addr: &str, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // The server may answer and close before reading everything.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    out
}

#[test]
fn mutated_requests_never_break_either_tier() {
    let fleet = spawn_local_fleet(&FleetConfig {
        workers: 1,
        probe_interval: None,
        sample_ms: Some(0),
        ..FleetConfig::default()
    })
    .unwrap();
    let targets = [
        ("worker", fleet.worker_addrs()[0].clone()),
        ("gateway", fleet.gateway_addr().to_string()),
    ];
    let cells: Vec<Scenario> = [
        (SystemDesign::DcDla, Benchmark::AlexNet),
        (SystemDesign::McDlaBwAware, Benchmark::AlexNet),
        (SystemDesign::McDlaBwAware, Benchmark::GoogLeNet),
    ]
    .into_iter()
    .map(|(d, b)| Scenario::new(d, b, ParallelStrategy::DataParallel))
    .collect();
    let probe = &cells[0];
    let probe_body = serde::json::to_string(probe);
    let expected =
        serde::json::to_string_pretty(&mcdla::serve::cell_value(probe, &probe.simulate(), true));
    // Warm every base cell so pipelined probes answer `cached: true`.
    for cell in &cells {
        let body = serde::json::to_string(cell);
        let resp = request_once(&targets[0].1, "POST", "/simulate", Some(&body)).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
    }

    let bases = base_requests(&cells);
    let mut rng = StdRng::seed_from_u64(SEED);
    for i in 0..ITERATIONS {
        let (tier, addr) = &targets[i % 2];
        let (kind, input) = mutate(&mut rng, &bases);
        let context = format!("input {i} ({kind}) to the {tier}: {:?}", {
            let shown = &input[..input.len().min(300)];
            String::from_utf8_lossy(shown)
        });
        // One complete request gets a valid probe pipelined behind it.
        let framed = matches!(parse_request(&input), Ok(Some((_, n))) if n == input.len());
        let mut sent = input.clone();
        if framed {
            sent.extend(raw("POST", "/simulate", &probe_body));
        }
        let replies = parse_replies(&send_half_closed(addr, &sent))
            .unwrap_or_else(|e| panic!("{context}: malformed answer: {e}"));
        for reply in &replies {
            assert!(
                ALLOWED.contains(&reply.status),
                "{context}: status {}",
                reply.status
            );
            assert!(
                reply.header("x-mcdla-request-id").is_some(),
                "{context}: no request id"
            );
        }
        let kept_open = replies
            .first()
            .is_some_and(|r| r.header("connection") == Some("keep-alive"));
        if framed && kept_open {
            let probe_reply = replies
                .get(1)
                .unwrap_or_else(|| panic!("{context}: pipelined probe unanswered"));
            assert_eq!(probe_reply.status, 200, "{context}");
            assert_eq!(
                String::from_utf8_lossy(&probe_reply.body),
                expected,
                "{context}: probe body"
            );
        }
        let health = request_once(addr, "GET", "/healthz", None)
            .unwrap_or_else(|e| panic!("{context}: healthz failed: {e}"));
        assert_eq!(health.status, 200, "{context}: healthz");
    }
    fleet.shutdown();
}
