//! Seeded mutation fuzzing of the blocking client: the response-side
//! twin of `wire_fuzz.rs`. Real answers from a worker — a `/simulate`
//! cell, a chunked `/grid?stream=1` body and a 400 — are mutated at the
//! byte level: truncated, spliced together, given duplicate or
//! conflicting framing headers, oversized sizes, or non-UTF-8 bytes. A
//! stub serves each answer, then closes, once to `request` and once to
//! `request_stream`.
//!
//! For every answer:
//! * each call returns `Ok` or an `Err` naming the problem, within the
//!   client's read deadline, and never panics;
//! * `request` reads exactly what the event loop's `parse_response`
//!   reads from the same bytes — the same response, or an error when it
//!   finds none — because one parser frames both;
//! * the unmutated answers read back whole.
//!
//! The seed is printed with every failure.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mcdla::serve::client::{Connection, Response, Timeouts};
use mcdla::serve::http::parse_response;
use mcdla::serve::{ServeConfig, Server};
use rand::{rngs::StdRng, Rng, SeedableRng};

const SEED: u64 = 0x6d63_646c_615f_7273;
const ITERATIONS: usize = 600;
/// Every phase of every client call is bounded by this.
const DEADLINE: Duration = Duration::from_secs(5);

const CELL: &str = r#"{"design":"McDlaBwAware","benchmark":"AlexNet","strategy":"DataParallel"}"#;
const GRID: &str = r#"{"benchmarks":["AlexNet"],"designs":["DcDla","McDlaBwAware"],"strategies":["DataParallel"]}"#;

/// Sends one request, half-closes, and returns every byte the server
/// answered before closing.
fn capture(addr: &str, method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(DEADLINE)).unwrap();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: fuzz\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut answer = Vec::new();
    stream.read_to_end(&mut answer).unwrap();
    answer
}

/// A worker's real answers: a cell, a two-cell chunked grid and a 400.
fn real_answers() -> Vec<Vec<u8>> {
    let worker = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        sample_ms: Some(0),
        ..ServeConfig::default()
    })
    .unwrap()
    .spawn()
    .unwrap();
    let addr = worker.addr().to_string();
    let answers = vec![
        capture(&addr, "POST", "/simulate", CELL),
        capture(&addr, "POST", "/grid?stream=1", GRID),
        capture(&addr, "POST", "/simulate", "{not json"),
    ];
    worker.shutdown();
    assert!(answers[0].starts_with(b"HTTP/1.1 200 "));
    assert!(find(&answers[1], b"transfer-encoding: chunked\r\n").is_some());
    assert!(answers[2].starts_with(b"HTTP/1.1 400 "));
    answers
}

fn find(bytes: &[u8], needle: &[u8]) -> Option<usize> {
    bytes.windows(needle.len()).position(|w| w == needle)
}

fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

/// Inserts a header line right after the status line.
fn with_header(answer: &[u8], header: &str) -> Vec<u8> {
    let at = find(answer, b"\r\n").map_or(answer.len(), |i| i + 2);
    [&answer[..at], header.as_bytes(), &answer[at..]].concat()
}

/// One mutated answer, named for failure messages.
fn mutate(rng: &mut StdRng, bases: &[Vec<u8>]) -> (&'static str, Vec<u8>) {
    let base = pick(rng, bases).clone();
    match rng.gen_range(0..7u32) {
        0 => ("intact", base),
        1 => ("truncate", base[..rng.gen_range(0..base.len())].to_vec()),
        2 => {
            let other = pick(rng, bases);
            let cut = rng.gen_range(0..=base.len());
            let from = rng.gen_range(0..=other.len());
            ("splice", [&base[..cut], &other[from..]].concat())
        }
        3 => {
            let body = base.len() - find(&base, b"\r\n\r\n").unwrap() - 4;
            let value = match rng.gen_range(0..6u32) {
                0 => body.to_string(),
                1 => rng.gen_range(0..64usize).to_string(),
                2 => format!("+{body}"),
                3 => format!("{body}, {body}"),
                4 => (64 * 1024 * 1024 + 1).to_string(),
                _ => "99999999999999999999999".to_owned(),
            };
            let header = format!("content-length: {value}\r\n");
            ("content-length", with_header(&base, &header))
        }
        4 => {
            let coding = pick(rng, &["chunked", "gzip", "identity", "chunked, chunked"]);
            let header = format!("transfer-encoding: {coding}\r\n");
            ("transfer-encoding", with_header(&base, &header))
        }
        5 => {
            // An oversized size: the first chunk size or content-length
            // value rewritten as a huge number.
            let huge = pick(rng, &["4000000000000000", "ffffffffffffffffff", "4000001"]);
            let head_end = find(&base, b"\r\n\r\n").unwrap() + 4;
            let (at, len) = match find(&base, b"content-length: ") {
                Some(i) if i < head_end => {
                    let at = i + b"content-length: ".len();
                    (at, find(&base[at..], b"\r\n").unwrap())
                }
                _ => (head_end, find(&base[head_end..], b"\r\n").unwrap_or(0)),
            };
            let resized = [&base[..at], huge.as_bytes(), &base[at + len..]].concat();
            ("oversized", resized)
        }
        _ => {
            let mut bytes = base;
            for _ in 0..rng.gen_range(1..4) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = rng.gen_range(0x80..=0xffu8);
            }
            ("non-utf8", bytes)
        }
    }
}

/// A stub that answers each connection's request with the next answer
/// sent down the channel, then closes it; it ends when the channel does.
fn stub() -> (String, mpsc::Sender<Vec<u8>>, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().unwrap().to_string();
    let (tx, rx) = mpsc::channel::<Vec<u8>>();
    let stub = std::thread::spawn(move || {
        for answer in rx {
            let (mut stream, _) = listener.accept().expect("accept");
            stream.set_read_timeout(Some(DEADLINE)).unwrap();
            // Read the whole (body-less) request so closing sends no reset.
            let mut request = Vec::new();
            let mut buf = [0u8; 1024];
            while find(&request, b"\r\n\r\n").is_none() {
                match stream.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => request.extend_from_slice(&buf[..n]),
                }
            }
            // The client may stop reading early; a failed write is fine.
            let _ = stream.write_all(&answer);
        }
    });
    (addr, tx, stub)
}

/// Fails unless `result` is `Ok` or an `Err` with a message.
fn named<T>(result: Result<T, String>, context: &str) -> Option<T> {
    match result {
        Ok(value) => Some(value),
        Err(e) => {
            assert!(!e.trim().is_empty(), "{context}: an error with no message");
            None
        }
    }
}

#[test]
fn mutated_answers_are_read_or_named() {
    let bases = real_answers();
    let (addr, answer, stub) = stub();
    let timeouts = Timeouts::all(DEADLINE);
    let open = || Connection::open_with(&addr, timeouts).expect("connect to the stub");
    let mut rng = StdRng::seed_from_u64(SEED);
    for i in 0..ITERATIONS {
        let (kind, bytes) = mutate(&mut rng, &bases);
        let context = format!("seed {SEED:#x}, answer {i} ({kind}): {:?}", {
            let shown = &bytes[..bytes.len().min(300)];
            String::from_utf8_lossy(shown)
        });

        answer.send(bytes.clone()).unwrap();
        let started = Instant::now();
        let read = named(open().request("GET", "/x", None), &context);
        assert!(started.elapsed() < DEADLINE, "{context}: request hung");
        let expected: Option<Response> = match parse_response(&bytes) {
            Ok(Some((response, _, _))) => Some(response),
            _ => None,
        };
        assert_eq!(
            read, expected,
            "{context}: request and parse_response disagree"
        );

        answer.send(bytes.clone()).unwrap();
        let started = Instant::now();
        let mut conn = open();
        let mut lines = Vec::new();
        if let Some(mut stream) = named(conn.request_stream("GET", "/x", None), &context) {
            while let Some(line) = stream.next_line() {
                match named(line, &context) {
                    Some(line) => lines.push(line),
                    None => break,
                }
            }
        }
        assert!(
            started.elapsed() < DEADLINE,
            "{context}: request_stream hung"
        );

        if kind == "intact" {
            let cells = if bytes == bases[1] { 2 } else { 1 };
            assert_eq!(lines.len(), cells, "{context}: intact answer cut short");
            for line in &lines {
                serde::json::parse(line).unwrap_or_else(|e| panic!("{context}: {e}"));
            }
        }
    }
    drop(answer);
    stub.join().expect("the stub served every answer");
}
