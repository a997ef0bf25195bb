//! A minimal, dependency-free HTTP/1.1 wire layer: request and
//! response parsing with hard size limits, and JSON response writing.
//!
//! This is deliberately a small subset of HTTP — exactly what
//! `mcdla-serve` speaks (see `docs/protocol.md`): `GET`/`POST`,
//! `Content-Length` bodies, keep-alive by default. Everything malformed,
//! truncated, oversized, or unsupported maps to a 4xx/5xx [`WireError`]
//! rather than a panic; the wire tests in `tests/wire.rs` pin that.
//!
//! The primary entry point is [`parse_request`]: an incremental,
//! buffer-oriented parser the epoll event loop calls against each
//! connection's inbox. Requests that are smuggling-shaped — conflicting
//! duplicate `Content-Length` headers, any `Transfer-Encoding` — are
//! rejected outright (400/501) so unread body bytes can never be
//! re-parsed as a pipelined request. Keep-alive follows a strict
//! version table (see [`parse_request`]); anything that is not a known
//! `HTTP/1.x` version is served conservatively or refused.
//! [`parse_response`] is its twin for the gateway's non-blocking
//! upstream connections.

use std::io::Write;

use crate::client::Response;

/// Maximum accepted request-head size (request line + headers).
pub(crate) const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Maximum accepted request-body size.
pub(crate) const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, upper-case as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request target path (query strings are kept verbatim).
    pub path: String,
    /// Decoded body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default unless `Connection: close`).
    pub keep_alive: bool,
    /// All request headers, names lower-cased, values trimmed, in
    /// arrival order.
    pub headers: Vec<(String, String)>,
}

impl Request {
    /// The first header with the given (case-insensitive) name.
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// A wire-level failure, carrying the HTTP status the server should
/// answer with before closing the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Response status code (4xx/5xx; 408 for idle-timeout reads).
    pub status: u16,
    /// Human-readable cause, sent back as `{"error": ...}`.
    pub message: String,
}

impl WireError {
    /// A wire error with the status the connection should answer
    /// before closing.
    pub(crate) fn new(status: u16, message: impl Into<String>) -> Self {
        WireError {
            status,
            message: message.into(),
        }
    }
}

/// Tries to parse one complete request from the front of `buf`.
///
/// Returns `Ok(Some((request, consumed)))` when a full head + body is
/// present — the caller drains `consumed` bytes and may call again for
/// the next pipelined request. `Ok(None)` means the buffer holds only a
/// request prefix so far: keep reading. `Err` names the 4xx/5xx to
/// answer with before closing the connection (a parse error leaves the
/// stream position undefined, so errors always close).
///
/// Keep-alive follows a per-version table:
///
/// | version            | default     | honored opt-outs/ins          |
/// |--------------------|-------------|-------------------------------|
/// | `HTTP/1.1`         | keep-alive  | `Connection: close`           |
/// | `HTTP/1.0`         | close       | `Connection: keep-alive`      |
/// | other `HTTP/1.x`   | close       | none (served, then closed)    |
/// | anything else      | —           | rejected with 400             |
///
/// Smuggling-shaped requests are rejected: conflicting duplicate
/// `Content-Length` headers and non-numeric lengths are 400, any
/// `Transfer-Encoding` (chunked included) is 501.
pub fn parse_request(buf: &[u8]) -> Result<Option<(Request, usize)>, WireError> {
    let Some((head, body_start)) = split_head(buf, "request")? else {
        return Ok(None);
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (Some(method), Some(path), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(WireError::new(
            400,
            format!("malformed request line `{request_line}`"),
        ));
    };
    if method.is_empty() || path.is_empty() {
        return Err(WireError::new(
            400,
            format!("malformed request line `{request_line}`"),
        ));
    }
    let framing = framing(version, lines)?;
    let total = body_start + framing.content_length;
    if buf.len() < total {
        return Ok(None); // body still arriving
    }
    Ok(Some((
        Request {
            method: method.to_owned(),
            path: path.to_owned(),
            body: buf[body_start..total].to_vec(),
            keep_alive: framing.keep_alive,
            headers: framing.headers,
        },
        total,
    )))
}

/// The response-side twin of [`parse_request`], for a client reading
/// answers off a non-blocking socket: the same head and body limits,
/// the same keep-alive table and the same framing rules, so a
/// `Transfer-Encoding` answer is refused rather than misread. Returns
/// `Ok(Some((response, consumed, keep_alive)))` once a whole response
/// is buffered; `keep_alive` says whether the connection may carry
/// another request.
pub fn parse_response(buf: &[u8]) -> Result<Option<(Response, usize, bool)>, WireError> {
    let Some((head, body_start)) = split_head(buf, "response")? else {
        return Ok(None);
    };
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.split(' ');
    let (Some(version), Some(status)) = (parts.next(), parts.next()) else {
        return Err(WireError::new(
            400,
            format!("malformed status line `{status_line}`"),
        ));
    };
    let status: u16 = status
        .parse()
        .map_err(|_| WireError::new(400, format!("malformed status line `{status_line}`")))?;
    let framing = framing(version, lines)?;
    let total = body_start + framing.content_length;
    if buf.len() < total {
        return Ok(None);
    }
    let body = String::from_utf8(buf[body_start..total].to_vec())
        .map_err(|_| WireError::new(400, "response body is not valid utf-8"))?;
    let response = Response {
        status,
        body,
        headers: framing.headers,
    };
    Ok(Some((response, total, framing.keep_alive)))
}

/// The head at the front of `buf` (without its blank line) and the
/// offset its body starts at; `None` while the head is still arriving.
fn split_head<'b>(buf: &'b [u8], what: &str) -> Result<Option<(&'b str, usize)>, WireError> {
    let window = &buf[..buf.len().min(MAX_HEAD_BYTES)];
    let Some(head_len) = find_head_end(window) else {
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(WireError::new(
                431,
                format!("{what} head exceeds the {MAX_HEAD_BYTES}-byte limit"),
            ));
        }
        return Ok(None); // incomplete head: keep reading
    };
    let head = std::str::from_utf8(&buf[..head_len])
        .map_err(|_| WireError::new(400, format!("{what} head is not valid utf-8")))?;
    Ok(Some((head, head_len + 4)))
}

/// What a message head says about its own framing.
struct Framing {
    headers: Vec<(String, String)>,
    content_length: usize,
    keep_alive: bool,
}

/// Reads the header `lines` of a message in protocol `version`, under
/// the keep-alive table and framing rules [`parse_request`] documents.
fn framing<'h>(version: &str, lines: impl Iterator<Item = &'h str>) -> Result<Framing, WireError> {
    // The keep-alive version table. Unknown HTTP/1.x minors are served
    // conservatively: one response, then close — their keep-alive
    // semantics are not ours to guess.
    let mut keep_alive = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        v if is_http_1x(v) => false,
        _ => {
            return Err(WireError::new(
                400,
                format!("unsupported protocol version `{version}`"),
            ));
        }
    };
    let may_keep_alive = matches!(version, "HTTP/1.0" | "HTTP/1.1");

    let mut content_length: Option<usize> = None;
    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(WireError::new(400, format!("malformed header `{line}`")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        headers.push((name.clone(), value.to_owned()));
        match name.as_str() {
            "content-length" => {
                // Digits only: `parse::<usize>` alone would accept
                // `+5`, which proxies may read differently — exactly
                // the disagreement request smuggling exploits.
                let parsed = if !value.is_empty() && value.bytes().all(|b| b.is_ascii_digit()) {
                    value.parse::<usize>().ok()
                } else {
                    None
                };
                let Some(parsed) = parsed else {
                    return Err(WireError::new(400, format!("bad content-length `{value}`")));
                };
                // Duplicate Content-Length headers that agree are
                // tolerated; a conflict means the peer and any
                // intermediary may frame the body differently, so 400.
                if let Some(prior) = content_length {
                    if prior != parsed {
                        return Err(WireError::new(
                            400,
                            format!("conflicting content-length headers ({prior} then {parsed})"),
                        ));
                    }
                }
                if parsed > MAX_BODY_BYTES {
                    return Err(WireError::new(
                        413,
                        format!("body of {parsed} bytes exceeds the {MAX_BODY_BYTES}-byte limit"),
                    ));
                }
                content_length = Some(parsed);
            }
            "transfer-encoding" => {
                return Err(WireError::new(
                    501,
                    "transfer-encoding is unsupported; send a content-length body",
                ));
            }
            "connection" if value.eq_ignore_ascii_case("close") => keep_alive = false,
            "connection" if value.eq_ignore_ascii_case("keep-alive") && may_keep_alive => {
                keep_alive = true;
            }
            _ => {}
        }
    }
    Ok(Framing {
        headers,
        content_length: content_length.unwrap_or(0),
        keep_alive,
    })
}

/// The error to answer when the peer stopped sending (EOF or timeout)
/// with an incomplete request in `buf`. `timed_out` selects 408 over
/// the 400 a truncating close earns.
pub(crate) fn incomplete_error(buf: &[u8], timed_out: bool) -> WireError {
    let part = if find_head_end(&buf[..buf.len().min(MAX_HEAD_BYTES)]).is_some() {
        "body"
    } else {
        "head"
    };
    if timed_out {
        WireError::new(408, format!("timed out reading the request {part}"))
    } else {
        WireError::new(400, format!("truncated request {part}"))
    }
}

/// Byte offset of the `\r\n\r\n` head terminator (length of the head
/// without the terminator), or `None` when it has not arrived yet.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// True for `HTTP/1.<digits>` versions other than the two we know.
fn is_http_1x(version: &str) -> bool {
    version
        .strip_prefix("HTTP/1.")
        .is_some_and(|minor| !minor.is_empty() && minor.bytes().all(|b| b.is_ascii_digit()))
}

/// The canonical reason phrase for the statuses this service answers.
pub(crate) fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Splits a request target into its path and optional query string
/// (`/grid?stream=1` → `("/grid", Some("stream=1"))`).
pub(crate) fn split_target(target: &str) -> (&str, Option<&str>) {
    match target.split_once('?') {
        Some((path, query)) => (path, Some(query)),
        None => (target, None),
    }
}

/// True when a query string carries `key=1` or a bare `key` flag.
pub(crate) fn query_flag(query: Option<&str>, key: &str) -> bool {
    query.unwrap_or("").split('&').any(|pair| {
        pair == key || pair.strip_prefix(key).and_then(|r| r.strip_prefix('=')) == Some("1")
    })
}

/// The value of `key=...` in a query string (`None` when absent or
/// bare). No percent-decoding — the values this service reads are
/// plain tokens (`sort=slow`, `endpoint=grid`, `limit=50`).
pub(crate) fn query_param<'q>(query: Option<&'q str>, key: &str) -> Option<&'q str> {
    query?
        .split('&')
        .find_map(|pair| pair.split_once('=').filter(|(k, _)| *k == key))
        .map(|(_, v)| v)
}

/// Starts a chunked NDJSON response: status line and headers (`extra_headers`
/// carry the request-id echo) only; the body follows as [`write_chunk`]
/// calls ended by [`finish_chunked`].
pub(crate) fn write_chunked_head_with(
    w: &mut impl Write,
    status: u16,
    extra_headers: &[(&str, &str)],
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/x-ndjson\r\ntransfer-encoding: chunked\r\nconnection: {connection}\r\n",
        reason(status),
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    w.write_all(head.as_bytes())
}

/// Writes one HTTP/1.1 chunk (`{len:x}\r\n{data}\r\n`). Empty data is
/// skipped — a zero-length chunk would terminate the stream. The size
/// line, the data and the trailer are three writes, so frame into a
/// buffer: on an unbuffered socket each write costs a syscall.
pub(crate) fn write_chunk(w: &mut impl Write, data: &[u8]) -> std::io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    write!(w, "{:x}\r\n", data.len())?;
    w.write_all(data)?;
    w.write_all(b"\r\n")
}

/// Terminates a chunked response (the `0\r\n\r\n` final chunk). A stream
/// that closes without this marker was truncated mid-flight — that is
/// how clients detect a server-side failure after the 200 head.
pub(crate) fn finish_chunked(w: &mut impl Write) -> std::io::Result<()> {
    w.write_all(b"0\r\n\r\n")?;
    w.flush()
}

/// Writes one response with its content type and extra headers (the
/// `X-Mcdla-Request-Id` echo).
pub(crate) fn write_response_with(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    // One buffered write per response keeps cached-cell latency low.
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {connection}\r\n",
        reason(status),
        body.len(),
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = Vec::with_capacity(head.len() + body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body.as_bytes());
    w.write_all(&out)?;
    w.flush()
}

/// The `{"error": message}` JSON body every failure answers with.
pub(crate) fn error_body(message: &str) -> String {
    serde::json::to_string(&serde::Value::Map(vec![(
        "error".into(),
        serde::Value::Str(message.into()),
    )]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `bytes` as everything a peer sent before closing: a
    /// request cut short earns the 400 the event loop answers at EOF.
    fn parse(bytes: &[u8]) -> Result<Option<Request>, WireError> {
        match parse_request(bytes)? {
            Some((request, _)) => Ok(Some(request)),
            None if bytes.is_empty() => Ok(None),
            None => Err(incomplete_error(bytes, false)),
        }
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(b"POST /simulate HTTP/1.1\r\ncontent-length: 4\r\n\r\nbody")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/simulate");
        assert_eq!(req.body, b"body");
        assert!(req.keep_alive);
    }

    #[test]
    fn headers_are_retained_case_insensitively() {
        let req = parse(
            b"POST /simulate HTTP/1.1\r\nX-Mcdla-Request-Id: abc123\r\ncontent-length: 0\r\n\r\n",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.header("x-mcdla-request-id"), Some("abc123"));
        assert_eq!(req.header("X-MCDLA-REQUEST-ID"), Some("abc123"));
        assert_eq!(req.header("absent"), None);
    }

    #[test]
    fn query_params_parse() {
        assert_eq!(
            query_param(Some("sort=slow&endpoint=grid"), "sort"),
            Some("slow")
        );
        assert_eq!(
            query_param(Some("sort=slow&endpoint=grid"), "endpoint"),
            Some("grid")
        );
        assert_eq!(query_param(Some("sort"), "sort"), None);
        assert_eq!(query_param(None, "sort"), None);
    }

    #[test]
    fn extra_headers_are_written() {
        let mut out = Vec::new();
        write_response_with(
            &mut out,
            200,
            "application/json",
            &[("x-mcdla-request-id", "deadbeef")],
            "{}",
            true,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("x-mcdla-request-id: deadbeef\r\n"));
        let mut out = Vec::new();
        write_chunked_head_with(&mut out, 200, &[("x-mcdla-request-id", "cafe")], true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("x-mcdla-request-id: cafe\r\n"));
        assert!(text.ends_with("\r\n\r\n"));
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive);
        let req = parse(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn clean_eof_is_none() {
        assert_eq!(parse(b"").unwrap(), None);
    }

    #[test]
    fn keep_alive_version_table() {
        // (version, extra header, expected keep_alive) — the table in
        // the parse_request docs, pinned.
        let cases: &[(&str, &str, bool)] = &[
            ("HTTP/1.1", "", true),
            ("HTTP/1.1", "Connection: close\r\n", false),
            ("HTTP/1.1", "Connection: keep-alive\r\n", true),
            ("HTTP/1.0", "", false),
            ("HTTP/1.0", "Connection: keep-alive\r\n", true),
            ("HTTP/1.0", "Connection: close\r\n", false),
            // Unknown HTTP/1.x minors: served, but never kept alive —
            // not even with an explicit Connection: keep-alive.
            ("HTTP/1.2", "", false),
            ("HTTP/1.2", "Connection: keep-alive\r\n", false),
            ("HTTP/1.9", "", false),
            ("HTTP/1.12", "", false),
        ];
        for &(version, extra, expect) in cases {
            let raw = format!("GET /healthz {version}\r\n{extra}\r\n");
            let req = parse(raw.as_bytes()).unwrap().unwrap();
            assert_eq!(req.keep_alive, expect, "{version} + {extra:?}");
        }
        // Not HTTP/1.x at all: refused outright.
        for version in ["HTTP/2.0", "HTTP/1.", "HTTP/1.x", "ICY/1.1"] {
            let raw = format!("GET /healthz {version}\r\n\r\n");
            assert_eq!(parse(raw.as_bytes()).unwrap_err().status, 400, "{version}");
        }
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        let err = parse(b"POST /x HTTP/1.1\r\ncontent-length: 4\r\ncontent-length: 2\r\n\r\nbody")
            .unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("conflicting"), "{}", err.message);
        // Duplicates that agree are tolerated.
        let req = parse(b"POST /x HTTP/1.1\r\ncontent-length: 4\r\ncontent-length: 4\r\n\r\nbody")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn content_length_is_digits_only() {
        for bad in ["+4", "-4", " 4 x", "4,4", "0x4", ""] {
            let raw = format!("POST /x HTTP/1.1\r\ncontent-length: {bad}\r\n\r\nbody");
            assert_eq!(parse(raw.as_bytes()).unwrap_err().status, 400, "`{bad}`");
        }
    }

    #[test]
    fn buffer_parse_is_incremental_and_pipelined() {
        let wire = b"POST /simulate HTTP/1.1\r\ncontent-length: 4\r\n\r\nbodyGET /healthz HTTP/1.1\r\n\r\n";
        // Every strict prefix of the first request parses as None.
        let first_len = b"POST /simulate HTTP/1.1\r\ncontent-length: 4\r\n\r\nbody".len();
        for cut in 0..first_len {
            assert_eq!(
                parse_request(&wire[..cut]).unwrap(),
                None,
                "prefix of {cut} bytes"
            );
        }
        // The full buffer yields the first request and its exact size.
        let (req, consumed) = parse_request(wire).unwrap().unwrap();
        assert_eq!(req.path, "/simulate");
        assert_eq!(req.body, b"body");
        assert_eq!(consumed, first_len);
        // The remainder is the second pipelined request.
        let (req2, consumed2) = parse_request(&wire[consumed..]).unwrap().unwrap();
        assert_eq!(req2.path, "/healthz");
        assert_eq!(consumed + consumed2, wire.len());
    }

    #[test]
    fn response_parse_is_incremental_and_bounded() {
        let wire = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: keep-alive\r\n\r\n{}";
        for cut in 0..wire.len() {
            assert!(parse_response(&wire[..cut]).unwrap().is_none(), "{cut}");
        }
        let (resp, consumed, keep_alive) = parse_response(wire).unwrap().unwrap();
        assert_eq!((resp.status, resp.body.as_str()), (200, "{}"));
        assert_eq!(resp.header("Content-Length"), Some("2"));
        assert_eq!((consumed, keep_alive), (wire.len(), true));
        // The request side's keep-alive table and framing rules hold.
        let close = b"HTTP/1.1 502 Bad Gateway\r\nconnection: close\r\n\r\n";
        let (resp, _, keep_alive) = parse_response(close).unwrap().unwrap();
        assert_eq!((resp.status, keep_alive), (502, false));
        let http10 = b"HTTP/1.0 200 OK\r\n\r\n";
        assert!(!parse_response(http10).unwrap().unwrap().2);
        for bad in [
            &b"HTTP/1.1 2x0 OK\r\n\r\n"[..],
            b"HTTP/2 200 OK\r\n\r\n",
            b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n",
            b"HTTP/1.1 200 OK\r\ncontent-length: 1\r\ncontent-length: 2\r\n\r\n",
            b"HTTP/1.1 200 OK\r\ncontent-length: 1\r\n\r\n\xff",
        ] {
            assert!(
                parse_response(bad).is_err(),
                "{:?}",
                String::from_utf8_lossy(bad)
            );
        }
        let huge = format!(
            "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(parse_response(huge.as_bytes()).unwrap_err().status, 413);
        let mut head = b"HTTP/1.1 200 OK\r\n".to_vec();
        head.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 8));
        assert_eq!(parse_response(&head).unwrap_err().status, 431);
    }

    #[test]
    fn incomplete_errors_name_head_or_body() {
        let e = incomplete_error(b"GET /x HT", false);
        assert_eq!((e.status, e.message.contains("head")), (400, true));
        let e = incomplete_error(b"POST /x HTTP/1.1\r\ncontent-length: 9\r\n\r\nhi", false);
        assert_eq!((e.status, e.message.contains("body")), (400, true));
        let e = incomplete_error(b"GET /x HT", true);
        assert_eq!(e.status, 408);
    }

    #[test]
    fn truncation_is_a_400() {
        assert_eq!(parse(b"GET /healthz HTT").unwrap_err().status, 400);
        let err =
            parse(b"POST /simulate HTTP/1.1\r\ncontent-length: 100\r\n\r\nshort").unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("truncated"));
    }

    #[test]
    fn malformed_inputs_name_their_4xx() {
        assert_eq!(parse(b"NOT-HTTP\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse(b"GET /x HTTP/2.0\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(
            parse(b"GET /x HTTP/1.1\r\nbad header line\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            parse(b"POST /x HTTP/1.1\r\ncontent-length: lots\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            parse(b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n")
                .unwrap_err()
                .status,
            501
        );
    }

    #[test]
    fn oversized_inputs_are_bounded() {
        let huge = format!(
            "POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(parse(huge.as_bytes()).unwrap_err().status, 413);
        let mut head = b"GET /x HTTP/1.1\r\n".to_vec();
        head.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 8));
        assert_eq!(parse(&head).unwrap_err().status, 431);
    }

    #[test]
    fn responses_carry_length_and_connection() {
        let mut out = Vec::new();
        write_response_with(
            &mut out,
            200,
            "application/json",
            &[],
            "{\"ok\":true}",
            true,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));
    }

    #[test]
    fn error_bodies_are_json() {
        assert_eq!(error_body("boom"), "{\"error\":\"boom\"}");
    }

    #[test]
    fn target_splitting_and_flags() {
        assert_eq!(split_target("/grid"), ("/grid", None));
        assert_eq!(split_target("/grid?stream=1"), ("/grid", Some("stream=1")));
        assert_eq!(split_target("/g?a=1&b=2"), ("/g", Some("a=1&b=2")));
        assert!(query_flag(Some("stream=1"), "stream"));
        assert!(query_flag(Some("x=2&stream"), "stream"));
        assert!(!query_flag(Some("stream=0"), "stream"));
        assert!(!query_flag(Some("streamer=1"), "stream"));
        assert!(!query_flag(None, "stream"));
    }

    #[test]
    fn chunked_framing_round_trips() {
        let mut out = Vec::new();
        write_chunked_head_with(&mut out, 200, &[], true).unwrap();
        write_chunk(&mut out, b"{\"a\":1}\n").unwrap();
        write_chunk(&mut out, b"").unwrap(); // skipped, not a terminator
        write_chunk(&mut out, b"{\"b\":2}\n").unwrap();
        finish_chunked(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("transfer-encoding: chunked\r\n"));
        assert!(text.contains("content-type: application/x-ndjson\r\n"));
        let body = text.split_once("\r\n\r\n").unwrap().1;
        assert_eq!(body, "8\r\n{\"a\":1}\n\r\n8\r\n{\"b\":2}\n\r\n0\r\n\r\n");
    }
}
