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
//! Every answer a peer reads has its head read here too, under the same
//! rules: by the event loop's upstream links through [`parse_response`]
//! and by the blocking [`crate::client::Connection`]. Only the body rule
//! differs by reader.

use std::io::Write;
use std::ops::Range;

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
    let Some((head, body_start)) = split_head(buf, "request head")? else {
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
    let total = body_start + framing.sized_body(MAX_BODY_BYTES)?;
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

/// One response head, as `parse_response_head` reads it.
#[derive(Debug)]
pub(crate) struct ResponseHead {
    pub(crate) status: u16,
    pub(crate) framing: Framing,
    /// Where the body starts in the buffer the head was read from.
    pub(crate) body_start: usize,
}

impl ResponseHead {
    /// The response this head starts, with `body` as its body.
    pub(crate) fn with_body(self, body: &[u8]) -> Result<Response, WireError> {
        let body = String::from_utf8(body.to_vec());
        let body = body.map_err(|_| WireError::new(400, "response body is not valid utf-8"))?;
        Ok(Response {
            status: self.status,
            body,
            headers: self.framing.headers,
        })
    }
}

/// Reads the response head at the front of `buf`: a three-digit status,
/// then the headers under the limit, version table and header rules
/// [`parse_request`] reads a request head under. `Ok(None)` while the
/// head is still arriving. Framing the body is the caller's rule.
pub(crate) fn parse_response_head(buf: &[u8]) -> Result<Option<ResponseHead>, WireError> {
    let Some((head, body_start)) = split_head(buf, "response head")? else {
        return Ok(None);
    };
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.split(' ');
    let version = parts.next().unwrap_or("");
    let status = parts.next().filter(|s| s.len() == 3);
    let status = status.and_then(|s| plain_number(s, 10));
    let Some(status) = status.and_then(|n| u16::try_from(n).ok()) else {
        return Err(WireError::new(
            400,
            format!("malformed status line `{status_line}`"),
        ));
    };
    Ok(Some(ResponseHead {
        status,
        framing: framing(version, lines)?,
        body_start,
    }))
}

/// An answer on one of the event loop's upstream links, its body under
/// the request side's rule (no `Transfer-Encoding`, at most
/// `MAX_BODY_BYTES`). `Ok(Some((response, consumed, keep_alive)))`
/// once it is whole; `keep_alive` says whether the link may be reused.
pub fn parse_response(buf: &[u8]) -> Result<Option<(Response, usize, bool)>, WireError> {
    let Some(head) = parse_response_head(buf)? else {
        return Ok(None);
    };
    let total = head.body_start + head.framing.sized_body(MAX_BODY_BYTES)?;
    if buf.len() < total {
        return Ok(None);
    }
    let keep_alive = head.framing.keep_alive;
    let body = &buf[head.body_start..total];
    Ok(Some((head.with_body(body)?, total, keep_alive)))
}

/// The head at the front of `buf` (without its blank line) and the
/// offset its body starts at; `None` while the head is still arriving.
fn split_head<'b>(buf: &'b [u8], what: &str) -> Result<Option<(&'b str, usize)>, WireError> {
    let Some(head_len) = find_bounded(buf, b"\r\n\r\n", what)? else {
        return Ok(None); // incomplete head: keep reading
    };
    let head = std::str::from_utf8(&buf[..head_len])
        .map_err(|_| WireError::new(400, format!("{what} is not valid utf-8")))?;
    Ok(Some((head, head_len + 4)))
}

/// Where `needle` starts within the first [`MAX_HEAD_BYTES`] of `buf`;
/// `Ok(None)` while it may still arrive, a 431 naming `what` after.
fn find_bounded(buf: &[u8], needle: &[u8], what: &str) -> Result<Option<usize>, WireError> {
    let window = &buf[..buf.len().min(MAX_HEAD_BYTES)];
    match window.windows(needle.len()).position(|w| w == needle) {
        None if buf.len() >= MAX_HEAD_BYTES => Err(WireError::new(
            431,
            format!("{what} exceeds the {MAX_HEAD_BYTES}-byte limit"),
        )),
        found => Ok(found),
    }
}

/// `digits` as a number in `radix`, digits only: `parse` alone would
/// take `+5`, which a peer or proxy may frame differently — exactly the
/// disagreement request smuggling exploits.
fn plain_number(digits: &str, radix: u32) -> Option<usize> {
    let plain = !digits.is_empty() && digits.chars().all(|c| c.is_digit(radix));
    plain.then(|| usize::from_str_radix(digits, radix).ok())?
}

/// What a message head says about itself and how its body is framed.
/// Whether that framing is acceptable is each reader's rule.
#[derive(Debug)]
pub(crate) struct Framing {
    /// Every header: name lower-cased, value trimmed, in arrival order.
    pub(crate) headers: Vec<(String, String)>,
    /// The declared `content-length` (0 when none is declared).
    pub(crate) content_length: usize,
    /// The `transfer-encoding`, if any (repeated headers joined by `, `).
    pub(crate) coding: Option<String>,
    pub(crate) keep_alive: bool,
}

impl Framing {
    /// The body length of a message that must declare one: a
    /// `content-length` of at most `limit` bytes (413 past it); any
    /// `Transfer-Encoding`, chunked included, is a 501.
    pub(crate) fn sized_body(&self, limit: usize) -> Result<usize, WireError> {
        if self.coding.is_some() {
            let message = "transfer-encoding is unsupported; send a content-length body";
            return Err(WireError::new(501, message));
        }
        if self.content_length > limit {
            let length = self.content_length;
            let message = format!("body of {length} bytes exceeds the {limit}-byte limit");
            return Err(WireError::new(413, message));
        }
        Ok(self.content_length)
    }

    /// Whether the body is `transfer-encoding: chunked`.
    pub(crate) fn is_chunked(&self) -> bool {
        let coding = self.coding.as_deref();
        coding.is_some_and(|c| c.eq_ignore_ascii_case("chunked"))
    }
}

/// Reads the header `lines` of a message in protocol `version`, under
/// the keep-alive table and header rules [`parse_request`] documents.
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
    let mut coding: Option<String> = None;
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
                let Some(parsed) = plain_number(value, 10) else {
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
                content_length = Some(parsed);
            }
            "transfer-encoding" => {
                coding = Some(match coding {
                    Some(prior) => format!("{prior}, {value}"),
                    None => value.to_owned(),
                });
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
        coding,
        keep_alive,
    })
}

/// The chunk at the front of a chunked body in `buf`: `Ok(Some((data,
/// consumed)))` once it has arrived whole, where `data` is the range of
/// its bytes in `buf` (empty for the terminal chunk) and `consumed`
/// runs past the CRLF that must follow them. `Ok(None)` while it is
/// still arriving. A size over `limit` is refused before its bytes
/// arrive, a size line stops at [`MAX_HEAD_BYTES`], and chunk
/// extensions are ignored. No peer this crate reads sends trailers, so
/// the terminal chunk is `0\r\n\r\n` exactly.
pub(crate) fn parse_chunk(
    buf: &[u8],
    limit: usize,
) -> Result<Option<(Range<usize>, usize)>, WireError> {
    let Some(line_len) = find_bounded(buf, b"\r\n", "chunk size line")? else {
        return Ok(None);
    };
    let line = String::from_utf8_lossy(&buf[..line_len]);
    let Some(size) = plain_number(line.split(';').next().unwrap_or("").trim_end(), 16) else {
        return Err(WireError::new(400, format!("bad chunk size `{line}`")));
    };
    if size > limit {
        let message = format!("chunk of {size} bytes exceeds the {limit}-byte limit");
        return Err(WireError::new(413, message));
    }
    let start = line_len + 2;
    let end = start + size;
    match buf.get(end..end + 2) {
        None => Ok(None),
        Some(b"\r\n") => Ok(Some((start..end, end + 2))),
        Some(_) => Err(WireError::new(
            400,
            format!("chunk of {size} bytes is not followed by CRLF"),
        )),
    }
}

/// The error to answer when the peer stopped sending (EOF or timeout)
/// with an incomplete request in `buf`. `timed_out` selects 408 over
/// the 400 a truncating close earns.
pub(crate) fn incomplete_error(buf: &[u8], timed_out: bool) -> WireError {
    let part = if let Ok(Some(_)) = find_bounded(buf, b"\r\n\r\n", "request head") {
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
    fn chunk_parse_is_incremental_and_checked() {
        let wire = b"5;ext=1\r\nhello\r\n0\r\n\r\n";
        let first = b"5;ext=1\r\nhello\r\n".len();
        for cut in 0..first {
            assert_eq!(parse_chunk(&wire[..cut], 64).unwrap(), None, "{cut}");
        }
        let (data, consumed) = parse_chunk(wire, 64).unwrap().unwrap();
        assert_eq!((&wire[data], consumed), (&b"hello"[..], first));
        let rest = &wire[first..];
        for cut in 0..rest.len() {
            assert_eq!(parse_chunk(&rest[..cut], 64).unwrap(), None, "{cut}");
        }
        assert_eq!(parse_chunk(rest, 64).unwrap(), Some((3..3, 5)));
        for (bad, status) in [
            (&b"5\r\nhelloXY"[..], 400),
            (b"+5\r\nhello\r\n", 400),
            (b"g\r\n", 400),
            (b"41\r\n", 413),
            (b"0\r\ntrailer: x\r\n\r\n", 400),
        ] {
            let err = parse_chunk(bad, 64).unwrap_err();
            assert_eq!(err.status, status, "{}", err.message);
        }
        let long = vec![b'1'; MAX_HEAD_BYTES];
        assert_eq!(parse_chunk(&long, 64).unwrap_err().status, 431);
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
