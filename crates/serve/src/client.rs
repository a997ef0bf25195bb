//! A tiny blocking HTTP/1.1 client over `std::net::TcpStream` — just
//! enough to drive `mcdla-serve`: the `mcdla query` subcommand, the
//! service bench, and the wire tests all speak through it. Answers are
//! framed by [`crate::http`]; only the body rule is the client's own.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::http::{parse_chunk, parse_response_head, ResponseHead, MAX_HEAD_BYTES};

/// Most body bytes one response may declare, by `content-length` or by
/// one chunk's size; a larger size is refused before anything is
/// allocated. Requests stop at `http::MAX_BODY_BYTES`, but answers run
/// larger: a buffered grid of [`crate::MAX_GRID_CELLS`] cells is ~9 MB.
const MAX_RESPONSE_BYTES: usize = 64 * 1024 * 1024;

/// One response: status code, body text, and response headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body (the service always answers JSON).
    pub body: String,
    /// Response headers, names lower-cased, in wire order.
    pub headers: Vec<(String, String)>,
}

impl Response {
    /// True for 2xx statuses.
    pub fn is_ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// The first header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Connect/read/write deadlines for a [`Connection`]. A dead or wedged
/// server must never hang a caller forever: every phase of a request has
/// a bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timeouts {
    /// TCP connect deadline, per address tried.
    pub connect: Duration,
    /// Per-read deadline (response head, body, and each stream chunk).
    pub read: Duration,
    /// Per-write deadline (request head + body).
    pub write: Duration,
}

impl Default for Timeouts {
    /// 10 s to connect, 120 s per read (cold cells really simulate),
    /// 30 s per write.
    fn default() -> Self {
        Timeouts {
            connect: Duration::from_secs(10),
            read: Duration::from_secs(120),
            write: Duration::from_secs(30),
        }
    }
}

impl Timeouts {
    /// One deadline for every phase — the CLI's `--timeout-ms N`.
    pub fn all(limit: Duration) -> Self {
        Timeouts {
            connect: limit,
            read: limit,
            write: limit,
        }
    }
}

/// Every socket address `addr` (`host:port`) resolves to, in lookup order.
pub fn resolve(addr: &str) -> Result<Vec<SocketAddr>, String> {
    let found = addr
        .to_socket_addrs()
        .map_err(|e| format!("resolving {addr}: {e}"))?;
    Ok(found.collect())
}

/// A persistent keep-alive connection. Reusing one connection is what
/// makes cached-cell throughput tens of thousands of requests per
/// second instead of paying a TCP handshake per request.
///
/// It owns one socket and one buffer of bytes read but not yet
/// consumed, so pipelined answers carry over from one read to the next.
/// A read that fails or times out shuts the socket down: a later
/// request on it fails rather than taking the late answer as its own.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    inbox: Vec<u8>,
}

impl Connection {
    /// Connects to `host:port` with [`Timeouts::default`] deadlines.
    pub fn open(addr: &str) -> Result<Self, String> {
        Self::open_with(addr, Timeouts::default())
    }

    /// Connects to `host:port` with explicit deadlines.
    pub fn open_with(addr: &str, timeouts: Timeouts) -> Result<Self, String> {
        Self::connect(addr, &resolve(addr)?, timeouts)
    }

    /// Connects to `name` at the first of `addrs`, the addresses it
    /// resolved to, that accepts within the connect deadline, so a
    /// multi-homed name still connects.
    pub fn connect(name: &str, addrs: &[SocketAddr], timeouts: Timeouts) -> Result<Self, String> {
        let mut last_err = format!("resolving {name}: no addresses");
        for addr in addrs {
            match TcpStream::connect_timeout(addr, timeouts.connect) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(Some(timeouts.read));
                    let _ = stream.set_write_timeout(Some(timeouts.write));
                    let inbox = Vec::new();
                    return Ok(Connection { stream, inbox });
                }
                Err(e) => last_err = format!("connecting {name}: {e}"),
            }
        }
        Err(last_err)
    }

    /// Issues one request and reads the full response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Response, String> {
        self.request_with(method, path, &[], body)
    }

    /// Issues one request with extra request headers (e.g. the
    /// propagated `X-Mcdla-Request-Id`) and reads the full response.
    pub fn request_with(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: Option<&str>,
    ) -> Result<Response, String> {
        self.send_request(method, path, headers, body)?;
        self.read_response()
    }

    /// Issues a request expecting a **streamed** (chunked NDJSON)
    /// response — `POST /grid?stream=1` — and returns a line reader over
    /// it. Non-chunked answers (a `400` rejection, say) come back as a
    /// single buffered "line" holding the whole body, so callers check
    /// [`StreamingResponse::status`] first. The connection is reusable
    /// for further requests once every line has been read.
    pub fn request_stream(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<StreamingResponse<'_>, String> {
        self.send_request(method, path, &[], body)?;
        self.read_stream()
    }

    /// Sends a request without reading anything back. Pair with
    /// [`Connection::read_stream`]. This split is what lets a
    /// scatter-gather caller start N servers computing concurrently and
    /// only then drain their streams.
    pub fn start_stream(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(), String> {
        self.send_request(method, path, &[], body)
    }

    /// A second handle on this connection's socket. Shutting it down
    /// from another thread ends a read blocked on this connection at
    /// once, which is how a caller draining several streams stops the
    /// rest when one fails.
    pub fn socket_handle(&self) -> Result<TcpStream, String> {
        self.stream
            .try_clone()
            .map_err(|e| format!("cloning stream: {e}"))
    }

    /// Reads the response head for a request sent with
    /// [`Connection::start_stream`] and returns the stream reader over
    /// its body. Only this path takes a chunked answer.
    pub fn read_stream(&mut self) -> Result<StreamingResponse<'_>, String> {
        let head = self.read_head()?;
        let status = head.status;
        let kind = if head.framing.is_chunked() {
            self.inbox.drain(..head.body_start);
            StreamKind::Chunked {
                conn: self,
                carry: Vec::new(),
                done: false,
            }
        } else {
            StreamKind::Buffered(Some(self.read_body(head)?.body))
        };
        Ok(StreamingResponse { status, kind })
    }

    /// Issues a whole batch of `(method, path, body)` requests as **one
    /// pipelined write** — every request leaves in a single segment,
    /// then all responses are read back in order. This is what pushes
    /// cached-cell throughput past the per-round-trip ceiling: the
    /// server parses and answers back-to-back requests without waiting
    /// for the client to see each response first.
    pub fn request_pipelined(
        &mut self,
        requests: &[(&str, &str, Option<&str>)],
    ) -> Result<Vec<Response>, String> {
        let mut out = Vec::new();
        for (method, path, body) in requests {
            encode_request(&mut out, method, path, &[], *body);
        }
        self.stream
            .write_all(&out)
            .map_err(|e| format!("sending pipelined requests: {e}"))?;
        requests.iter().map(|_| self.read_response()).collect()
    }

    fn send_request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: Option<&str>,
    ) -> Result<(), String> {
        let mut out = Vec::new();
        encode_request(&mut out, method, path, headers, body);
        self.stream
            .write_all(&out)
            .map_err(|e| format!("sending request: {e}"))
    }

    /// Reads one whole answer with a `content-length` body.
    fn read_response(&mut self) -> Result<Response, String> {
        let head = self.read_head()?;
        if head.framing.is_chunked() {
            return Err("unexpected chunked response (use `request_stream`)".into());
        }
        self.read_body(head)
    }

    /// Reads until the inbox holds a whole response head, and parses it.
    fn read_head(&mut self) -> Result<ResponseHead, String> {
        loop {
            if let Some(head) = parse_response_head(&self.inbox).map_err(|e| e.message)? {
                return Ok(head);
            }
            self.fill(if self.inbox.is_empty() {
                "connection closed before the response"
            } else {
                "connection closed mid-head"
            })?;
        }
    }

    /// Reads `head`'s `content-length` body, of at most
    /// [`MAX_RESPONSE_BYTES`], and takes the whole answer off the inbox.
    fn read_body(&mut self, head: ResponseHead) -> Result<Response, String> {
        let length = head.framing.sized_body(MAX_RESPONSE_BYTES);
        let total = head.body_start + length.map_err(|e| e.message)?;
        while self.inbox.len() < total {
            self.fill("connection closed mid-body")?;
        }
        let start = head.body_start;
        let response = head.with_body(&self.inbox[start..total]);
        self.inbox.drain(..total);
        response.map_err(|e| e.message)
    }

    /// Appends the next chunk's data to `out`; `Ok(false)` once the
    /// terminal chunk is read.
    fn read_chunk(&mut self, out: &mut Vec<u8>) -> Result<bool, String> {
        loop {
            if let Some((data, consumed)) =
                parse_chunk(&self.inbox, MAX_RESPONSE_BYTES).map_err(|e| e.message)?
            {
                out.extend_from_slice(&self.inbox[data.clone()]);
                self.inbox.drain(..consumed);
                return Ok(!data.is_empty());
            }
            self.fill("connection closed before the terminal chunk")
                .map_err(|e| format!("stream truncated: {e}"))?;
        }
    }

    /// Reads what the peer sent next (up to a head's worth) onto the
    /// inbox, failing with `eof` at the end of the stream. A failed read
    /// shuts the socket down.
    fn fill(&mut self, eof: &str) -> Result<(), String> {
        let len = self.inbox.len();
        self.inbox.resize(len + MAX_HEAD_BYTES, 0);
        let read = loop {
            match self.stream.read(&mut self.inbox[len..]) {
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                result => break result,
            }
        };
        self.inbox.truncate(len + read.as_ref().map_or(0, |&n| n));
        match read {
            Ok(0) => Err(eof.to_owned()),
            Ok(_) => Ok(()),
            Err(e) => {
                let _ = self.stream.shutdown(Shutdown::Both);
                Err(format!("reading response: {e}"))
            }
        }
    }
}

/// Appends one serialized request to `out` (the unit single writes,
/// pipelined batches and the gateway's loop forwards are built from).
pub fn encode_request(
    out: &mut Vec<u8>,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<&str>,
) {
    let body = body.unwrap_or("");
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: mcdla-serve\r\n");
    for (name, value) in headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
    out.reserve(head.len() + body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body.as_bytes());
}

/// A streamed (`?stream=1`) response: the status plus a reader yielding
/// one NDJSON line at a time, reassembled across chunk boundaries.
///
/// A stream whose connection closes before the terminal `0`-length chunk
/// was **truncated** — the server died or cancelled mid-flight — and
/// surfaces as an `Err` line, never as a silent clean end.
///
/// Dropping a partially-read stream drains the remaining chunks first,
/// so the borrowed [`Connection`] stays framed and reusable for the
/// next request (a reader abandoned mid-chunk would otherwise leave
/// chunk bytes where the next response head is expected).
#[derive(Debug)]
pub struct StreamingResponse<'a> {
    /// HTTP status code of the response head.
    pub status: u16,
    kind: StreamKind<'a>,
}

#[derive(Debug)]
enum StreamKind<'a> {
    /// A non-chunked answer (e.g. a 400 rejection): the whole body as
    /// one pending "line".
    Buffered(Option<String>),
    Chunked {
        conn: &'a mut Connection,
        carry: Vec<u8>,
        done: bool,
    },
}

impl StreamingResponse<'_> {
    /// The next line of the stream: `None` after a clean terminal chunk,
    /// `Some(Err(..))` on truncation or malformed framing.
    #[allow(clippy::should_implement_trait)] // borrows the connection; not an owned Iterator
    pub fn next_line(&mut self) -> Option<Result<String, String>> {
        match &mut self.kind {
            StreamKind::Buffered(body) => body.take().filter(|b| !b.is_empty()).map(Ok),
            StreamKind::Chunked { conn, carry, done } => loop {
                let line = match carry.iter().position(|&b| b == b'\n') {
                    Some(pos) => {
                        let rest = carry.split_off(pos + 1);
                        let mut line = std::mem::replace(carry, rest);
                        line.pop();
                        line
                    }
                    None if *done && carry.is_empty() => return None,
                    None if *done => std::mem::take(carry),
                    None => {
                        match conn.read_chunk(carry) {
                            Ok(more) => *done = !more,
                            Err(e) => {
                                *done = true;
                                carry.clear();
                                return Some(Err(e));
                            }
                        }
                        continue;
                    }
                };
                let line = String::from_utf8(line);
                return Some(line.map_err(|_| "stream line is not valid utf-8".to_owned()));
            },
        }
    }

    /// Drains the stream, collecting every remaining line.
    pub fn collect_lines(mut self) -> Result<Vec<String>, String> {
        let mut lines = Vec::new();
        while let Some(line) = self.next_line() {
            lines.push(line?);
        }
        Ok(lines)
    }

    /// Consumes the stream **without** draining the unread tail (unlike
    /// a plain drop). The connection is left mid-response and must be
    /// closed, not reused — closing is exactly what a caller wants when
    /// aborting: the server observes the disconnect and cancels the
    /// remaining cells instead of computing them for a drain.
    pub fn abandon(mut self) {
        if let StreamKind::Chunked { carry, done, .. } = &mut self.kind {
            carry.clear();
            *done = true;
        }
    }
}

impl Drop for StreamingResponse<'_> {
    fn drop(&mut self) {
        if let StreamKind::Chunked { conn, carry, done } = &mut self.kind {
            // Consume the unread tail (terminal chunk included) so the
            // connection's next response starts on a frame boundary. A
            // read error here means the connection is already broken —
            // the next request will surface that on its own.
            while !*done {
                carry.clear();
                *done = !matches!(conn.read_chunk(carry), Ok(true));
            }
        }
    }
}

/// One-shot convenience: open, request, close.
pub fn request_once(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<Response, String> {
    Connection::open(addr)?.request(method, path, body)
}

/// One-shot convenience with explicit deadlines.
pub fn request_once_with(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeouts: Timeouts,
) -> Result<Response, String> {
    Connection::open_with(addr, timeouts)?.request(method, path, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A stub server that answers each connection's request with the
    /// next of `answers`, then closes it.
    fn stub_server(answers: Vec<String>) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for answer in answers {
                let (mut stream, _) = listener.accept().expect("accept");
                let mut buf = [0u8; 4096];
                let _ = stream.read(&mut buf);
                let _ = stream.write_all(answer.as_bytes());
            }
        });
        addr
    }

    #[test]
    fn sizes_the_peer_declares_are_bounded_before_allocating() {
        let huge = 1usize << 62;
        let long_header = "a".repeat(MAX_HEAD_BYTES);
        let sized = format!("HTTP/1.1 200 OK\r\ncontent-length: {huge}\r\n\r\n");
        let answers = vec![
            format!("HTTP/1.1 200 OK\r\nx-pad: {long_header}\r\n\r\n"),
            sized.clone(),
            sized,
            format!("HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n{huge:x}\r\n"),
        ];
        let addr = stub_server(answers);
        let head_limit = format!("exceeds the {MAX_HEAD_BYTES}-byte limit");
        let body_limit = format!("exceeds the {MAX_RESPONSE_BYTES}-byte limit");

        let mut conn = Connection::open(&addr).unwrap();
        let err = conn.request("GET", "/stats", None).unwrap_err();
        assert!(err.contains(&head_limit), "{err}");
        let mut conn = Connection::open(&addr).unwrap();
        let err = conn.request("GET", "/stats", None).unwrap_err();
        assert!(err.contains(&body_limit), "{err}");
        let mut conn = Connection::open(&addr).unwrap();
        let err = conn.request_stream("POST", "/grid", None).unwrap_err();
        assert!(err.contains(&body_limit), "{err}");
        let mut conn = Connection::open(&addr).unwrap();
        let mut stream = conn.request_stream("POST", "/grid", None).unwrap();
        let err = stream.next_line().expect("a line").unwrap_err();
        assert!(err.contains(&body_limit), "{err}");
    }

    #[test]
    fn framing_headers_the_parser_refuses_are_named() {
        let cases = [
            ("content-length: +5\r\n\r\nhello", "bad content-length `+5`"),
            (
                "content-length: 5\r\ncontent-length: 4\r\n\r\nhello",
                "conflicting content-length headers (5 then 4)",
            ),
            (
                "transfer-encoding: gzip\r\n\r\nhello",
                "transfer-encoding is unsupported",
            ),
        ];
        let answers = cases
            .iter()
            .flat_map(|(rest, _)| {
                let answer = format!("HTTP/1.1 200 OK\r\n{rest}");
                [answer.clone(), answer]
            })
            .collect();
        let addr = stub_server(answers);
        for (_, problem) in cases {
            let mut conn = Connection::open(&addr).unwrap();
            let err = conn.request("GET", "/stats", None).unwrap_err();
            assert!(err.contains(problem), "{err}");
            let mut conn = Connection::open(&addr).unwrap();
            let err = conn.request_stream("POST", "/grid", None).unwrap_err();
            assert!(err.contains(problem), "{err}");
        }
    }

    #[test]
    fn a_chunk_not_followed_by_crlf_is_named() {
        let answer = "HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n5\r\nhelloXY0\r\n\r\n";
        let addr = stub_server(vec![answer.to_owned()]);
        let mut conn = Connection::open(&addr).unwrap();
        let mut stream = conn.request_stream("POST", "/grid", None).unwrap();
        let err = stream.next_line().expect("a line").unwrap_err();
        assert!(
            err.contains("chunk of 5 bytes is not followed by CRLF"),
            "{err}"
        );
        assert_eq!(stream.next_line(), None);
    }

    #[test]
    fn a_close_before_the_status_line_is_named() {
        let addr = stub_server(vec![String::new()]);
        let err = request_once(&addr, "GET", "/healthz", None).unwrap_err();
        assert_eq!(err, "connection closed before the response");
    }
}
