//! A tiny blocking HTTP/1.1 client over `std::net::TcpStream` — just
//! enough to drive `mcdla-serve`: the `mcdla query` subcommand, the
//! service bench, and the wire tests all speak through it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

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

    /// The first header with this name (lower-cased lookup).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why one request on a connection failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// What went wrong, naming the phase (`sending request: ...`).
    pub message: String,
    /// The peer closed or reset the connection before the first byte of
    /// an answer (see [`peer_closed`]). A deadline, a refused connect
    /// or a malformed answer is never this. On a reused keep-alive
    /// connection it means the connection went stale, not the server.
    pub closed_early: bool,
}

/// Whether an I/O error means the peer closed or reset the connection
/// (as opposed to a deadline passing or a local failure). Every client
/// of a keep-alive connection — the blocking [`Connection`] and the
/// gateway's event loop — classifies with this one rule.
pub fn peer_closed(error: &std::io::Error) -> bool {
    use std::io::ErrorKind::{BrokenPipe, ConnectionAborted, ConnectionReset, UnexpectedEof};
    matches!(
        error.kind(),
        BrokenPipe | ConnectionAborted | ConnectionReset | UnexpectedEof
    )
}

/// Connect/read/write deadlines for a [`Connection`]. A dead or wedged
/// server must never hang a caller forever: every phase of a request has
/// a bound (`None` disables that bound, for callers that really do want
/// to wait out an arbitrarily long simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timeouts {
    /// TCP connect deadline.
    pub connect: Option<Duration>,
    /// Per-read deadline (response head, body, and each stream chunk).
    pub read: Option<Duration>,
    /// Per-write deadline (request head + body).
    pub write: Option<Duration>,
}

impl Default for Timeouts {
    /// 10 s to connect, 120 s per read (cold cells really simulate),
    /// 30 s per write.
    fn default() -> Self {
        Timeouts {
            connect: Some(Duration::from_secs(10)),
            read: Some(Duration::from_secs(120)),
            write: Some(Duration::from_secs(30)),
        }
    }
}

impl Timeouts {
    /// One deadline for every phase — the CLI's `--timeout-ms N`.
    pub fn all(limit: Duration) -> Self {
        Timeouts {
            connect: Some(limit),
            read: Some(limit),
            write: Some(limit),
        }
    }
}

/// A persistent keep-alive connection. Reusing one connection is what
/// makes cached-cell throughput tens of thousands of requests per
/// second instead of paying a TCP handshake per request.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Connection {
    /// Connects to `host:port` with [`Timeouts::default`] deadlines.
    pub fn open(addr: &str) -> Result<Self, String> {
        Self::open_with(addr, Timeouts::default())
    }

    /// Connects to `host:port` with explicit deadlines.
    pub fn open_with(addr: &str, timeouts: Timeouts) -> Result<Self, String> {
        let stream = match timeouts.connect {
            Some(limit) => {
                // `connect_timeout` needs resolved addresses; try each in
                // turn so a multi-homed name still connects.
                let resolved: Vec<_> = addr
                    .to_socket_addrs()
                    .map_err(|e| format!("resolving {addr}: {e}"))?
                    .collect();
                let mut last_err = format!("resolving {addr}: no addresses");
                let mut stream = None;
                for candidate in resolved {
                    match TcpStream::connect_timeout(&candidate, limit) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(e) => last_err = format!("connecting {addr}: {e}"),
                    }
                }
                stream.ok_or(last_err)?
            }
            None => TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?,
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(timeouts.read);
        let _ = stream.set_write_timeout(timeouts.write);
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("cloning stream: {e}"))?,
        );
        Ok(Connection { stream, reader })
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
        self.exchange(method, path, headers, body)
            .map_err(|e| e.message)
    }

    /// [`Connection::request_with`], telling a connection the peer
    /// closed before answering ([`RequestError::closed_early`]) apart
    /// from every other failure.
    pub fn exchange(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: Option<&str>,
    ) -> Result<Response, RequestError> {
        let mut out = Vec::new();
        encode_request(&mut out, method, path, headers, body);
        let failed = |message: String, closed_early| RequestError {
            message,
            closed_early,
        };
        if let Err(e) = self.stream.write_all(&out) {
            return Err(failed(format!("sending request: {e}"), peer_closed(&e)));
        }
        // The first response byte is the line between a connection that
        // closed before answering and one that failed mid-answer.
        match self.reader.fill_buf() {
            Ok([]) => {
                let message = "connection closed before the response".to_owned();
                return Err(failed(message, true));
            }
            Ok(_) => {}
            Err(e) => return Err(failed(format!("reading status line: {e}"), peer_closed(&e))),
        }
        self.read_response()
            .map_err(|message| failed(message, false))
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
        self.send_request(method, path, body)?;
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
        self.send_request(method, path, body)
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
    /// its body.
    pub fn read_stream(&mut self) -> Result<StreamingResponse<'_>, String> {
        let Head {
            status,
            content_length,
            chunked,
            ..
        } = read_response_head(&mut self.reader)?;
        if chunked {
            Ok(StreamingResponse {
                status,
                kind: StreamKind::Chunked {
                    reader: &mut self.reader,
                    carry: Vec::new(),
                    done: false,
                },
            })
        } else {
            let mut body = vec![0u8; content_length];
            self.reader
                .read_exact(&mut body)
                .map_err(|e| format!("reading body: {e}"))?;
            let body = String::from_utf8(body).map_err(|_| "body is not valid utf-8".to_owned())?;
            Ok(StreamingResponse {
                status,
                kind: StreamKind::Buffered(Some(body)),
            })
        }
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

    fn send_request(&mut self, method: &str, path: &str, body: Option<&str>) -> Result<(), String> {
        let mut out = Vec::new();
        encode_request(&mut out, method, path, &[], body);
        self.stream
            .write_all(&out)
            .map_err(|e| format!("sending request: {e}"))
    }

    fn read_response(&mut self) -> Result<Response, String> {
        let Head {
            status,
            content_length,
            chunked,
            headers,
        } = read_response_head(&mut self.reader)?;
        if chunked {
            return Err("unexpected chunked response (use `request_stream`)".into());
        }
        let mut body = vec![0u8; content_length];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| format!("reading body: {e}"))?;
        Ok(Response {
            status,
            body: String::from_utf8(body).map_err(|_| "body is not valid utf-8".to_owned())?,
            headers,
        })
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

/// One parsed response head.
struct Head {
    status: u16,
    content_length: usize,
    chunked: bool,
    headers: Vec<(String, String)>,
}

/// Reads one response head, collecting every header (names lower-cased).
fn read_response_head(reader: &mut BufReader<TcpStream>) -> Result<Head, String> {
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| format!("reading status line: {e}"))?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line `{}`", status_line.trim_end()))?;

    let mut content_length = 0usize;
    let mut chunked = false;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("reading headers: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-headers".into());
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim();
            if name == "content-length" {
                content_length = value
                    .parse()
                    .map_err(|_| format!("bad content-length `{value}`"))?;
            } else if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
                chunked = true;
            }
            headers.push((name, value.to_owned()));
        }
    }
    Ok(Head {
        status,
        content_length,
        chunked,
        headers,
    })
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
        reader: &'a mut BufReader<TcpStream>,
        carry: Vec<u8>,
        done: bool,
    },
}

impl StreamingResponse<'_> {
    /// The next line of the stream: `None` after a clean terminal chunk,
    /// `Some(Err(..))` on truncation or malformed framing.
    #[allow(clippy::should_implement_trait)] // borrows self.reader; not an owned Iterator
    pub fn next_line(&mut self) -> Option<Result<String, String>> {
        match &mut self.kind {
            StreamKind::Buffered(body) => body.take().filter(|b| !b.is_empty()).map(Ok),
            StreamKind::Chunked {
                reader,
                carry,
                done,
            } => loop {
                if let Some(pos) = carry.iter().position(|&b| b == b'\n') {
                    let rest = carry.split_off(pos + 1);
                    let mut line = std::mem::replace(carry, rest);
                    line.pop();
                    return Some(
                        String::from_utf8(line)
                            .map_err(|_| "stream line is not valid utf-8".to_owned()),
                    );
                }
                if *done {
                    if carry.is_empty() {
                        return None;
                    }
                    let line = std::mem::take(carry);
                    return Some(
                        String::from_utf8(line)
                            .map_err(|_| "stream line is not valid utf-8".to_owned()),
                    );
                }
                match read_chunk(reader) {
                    Ok(Some(data)) => carry.extend_from_slice(&data),
                    Ok(None) => *done = true,
                    Err(e) => {
                        *done = true;
                        carry.clear();
                        return Some(Err(e));
                    }
                }
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
        if let StreamKind::Chunked { reader, done, .. } = &mut self.kind {
            // Consume the unread tail (terminal chunk included) so the
            // connection's next response starts on a frame boundary. A
            // read error here means the connection is already broken —
            // the next request will surface that on its own.
            while !*done {
                match read_chunk(reader) {
                    Ok(Some(_)) => {}
                    Ok(None) | Err(_) => *done = true,
                }
            }
        }
    }
}

/// Reads one chunk body; `Ok(None)` is the clean terminal chunk.
fn read_chunk(reader: &mut BufReader<TcpStream>) -> Result<Option<Vec<u8>>, String> {
    let mut size_line = String::new();
    let n = reader
        .read_line(&mut size_line)
        .map_err(|e| format!("reading chunk size: {e}"))?;
    if n == 0 {
        return Err("stream truncated: connection closed before the terminal chunk".into());
    }
    let size_str = size_line.trim_end().split(';').next().unwrap_or("").trim();
    let size = usize::from_str_radix(size_str, 16)
        .map_err(|_| format!("bad chunk size `{}`", size_line.trim_end()))?;
    if size == 0 {
        // Trailer section: lines until the blank terminator.
        loop {
            let mut line = String::new();
            let n = reader
                .read_line(&mut line)
                .map_err(|e| format!("reading chunk trailer: {e}"))?;
            if n == 0 || line.trim_end().is_empty() {
                break;
            }
        }
        return Ok(None);
    }
    let mut data = vec![0u8; size];
    reader
        .read_exact(&mut data)
        .map_err(|e| format!("stream truncated mid-chunk: {e}"))?;
    let mut crlf = [0u8; 2];
    reader
        .read_exact(&mut crlf)
        .map_err(|e| format!("stream truncated after a chunk: {e}"))?;
    Ok(Some(data))
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
