//! The shared serving core both servers in this workspace run on: a
//! non-blocking readiness loop over raw epoll (the `epoll` module)
//! that owns every connection's I/O, plus a bounded worker pool that
//! owns the blocking work. Both tiers plug in the same `Service` trait, the
//! node shell in [`crate::node`] — everything about accepting, parsing,
//! pipelining, load-shedding, timeouts, and teardown lives here once.
//!
//! ## Architecture
//!
//! The loop thread runs `epoll_wait` over the listener, an eventfd
//! waker, and its live connections, held in a generation-tagged slab
//! (O(1) insert/remove off a free list — this replaces the old
//! `ConnRegistry`'s linear slot scan under one mutex). Bytes read from
//! a connection land in its per-connection inbox; [`parse_request`]
//! consumes complete requests off the front, so HTTP/1.1 pipelining
//! falls out naturally and a request split across TCP segments just
//! waits for its missing bytes.
//!
//! Parsed requests take one of four paths:
//!
//! * **fast**: `Service::fast` answers inline on the loop thread
//!   (cheap GETs, cache hits) — the response bytes go out through the
//!   connection's outbox, many per wakeup.
//! * **forward**: the service hands back request bytes for another
//!   server (the gateway's `/simulate`). The loop sends them over one of
//!   its own non-blocking keep-alive *links* to that upstream, in the
//!   same epoll set, reads the answer with [`parse_response`], and lets
//!   `Service::forward` judge each attempt — answer, or try another
//!   upstream. The client connection stays attached and stops parsing
//!   until its answer is queued, so pipelined responses keep their
//!   order. At most `MAX_IDLE` links per upstream stay parked.
//! * **heavy**: the connection is *detached* — deregistered from epoll,
//!   switched to blocking — and shipped with its unparsed inbox to the
//!   worker pool behind a bounded admission queue. The worker answers
//!   with the existing blocking handler code (`Service::handle`),
//!   then re-attaches the connection to the loop through a mailbox +
//!   waker. One heavy request per connection is in flight at a time,
//!   and a re-attached connection's next request re-enters the queue at
//!   the tail: that is the per-client fairness policy.
//! * **shed**: when the admission queue is full, `Service::shed`
//!   answers 429 + `Retry-After` inline and the connection stays open.
//!   Forwards in flight count against the same bound.
//!
//! The loop also owns the timers the old thread-per-connection stack
//! delegated to `SO_RCVTIMEO`: idle keep-alive connections close
//! silently after `idle_timeout`, a connection stuck mid-request
//! (slow header or body) is answered 408 after `request_timeout`, and
//! an upstream attempt fails once its connect, write or read deadline
//! passes.

use std::collections::VecDeque;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use crate::client::{Response, Timeouts};
use crate::epoll::{
    connect_nonblocking, Epoll, Event, Waker, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::http::{incomplete_error, parse_request, parse_response, Request, WireError};

/// Token delivered for the listener.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Token delivered for the loop's eventfd waker.
const TOKEN_WAKER: u64 = u64::MAX - 1;
/// Slot bit that marks an upstream link's token (client connection
/// slots never reach it).
const LINK_BIT: usize = 1 << 31;

/// Outbox backlog (bytes) past which a connection stops being read —
/// backpressure for pipelined clients that send faster than they drain.
const OUTBOX_HIGH_WATER: usize = 256 * 1024;

/// Inbox cap: one maximal request (head + body) plus slack. A buffer
/// this full with no complete request in it is rejected by the parser's
/// own limits, so the cap never wedges a legitimate request.
const INBOX_CAP: usize = crate::http::MAX_HEAD_BYTES + crate::http::MAX_BODY_BYTES + 16;

/// Most connections accepted per listener wakeup, so one accept flood
/// cannot starve live connections of loop time.
const ACCEPT_BURST: usize = 256;

/// Blocking-write ceiling for detached connections, so a worker thread
/// cannot wedge forever behind a dead client mid-response.
const WORKER_WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Parked keep-alive links kept per upstream. One released beyond this
/// is closed.
const MAX_IDLE: usize = 16;

/// A response the event loop can send without leaving the loop thread.
#[derive(Debug)]
pub(crate) struct FastAnswer {
    /// The complete serialized response (status line through body).
    pub bytes: Vec<u8>,
    /// Whether the connection stays open afterwards.
    pub keep_alive: bool,
}

/// A request the loop forwards upstream for the service.
#[derive(Debug)]
pub(crate) struct Forward<F> {
    /// The client's request (for the 429 when admission fails, and for
    /// the answer).
    pub request: Request,
    /// The bytes to send upstream, the same for every attempt.
    pub upstream: Vec<u8>,
    /// The service's per-forward state.
    pub state: F,
}

/// How the loop thread disposes of a parsed request.
#[derive(Debug)]
pub(crate) enum Inline<F> {
    /// Answered inline.
    Answer(FastAnswer),
    /// Forwarded upstream on the loop.
    Forward(Forward<F>),
    /// Needs a pool thread; the request comes back for the job.
    Pool(Request),
}

/// One upstream attempt of a loop forward: where the request goes.
#[derive(Debug, Clone)]
pub struct Upstream {
    /// The service's index for this upstream (a gateway worker index);
    /// parked links are kept per index, and the reply names it.
    pub index: usize,
    /// Where to connect, resolved off the loop thread: a fresh link tries
    /// each address in turn until one connects.
    pub addrs: Arc<[SocketAddr]>,
    /// Open a new connection rather than reuse a parked one.
    pub fresh: bool,
    /// Connect, write and read deadlines for this attempt.
    pub timeouts: Timeouts,
}

/// How one upstream attempt ended, as the loop measured it.
#[derive(Debug)]
pub struct Reply {
    /// The [`Upstream::index`] the attempt went to.
    pub index: usize,
    /// Whether the attempt rode a parked (reused) connection.
    pub reused: bool,
    /// When the attempt began (connect or write).
    pub started: Instant,
    /// When its answer was complete or it failed.
    pub ended: Instant,
    /// The upstream's answer, or why there is none.
    pub result: Result<Response, RequestError>,
}

/// Why one upstream attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// What went wrong, naming the phase (`sending request: ...`).
    pub message: String,
    /// The peer closed or reset the connection before the first byte of
    /// an answer. A deadline, a refused connect or a malformed answer is
    /// never this. On a reused link it means the link went stale, not
    /// the upstream.
    pub closed_early: bool,
}

/// Whether an I/O error means the peer closed or reset the connection
/// (as opposed to a deadline passing or a local failure): how a stale
/// link is told from a failed one.
fn peer_closed(error: &std::io::Error) -> bool {
    use std::io::ErrorKind::{BrokenPipe, ConnectionAborted, ConnectionReset, UnexpectedEof};
    matches!(
        error.kind(),
        BrokenPipe | ConnectionAborted | ConnectionReset | UnexpectedEof
    )
}

/// What the service says a loop forward does next.
#[derive(Debug)]
pub(crate) enum Next {
    /// Make this attempt.
    Attempt(Upstream),
    /// Done: queue this answer for the client.
    Answer(FastAnswer),
}

/// What a server plugs into the event loop: the split between work the
/// loop thread may do inline and work that needs a pool worker.
pub(crate) trait Service: Send + Sync + 'static {
    /// Per-request state of a loop forward (see [`Inline::Forward`]).
    type Forward;

    /// Disposes of a request on the loop thread: answers it when it is
    /// cheap (no simulation, no blocking I/O) — cheap GETs, cache hits,
    /// input-validation 4xxs —, forwards it upstream, or hands it back
    /// for the worker pool.
    fn fast(&self, request: Request) -> Inline<Self::Forward>;

    /// Drives a loop forward: called once with no reply when it starts,
    /// then with the reply of each attempt it asked for.
    fn forward(&self, request: &Request, forward: &mut Self::Forward, reply: Option<Reply>)
        -> Next;

    /// Handles one request on a pool worker with a blocking stream
    /// (buffered responses and chunked streams alike). `queued` is how
    /// long the request waited in the admission queue before a worker
    /// picked it up (feeds the wide-event `queue_us` field). Returns
    /// whether the connection should stay open.
    fn handle(&self, request: &Request, stream: &mut TcpStream, queued: Duration) -> bool;

    /// The load-shedding answer (429 + `Retry-After`) for a request
    /// that found the admission queue full.
    fn shed(&self, request: &Request) -> FastAnswer;

    /// Serializes a wire-level parse/timeout failure. The connection
    /// always closes after this answer.
    fn wire_error(&self, error: &WireError) -> Vec<u8>;
}

/// The admission-queue bound both tiers run with: the gateway always,
/// a worker unless its [`ServeConfig`](crate::ServeConfig) sets another.
pub const QUEUE_DEPTH: usize = 128;

/// Event-loop sizing and timeouts.
#[derive(Debug, Clone)]
pub struct LoopConfig {
    /// Worker-pool threads for heavy (blocking) requests.
    pub workers: usize,
    /// Admission-queue bound: heavy requests waiting beyond the pool;
    /// one more means a 429.
    pub queue_depth: usize,
    /// Idle keep-alive connections close silently after this long.
    pub idle_timeout: Duration,
    /// Connections stuck mid-request (slow header/body) answer 408
    /// after this long.
    pub request_timeout: Duration,
}

/// Counters the event loop maintains, for `/stats` and `/metrics`.
#[derive(Debug, Default)]
pub(crate) struct LoopStats {
    accepted: AtomicU64,
    open: AtomicU64,
    shed: AtomicU64,
    request_timeouts: AtomicU64,
    idle_closed: AtomicU64,
}

impl LoopStats {
    /// Connections accepted since start.
    pub(crate) fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Connections attached to a loop right now (detached connections
    /// being served by a worker are not counted; connections waiting on
    /// a loop forward are).
    pub(crate) fn open(&self) -> u64 {
        self.open.load(Ordering::Relaxed)
    }

    /// Requests answered 429 because the admission queue was full.
    pub(crate) fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Requests answered 408 (stalled mid-head or mid-body).
    pub(crate) fn request_timeouts(&self) -> u64 {
        self.request_timeouts.load(Ordering::Relaxed)
    }

    /// Idle keep-alive connections closed silently.
    pub(crate) fn idle_closed(&self) -> u64 {
        self.idle_closed.load(Ordering::Relaxed)
    }
}

/// A connection handed back from a worker to the loop.
struct Reattach {
    stream: TcpStream,
    inbox: Vec<u8>,
}

/// The loop's handoff point: workers push re-attachments, then wake it.
struct Mailbox {
    inbox: Mutex<Vec<Reattach>>,
    waker: Waker,
}

/// A heavy request in the admission queue, carrying its connection.
struct Job {
    stream: TcpStream,
    /// Response bytes for earlier pipelined requests, written first so
    /// responses leave in request order.
    pending_out: Vec<u8>,
    /// Unparsed inbox remainder (later pipelined requests).
    inbox: Vec<u8>,
    request: Request,
    /// When the request entered the admission queue.
    enqueued: Instant,
}

/// State shared by the loop, the workers, and the handle.
struct Core {
    shutdown: AtomicBool,
    queued: AtomicUsize,
    queue_depth: usize,
    mailbox: Mailbox,
    stats: Arc<LoopStats>,
    idle_timeout: Duration,
    request_timeout: Duration,
}

/// A running event-loop server; dropping the handle leaks the threads,
/// call [`LoopHandle::shutdown`] for a clean stop.
pub(crate) struct LoopHandle {
    core: Arc<Core>,
    io: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for LoopHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopHandle")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl LoopHandle {
    /// Stops the loop and workers: new connections stop being
    /// accepted, idle attached connections close, queued heavy requests
    /// drain through the pool (in-flight responses finish), forwards on
    /// the loop answer (each attempt in flight may run to its deadline),
    /// then every thread joins.
    pub(crate) fn shutdown(self) {
        self.core.shutdown.store(true, Ordering::SeqCst);
        self.core.mailbox.waker.wake();
        self.join();
    }

    /// Blocks until the loop exits (it only does on [`Self::shutdown`] from
    /// another handle-less path, i.e. never in normal operation) — the
    /// foreground `run()` entry points park here.
    pub(crate) fn join(self) {
        let _ = self.io.join();
        // The loop owned the only queue sender; with it gone the
        // workers drain what is queued and see the channel close.
        for t in self.workers {
            let _ = t.join();
        }
    }
}

/// Starts the event-loop thread over `listener` and `config.workers`
/// pool workers serving `service`. `stats` is shared so the caller can
/// report loop counters from its own endpoints.
pub(crate) fn spawn_event_loop<S: Service>(
    listener: TcpListener,
    service: Arc<S>,
    config: &LoopConfig,
    stats: Arc<LoopStats>,
) -> std::io::Result<LoopHandle> {
    listener.set_nonblocking(true)?;
    let core = Arc::new(Core {
        shutdown: AtomicBool::new(false),
        queued: AtomicUsize::new(0),
        queue_depth: config.queue_depth.max(1),
        mailbox: Mailbox {
            inbox: Mutex::new(Vec::new()),
            waker: Waker::new()?,
        },
        stats,
        idle_timeout: config.idle_timeout,
        request_timeout: config.request_timeout,
    });
    // The queue bound is enforced by `Core::queued`, not the channel,
    // so a full queue sheds without ever constructing a blocked send.
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Arc::new(Mutex::new(job_rx));

    let io = {
        let core = core.clone();
        let service = service.clone();
        std::thread::Builder::new()
            .name("mcdla-io".to_owned())
            .spawn(move || run_loop(listener, core, service, job_tx))?
    };

    let mut worker_threads = Vec::with_capacity(config.workers.max(1));
    for i in 0..config.workers.max(1) {
        let core = core.clone();
        let service = service.clone();
        let job_rx = job_rx.clone();
        worker_threads.push(
            std::thread::Builder::new()
                .name(format!("mcdla-worker-{i}"))
                .spawn(move || run_worker(core, service, job_rx))?,
        );
    }

    Ok(LoopHandle {
        core,
        io,
        workers: worker_threads,
    })
}

/// One attached connection's state.
struct Conn {
    stream: TcpStream,
    inbox: Vec<u8>,
    outbox: Vec<u8>,
    out_pos: usize,
    /// Events currently registered with epoll.
    interest: u32,
    last_activity: Instant,
    /// Close once the outbox drains; no further reads or parses.
    closing: bool,
    /// The peer finished sending (EOF seen).
    eof: bool,
    /// A loop forward for this connection is in flight: parsing waits
    /// for its answer, and the timeout sweep leaves the connection be.
    forwarding: bool,
}

/// Where an upstream link is in its exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for a fresh connect to complete.
    Connecting,
    /// Writing the request.
    Sending,
    /// Reading the answer.
    Receiving,
    /// Idle on its upstream's parked stack.
    Parked,
}

/// One loop-owned keep-alive connection to an upstream.
struct Link {
    stream: TcpStream,
    /// The upstream index it is parked under.
    index: usize,
    /// The upstream's addresses, and which one `stream` connects to.
    addrs: Arc<[SocketAddr]>,
    at: usize,
    phase: Phase,
    /// Request bytes written so far.
    sent: usize,
    inbox: Vec<u8>,
    /// Events currently registered with epoll.
    interest: u32,
    /// When the current phase fails; `None` while parked.
    deadline: Option<Instant>,
    timeouts: Timeouts,
    /// The forward it serves (`None` while parked).
    forward: Option<(usize, u32)>,
}

impl Link {
    /// The current phase's time limit, and what passing it means.
    fn limit(&self) -> (Duration, &'static str) {
        match self.phase {
            Phase::Connecting => (self.timeouts.connect, "no connection"),
            Phase::Sending => (self.timeouts.write, "request not sent"),
            Phase::Receiving | Phase::Parked => (self.timeouts.read, "no response"),
        }
    }
}

/// A forward in flight.
struct Pending<F> {
    /// The client connection the answer goes to.
    client: (usize, u32),
    forward: Forward<F>,
    /// The attempt in flight: its upstream, whether it reuses a parked
    /// link, and when it began.
    attempt: Option<(usize, bool, Instant)>,
}

/// A table with O(1) insert/remove off a free list. Tokens carry
/// `(generation << 32) | slot` so a stale epoll event for a recycled
/// slot (same fd number, new connection) can never touch the newcomer.
struct Slab<T> {
    slots: Vec<Option<T>>,
    gens: Vec<u32>,
    free: VecDeque<usize>,
}

impl<T> Slab<T> {
    fn new() -> Slab<T> {
        Slab {
            slots: Vec::new(),
            gens: Vec::new(),
            free: VecDeque::new(),
        }
    }

    fn put(&mut self, value: T) -> (usize, u64) {
        let slot = match self.free.pop_front() {
            Some(slot) => slot,
            None => {
                self.slots.push(None);
                self.gens.push(0);
                self.slots.len() - 1
            }
        };
        self.slots[slot] = Some(value);
        (slot, token(slot, self.gens[slot]))
    }

    /// The entry for `slot` if its generation still matches.
    fn get(&mut self, slot: usize, gen: u32) -> Option<&mut T> {
        if self.gens.get(slot) != Some(&gen) {
            return None;
        }
        self.slots[slot].as_mut()
    }

    fn remove(&mut self, slot: usize) -> Option<T> {
        let value = self.slots.get_mut(slot)?.take()?;
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        self.free.push_back(slot);
        Some(value)
    }

    /// Live entries.
    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn live_slots(&self) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&i| self.slots[i].is_some())
            .collect()
    }
}

impl Slab<Conn> {
    fn insert(&mut self, stream: TcpStream, inbox: Vec<u8>) -> (usize, u64) {
        self.put(Conn {
            stream,
            inbox,
            outbox: Vec::new(),
            out_pos: 0,
            interest: EPOLLIN | EPOLLRDHUP,
            last_activity: Instant::now(),
            closing: false,
            eof: false,
            forwarding: false,
        })
    }
}

fn token(slot: usize, gen: u32) -> u64 {
    ((gen as u64) << 32) | slot as u64
}

fn untoken(token: u64) -> (usize, u32) {
    ((token & 0xffff_ffff) as usize, (token >> 32) as u32)
}

/// How far [`EventLoop::advance`] got with a connection.
enum Advanced {
    /// Still attached to the loop (possibly with output pending).
    Attached,
    /// Detached to the worker pool; the slot is gone.
    Detached,
    /// Closed; the slot is gone.
    Closed,
}

/// The loop thread's state.
struct EventLoop<S: Service> {
    epoll: Epoll,
    core: Arc<Core>,
    service: Arc<S>,
    job_tx: mpsc::Sender<Job>,
    conns: Slab<Conn>,
    links: Slab<Link>,
    /// Parked link slots per upstream index, most recent last.
    parked: Vec<Vec<usize>>,
    forwards: Slab<Pending<S::Forward>>,
    /// No in-flight link's deadline is earlier than this.
    next_deadline: Option<Instant>,
    /// Shutdown began: nothing is accepted or parsed, and each
    /// connection closes after its forward's answer.
    draining: bool,
    /// Set once draining: the loop exits by then even with forwards in
    /// flight.
    drain_by: Option<Instant>,
}

fn run_loop<S: Service>(
    listener: TcpListener,
    core: Arc<Core>,
    service: Arc<S>,
    job_tx: mpsc::Sender<Job>,
) {
    let epoll = match Epoll::new() {
        Ok(ep) => ep,
        Err(e) => {
            mcdla_obs::log::error(
                "serve",
                "epoll_create_failed",
                &[("error", e.to_string().into())],
            );
            return;
        }
    };
    if let Err(e) = epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER) {
        mcdla_obs::log::error(
            "serve",
            "epoll_register_listener_failed",
            &[("error", e.to_string().into())],
        );
        return;
    }
    let waker_fd = core.mailbox.waker.fd();
    if let Err(e) = epoll.add(waker_fd, EPOLLIN, TOKEN_WAKER) {
        mcdla_obs::log::error(
            "serve",
            "epoll_register_waker_failed",
            &[("error", e.to_string().into())],
        );
        return;
    }

    let mut el = EventLoop {
        epoll,
        core,
        service,
        job_tx,
        conns: Slab::new(),
        links: Slab::new(),
        parked: Vec::new(),
        forwards: Slab::new(),
        next_deadline: None,
        draining: false,
        drain_by: None,
    };
    let mut events = vec![
        Event {
            events: 0,
            token: 0
        };
        256
    ];
    // Sweep often enough that short test-sized timeouts still fire
    // promptly, but never more than once per 25 ms.
    let sweep_every = (el.core.idle_timeout.min(el.core.request_timeout) / 4)
        .clamp(Duration::from_millis(25), Duration::from_millis(500));
    let mut last_sweep = Instant::now();

    while !el.exiting(&listener) {
        // Sleep until the nearest upstream deadline or the next sweep.
        let wait = el.next_deadline.map_or(sweep_every, |d| {
            d.saturating_duration_since(Instant::now()).min(sweep_every)
        });
        let n = match el.epoll.wait(&mut events, wait.as_millis() as i32 + 1) {
            Ok(n) => n,
            Err(e) => {
                mcdla_obs::log::error(
                    "serve",
                    "epoll_wait_failed",
                    &[("error", e.to_string().into())],
                );
                break;
            }
        };
        if el.exiting(&listener) {
            break;
        }
        for event in events.iter().take(n) {
            // Copy out of the packed event before touching the fields.
            let (ready, tok) = ({ event.events }, { event.token });
            match tok {
                TOKEN_LISTENER => el.accept_burst(&listener),
                TOKEN_WAKER => el.core.mailbox.waker.drain(),
                tok => {
                    let (slot, gen) = untoken(tok);
                    if slot & LINK_BIT != 0 {
                        el.link_ready(slot & !LINK_BIT, gen, ready);
                        continue;
                    }
                    if el.conns.get(slot, gen).is_none() {
                        continue; // stale event for a recycled slot
                    }
                    if ready & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0 {
                        el.read_ready(slot, gen, ready);
                    }
                    if ready & EPOLLOUT != 0 {
                        if let Some(conn) = el.conns.get(slot, gen) {
                            if !conn.outbox.is_empty() || conn.closing {
                                el.flush(slot);
                            }
                        }
                    }
                }
            }
        }
        // Re-attachments from the worker pool (mailbox drained after
        // the waker event, but also opportunistically every pass).
        el.reattach_from_mailbox();
        if el.next_deadline.is_some_and(|d| Instant::now() >= d) {
            el.expire_links();
        }
        if last_sweep.elapsed() >= sweep_every {
            last_sweep = Instant::now();
            el.sweep_timeouts();
        }
    }
    // Teardown: dropping the loop closes every attached connection and
    // link, and a forward still in flight past `drain_by` goes
    // unanswered. Queued jobs drain through the workers; mailbox
    // re-attachments arriving after this point are dropped (closed) by
    // the workers noticing the shutdown flag.
}

impl<S: Service> EventLoop<S> {
    fn accept_burst(&mut self, listener: &TcpListener) {
        for _ in 0..ACCEPT_BURST {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if self.core.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    self.attach(stream, Vec::new());
                    self.core.stats.accepted.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Transient accept errors (EMFILE, aborted handshake):
                    // back off briefly instead of spinning level-triggered.
                    std::thread::sleep(Duration::from_millis(5));
                    return;
                }
            }
        }
    }

    /// Whether the loop should stop: once shutdown begins (which starts
    /// the [drain](Self::drain)), when every connection left has been
    /// answered and closed, or the drain's bound has passed.
    fn exiting(&mut self, listener: &TcpListener) -> bool {
        if !self.core.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        if !self.draining {
            self.drain(listener);
        }
        self.conns.len() == 0 || self.drain_by.is_some_and(|d| Instant::now() >= d)
    }

    /// Shutdown began: stops accepting, closes every connection that is
    /// not waiting on a forward (the others close once their answer is
    /// written), and gives the forwards in flight until their attempts'
    /// deadlines.
    fn drain(&mut self, listener: &TcpListener) {
        self.draining = true;
        let _ = self.epoll.del(listener.as_raw_fd());
        for slot in self.conns.live_slots() {
            if self.conns.slots[slot]
                .as_ref()
                .is_some_and(|c| !c.forwarding)
            {
                self.close_conn(slot);
            }
        }
        // Only links in flight have a deadline.
        let deadlines = self.links.slots.iter().flatten().filter_map(|l| l.deadline);
        self.drain_by = Some(deadlines.fold(Instant::now(), Instant::max));
    }

    /// Inserts a connection into the slab and registers it with epoll;
    /// returns its `(slot, gen)` when that worked.
    fn attach(&mut self, stream: TcpStream, inbox: Vec<u8>) -> Option<(usize, u32)> {
        let fd = stream.as_raw_fd();
        let (slot, tok) = self.conns.insert(stream, inbox);
        if self.epoll.add(fd, EPOLLIN | EPOLLRDHUP, tok).is_err() {
            self.conns.remove(slot);
            return None;
        }
        self.core.stats.open.fetch_add(1, Ordering::Relaxed);
        Some(untoken(tok))
    }

    fn close_conn(&mut self, slot: usize) {
        if self.conns.remove(slot).is_some() {
            // Dropping the stream closes the fd, which also removes it
            // from the epoll interest set.
            self.core.stats.open.fetch_sub(1, Ordering::Relaxed);
        }
    }

    fn read_ready(&mut self, slot: usize, gen: u32, ready: u32) {
        let Some(conn) = self.conns.get(slot, gen) else {
            return;
        };
        if conn.forwarding && ready & (EPOLLERR | EPOLLHUP) != 0 {
            // The client reset or hung up while its forward is in flight:
            // the answer is moot. Reads may be disarmed (full inbox, EOF),
            // so no read would ever see the reset.
            self.close_conn(slot);
            return;
        }
        let mut buf = [0u8; 16 * 1024];
        loop {
            if conn.closing
                || conn.inbox.len() >= INBOX_CAP
                || conn.outbox.len() - conn.out_pos > OUTBOX_HIGH_WATER
            {
                break;
            }
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    conn.inbox.extend_from_slice(&buf[..n]);
                    conn.last_activity = Instant::now();
                    if n < buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Reset: nothing can be answered.
                    self.close_conn(slot);
                    return;
                }
            }
        }
        if conn.forwarding && (conn.eof || conn.inbox.len() >= INBOX_CAP) {
            // Nothing more to read until the answer is in: stop the
            // level-triggered wakeups (a half-closed client still gets
            // its answer, then the connection closes).
            let want = conn.interest & EPOLLOUT;
            if self
                .epoll
                .modify(conn.stream.as_raw_fd(), want, token(slot, gen))
                .is_ok()
            {
                conn.interest = want;
            }
        }
        match self.advance(slot, gen) {
            Advanced::Attached => self.flush(slot),
            Advanced::Detached | Advanced::Closed => {}
        }
    }

    /// Parses and answers everything parseable in the connection's inbox.
    /// Fast answers accumulate in the outbox (flushed by the caller); a
    /// forward holds the rest of the inbox until it answers; a heavy
    /// request detaches the connection to the worker pool.
    fn advance(&mut self, slot: usize, gen: u32) -> Advanced {
        loop {
            let Some(conn) = self.conns.get(slot, gen) else {
                return Advanced::Closed;
            };
            if conn.closing || conn.forwarding {
                return Advanced::Attached;
            }
            if conn.outbox.len() - conn.out_pos > OUTBOX_HIGH_WATER {
                // Backpressure: stop parsing until the peer drains.
                return Advanced::Attached;
            }
            let request = match parse_request(&conn.inbox) {
                Err(error) => {
                    let bytes = self.service.wire_error(&error);
                    conn.outbox.extend_from_slice(&bytes);
                    conn.closing = true;
                    conn.inbox.clear();
                    return Advanced::Attached;
                }
                Ok(None) => {
                    if conn.eof {
                        if conn.inbox.is_empty() {
                            // Clean close (or everything answered).
                            conn.closing = true;
                            if conn.outbox.len() == conn.out_pos {
                                self.close_conn(slot);
                                return Advanced::Closed;
                            }
                        } else {
                            // The peer stopped mid-request: name the
                            // truncation (head vs body) and close.
                            let error = incomplete_error(&conn.inbox, false);
                            let bytes = self.service.wire_error(&error);
                            conn.outbox.extend_from_slice(&bytes);
                            conn.closing = true;
                            conn.inbox.clear();
                        }
                    }
                    return Advanced::Attached;
                }
                Ok(Some((request, consumed))) => {
                    conn.inbox.drain(..consumed);
                    conn.last_activity = Instant::now();
                    request
                }
            };
            let request = match self.service.fast(request) {
                Inline::Answer(answer) => {
                    self.queue_answer(slot, gen, answer);
                    continue;
                }
                Inline::Forward(forward) => {
                    if !self.admit(slot, gen, &forward.request) {
                        continue;
                    }
                    let conn = self.conns.get(slot, gen).expect("checked live above");
                    conn.forwarding = true;
                    let (id, _) = self.forwards.put(Pending {
                        client: (slot, gen),
                        forward,
                        attempt: None,
                    });
                    self.step(id, None);
                    continue;
                }
                Inline::Pool(request) => request,
            };
            // Heavy: admission control, then detach to the pool.
            if !self.admit(slot, gen, &request) {
                continue;
            }
            let conn = self.conns.remove(slot).expect("checked live above");
            self.core.stats.open.fetch_sub(1, Ordering::Relaxed);
            let _ = self.epoll.del(conn.stream.as_raw_fd());
            let _ = conn.stream.set_nonblocking(false);
            let _ = conn.stream.set_write_timeout(Some(WORKER_WRITE_TIMEOUT));
            let pending_out = conn.outbox[conn.out_pos..].to_vec();
            let job = Job {
                stream: conn.stream,
                pending_out,
                inbox: conn.inbox,
                request,
                enqueued: Instant::now(),
            };
            if self.job_tx.send(job).is_err() {
                // Workers are gone (shutdown): the connection just
                // closes.
                self.core.queued.fetch_sub(1, Ordering::SeqCst);
            }
            return Advanced::Detached;
        }
    }

    /// Takes an admission-queue place for a forward or a pool job; when
    /// the queue is full, queues the 429 instead and returns false.
    fn admit(&mut self, slot: usize, gen: u32, request: &Request) -> bool {
        let core = &self.core;
        let admitted = core
            .queued
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |q| {
                (q < core.queue_depth).then_some(q + 1)
            })
            .is_ok();
        if !admitted {
            core.stats.shed.fetch_add(1, Ordering::Relaxed);
            let mut answer = self.service.shed(request);
            answer.keep_alive &= request.keep_alive;
            self.queue_answer(slot, gen, answer);
        }
        admitted
    }

    /// Appends an answer to the connection's outbox. A draining loop
    /// closes the connection after it.
    fn queue_answer(&mut self, slot: usize, gen: u32, answer: FastAnswer) {
        if let Some(conn) = self.conns.get(slot, gen) {
            conn.outbox.extend_from_slice(&answer.bytes);
            if !answer.keep_alive || self.draining {
                conn.closing = true;
                conn.inbox.clear();
            }
        }
    }

    /// Writes as much of the outbox as the socket accepts, registering for
    /// `EPOLLOUT` when it fills and closing once a draining connection is
    /// done.
    fn flush(&mut self, slot: usize) {
        let gen = self.conns.gens[slot];
        let should_close = {
            let Some(conn) = self.conns.get(slot, gen) else {
                return;
            };
            loop {
                if conn.out_pos >= conn.outbox.len() {
                    conn.outbox.clear();
                    conn.out_pos = 0;
                    if !conn.closing && conn.interest & EPOLLOUT != 0 {
                        let want = conn.interest & !EPOLLOUT;
                        if self
                            .epoll
                            .modify(conn.stream.as_raw_fd(), want, token(slot, gen))
                            .is_ok()
                        {
                            conn.interest = want;
                        }
                    }
                    break conn.closing; // a drained draining conn closes
                }
                match conn.stream.write(&conn.outbox[conn.out_pos..]) {
                    Ok(0) => break true,
                    Ok(n) => {
                        conn.out_pos += n;
                        conn.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        let want = conn.interest | EPOLLOUT;
                        if conn.interest != want
                            && self
                                .epoll
                                .modify(conn.stream.as_raw_fd(), want, token(slot, gen))
                                .is_ok()
                        {
                            conn.interest = want;
                        }
                        break false;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => break true,
                }
            }
        };
        if should_close {
            self.close_conn(slot);
        }
    }

    fn reattach_from_mailbox(&mut self) {
        let drained = {
            let mut inbox = self.core.mailbox.inbox.lock().expect("mailbox lock");
            std::mem::take(&mut *inbox)
        };
        for re in drained {
            if self.core.shutdown.load(Ordering::SeqCst) {
                continue; // dropping the stream closes it
            }
            if re.stream.set_nonblocking(true).is_err() {
                continue;
            }
            let Some((slot, gen)) = self.attach(re.stream, re.inbox) else {
                continue;
            };
            // The carried inbox may already hold complete pipelined
            // requests: serve them now rather than waiting for more bytes.
            match self.advance(slot, gen) {
                Advanced::Attached => self.flush(slot),
                Advanced::Detached | Advanced::Closed => {}
            }
        }
    }

    /// Closes idle keep-alive connections and answers 408 to connections
    /// stalled mid-request. A connection waiting on a loop forward is
    /// neither: its upstream deadline bounds the wait.
    fn sweep_timeouts(&mut self) {
        let now = Instant::now();
        for slot in self.conns.live_slots() {
            let Some(conn) = self.conns.slots[slot].as_mut() else {
                continue;
            };
            if conn.forwarding {
                continue;
            }
            if conn.closing {
                // A draining connection whose peer never reads: give it
                // the request timeout, then drop it.
                if now.duration_since(conn.last_activity) > self.core.request_timeout {
                    self.close_conn(slot);
                }
                continue;
            }
            let idle = now.duration_since(conn.last_activity);
            if !conn.inbox.is_empty() {
                if idle > self.core.request_timeout {
                    self.core
                        .stats
                        .request_timeouts
                        .fetch_add(1, Ordering::Relaxed);
                    let error = incomplete_error(&conn.inbox, true);
                    let bytes = self.service.wire_error(&error);
                    conn.outbox.extend_from_slice(&bytes);
                    conn.closing = true;
                    conn.inbox.clear();
                    self.flush(slot);
                }
            } else if conn.outbox.len() == conn.out_pos && idle > self.core.idle_timeout {
                self.core.stats.idle_closed.fetch_add(1, Ordering::Relaxed);
                self.close_conn(slot);
            }
        }
    }

    /// Asks the service what forward `id` does next — with the reply of
    /// the attempt that just ended, if any — and does it: starts the
    /// next attempt, or queues the answer. Returns the client whose
    /// answer was queued: its pipelined requests may go next (the
    /// caller resumes it, so a pipeline of forwards that answer at once
    /// never recurses).
    fn step(&mut self, id: usize, mut reply: Option<Reply>) -> Option<(usize, u32)> {
        loop {
            let gen = self.forwards.gens[id];
            let pending = self.forwards.get(id, gen)?;
            let forward = &mut pending.forward;
            match self
                .service
                .forward(&forward.request, &mut forward.state, reply.take())
            {
                Next::Attempt(upstream) => match self.attempt(id, upstream) {
                    Ok(()) => return None,
                    Err(failed) => reply = Some(failed),
                },
                Next::Answer(answer) => {
                    let pending = self.forwards.remove(id).expect("live above");
                    self.core.queued.fetch_sub(1, Ordering::SeqCst);
                    let (slot, gen) = pending.client;
                    // A client that went away leaves the answer moot.
                    let conn = self.conns.get(slot, gen)?;
                    conn.forwarding = false;
                    conn.last_activity = Instant::now();
                    if !conn.eof && conn.interest & EPOLLIN == 0 {
                        let want = conn.interest | EPOLLIN | EPOLLRDHUP;
                        if self
                            .epoll
                            .modify(conn.stream.as_raw_fd(), want, token(slot, gen))
                            .is_ok()
                        {
                            conn.interest = want;
                        }
                    }
                    self.queue_answer(slot, gen, answer);
                    return Some((slot, gen));
                }
            }
        }
    }

    /// Starts one attempt of forward `id`: writes its request on a
    /// parked link to the upstream, or opens a fresh one. A failure
    /// that needs no waiting (a refused connect, a write to a closed
    /// link) comes back as the attempt's reply.
    fn attempt(&mut self, id: usize, upstream: Upstream) -> Result<(), Reply> {
        let started = Instant::now();
        let failed = |reused, message, closed_early| Reply {
            index: upstream.index,
            reused,
            started,
            ended: Instant::now(),
            result: Err(RequestError {
                message,
                closed_early,
            }),
        };
        if self.parked.len() <= upstream.index {
            self.parked.resize_with(upstream.index + 1, Vec::new);
        }
        let parked = if upstream.fresh {
            None
        } else {
            self.parked[upstream.index].pop()
        };
        let reused = parked.is_some();
        let (slot, connected) = match parked {
            Some(slot) => (slot, true),
            None => self
                .open_link(&upstream)
                .map_err(|message| failed(false, message, false))?,
        };
        let gen = self.links.gens[slot];
        let link = self.links.get(slot, gen).expect("live link");
        link.forward = Some((id, self.forwards.gens[id]));
        link.timeouts = upstream.timeouts;
        link.sent = 0;
        link.inbox.clear();
        if !connected {
            self.set_deadline(slot);
        } else if let Err((message, closed_early)) = self.send(slot) {
            self.links.remove(slot);
            return Err(failed(reused, message, closed_early));
        }
        let gen = self.forwards.gens[id];
        if let Some(pending) = self.forwards.get(id, gen) {
            pending.attempt = Some((upstream.index, reused, started));
        }
        Ok(())
    }

    /// Opens and registers a fresh link to `upstream`. Returns its slot
    /// and whether it is connected already.
    fn open_link(&mut self, upstream: &Upstream) -> Result<(usize, bool), String> {
        let addrs = upstream.addrs.clone();
        let (stream, at, connected) = connect_from(&addrs, 0, "no address".to_owned())?;
        let fd = stream.as_raw_fd();
        let (slot, _) = self.links.put(Link {
            stream,
            index: upstream.index,
            addrs,
            at,
            phase: Phase::Connecting,
            sent: 0,
            inbox: Vec::new(),
            interest: EPOLLOUT,
            deadline: None,
            timeouts: upstream.timeouts,
            forward: None,
        });
        let tok = token(slot | LINK_BIT, self.links.gens[slot]);
        if let Err(e) = self.epoll.add(fd, EPOLLOUT, tok) {
            self.links.remove(slot);
            return Err(format!("polling {}: {e}", upstream.addrs[at]));
        }
        Ok((slot, connected))
    }

    /// Fresh link `slot` failed to connect with `error`: moves it on to
    /// the upstream's next address, as a blocking connect would, or fails
    /// the attempt once none is left.
    fn reconnect(&mut self, slot: usize, error: String) {
        let gen = self.links.gens[slot];
        let Some(link) = self.links.get(slot, gen) else {
            return;
        };
        let (stream, at, connected) = match connect_from(&link.addrs, link.at + 1, error) {
            Ok(next) => next,
            Err(error) => return self.fail_link(slot, error, false),
        };
        let tok = token(slot | LINK_BIT, gen);
        if let Err(e) = self.epoll.add(stream.as_raw_fd(), EPOLLOUT, tok) {
            let message = format!("polling {}: {e}", link.addrs[at]);
            return self.fail_link(slot, message, false);
        }
        // Dropping the failed stream closes it and ends its polling.
        link.stream = stream;
        link.at = at;
        link.interest = EPOLLOUT;
        if connected {
            self.resume_send(slot);
        } else {
            self.set_deadline(slot);
        }
    }

    /// Registers `want` for link `slot` (no syscall when unchanged).
    fn arm(&mut self, slot: usize, want: u32) {
        let gen = self.links.gens[slot];
        if let Some(link) = self.links.get(slot, gen) {
            if link.interest != want
                && self
                    .epoll
                    .modify(link.stream.as_raw_fd(), want, token(slot | LINK_BIT, gen))
                    .is_ok()
            {
                link.interest = want;
            }
        }
    }

    /// Restarts link `slot`'s deadline: its phase's limit from now.
    fn set_deadline(&mut self, slot: usize) {
        let gen = self.links.gens[slot];
        if let Some(link) = self.links.get(slot, gen) {
            let deadline = Instant::now() + link.limit().0;
            link.deadline = Some(deadline);
            self.next_deadline = Some(self.next_deadline.map_or(deadline, |n| n.min(deadline)));
        }
    }

    /// Events on link `slot`.
    fn link_ready(&mut self, slot: usize, gen: u32, ready: u32) {
        let Some(link) = self.links.get(slot, gen) else {
            return; // stale event for a closed link
        };
        match link.phase {
            Phase::Parked if ready & (EPOLLERR | EPOLLHUP) != 0 => {
                // Reset while idle: nothing to reuse.
                let index = link.index;
                self.parked[index].retain(|&s| s != slot);
                self.links.remove(slot);
            }
            // The upstream closed an idle link (or spoke out of turn):
            // stop watching it. If it is reused, the closed read makes
            // that attempt stale, and the service's staleness rule
            // retries it on a fresh connection.
            Phase::Parked => self.arm(slot, 0),
            Phase::Connecting => match link.stream.take_error() {
                Ok(None) if ready & (EPOLLERR | EPOLLHUP) == 0 => self.resume_send(slot),
                result => {
                    let error = match result {
                        Ok(Some(e)) | Err(e) => e.to_string(),
                        Ok(None) => "connection failed".to_owned(),
                    };
                    let message = format!("connecting {}: {error}", link.addrs[link.at]);
                    self.reconnect(slot, message);
                }
            },
            Phase::Sending => self.resume_send(slot),
            Phase::Receiving => self.receive(slot),
        }
    }

    /// Writes the owning forward's request on link `slot`. `Err` is a
    /// write failure, and whether the peer had closed the link.
    fn send(&mut self, slot: usize) -> Result<(), (String, bool)> {
        let gen = self.links.gens[slot];
        let Some(link) = self.links.get(slot, gen) else {
            return Ok(());
        };
        let Some(pending) = link.forward.and_then(|(id, g)| self.forwards.get(id, g)) else {
            return Ok(());
        };
        let bytes = &pending.forward.upstream;
        link.phase = Phase::Sending;
        while link.sent < bytes.len() {
            match link.stream.write(&bytes[link.sent..]) {
                Ok(n) => link.sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.arm(slot, EPOLLOUT);
                    self.set_deadline(slot);
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err((format!("sending request: {e}"), peer_closed(&e))),
            }
        }
        link.phase = Phase::Receiving;
        self.arm(slot, EPOLLIN | EPOLLRDHUP);
        self.set_deadline(slot);
        Ok(())
    }

    /// [`EventLoop::send`] once the link is writable again.
    fn resume_send(&mut self, slot: usize) {
        if let Err((message, closed_early)) = self.send(slot) {
            self.fail_link(slot, message, closed_early);
        }
    }

    /// Reads link `slot`'s answer; once it is whole, parks the link and
    /// hands the answer to the forward.
    fn receive(&mut self, slot: usize) {
        let gen = self.links.gens[slot];
        let mut buf = [0u8; 16 * 1024];
        loop {
            let Some(link) = self.links.get(slot, gen) else {
                return;
            };
            match link.stream.read(&mut buf) {
                Ok(0) => {
                    let early = link.inbox.is_empty();
                    let message = if early {
                        "connection closed before the response"
                    } else {
                        "connection closed mid-response"
                    };
                    self.fail_link(slot, message.to_owned(), early);
                    return;
                }
                Ok(n) => {
                    link.inbox.extend_from_slice(&buf[..n]);
                    match parse_response(&link.inbox) {
                        Ok(Some((response, consumed, keep_alive))) => {
                            let reusable = keep_alive && consumed == link.inbox.len();
                            self.answered(slot, response, reusable);
                            return;
                        }
                        Ok(None) => self.set_deadline(slot),
                        Err(e) => {
                            self.fail_link(slot, format!("bad response: {}", e.message), false);
                            return;
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    let early = link.inbox.is_empty() && peer_closed(&e);
                    self.fail_link(slot, format!("reading response: {e}"), early);
                    return;
                }
            }
        }
    }

    /// Link `slot` holds a whole answer: park (or close) the link, then
    /// let its forward judge the answer.
    fn answered(&mut self, slot: usize, response: Response, reusable: bool) {
        let gen = self.links.gens[slot];
        let Some(link) = self.links.get(slot, gen) else {
            return;
        };
        let owner = link.forward.take();
        link.phase = Phase::Parked;
        link.deadline = None;
        link.inbox.clear();
        let index = link.index;
        if reusable && self.parked[index].len() < MAX_IDLE {
            self.parked[index].push(slot);
        } else {
            self.links.remove(slot);
        }
        if let Some(owner) = owner {
            self.reply(owner, Ok(response));
        }
    }

    /// Closes link `slot` after a failure and reports it to its forward.
    fn fail_link(&mut self, slot: usize, message: String, closed_early: bool) {
        let Some(link) = self.links.remove(slot) else {
            return;
        };
        if let Some(owner) = link.forward {
            self.reply(
                owner,
                Err(RequestError {
                    message,
                    closed_early,
                }),
            );
        }
    }

    /// Ends the current attempt of forward `owner` with `result`.
    fn reply(&mut self, (id, gen): (usize, u32), result: Result<Response, RequestError>) {
        let Some(pending) = self.forwards.get(id, gen) else {
            return;
        };
        let Some((index, reused, started)) = pending.attempt.take() else {
            return;
        };
        let reply = Reply {
            index,
            reused,
            started,
            ended: Instant::now(),
            result,
        };
        if let Some((slot, gen)) = self.step(id, Some(reply)) {
            // Requests pipelined behind the forward go next.
            if let Advanced::Attached = self.advance(slot, gen) {
                self.flush(slot);
            }
        }
    }

    /// Fails every in-flight link whose deadline has passed.
    fn expire_links(&mut self) {
        let now = Instant::now();
        self.next_deadline = None;
        for slot in self.links.live_slots() {
            let Some(link) = self.links.slots[slot].as_ref() else {
                continue;
            };
            match link.deadline {
                Some(d) if d <= now => {
                    let (limit, what) = link.limit();
                    let message = format!("{what} within {} ms", limit.as_millis());
                    if link.phase == Phase::Connecting {
                        self.reconnect(slot, message);
                    } else {
                        self.fail_link(slot, message, false);
                    }
                }
                Some(d) => self.next_deadline = Some(self.next_deadline.map_or(d, |n| n.min(d))),
                None => {}
            }
        }
    }
}

/// Starts a connect to the first of `addrs[from..]` that does not fail at
/// once. Returns the stream, its address's position, and whether it is
/// connected already; or, when every address fails, the last error
/// (`error` when there is none left to try).
fn connect_from(
    addrs: &[SocketAddr],
    from: usize,
    mut error: String,
) -> Result<(TcpStream, usize, bool), String> {
    for (at, addr) in addrs.iter().enumerate().skip(from) {
        match connect_nonblocking(addr) {
            Ok((stream, connected)) => {
                let _ = stream.set_nodelay(true);
                return Ok((stream, at, connected));
            }
            Err(e) => error = format!("connecting {addr}: {e}"),
        }
    }
    Err(error)
}

fn run_worker<S: Service>(
    core: Arc<Core>,
    service: Arc<S>,
    job_rx: Arc<Mutex<mpsc::Receiver<Job>>>,
) {
    loop {
        // Holding the lock across `recv` is the standard shared-
        // receiver pattern: exactly one worker waits in `recv`, the
        // rest wait on the mutex, and a delivered job releases both.
        let job = {
            let rx = job_rx.lock().expect("job receiver lock");
            rx.recv()
        };
        let Ok(mut job) = job else { return };
        core.queued.fetch_sub(1, Ordering::SeqCst);
        if !job.pending_out.is_empty() && job.stream.write_all(&job.pending_out).is_err() {
            continue; // client gone; earlier responses undeliverable
        }
        let keep = service.handle(&job.request, &mut job.stream, job.enqueued.elapsed());
        if keep && !core.shutdown.load(Ordering::SeqCst) {
            let mailbox = &core.mailbox;
            mailbox.inbox.lock().expect("mailbox lock").push(Reattach {
                stream: job.stream,
                inbox: job.inbox,
            });
            mailbox.waker.wake();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_conn() -> TcpStream {
        // A pair of connected sockets; only the accepted end is kept.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side
    }

    #[test]
    fn slab_reuses_slots_off_the_free_list() {
        let mut slab = Slab::new();
        let (a, _) = slab.insert(dummy_conn(), Vec::new());
        let (b, _) = slab.insert(dummy_conn(), Vec::new());
        assert_eq!((a, b), (0, 1));
        slab.remove(a);
        // The freed slot is recycled, not appended.
        let (c, _) = slab.insert(dummy_conn(), Vec::new());
        assert_eq!(c, a);
        assert_eq!(slab.slots.len(), 2);
    }

    #[test]
    fn slab_generations_fence_stale_tokens() {
        let mut slab = Slab::new();
        let (slot, tok) = slab.insert(dummy_conn(), Vec::new());
        let (_, gen) = untoken(tok);
        assert!(slab.get(slot, gen).is_some());
        slab.remove(slot);
        let (slot2, tok2) = slab.insert(dummy_conn(), Vec::new());
        assert_eq!(slot2, slot, "slot recycled");
        // The stale token no longer resolves; the fresh one does.
        assert!(slab.get(slot, gen).is_none());
        let (_, gen2) = untoken(tok2);
        assert!(slab.get(slot, gen2).is_some());
        assert_ne!(gen, gen2);
    }

    #[test]
    fn slab_insert_remove_is_balanced_at_scale() {
        // Regression for the old ConnRegistry's O(n) slot scan: a
        // thousand insert/remove cycles against a warm slab touch only
        // the free list, and the slab never grows past its high-water
        // mark.
        let mut slab = Slab::new();
        let conns: Vec<(usize, u64)> = (0..64)
            .map(|_| slab.insert(dummy_conn(), Vec::new()))
            .collect();
        for (slot, _) in &conns {
            slab.remove(*slot);
        }
        for _ in 0..1000 {
            let (slot, _) = slab.insert(dummy_conn(), Vec::new());
            slab.remove(slot);
        }
        assert_eq!(slab.slots.len(), 64, "no growth past the high-water mark");
        assert_eq!(slab.free.len(), 64);
    }

    #[test]
    fn tokens_round_trip() {
        for (slot, gen) in [
            (0usize, 0u32),
            (5, 1),
            (4_000_000, 77),
            (usize::from(u16::MAX), u32::MAX - 2),
        ] {
            assert_eq!(untoken(token(slot, gen)), (slot, gen));
        }
    }

    /// Forwards every `POST` to `addrs` and answers anything else inline:
    /// the loop's forward path with no gateway around it.
    struct Relay {
        addrs: Arc<[SocketAddr]>,
        read: Duration,
    }

    fn answer(status: u16, body: &str) -> FastAnswer {
        let n = body.len();
        let bytes = format!("HTTP/1.1 {status} X\r\ncontent-length: {n}\r\n\r\n{body}");
        FastAnswer {
            bytes: bytes.into_bytes(),
            keep_alive: true,
        }
    }

    impl Service for Relay {
        type Forward = ();

        fn fast(&self, request: Request) -> Inline<()> {
            if request.method != "POST" {
                return Inline::Answer(answer(200, "inline"));
            }
            let mut upstream = Vec::new();
            crate::client::encode_request(&mut upstream, "POST", "/x", &[], Some("{}"));
            Inline::Forward(Forward {
                request,
                upstream,
                state: (),
            })
        }

        fn forward(&self, _: &Request, _: &mut (), reply: Option<Reply>) -> Next {
            let Some(reply) = reply else {
                return Next::Attempt(Upstream {
                    index: 0,
                    addrs: self.addrs.clone(),
                    fresh: false,
                    timeouts: Timeouts {
                        read: self.read,
                        ..Timeouts::default()
                    },
                });
            };
            Next::Answer(match reply.result {
                Ok(r) => answer(r.status, &r.body),
                Err(e) => answer(502, &e.message),
            })
        }

        fn handle(&self, _: &Request, _: &mut TcpStream, _: Duration) -> bool {
            false
        }

        fn shed(&self, _: &Request) -> FastAnswer {
            answer(429, "")
        }

        fn wire_error(&self, _: &WireError) -> Vec<u8> {
            answer(400, "").bytes
        }
    }

    /// A loop running [`Relay`] to `addrs`: its address, its counters
    /// and its handle.
    fn relay(addrs: Vec<SocketAddr>, read: Duration) -> (SocketAddr, Arc<LoopStats>, LoopHandle) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stats = Arc::new(LoopStats::default());
        let config = LoopConfig {
            workers: 1,
            queue_depth: 8,
            idle_timeout: Duration::from_secs(30),
            request_timeout: Duration::from_secs(30),
        };
        let service = Arc::new(Relay {
            addrs: addrs.into(),
            read,
        });
        let handle = spawn_event_loop(listener, service, &config, stats.clone()).unwrap();
        (addr, stats, handle)
    }

    const UP: &[u8] = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nup";

    /// An upstream answering `200 up` to each request.
    fn upstream() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for mut stream in listener.incoming().flatten() {
                std::thread::spawn(move || {
                    let mut buf = [0u8; 4096];
                    while let Ok(1..) = stream.read(&mut buf) {
                        let _ = stream.write_all(UP);
                    }
                });
            }
        });
        addr
    }

    /// An address nothing listens on.
    fn refused() -> SocketAddr {
        TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
    }

    const POST: &[u8] = b"POST /x HTTP/1.1\r\ncontent-length: 2\r\n\r\n{}";

    /// Sends `POST` on a fresh connection, half-closes it, and reads
    /// everything the loop writes before it closes.
    fn post_and_read(addr: SocketAddr) -> String {
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(POST).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let mut text = String::new();
        client.read_to_string(&mut text).unwrap();
        text
    }

    #[test]
    fn a_fresh_link_tries_each_upstream_address_until_one_connects() {
        let (dead, live) = (refused(), upstream());
        let (addr, _, handle) = relay(vec![dead, live], Duration::from_secs(5));
        // A half-closed client still gets its answer, then the close.
        let text = post_and_read(addr);
        assert!(
            text.starts_with("HTTP/1.1 200 ") && text.ends_with("up"),
            "{text}"
        );
        handle.shutdown();

        let other = refused();
        let (addr, _, handle) = relay(vec![dead, other], Duration::from_secs(5));
        let text = post_and_read(addr);
        assert!(text.starts_with("HTTP/1.1 502 "), "{text}");
        assert!(text.contains(&format!("connecting {other}")), "{text}");
        handle.shutdown();
    }

    #[test]
    fn a_client_reset_mid_forward_closes_even_with_a_full_inbox() {
        // Bound but never accepted: connects, and never answers.
        let silent = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream = silent.local_addr().unwrap();
        let (addr, stats, handle) = relay(vec![upstream], Duration::from_secs(30));
        let mut client = TcpStream::connect(addr).unwrap();
        // An inline answer the client never reads (so closing resets the
        // connection), then a forward, then bytes until a write stalls:
        // the inbox is full and the loop has stopped reading.
        let mut bytes = b"GET / HTTP/1.1\r\n\r\n".to_vec();
        bytes.extend_from_slice(POST);
        client.write_all(&bytes).unwrap();
        client
            .set_write_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        let filler = vec![b'x'; 64 * 1024];
        while client.write_all(&filler).is_ok() {}
        assert_eq!(stats.open(), 1);
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(5);
        while stats.open() != 0 {
            assert!(
                Instant::now() < deadline,
                "the reset connection stayed open"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        handle.shutdown();
        drop(silent);
    }

    #[test]
    fn shutdown_lets_a_loop_forward_answer() {
        // An upstream that reports each request, then answers on cue.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream = listener.local_addr().unwrap();
        let (asked, request_seen) = mpsc::channel();
        let (cue, answer_now) = mpsc::channel::<()>();
        let stub = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            assert!(stream.read(&mut buf).unwrap() > 0);
            asked.send(()).unwrap();
            answer_now.recv().unwrap();
            stream.write_all(UP).unwrap();
        });
        let (addr, _, handle) = relay(vec![upstream], Duration::from_secs(5));
        let mut idle = TcpStream::connect(addr).unwrap();
        idle.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        let mut inline = answer(200, "inline").bytes;
        idle.read_exact(&mut inline).unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(POST).unwrap();
        request_seen.recv().unwrap();
        let stopping = std::thread::spawn(move || handle.shutdown());
        // The drain has begun once it closes the idle connection; only
        // then does the upstream answer the forward in flight.
        assert_eq!(idle.read(&mut inline).unwrap(), 0);
        cue.send(()).unwrap();
        let mut text = String::new();
        client.read_to_string(&mut text).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 200 ") && text.ends_with("up"),
            "{text}"
        );
        stopping.join().unwrap();
        stub.join().unwrap();
    }
}
