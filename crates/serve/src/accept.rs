//! The shared serving core both servers in this workspace run on: a
//! non-blocking readiness loop over raw epoll (the `epoll` module)
//! that owns every connection's I/O, plus a bounded worker pool that
//! owns the blocking work. Both tiers plug in the same `Service` trait, the
//! node shell in [`crate::node`] — everything about accepting, parsing,
//! pipelining, load-shedding, timeouts, and teardown lives here once.
//!
//! ## Architecture
//!
//! Each loop thread runs `epoll_wait` over a listener, an eventfd
//! waker, and its live connections, held in a generation-tagged slab
//! (O(1) insert/remove off a free list — this replaces the old
//! `ConnRegistry`'s linear slot scan under one mutex). Bytes read from
//! a connection land in its per-connection inbox; [`parse_request`]
//! consumes complete requests off the front, so HTTP/1.1 pipelining
//! falls out naturally and a request split across TCP segments just
//! waits for its missing bytes.
//!
//! Parsed requests take one of three paths:
//!
//! * **fast**: `Service::fast` answers inline on the loop thread
//!   (cheap GETs, cache hits) — the response bytes go out through the
//!   connection's outbox, many per wakeup.
//! * **heavy**: the connection is *detached* — deregistered from epoll,
//!   switched to blocking — and shipped with its unparsed inbox to the
//!   worker pool behind a bounded admission queue. The worker answers
//!   with the existing blocking handler code (`Service::handle`),
//!   then re-attaches the connection to its loop through a mailbox +
//!   waker. One heavy request per connection is in flight at a time,
//!   and a re-attached connection's next request re-enters the queue at
//!   the tail: that is the per-client fairness policy.
//! * **shed**: when the admission queue is full, `Service::shed`
//!   answers 429 + `Retry-After` inline and the connection stays open.
//!
//! The loop also owns the timers the old thread-per-connection stack
//! delegated to `SO_RCVTIMEO`: idle keep-alive connections close
//! silently after `idle_timeout`, and a connection stuck mid-request
//! (slow header or body) is answered 408 after `request_timeout`.

use std::collections::VecDeque;
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use crate::epoll::{
    Epoll, Event, Waker, EPOLLERR, EPOLLEXCLUSIVE, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::http::{incomplete_error, parse_request, Request, WireError};

/// Token delivered for the shared listener.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Token delivered for the loop's eventfd waker.
const TOKEN_WAKER: u64 = u64::MAX - 1;

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

/// A response the event loop can send without leaving the loop thread.
#[derive(Debug)]
pub(crate) struct FastAnswer {
    /// The complete serialized response (status line through body).
    pub bytes: Vec<u8>,
    /// Whether the connection stays open afterwards.
    pub keep_alive: bool,
}

/// What a server plugs into the event loop: the split between work the
/// loop thread may do inline and work that needs a pool worker.
pub(crate) trait Service: Send + Sync + 'static {
    /// Answers a request inline when it is cheap (no simulation, no
    /// upstream I/O): cheap GETs, cache hits, input-validation 4xxs.
    /// `None` routes the request to the worker pool.
    fn fast(&self, request: &Request) -> Option<FastAnswer>;

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

/// Event-loop sizing and timeouts.
#[derive(Debug, Clone)]
pub struct LoopConfig {
    /// Event-loop threads (each with its own epoll instance).
    pub loops: usize,
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
    /// being served by a worker are not counted).
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

/// A connection handed back from a worker to its loop.
struct Reattach {
    stream: TcpStream,
    inbox: Vec<u8>,
}

/// One loop's handoff point: workers push re-attachments, then wake it.
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
    /// Loop index to re-attach to afterwards.
    home: usize,
    /// When the request entered the admission queue.
    enqueued: Instant,
}

/// State shared by loops, workers, and the handle.
struct Core {
    shutdown: AtomicBool,
    queued: AtomicUsize,
    queue_depth: usize,
    mailboxes: Vec<Mailbox>,
    stats: Arc<LoopStats>,
    idle_timeout: Duration,
    request_timeout: Duration,
}

/// A running event-loop server; dropping the handle leaks the threads,
/// call [`LoopHandle::shutdown`] for a clean stop.
pub(crate) struct LoopHandle {
    core: Arc<Core>,
    loops: Vec<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for LoopHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopHandle")
            .field("loops", &self.loops.len())
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl LoopHandle {
    /// Stops the loops and workers: new connections stop being
    /// accepted, attached connections close, queued heavy requests
    /// drain through the pool (in-flight responses finish), then every
    /// thread joins.
    pub(crate) fn shutdown(self) {
        self.core.shutdown.store(true, Ordering::SeqCst);
        for mailbox in &self.core.mailboxes {
            mailbox.waker.wake();
        }
        for t in self.loops {
            let _ = t.join();
        }
        // The loops owned every queue sender; with them gone the
        // workers drain what is queued and see the channel close.
        for t in self.workers {
            let _ = t.join();
        }
    }

    /// Blocks until the loops exit (they only do on [`Self::shutdown`] from
    /// another handle-less path, i.e. never in normal operation) — the
    /// foreground `run()` entry points park here.
    pub(crate) fn join(self) {
        for t in self.loops {
            let _ = t.join();
        }
        for t in self.workers {
            let _ = t.join();
        }
    }
}

/// Starts `config.loops` event-loop threads over `listener` and
/// `config.workers` pool workers serving `service`. `stats` is shared
/// so the caller can report loop counters from its own endpoints.
pub(crate) fn spawn_event_loop<S: Service>(
    listener: TcpListener,
    service: Arc<S>,
    config: &LoopConfig,
    stats: Arc<LoopStats>,
) -> std::io::Result<LoopHandle> {
    listener.set_nonblocking(true)?;
    let loops = config.loops.max(1);
    let mut mailboxes = Vec::with_capacity(loops);
    for _ in 0..loops {
        mailboxes.push(Mailbox {
            inbox: Mutex::new(Vec::new()),
            waker: Waker::new()?,
        });
    }
    let core = Arc::new(Core {
        shutdown: AtomicBool::new(false),
        queued: AtomicUsize::new(0),
        queue_depth: config.queue_depth.max(1),
        mailboxes,
        stats,
        idle_timeout: config.idle_timeout,
        request_timeout: config.request_timeout,
    });
    // The queue bound is enforced by `Core::queued`, not the channel,
    // so a full queue sheds without ever constructing a blocked send.
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Arc::new(Mutex::new(job_rx));

    let mut loop_threads = Vec::with_capacity(loops);
    for i in 0..loops {
        let listener = listener.try_clone()?;
        let core = core.clone();
        let service = service.clone();
        let job_tx = job_tx.clone();
        loop_threads.push(
            std::thread::Builder::new()
                .name(format!("mcdla-io-{i}"))
                .spawn(move || run_loop(i, loops, listener, core, service, job_tx))?,
        );
    }
    drop(job_tx); // loops hold the only senders now

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
        loops: loop_threads,
        workers: worker_threads,
    })
}

/// One attached connection's state.
struct Conn {
    stream: TcpStream,
    gen: u32,
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
}

/// The connection table: a slab with an O(1) free list. Tokens carry
/// `(generation << 32) | slot` so a stale epoll event for a recycled
/// slot (same fd number, new connection) can never touch the newcomer.
struct Slab {
    slots: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: VecDeque<usize>,
}

impl Slab {
    fn new() -> Slab {
        Slab {
            slots: Vec::new(),
            gens: Vec::new(),
            free: VecDeque::new(),
        }
    }

    fn insert(&mut self, stream: TcpStream, inbox: Vec<u8>) -> (usize, u64) {
        let slot = match self.free.pop_front() {
            Some(slot) => slot,
            None => {
                self.slots.push(None);
                self.gens.push(0);
                self.slots.len() - 1
            }
        };
        let gen = self.gens[slot];
        self.slots[slot] = Some(Conn {
            stream,
            gen,
            inbox,
            outbox: Vec::new(),
            out_pos: 0,
            interest: EPOLLIN | EPOLLRDHUP,
            last_activity: Instant::now(),
            closing: false,
            eof: false,
        });
        (slot, token(slot, gen))
    }

    /// The connection for `slot` if its generation still matches.
    fn get(&mut self, slot: usize, gen: u32) -> Option<&mut Conn> {
        self.slots.get_mut(slot)?.as_mut().filter(|c| c.gen == gen)
    }

    fn remove(&mut self, slot: usize) -> Option<Conn> {
        let conn = self.slots.get_mut(slot)?.take()?;
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        self.free.push_back(slot);
        Some(conn)
    }

    fn live_slots(&self) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&i| self.slots[i].is_some())
            .collect()
    }
}

fn token(slot: usize, gen: u32) -> u64 {
    ((gen as u64) << 32) | slot as u64
}

fn untoken(token: u64) -> (usize, u32) {
    ((token & 0xffff_ffff) as usize, (token >> 32) as u32)
}

/// How far [`advance`] got with a connection.
enum Advanced {
    /// Still attached to the loop (possibly with output pending).
    Attached,
    /// Detached to the worker pool; the slot is gone.
    Detached,
    /// Closed; the slot is gone.
    Closed,
}

fn run_loop<S: Service>(
    loop_idx: usize,
    loop_count: usize,
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
    // With several loops sharing the listener, EPOLLEXCLUSIVE wakes one
    // loop per connection instead of all of them.
    let listener_events = EPOLLIN | if loop_count > 1 { EPOLLEXCLUSIVE } else { 0 };
    if let Err(e) = epoll.add(listener.as_raw_fd(), listener_events, TOKEN_LISTENER) {
        mcdla_obs::log::error(
            "serve",
            "epoll_register_listener_failed",
            &[("error", e.to_string().into())],
        );
        return;
    }
    let waker_fd = core.mailboxes[loop_idx].waker.fd();
    if let Err(e) = epoll.add(waker_fd, EPOLLIN, TOKEN_WAKER) {
        mcdla_obs::log::error(
            "serve",
            "epoll_register_waker_failed",
            &[("error", e.to_string().into())],
        );
        return;
    }

    let mut slab = Slab::new();
    let mut events = vec![
        Event {
            events: 0,
            token: 0
        };
        256
    ];
    // Sweep often enough that short test-sized timeouts still fire
    // promptly, but never more than once per 25 ms.
    let sweep_every = (core.idle_timeout.min(core.request_timeout) / 4)
        .clamp(Duration::from_millis(25), Duration::from_millis(500));
    let mut last_sweep = Instant::now();

    loop {
        let n = match epoll.wait(&mut events, sweep_every.as_millis() as i32) {
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
        if core.shutdown.load(Ordering::SeqCst) {
            break;
        }
        for event in events.iter().take(n) {
            // Copy out of the packed event before touching the fields.
            let (ready, tok) = ({ event.events }, { event.token });
            match tok {
                TOKEN_LISTENER => accept_burst(&listener, &epoll, &mut slab, &core),
                TOKEN_WAKER => core.mailboxes[loop_idx].waker.drain(),
                tok => {
                    let (slot, gen) = untoken(tok);
                    if slab.get(slot, gen).is_none() {
                        continue; // stale event for a recycled slot
                    }
                    if ready & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0 {
                        read_ready(
                            slot, gen, &mut slab, &epoll, &core, &service, &job_tx, loop_idx,
                        );
                    }
                    if ready & EPOLLOUT != 0 {
                        if let Some(conn) = slab.get(slot, gen) {
                            if !conn.outbox.is_empty() || conn.closing {
                                flush(slot, &mut slab, &epoll, &core);
                            }
                        }
                    }
                }
            }
        }
        // Re-attachments from the worker pool (mailbox drained after
        // the waker event, but also opportunistically every pass).
        reattach_from_mailbox(loop_idx, &mut slab, &epoll, &core, &service, &job_tx);
        if last_sweep.elapsed() >= sweep_every {
            last_sweep = Instant::now();
            sweep_timeouts(&mut slab, &epoll, &core, &service);
        }
    }
    // Teardown: dropping the slab closes every attached connection.
    // Queued jobs drain through the workers; mailbox re-attachments
    // arriving after this point are dropped (closed) by the workers
    // noticing the shutdown flag.
}

fn accept_burst(listener: &TcpListener, epoll: &Epoll, slab: &mut Slab, core: &Core) {
    for _ in 0..ACCEPT_BURST {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if core.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                attach(stream, Vec::new(), slab, epoll, core);
                core.stats.accepted.fetch_add(1, Ordering::Relaxed);
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

/// Inserts a connection into the slab and registers it with epoll.
fn attach(stream: TcpStream, inbox: Vec<u8>, slab: &mut Slab, epoll: &Epoll, core: &Core) {
    let fd = stream.as_raw_fd();
    let (slot, tok) = slab.insert(stream, inbox);
    if epoll.add(fd, EPOLLIN | EPOLLRDHUP, tok).is_err() {
        slab.remove(slot);
        return;
    }
    core.stats.open.fetch_add(1, Ordering::Relaxed);
}

fn close_conn(slot: usize, slab: &mut Slab, core: &Core) {
    if slab.remove(slot).is_some() {
        // Dropping the stream closes the fd, which also removes it
        // from the epoll interest set.
        core.stats.open.fetch_sub(1, Ordering::Relaxed);
    }
}

#[allow(clippy::too_many_arguments)]
fn read_ready<S: Service>(
    slot: usize,
    gen: u32,
    slab: &mut Slab,
    epoll: &Epoll,
    core: &Core,
    service: &Arc<S>,
    job_tx: &mpsc::Sender<Job>,
    loop_idx: usize,
) {
    let Some(conn) = slab.get(slot, gen) else {
        return;
    };
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
                close_conn(slot, slab, core);
                return;
            }
        }
    }
    match advance(slot, gen, slab, epoll, core, service, job_tx, loop_idx) {
        Advanced::Attached => flush(slot, slab, epoll, core),
        Advanced::Detached | Advanced::Closed => {}
    }
}

/// Parses and answers everything parseable in the connection's inbox.
/// Fast answers accumulate in the outbox (flushed by the caller);
/// a heavy request detaches the connection to the worker pool.
#[allow(clippy::too_many_arguments)]
fn advance<S: Service>(
    slot: usize,
    gen: u32,
    slab: &mut Slab,
    epoll: &Epoll,
    core: &Core,
    service: &Arc<S>,
    job_tx: &mpsc::Sender<Job>,
    loop_idx: usize,
) -> Advanced {
    loop {
        let Some(conn) = slab.get(slot, gen) else {
            return Advanced::Closed;
        };
        if conn.closing {
            return Advanced::Attached;
        }
        if conn.outbox.len() - conn.out_pos > OUTBOX_HIGH_WATER {
            // Backpressure: stop parsing until the peer drains.
            return Advanced::Attached;
        }
        match parse_request(&conn.inbox) {
            Err(error) => {
                let bytes = service.wire_error(&error);
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
                            close_conn(slot, slab, core);
                            return Advanced::Closed;
                        }
                    } else {
                        // The peer stopped mid-request: name the
                        // truncation (head vs body) and close.
                        let error = incomplete_error(&conn.inbox, false);
                        let bytes = service.wire_error(&error);
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
                if let Some(answer) = service.fast(&request) {
                    conn.outbox.extend_from_slice(&answer.bytes);
                    if !answer.keep_alive {
                        conn.closing = true;
                        conn.inbox.clear();
                        return Advanced::Attached;
                    }
                    continue;
                }
                // Heavy: admission control, then detach to the pool.
                let admitted = core
                    .queued
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |q| {
                        (q < core.queue_depth).then_some(q + 1)
                    })
                    .is_ok();
                if !admitted {
                    core.stats.shed.fetch_add(1, Ordering::Relaxed);
                    let keep = request.keep_alive;
                    let answer = service.shed(&request);
                    conn.outbox.extend_from_slice(&answer.bytes);
                    if !(answer.keep_alive && keep) {
                        conn.closing = true;
                        conn.inbox.clear();
                        return Advanced::Attached;
                    }
                    continue;
                }
                let conn = slab.remove(slot).expect("checked live above");
                core.stats.open.fetch_sub(1, Ordering::Relaxed);
                let _ = epoll.del(conn.stream.as_raw_fd());
                let _ = conn.stream.set_nonblocking(false);
                let _ = conn.stream.set_write_timeout(Some(WORKER_WRITE_TIMEOUT));
                let pending_out = conn.outbox[conn.out_pos..].to_vec();
                let job = Job {
                    stream: conn.stream,
                    pending_out,
                    inbox: conn.inbox,
                    request,
                    home: loop_idx,
                    enqueued: Instant::now(),
                };
                if job_tx.send(job).is_err() {
                    // Workers are gone (shutdown): the connection
                    // just closes.
                    core.queued.fetch_sub(1, Ordering::SeqCst);
                }
                return Advanced::Detached;
            }
        }
    }
}

/// Writes as much of the outbox as the socket accepts, registering for
/// `EPOLLOUT` when it fills and closing once a draining connection is
/// done.
fn flush(slot: usize, slab: &mut Slab, epoll: &Epoll, core: &Core) {
    let should_close = {
        let Some(conn) = slab.slots.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        loop {
            if conn.out_pos >= conn.outbox.len() {
                conn.outbox.clear();
                conn.out_pos = 0;
                if !conn.closing && conn.interest & EPOLLOUT != 0 {
                    let want = EPOLLIN | EPOLLRDHUP;
                    if epoll
                        .modify(conn.stream.as_raw_fd(), want, token(slot, conn.gen))
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
                    let want = EPOLLIN | EPOLLRDHUP | EPOLLOUT;
                    if conn.interest != want
                        && epoll
                            .modify(conn.stream.as_raw_fd(), want, token(slot, conn.gen))
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
        close_conn(slot, slab, core);
    }
}

fn reattach_from_mailbox<S: Service>(
    loop_idx: usize,
    slab: &mut Slab,
    epoll: &Epoll,
    core: &Core,
    service: &Arc<S>,
    job_tx: &mpsc::Sender<Job>,
) {
    let drained = {
        let mut inbox = core.mailboxes[loop_idx].inbox.lock().expect("mailbox lock");
        std::mem::take(&mut *inbox)
    };
    for re in drained {
        if core.shutdown.load(Ordering::SeqCst) {
            continue; // dropping the stream closes it
        }
        if re.stream.set_nonblocking(true).is_err() {
            continue;
        }
        let fd = re.stream.as_raw_fd();
        let (slot, tok) = slab.insert(re.stream, re.inbox);
        if epoll.add(fd, EPOLLIN | EPOLLRDHUP, tok).is_err() {
            slab.remove(slot);
            continue;
        }
        core.stats.open.fetch_add(1, Ordering::Relaxed);
        // The carried inbox may already hold complete pipelined
        // requests: serve them now rather than waiting for more bytes.
        let (_, gen) = untoken(tok);
        match advance(slot, gen, slab, epoll, core, service, job_tx, loop_idx) {
            Advanced::Attached => flush(slot, slab, epoll, core),
            Advanced::Detached | Advanced::Closed => {}
        }
    }
}

/// Closes idle keep-alive connections and answers 408 to connections
/// stalled mid-request.
fn sweep_timeouts<S: Service>(slab: &mut Slab, epoll: &Epoll, core: &Core, service: &Arc<S>) {
    let now = Instant::now();
    for slot in slab.live_slots() {
        let Some(conn) = slab.slots[slot].as_mut() else {
            continue;
        };
        if conn.closing {
            // A draining connection whose peer never reads: give it
            // the request timeout, then drop it.
            if now.duration_since(conn.last_activity) > core.request_timeout {
                close_conn(slot, slab, core);
            }
            continue;
        }
        let idle = now.duration_since(conn.last_activity);
        if !conn.inbox.is_empty() {
            if idle > core.request_timeout {
                core.stats.request_timeouts.fetch_add(1, Ordering::Relaxed);
                let error = incomplete_error(&conn.inbox, true);
                let bytes = service.wire_error(&error);
                conn.outbox.extend_from_slice(&bytes);
                conn.closing = true;
                conn.inbox.clear();
                flush(slot, slab, epoll, core);
            }
        } else if conn.outbox.len() == conn.out_pos && idle > core.idle_timeout {
            core.stats.idle_closed.fetch_add(1, Ordering::Relaxed);
            close_conn(slot, slab, core);
        }
    }
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
            let mailbox = &core.mailboxes[job.home];
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
}
