//! Scatter-gather for grid requests: partition the expanded cell list
//! by rendezvous owner, open one `/grid?stream=1` sub-stream per owning
//! worker, and relay the workers' NDJSON cell lines.
//!
//! Workers receive their partition as an **explicit cell list**
//! (`{"cells": [...]}` — see `GridRequest::cells` in `mcdla-serve`),
//! because a consistent-hash slice of a cartesian grid is not itself a
//! cartesian product. Both gateway grid forms ride the same two steps,
//! [`Scatter::open`] and [`relay`], which drains every sub-stream at
//! once and hands each line over as it arrives:
//!
//! * the streamed form writes each line to the client verbatim, so lines
//!   reach the client in completion order across the fleet, and its
//!   first failure closes every other sub-stream;
//! * the buffered form ([`gather`]) puts each line back at its grid
//!   index by the line's `scenario`, so the merged answer is
//!   cell-for-cell identical to what one big worker would have answered
//!   (modulo `cached` flags, which reflect each worker's own cache).
//!
//! Every grid index goes to its owner, repeats included: the owner's
//! single-flight store computes a repeated cell once and answers every
//! other copy from its cache.

use std::collections::{BTreeSet, HashMap};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use mcdla_core::Scenario;
use mcdla_serve::client::Connection;
use serde::{Deserialize, Serialize, Value};

use crate::router::{GatewayError, Router};

/// One grid request's scatter state: the cells, their routing keys
/// (hashed once, so failover rounds never re-hash), and the workers
/// already seen failing for this request with what each said.
#[derive(Debug)]
pub(crate) struct Scatter<'r> {
    router: &'r Router,
    scenarios: &'r [Scenario],
    keys: Vec<u64>,
    excluded: BTreeSet<usize>,
    failures: Vec<String>,
}

/// One opened `/grid?stream=1` sub-stream: the fresh connection it rides
/// on, the worker answering it, and the grid indices it owes.
#[derive(Debug)]
pub(crate) struct SubStream {
    conn: Connection,
    /// A second handle on `conn`'s socket: shutting it down ends a read
    /// blocked on `conn` at once.
    socket: TcpStream,
    /// Worker index in the topology.
    worker: usize,
    /// Original grid indices this worker owes a line for.
    indices: Vec<usize>,
}

impl<'r> Scatter<'r> {
    pub(crate) fn new(router: &'r Router, scenarios: &'r [Scenario]) -> Self {
        Scatter {
            router,
            scenarios,
            keys: scenarios.iter().map(mcdla_core::key_hash).collect(),
            excluded: BTreeSet::new(),
            failures: Vec::new(),
        }
    }

    /// Partitions `pending` (indices into the grid) across workers by
    /// rendezvous ownership, skipping excluded workers: one
    /// `(worker, indices)` slice per owner, in worker-index order.
    fn partition(&self, pending: &[usize]) -> Result<Vec<(usize, Vec<usize>)>, GatewayError> {
        let workers = self.router.workers().len();
        if self.excluded.len() >= workers {
            let mut message =
                format!("no reachable worker left for the grid (all {workers} failed)");
            if !self.failures.is_empty() {
                message = format!("{message}: {}", self.failures.join("; "));
            }
            return Err(GatewayError::new(502, message));
        }
        let mut slices: Vec<Vec<usize>> = vec![Vec::new(); workers];
        for &idx in pending {
            let choice = self
                .router
                .route(self.keys[idx])
                .into_iter()
                .find(|w| !self.excluded.contains(w))
                .expect("checked above that at least one worker remains");
            slices[choice].push(idx);
        }
        Ok(slices
            .into_iter()
            .enumerate()
            .filter(|(_, indices)| !indices.is_empty())
            .collect())
    }

    /// Records that `worker` failed this request: it is excluded from
    /// later partitions and named in the 502 if no worker is left.
    fn fail(&mut self, worker: usize, error: &str) {
        let addr = self.router.workers()[worker].addr();
        self.failures
            .push(format!("worker {worker} ({addr}): {error}"));
        self.excluded.insert(worker);
    }

    /// Opens a sub-stream per owner of the `pending` cells, in
    /// worker-index order, so every owner starts computing at once. A
    /// worker that cannot be reached is marked down and excluded, and
    /// its slice is re-partitioned over the rest; when no worker is
    /// left the request is a 502 naming every failure.
    pub(crate) fn open(&mut self, mut pending: Vec<usize>) -> Result<Vec<SubStream>, GatewayError> {
        let mut opened = Vec::new();
        while !pending.is_empty() {
            let mut next = Vec::new();
            for (w, indices) in self.partition(&pending)? {
                let worker = &self.router.workers()[w];
                let cells = indices.iter().map(|&i| self.scenarios[i].to_value());
                let body = Value::Map(vec![("cells".into(), Value::Seq(cells.collect()))]);
                let body = serde::json::to_string(&body);
                // Streams always ride a fresh connection: a stale reused
                // one would fail only at first read — after the gateway's
                // 200 head is out and failover is no longer possible.
                let attempt = self.router.connect(w).and_then(|mut conn| {
                    let socket = conn.socket_handle()?;
                    conn.start_stream("POST", "/grid?stream=1", Some(&body))?;
                    Ok((conn, socket))
                });
                match attempt {
                    Ok((conn, socket)) => opened.push(SubStream {
                        conn,
                        socket,
                        worker: w,
                        indices,
                    }),
                    Err(e) => {
                        worker.mark_down(&e);
                        self.fail(w, &e);
                        next.extend(indices);
                    }
                }
            }
            if !next.is_empty() {
                self.router.failovers.fetch_add(1, Ordering::Relaxed);
            }
            next.sort_unstable();
            pending = next;
        }
        Ok(opened)
    }
}

/// Drains every sub-stream at once, one scoped thread each, handing
/// each line to `on_line` with its sub-stream's state `T` as the line
/// arrives. Returns each sub-stream's worker, state and outcome.
///
/// A sub-stream fails when it dies, answers non-200, comes up short, or
/// `on_line` refuses a line; its socket is then shut down, which
/// cancels the worker's remaining cells. With `close_all`, the first
/// failure shuts down every other sub-stream too, so no thread waits
/// for a worker's next line. A sub-stream the relay closes itself is
/// not the worker's failure: it is neither marked down nor counted.
pub(crate) fn relay<T: Send>(
    router: &Router,
    subs: impl IntoIterator<Item = (SubStream, T)>,
    close_all: bool,
    on_line: impl Fn(&mut T, String) -> Result<(), String> + Sync,
) -> Vec<(usize, T, Result<(), String>)> {
    let closing = AtomicBool::new(false);
    let (sockets, drains): (Vec<TcpStream>, Vec<_>) = subs
        .into_iter()
        .map(|(sub, state)| (sub.socket, (sub.conn, sub.worker, sub.indices.len(), state)))
        .unzip();
    let (sockets, closing, on_line) = (&sockets, &closing, &on_line);
    std::thread::scope(|scope| {
        let handles: Vec<_> = drains
            .into_iter()
            .enumerate()
            .map(|(i, (mut conn, worker, owed, mut state))| {
                scope.spawn(move || {
                    let result = drain(router, &mut conn, worker, owed, closing, |line| {
                        if closing.load(Ordering::SeqCst) {
                            return Err("closed by the gateway".into());
                        }
                        on_line(&mut state, line)
                    });
                    let doomed = if result.is_err() && close_all {
                        closing.store(true, Ordering::SeqCst);
                        &sockets[..]
                    } else {
                        std::slice::from_ref(&sockets[i])
                    };
                    for socket in doomed {
                        let _ = socket.shutdown(Shutdown::Both);
                    }
                    (worker, state, result)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("relay thread"))
            .collect()
    })
}

/// Drains one sub-stream into `on_line`, one call per cell line, and
/// checks that the worker delivered what it owes: a 200 head, whole
/// lines, and `owed` lines. A non-200 head counts a failure, and a
/// broken or short sub-stream marks the worker down unless the relay
/// is `closing` it. An `Err` from `on_line` abandons the sub-stream.
/// Every failure comes back as `Err` with its reason.
fn drain(
    router: &Router,
    conn: &mut Connection,
    worker: usize,
    owed: usize,
    closing: &AtomicBool,
    mut on_line: impl FnMut(String) -> Result<(), String>,
) -> Result<(), String> {
    let worker = &router.workers()[worker];
    let broken = |e: &String| {
        if !closing.load(Ordering::SeqCst) {
            worker.mark_down(e);
        }
    };
    let mut stream = conn.read_stream().inspect_err(broken)?;
    if stream.status != 200 {
        worker.failures.fetch_add(1, Ordering::Relaxed);
        let status = stream.status;
        let body = stream.next_line().and_then(Result::ok).unwrap_or_default();
        stream.abandon();
        return Err(format!(
            "answered HTTP {status} to a {owed}-cell sub-grid: {body}"
        ));
    }
    let mut lines = 0usize;
    while let Some(line) = stream.next_line() {
        let delivered = match line {
            Ok(line) => on_line(line),
            Err(e) => {
                let e = format!("sub-stream died: {e}");
                broken(&e);
                Err(e)
            }
        };
        if let Err(e) = delivered {
            stream.abandon();
            return Err(e);
        }
        lines += 1;
    }
    drop(stream);
    if lines != owed {
        // A clean terminal chunk with missing cells is a protocol
        // violation, never a complete slice.
        let e = format!("sub-stream ended cleanly after {lines} of {owed} cells");
        broken(&e);
        return Err(e);
    }
    worker.answered.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// The buffered gateway grid: scatters every cell as sub-streams,
/// relays them, and puts each line back at a grid index owed for its
/// `scenario`. The cells a failed or non-200 sub-stream did not deliver
/// are re-routed to the surviving workers, round after round; when no
/// worker is left the whole request is a 502 naming the failures.
pub(crate) fn gather(router: &Router, scenarios: &[Scenario]) -> Result<Vec<Value>, GatewayError> {
    let out: Vec<OnceLock<Value>> = scenarios.iter().map(|_| OnceLock::new()).collect();
    let mut scatter = Scatter::new(router, scenarios);
    let mut pending: Vec<usize> = (0..scenarios.len()).collect();
    while !pending.is_empty() {
        let subs = scatter.open(pending)?.into_iter().map(|sub| {
            // Lines arrive in completion order: the grid indices each
            // scenario still owes, so a repeated cell fills one per line.
            let mut owed: HashMap<Scenario, Vec<usize>> = HashMap::new();
            for &i in &sub.indices {
                owed.entry(scenarios[i]).or_default().push(i);
            }
            (sub, owed)
        });
        let relayed = relay(router, subs, false, |owed, line| {
            let cell = serde::json::parse(&line)
                .map_err(|e| format!("answered unparseable cell JSON: {e}"))?;
            let idx = cell
                .get("scenario")
                .and_then(|s| Scenario::from_value(s).ok())
                .and_then(|s| owed.get_mut(&s)?.pop())
                .ok_or("answered a cell it was not sent")?;
            let _ = out[idx].set(cell);
            Ok(())
        });
        pending = Vec::new();
        for (worker, owed, result) in relayed {
            if let Err(e) = result {
                scatter.fail(worker, &e);
                pending.extend(owed.into_values().flatten());
            }
        }
        if !pending.is_empty() {
            router.failovers.fetch_add(1, Ordering::Relaxed);
        }
        pending.sort_unstable();
    }
    Ok(out
        .into_iter()
        .map(|cell| cell.into_inner().expect("every grid index was filled"))
        .collect())
}
