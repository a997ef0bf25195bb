//! Scatter-gather for grid requests: partition the expanded cell list
//! by rendezvous owner, open one `/grid?stream=1` sub-stream per owning
//! worker, and drain the workers' NDJSON cell lines.
//!
//! Workers receive their partition as an **explicit cell list**
//! (`{"cells": [...]}` — see `GridRequest::cells` in `mcdla-serve`),
//! because a consistent-hash slice of a cartesian grid is not itself a
//! cartesian product. Both gateway grid forms ride the same two steps,
//! [`Scatter::open`] and [`SubStream::drain`]:
//!
//! * the streamed form forwards each sub-stream's lines verbatim;
//! * the buffered form ([`gather`]) drains every sub-stream at once and
//!   puts each line back at its grid index by the line's `digest`, so
//!   the merged answer is cell-for-cell identical to what one big worker
//!   would have answered (modulo `cached` flags, which reflect each
//!   worker's own cache).
//!
//! Routing keys are hashed once per request and duplicate cells are
//! collapsed before the scatter ([`canonical_indices`]): a degenerate
//! grid or a client-sent duplicate list costs one simulation per
//! distinct cell, with the gateway replaying the canonical answer at
//! every duplicate index.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::Ordering;
use std::sync::OnceLock;

use mcdla_core::Scenario;
use serde::{Serialize, Value};

use crate::pool::PooledConn;
use crate::router::{GatewayError, Router};

/// Maps each grid index to the first index holding the same scenario
/// (an index maps to itself when it is the first occurrence). A
/// client-sent duplicate list or a degenerate grid then costs one
/// simulation per *distinct* cell: only canonical indices go to the
/// fleet, and the gateway replays the canonical answer for the
/// duplicates — output stays one cell per input cell, in input order.
pub(crate) fn canonical_indices(scenarios: &[Scenario]) -> Vec<usize> {
    let mut first: HashMap<&Scenario, usize> = HashMap::with_capacity(scenarios.len());
    scenarios
        .iter()
        .enumerate()
        .map(|(i, s)| *first.entry(s).or_insert(i))
        .collect()
}

/// A cell's `digest` as a streamed line carries it.
pub(crate) fn digest_hex(scenario: &Scenario) -> String {
    format!("{:016x}", scenario.digest())
}

/// The `digest` field of one streamed cell line.
pub(crate) fn line_digest(cell: &Value) -> Option<&str> {
    cell.get("digest")?.as_str()
}

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
pub(crate) struct SubStream<'r> {
    conn: PooledConn<'r>,
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
    pub(crate) fn open(
        &mut self,
        mut pending: Vec<usize>,
    ) -> Result<Vec<SubStream<'r>>, GatewayError> {
        let mut opened = Vec::new();
        while !pending.is_empty() {
            let mut next = Vec::new();
            for (w, indices) in self.partition(&pending)? {
                let worker = &self.router.workers()[w];
                let cells = indices.iter().map(|&i| self.scenarios[i].to_value());
                let body = Value::Map(vec![("cells".into(), Value::Seq(cells.collect()))]);
                let body = serde::json::to_string(&body);
                // Streams always ride a fresh connection: a stale pooled
                // keep-alive would fail only at first read — after the
                // gateway's 200 head is out and failover is no longer
                // possible.
                let attempt = worker.pool().connect_fresh().and_then(|mut conn| {
                    conn.get()
                        .start_stream("POST", "/grid?stream=1", Some(&body))
                        .map(|()| conn)
                });
                match attempt {
                    Ok(conn) => opened.push(SubStream {
                        conn,
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

impl SubStream<'_> {
    /// Drains the sub-stream into `on_line`, one call per cell line,
    /// and checks that the worker delivered what it owes: a 200 head,
    /// whole lines, and one line per owed cell. A broken or short
    /// sub-stream marks the worker down; a non-200 head counts a
    /// failure. An `Err` from `on_line` abandons the sub-stream
    /// (closing the connection cancels the worker's remaining cells).
    /// Every failure comes back as `Err` with its reason.
    pub(crate) fn drain(
        &mut self,
        router: &Router,
        mut on_line: impl FnMut(String) -> Result<(), String>,
    ) -> Result<(), String> {
        let owed = self.indices.len();
        let worker = &router.workers()[self.worker];
        let mut stream = self
            .conn
            .get()
            .read_stream()
            .inspect_err(|e| worker.mark_down(e))?;
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
                    worker.mark_down(&e);
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
            worker.mark_down(&e);
            return Err(e);
        }
        worker.answered.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// The buffered gateway grid: scatters the distinct cells as
/// sub-streams, drains them concurrently (one scoped thread each), and
/// puts every line back at its grid index by `digest`. The cells a
/// failed or non-200 sub-stream did not deliver are re-routed to the
/// surviving workers, round after round; when no worker is left the
/// whole request is a 502 naming the failures. Duplicates are filled
/// from their canonical cell.
pub(crate) fn gather(router: &Router, scenarios: &[Scenario]) -> Result<Vec<Value>, GatewayError> {
    let out: Vec<OnceLock<Value>> = scenarios.iter().map(|_| OnceLock::new()).collect();
    let canon = canonical_indices(scenarios);
    let mut scatter = Scatter::new(router, scenarios);
    let mut pending: Vec<usize> = (0..scenarios.len()).filter(|&i| canon[i] == i).collect();
    while !pending.is_empty() {
        let subs = scatter.open(pending)?;
        let drained: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = subs
                .into_iter()
                .map(|mut sub| {
                    let out = &out;
                    scope.spawn(move || {
                        let result = drain_into(router, scenarios, out, &mut sub);
                        (sub, result)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("gather thread"))
                .collect()
        });
        pending = Vec::new();
        for (sub, result) in drained {
            if let Err(e) = result {
                scatter.fail(sub.worker, &e);
                pending.extend(sub.indices.into_iter().filter(|&i| out[i].get().is_none()));
            }
        }
        if !pending.is_empty() {
            router.failovers.fetch_add(1, Ordering::Relaxed);
        }
        pending.sort_unstable();
    }
    let mut cells: Vec<Option<Value>> = out.into_iter().map(OnceLock::into_inner).collect();
    for (idx, &first) in canon.iter().enumerate() {
        if first != idx {
            cells[idx] = cells[first].clone();
        }
    }
    Ok(cells
        .into_iter()
        .map(|cell| cell.expect("every grid index was filled"))
        .collect())
}

/// Drains one buffered sub-stream, setting each delivered cell at its
/// grid index in `out`. Lines arrive in completion order, so each is
/// placed by its `digest`; a line that is not JSON or names a cell the
/// worker was not sent (or sent twice) fails the sub-stream.
fn drain_into(
    router: &Router,
    scenarios: &[Scenario],
    out: &[OnceLock<Value>],
    sub: &mut SubStream<'_>,
) -> Result<(), String> {
    let mut owed: HashMap<String, usize> = sub
        .indices
        .iter()
        .map(|&i| (digest_hex(&scenarios[i]), i))
        .collect();
    sub.drain(router, |line| {
        let cell = serde::json::parse(&line)
            .map_err(|e| format!("answered unparseable cell JSON: {e}"))?;
        let idx = line_digest(&cell)
            .and_then(|d| owed.remove(d))
            .ok_or("answered a cell it was not sent")?;
        let _ = out[idx].set(cell);
        Ok(())
    })
}
