//! Pooled keep-alive client connections to one worker.
//!
//! The gateway's throughput depends on never paying a TCP handshake on
//! the hot path: each worker gets a stack of idle keep-alive
//! [`Connection`]s that request handlers check out, use, and return.
//! A connection that fails — or that is checked out while streaming is
//! aborted — is dropped on the floor instead of returned, so the pool
//! self-heals after a worker restart. Under the staleness rule
//! ([`crate::router::stale`]), a reused connection that turns out to be
//! stale (the worker's 30 s idle timeout closed it server-side) gets one
//! retry on a fresh connection.
//!
//! The pool serves the gateway's blocking paths: grids, `/cluster/*`
//! scrapes, health probes and traced forwards. Untraced `/simulate`
//! forwards ride the event loop's own upstream links instead.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mcdla_obs::Span;
use mcdla_serve::accept::MAX_IDLE;
use mcdla_serve::client::{Connection, RequestError, Response, Timeouts};

use crate::router::stale;

/// A pool of idle keep-alive connections to one worker address.
#[derive(Debug)]
pub(crate) struct WorkerPool {
    addr: String,
    timeouts: Timeouts,
    idle: Mutex<Vec<Connection>>,
    /// Stale-connection retries against this worker, on the pool or
    /// the event loop's links.
    retries: AtomicU64,
}

impl WorkerPool {
    /// A pool for `addr`, keeping at most [`MAX_IDLE`] parked connections.
    pub(crate) fn new(addr: impl Into<String>, timeouts: Timeouts) -> Self {
        WorkerPool {
            addr: addr.into(),
            timeouts,
            idle: Mutex::new(Vec::new()),
            retries: AtomicU64::new(0),
        }
    }

    /// The worker address this pool connects to.
    pub(crate) fn addr(&self) -> &str {
        &self.addr
    }

    /// Stale-connection retries performed so far.
    pub(crate) fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Counts one stale-connection retry.
    pub(crate) fn count_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Checks out a connection: a parked one when available, else a
    /// fresh connect (which fails fast on a dead worker — the connect
    /// timeout is the health signal).
    pub(crate) fn checkout(&self) -> Result<PooledConn<'_>, String> {
        if let Some(conn) = self.idle.lock().expect("pool lock").pop() {
            return Ok(PooledConn {
                pool: self,
                conn: Some(conn),
                reused: true,
            });
        }
        self.connect_fresh()
    }

    /// Checks out a guaranteed-fresh connection (stale-retry path).
    pub(crate) fn connect_fresh(&self) -> Result<PooledConn<'_>, String> {
        let conn = Connection::open_with(&self.addr, self.timeouts)?;
        Ok(PooledConn {
            pool: self,
            conn: Some(conn),
            reused: false,
        })
    }

    /// One buffered request through the pool, under the staleness
    /// rule: a stale reused connection costs one retry on a fresh one.
    pub(crate) fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Response, String> {
        let (reused, result) = self.attempt(false, method, path, &[], body);
        match result {
            Err(e) if stale(reused, &e) => {
                self.count_retry();
                let (_, result) = self.attempt(true, method, path, &[], body);
                result.map_err(|e| e.message)
            }
            result => result.map_err(|e| e.message),
        }
    }

    /// One exchange and no retry, on a parked connection unless `fresh`
    /// (or none is parked). Returns whether the connection was reused,
    /// and the result for the caller's policy to judge.
    pub(crate) fn attempt(
        &self,
        fresh: bool,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: Option<&str>,
    ) -> (bool, Result<Response, RequestError>) {
        let conn = {
            let _s = Span::enter("pool.checkout");
            if fresh {
                self.connect_fresh()
            } else {
                self.checkout()
            }
        };
        let mut conn = match conn {
            Ok(conn) => conn,
            Err(message) => {
                let failed = RequestError {
                    message,
                    closed_early: false,
                };
                return (false, Err(failed));
            }
        };
        let result = conn.get().exchange(method, path, headers, body);
        let reused = conn.reused;
        if result.is_ok() {
            conn.release();
        }
        (reused, result)
    }

    fn park(&self, conn: Connection) {
        let mut idle = self.idle.lock().expect("pool lock");
        if idle.len() < MAX_IDLE {
            idle.push(conn);
        }
    }

    /// Parked connections right now (observability / tests).
    #[cfg(test)]
    pub(crate) fn idle_len(&self) -> usize {
        self.idle.lock().expect("pool lock").len()
    }
}

/// A checked-out connection. Dropping it **discards** the connection —
/// the safe default for every error path; call [`PooledConn::release`]
/// after a cleanly-framed exchange to park it for reuse.
#[derive(Debug)]
pub(crate) struct PooledConn<'a> {
    pool: &'a WorkerPool,
    conn: Option<Connection>,
    /// True when this connection came from the idle stack (and may
    /// therefore be stale).
    pub reused: bool,
}

impl PooledConn<'_> {
    /// The underlying connection.
    pub(crate) fn get(&mut self) -> &mut Connection {
        self.conn
            .as_mut()
            .expect("connection present until release")
    }

    /// Returns the connection to the pool for reuse. Only call when the
    /// last response was fully read — a mid-response connection would
    /// desync the next user.
    pub(crate) fn release(mut self) {
        if let Some(conn) = self.conn.take() {
            self.pool.park(conn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::TcpListener;

    /// A hand-rolled single-shot HTTP worker stub.
    fn stub_server(responses: Vec<String>) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
        let addr = listener.local_addr().expect("stub addr").to_string();
        let handle = std::thread::spawn(move || {
            for response in responses {
                let (mut stream, _) = listener.accept().expect("accept");
                let mut buf = [0u8; 4096];
                let _ = stream.read(&mut buf);
                let _ = stream.write_all(response.as_bytes());
            }
        });
        (addr, handle)
    }

    fn ok_response(body: &str) -> String {
        format!(
            "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n{body}",
            body.len()
        )
    }

    #[test]
    fn request_round_trips_and_parks_the_connection() {
        let (addr, handle) = stub_server(vec![ok_response("{\"a\":1}")]);
        let pool = WorkerPool::new(&addr, Timeouts::default());
        let resp = pool.request("GET", "/healthz", None).expect("request");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "{\"a\":1}");
        assert_eq!(pool.idle_len(), 1);
        handle.join().unwrap();
    }

    #[test]
    fn stale_pooled_connection_retries_once_on_a_fresh_one() {
        // Two accepts: the first connection answers then is closed by
        // the stub (stale in the pool); the second answers the retry.
        let (addr, handle) = stub_server(vec![ok_response("{\"n\":1}"), ok_response("{\"n\":2}")]);
        let pool = WorkerPool::new(&addr, Timeouts::default());
        assert_eq!(pool.request("GET", "/x", None).unwrap().body, "{\"n\":1}");
        // The stub dropped its end after responding; the parked
        // connection is now stale and the next request must transparently
        // reconnect.
        assert_eq!(pool.idle_len(), 1);
        let resp = pool.request("GET", "/x", None).expect("stale retry");
        assert_eq!(resp.body, "{\"n\":2}");
        assert_eq!(pool.retries(), 1);
        handle.join().unwrap();
    }

    #[test]
    fn dead_worker_fails_fast_with_the_address_named() {
        // Bind-then-drop guarantees a refusing port.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let pool = WorkerPool::new(&addr, Timeouts::default());
        let err = pool.request("GET", "/healthz", None).unwrap_err();
        assert!(err.contains(&addr), "error does not name the worker: {err}");
    }
}
