//! # `mcdla-serve` — the persistent scenario-simulation service
//!
//! PR 1 made the KwonR18 reproduction a batch tool: every `mcdla`
//! invocation cold-starts, simulates, and exits. This crate is the
//! long-running layer on top of the same engine: a hand-rolled HTTP/1.1
//! server on a non-blocking epoll event loop ([`accept`], over raw
//! syscalls — the build environment has no crates.io access) whose
//! handlers and batch grids share one
//! [`ResultStore`](mcdla_core::ResultStore) — capacity-bounded,
//! LRU-evicting, single-flight-deduplicating, and snapshot-warmable, so
//! a restarted service answers its first requests from cache. The event
//! loop owns all connection I/O (pipelining, timeouts, 429
//! load-shedding); simulation runs on a bounded blocking worker pool.
//! The worker is one tier of the node shell ([`node`]) that the
//! `mcdla-cluster` gateway runs in too: request lifecycle, shared
//! routes, and one metric table per tier behind every telemetry
//! surface ([`metrics`]).
//!
//! ## Endpoints
//!
//! | endpoint | body | answer |
//! |---|---|---|
//! | `POST /simulate` | one serde [`Scenario`](mcdla_core::Scenario) | `{scenario, digest, cached, report}` |
//! | `POST /grid` | cartesian axes, or an explicit `cells` list | `{count, cells: [...]}` |
//! | `POST /grid?stream=1` | same as `POST /grid` | chunked NDJSON, one cell per line |
//! | `GET /healthz` | — | `{"status":"ok"}` + uptime/build info |
//! | `GET /stats` | — | store + request counters |
//! | `GET /metrics` | — | Prometheus exposition (counters + latency histograms) |
//! | `GET /debug/trace/<id>` | — | one recorded span tree ([`trace`]) |
//! | `GET /debug/requests` | — | the flight-recorder listing |
//!
//! Every response echoes `X-Mcdla-Request-Id`, every request records
//! a trace into the per-server flight recorder, and `?trace=1` on
//! `POST /simulate` / `POST /grid` inlines the span tree in the
//! response (see `docs/observability.md`).
//!
//! `docs/protocol.md` in the repository root specifies the JSON; served
//! reports are bit-identical to the batch `Runner`'s (the wire tests
//! pin this).
//!
//! ## Example
//!
//! ```
//! use mcdla_serve::{client, ServeConfig, Server};
//!
//! let server = Server::bind(&ServeConfig {
//!     addr: "127.0.0.1:0".into(), // ephemeral port
//!     ..ServeConfig::default()
//! })
//! .unwrap();
//! let handle = server.spawn().unwrap();
//! let addr = handle.addr().to_string();
//!
//! let health = client::request_once(&addr, "GET", "/healthz", None).unwrap();
//! assert_eq!(health.status, 200);
//! assert!(health.body.contains("\"ok\""));
//! handle.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accept;
pub mod client;
mod epoll;
pub mod http;
pub mod metrics;
pub mod node;
mod server;
pub mod trace;

pub(crate) use server::MAX_STREAM_CELLS;
pub use server::{cell_value, ServeConfig, Server, ServerHandle, MAX_GRID_CELLS};
