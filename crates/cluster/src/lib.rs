//! # `mcdla-cluster` — scenario serving across a fleet of workers
//!
//! PR 2 made the KwonR18 reproduction a service (`mcdla-serve`); this
//! crate makes it a **fleet**. A gateway owns the worker topology and
//! routes every scenario to its owning worker by **rendezvous hashing**
//! of the canonical result-store key ([`mcdla_core::key_hash`]), so:
//!
//! * aggregate cache capacity scales with the fleet — each worker holds
//!   only its slice of the keyspace, and a working set that thrashes
//!   one worker's bounded store fits comfortably across N of them;
//! * simulate throughput scales with the fleet — distinct cells land on
//!   distinct workers and simulate concurrently;
//! * the same cell always lands on the same worker, so the fleet-wide
//!   hit rate matches a single giant cache (no duplicated residency
//!   beyond failover).
//!
//! On top of routing sit the operational layers a fleet needs:
//! passive + probed **health tracking** and bounded **retry/failover**
//! ([`Router`]), **scatter-gather** for grid requests — buffered answers merged back
//! into single-node cell order, streamed ones relayed as cells finish
//! ([`Gateway`]),
//! fleet-wide stats aggregation (`GET /cluster/stats`), and Prometheus
//! `GET /metrics` on the gateway (workers grew their own in
//! `mcdla-serve`).
//!
//! Every `POST /simulate` rides the gateway's event loop, over
//! keep-alive upstream links the loop owns; grids, scrapes and health
//! probes each open a fresh blocking connection and close it after.
//!
//! ## Endpoints
//!
//! | endpoint | behaviour |
//! |---|---|
//! | `POST /simulate` | routed to the owning worker; retry + next-replica failover on connect failure/5xx; worker 2xx/4xx passes through verbatim; all-unreachable → 502 naming each worker |
//! | `POST /grid` | cells partitioned by owner, scattered as explicit `{"cells": [...]}` sub-grids, merged back in grid order |
//! | `POST /grid?stream=1` | one sub-stream per owning worker, all drained at once, NDJSON lines forwarded verbatim in completion order across the fleet; a sub-stream failure mid-stream closes every other one and ends without the terminal chunk |
//! | `GET /healthz` | gateway liveness + worker up-counts |
//! | `GET /cluster/stats` | gateway counters + every worker's `/stats` + fleet totals |
//! | `GET /metrics` | Prometheus text exposition |
//!
//! `docs/cluster.md` covers the topology/failover design;
//! `docs/protocol.md` specifies the wire surface.
//!
//! ## Example
//!
//! ```
//! use mcdla_cluster::{spawn_local_fleet, FleetConfig};
//! use mcdla_serve::client;
//!
//! let fleet = spawn_local_fleet(&FleetConfig {
//!     workers: 2,
//!     probe_interval: None,
//!     ..FleetConfig::default()
//! })
//! .unwrap();
//! let addr = fleet.gateway_addr().to_string();
//! let health = client::request_once(&addr, "GET", "/healthz", None).unwrap();
//! assert_eq!(health.status, 200);
//! assert!(health.body.contains("mcdla-gateway"));
//! fleet.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod console;
mod gateway;
mod merge;
mod router;
mod topology;

pub use gateway::{
    spawn_local_fleet, worker_snapshot_path, FleetConfig, Gateway, GatewayConfig, GatewayHandle,
    LocalFleet,
};
pub use router::{Router, WorkerState};
pub use topology::Topology;
