#![deny(missing_docs)]
// `deny` (not `forbid`) since PR 10: the reactor's scoped `sys` module
// carries the workspace's only `#[allow(unsafe_code)]` for the four raw
// epoll syscalls; everything else in the crate remains safe Rust.
#![deny(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

//! Multi-client TCP serving layer over the continuous top-k monitor.
//!
//! The paper's engines answer *"what are the top-k right now?"*; this
//! crate answers *"who needs to hear that it changed?"*. It wraps one
//! [`tkm_core::MonitorServer`] in a std-only (no async runtime) socket
//! server speaking a line-oriented text protocol:
//!
//! * [`protocol`] — the wire grammar: `REGISTER` / `UNREGISTER` /
//!   `SUBSCRIBE` / `UNSUBSCRIBE` / `SNAPSHOT` / `TICK` / `TICKAT` /
//!   `STATS` requests, `OK`/`ERR` replies, and the asynchronous `DELTA` /
//!   `SNAPSHOT` / `RESYNC` pushes;
//! * [`session`] — per-connection state: one ordered outbound byte queue
//!   (shared-payload entries, partial-write cursor) with the
//!   **drop-to-snapshot** backpressure policy — a subscriber that cannot
//!   keep up with its delta stream loses its backlog and is re-baselined
//!   with fresh snapshots instead of growing an unbounded queue — plus
//!   the incremental [`session::LineFramer`] request framing;
//! * [`reactor`] — the serving event loop: a hand-rolled
//!   level-triggered `epoll` loop on **one thread** owns the listener and
//!   every socket (nonblocking accept/read/write, no async runtime), so
//!   the thread count is constant, not O(connections), and runs each
//!   framed request's handler inline, under a per-wakeup request budget
//!   per session;
//! * [`service`] — the request handlers and the [`Service`] handle: the
//!   one serving thread holds the engine and the one subscription table,
//!   executes requests in arrival order, batches queued arrivals into
//!   **one engine cycle per tick** (immediate under manual ticking, once
//!   per wall-clock interval otherwise), and encodes each cycle's
//!   [`tkm_core::ResultDelta`]s **once per delta** into shared byte
//!   payloads enqueued, by one loop over the subscription table, onto
//!   exactly the sessions subscribed to each query (the ordering
//!   guarantees this gives subscribers are listed in the module's docs);
//! * [`client`] — a small blocking client used by the integration tests,
//!   the benchmark's `serve` workload, the `serve` bench binary and the
//!   README walkthrough, with optional reconnect/backoff/resume
//!   resilience ([`ReconnectPolicy`]);
//! * [`distrib`] — the multi-site tier: a [`Role::Site`] server runs a
//!   local engine over its partition of the stream and ships only result
//!   *changes* (`SITEDELTA`) up one coordinator uplink, and a
//!   [`Role::Coordinator`] merges per-site partial results into global
//!   top-k's with lease-based liveness, a bounded-staleness publish
//!   frontier, and graceful `DEGRADED` degradation when sites die.
//!
//! The failure model (idle reaping, write deadlines, `PING`/`PONG`
//! heartbeats, per-session request budgets, client backoff) is
//! documented in the README's *Failure model* section and in
//! `docs/ARCHITECTURE.md`.
//!
//! The deployment shape follows the pub/sub framing of the related work
//! (see `PAPERS.md`): many standing subscriptions over one shared stream,
//! with per-client traffic kept to result *deltas* rather than full
//! snapshots.
//!
//! ```no_run
//! use tkm_core::ServerConfig;
//! use tkm_service::{Service, ServiceClient, ServiceConfig};
//!
//! // Serve an SMA engine over a count-1000 window on an OS-chosen port.
//! let service = Service::bind("127.0.0.1:0", ServiceConfig::new(ServerConfig::sma(2, 1000)))
//!     .unwrap();
//!
//! // A subscriber registers a query and follows its changes...
//! let mut sub = ServiceClient::connect(service.local_addr()).unwrap();
//! let q = sub.register_linear(3, &[1.0, 2.0]).unwrap();
//! let baseline = sub.subscribe(q).unwrap();
//! assert!(baseline.is_empty());
//!
//! // ...while an ingest connection drives the stream.
//! let mut ingest = ServiceClient::connect(service.local_addr()).unwrap();
//! ingest.tick(&[0.9, 0.4, 0.3, 0.8]).unwrap();
//!
//! let delta = sub.next_push().unwrap(); // DELTA q0 @1 +t0:.. +t1:..
//! # drop(delta);
//! service.shutdown();
//! ```

pub mod client;
pub mod distrib;
mod float;
pub mod protocol;
pub mod reactor;
pub mod service;
pub mod session;

pub use client::{
    apply_push, ClientError, ClientResult, ClientStatus, ReconnectPolicy, ServiceClient,
};
pub use distrib::{Role, SiteRole};
pub use protocol::{
    parse_request, parse_server_line, ErrCode, Family, Push, QuerySpec, Reply, Request, ServerLine,
    WireWindow,
};
pub use reactor::{PollEvent, Poller};
pub use service::{Service, ServiceConfig, TickPolicy};
pub use session::{FramedLine, LineFramer, SessionId, SessionOut, MAX_REQUEST_LINE};
