#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

//! Continuous top-k monitoring over sliding windows — the core engines.
//!
//! This crate implements the primary contribution of *Mouratidis, Bakiras,
//! Papadias: "Continuous Monitoring of Top-k Queries over Sliding Windows"
//! (SIGMOD 2006)*:
//!
//! * the **top-k computation module** ([`compute`]) that processes the
//!   minimal set of grid cells in descending `maxscore` order, streaming
//!   points out of the grid's coordinate-inline cell blocks through the
//!   dim-specialized **scoring kernels** ([`kernel`]);
//! * **one maintenance stage, two policies**
//!   ([`maintenance::BandMaintenance`]): §5 reduces top-k monitoring to
//!   k-skyband maintenance and §8's refill idea gives TMA a band too, so
//!   both engines keep, per query, a skyband of the tuples at or above an
//!   admission threshold and serve its k-prefix; the compile-time
//!   [`maintenance::BandPolicy`] carries what differs:
//!
//!   | policy | band depth | tightening cap | labels |
//!   |--------|------------|----------------|--------|
//!   | **TMA** ([`TmaMonitor`]) | `tuned_kmax(k)` | `2·depth + 8` | `TMA` / `TMA-SHARED` |
//!   | **SMA** ([`SmaMonitor`]) | `k` | never | `SMA` / `SMA-SHARED` |
//!
//!   Every band entry scores ≥ the admission threshold, so while the band
//!   holds ≥ k entries its k-prefix is the exact top-k; a traversal is
//!   needed only when a band drains below `k` (or outgrows its cap);
//! * **one monitor sandwich** ([`monitor::Monitor`]): a shared **ingest
//!   stage** ([`ingest::IngestState`] — one grid holding each tuple once,
//!   ordered by a window timeline, populated once per tick) under `S ≥ 1` shardable **query maintenance** stages
//!   ([`maintenance::QueryMaintenance`]), replayed inline at `S = 1` and
//!   from scoped threads above;
//! * lazy **influence-list** book-keeping with frontier clean-up walks
//!   ([`influence`]);
//! * the §7 extensions: **constrained** top-k queries ([`query::Query`]),
//!   **threshold** monitoring ([`threshold::ThresholdMonitor`], on the
//!   same ingest stage, with static influence lists and no bands) and the
//!   explicit-deletion **update-stream** model
//!   ([`update_stream::UpdateStreamTma`], whose only tuple store is an
//!   id-indexed grid);
//! * a **brute-force oracle** ([`oracle::OracleMonitor`]) and a common
//!   engine trait ([`engine::ContinuousTopK`]) under which TMA, SMA, the
//!   TSL baseline and the oracle are interchangeable — and verified to
//!   report identical results;
//! * a high-level [`server::MonitorServer`] facade, with per-tick result
//!   deltas ([`result::ResultDelta`]) and per-query delta routing
//!   ([`route::DeltaRouter`]) as the seam for serving layers such as the
//!   `tkm_service` wire protocol.

pub mod compute;
pub mod engine;
pub mod influence;
pub mod ingest;
pub mod kernel;
pub mod maintenance;
pub mod monitor;
pub mod oracle;
pub mod piecewise;
pub mod query;
pub mod registry;
pub mod result;
pub mod route;
pub mod server;
pub mod stats;
#[cfg(test)]
mod testutil;
pub mod threshold;
pub mod update_stream;

pub use compute::{compute_topk, ComputeOutcome, ComputeScratch, ComputeStats, InfluenceUpdate};
pub use engine::{build_engine, ContinuousTopK, EngineKind};
pub use ingest::{GridSpec, IngestState, IngestStats};
pub use maintenance::{
    BandMaintenance, BandPolicy, QueryMaintenance, SmaMaintenance, SmaPolicy, TmaMaintenance,
    TmaPolicy,
};
pub use monitor::{Monitor, SmaMonitor, TmaMonitor};
pub use oracle::OracleMonitor;
pub use piecewise::{PiecewiseMonitor, PiecewiseQuery};
pub use query::Query;
pub use registry::QueryRegistry;
pub use result::{DeltaList, ResultDelta, TopList};
pub use route::DeltaRouter;
pub use server::{MonitorServer, ServerConfig};
pub use stats::EngineStats;
pub use threshold::ThresholdMonitor;
pub use update_stream::{UpdateOp, UpdateStreamTma};
