#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

//! # topk-monitor
//!
//! Continuous monitoring of top-k queries over sliding windows — a
//! production-quality Rust implementation of *Mouratidis, Bakiras,
//! Papadias, SIGMOD 2006* (DOI 10.1145/1142473.1142544).
//!
//! A d-dimensional append-only stream flows through a sliding window
//! (count-based or time-based); the server continuously reports, for every
//! registered query, the k valid tuples with the highest score under the
//! query's monotone preference function. Valid tuples live in main memory,
//! indexed by a regular grid with per-cell *influence lists* that restrict
//! maintenance work to the sub-domains of the workspace that can change
//! some result.
//!
//! ## Quick start
//!
//! ```
//! use topk_monitor::{MonitorServer, Query, ScoreFn, ServerConfig};
//!
//! // An SMA server over a count-based window of the 1000 most recent
//! // 2-attribute tuples.
//! let mut server = MonitorServer::new(ServerConfig::sma(2, 1000)).unwrap();
//! let q = server
//!     .register(Query::top_k(ScoreFn::linear(vec![1.0, 2.0]).unwrap(), 3).unwrap())
//!     .unwrap();
//!
//! // One processing cycle: three arrivals (flat coordinate buffer).
//! server.tick(&[0.9, 0.4, 0.3, 0.8, 0.5, 0.5]).unwrap();
//!
//! let top = server.result(q).unwrap();
//! assert_eq!(top.len(), 3);
//! assert!(top[0].score >= top[1].score);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`tkm_common`] | ids, ordered floats, hashing, scoring functions, rectangles |
//! | [`tkm_window`] | count/time sliding windows: a coordinate-free timeline plus a coordinate ring |
//! | [`tkm_grid`] | regular grid, point lists, influence lists |
//! | [`tkm_skyband`] | k-skyband with dominance counters |
//! | [`tkm_tsl`] | TSL baseline (sorted lists + TA + kmax views) |
//! | [`tkm_core`] | TMA, SMA, computation module, §7 extensions, server |
//! | [`tkm_service`] | TCP serving layer: wire protocol, sessions, delta fan-out |
//! | [`tkm_datagen`] | IND/ANT generators, query workloads, stream simulator |
//! | [`tkm_analysis`] | §6 analytical cost model |
//!
//! The most common items are re-exported at the root.

/// Every fenced `rust` block in the README compiles and runs as a doctest
/// of this item (`cargo test --doc`), so the README's snippets can never
/// drift from the real API again.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;

pub use tkm_analysis::ModelParams;
pub use tkm_common::{
    LinearFn, Monotonicity, OrderedF64, ProductFn, QuadraticFn, QueryId, QuerySlot, Rect, Result,
    ScoreFn, Scored, ScoringFunction, Timestamp, TkmError, TupleId, MAX_DIMS,
};
pub use tkm_core::{
    build_engine, compute_topk, ComputeScratch, ContinuousTopK, DeltaList, EngineKind, EngineStats,
    GridSpec, IngestState, Monitor, MonitorServer, OracleMonitor, PiecewiseMonitor, PiecewiseQuery,
    Query, QueryMaintenance, QueryRegistry, ResultDelta, ServerConfig, SmaMaintenance, SmaMonitor,
    ThresholdMonitor, TmaMaintenance, TmaMonitor, UpdateOp, UpdateStreamTma,
};
pub use tkm_datagen::{DataDist, FnFamily, PointGen, QueryGen, StreamSim};
pub use tkm_service::{Service, ServiceClient, ServiceConfig, TickPolicy};
pub use tkm_skyband::{tuned_kmax, Skyband};
pub use tkm_tsl::{KmaxPolicy, TslMonitor};
pub use tkm_window::{Timeline, Window, WindowSpec};

// Full sub-crate access for advanced use.
pub use tkm_analysis as analysis;
pub use tkm_common as common;
pub use tkm_core as engines;
pub use tkm_datagen as datagen;
pub use tkm_grid as grid;
pub use tkm_service as service;
pub use tkm_skyband as skyband;
pub use tkm_tsl as baseline;
pub use tkm_window as window;
