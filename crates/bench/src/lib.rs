#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

//! Experiment harness for reproducing the paper's tables and figures.
//!
//! The `paper` binary runs the figures and tables listed in [`figures`].
//! They share the machinery here: experiment configuration
//! ([`params::ExpParams`]), the engine runner ([`harness`]) that warms a
//! window, replays a measured stream and reports CPU time / space /
//! structural statistics, and the plain-text table printer ([`table`]).

pub(crate) mod analysis;
pub mod cli;
pub mod figures;
pub mod harness;
pub mod params;
pub mod table;
