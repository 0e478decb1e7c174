#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

//! Workload generation for the experiments (paper §8).
//!
//! * [`dist`] — the two standard preference-query benchmarks: **IND**
//!   (independent/uniform attributes) and **ANT** (anti-correlated
//!   attributes, generated in the manner of Börzsönyi et al.'s skyline
//!   benchmark: points concentrate around the hyperplane `Σxᵢ = d/2`, so
//!   tuples good in one dimension are bad in the others).
//! * [`queries`] — random query workloads: linear `f(p) = Σ aᵢ·pᵢ`,
//!   product `f(p) = Π (aᵢ + pᵢ)` and quadratic `f(p) = Σ aᵢ·pᵢ²`
//!   functions with coefficients drawn uniformly from `[0, 1]`.
//! * [`stream`] — the deterministic stream simulator: warm-up fill of `N`
//!   tuples followed by ticks of `r` arrivals each.

pub mod dist;
pub mod queries;
pub mod stream;

pub use dist::{DataDist, PointGen};
pub use queries::{FnFamily, QueryGen};
pub use stream::StreamSim;
