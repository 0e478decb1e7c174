#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

//! Core vocabulary types shared by every crate in the top-k monitoring
//! workspace.
//!
//! This crate deliberately has no dependencies: it defines the tuple/query
//! identifiers, a totally ordered `f64` wrapper, a fast hasher for integer
//! keys, the monotone scoring functions of the paper (linear, product,
//! quadratic, plus an open `Custom` variant), axis-parallel rectangles,
//! the [`HeapBytes`] convention every space figure is counted by, and the
//! workspace error type.

pub mod error;
pub mod fxhash;
pub mod geom;
pub mod heap;
pub mod ids;
pub mod ordered;
pub mod score;

pub use error::{same_dims, Result, TkmError};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use geom::Rect;
pub use heap::HeapBytes;
pub use ids::{QueryId, QuerySlot, Timestamp, TupleId};
pub use ordered::OrderedF64;
pub use score::{
    LinearFn, Monotonicity, ProductFn, QuadraticFn, ScoreFn, Scored, ScoringFunction, MAX_DIMS,
};
