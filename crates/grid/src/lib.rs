#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

//! In-memory regular grid index (paper §4.1).
//!
//! The valid tuples are indexed by a regular grid: cell `c_{i,j,…}` covers
//! `[i·δ, (i+1)·δ) × [j·δ, (j+1)·δ) × …` of the unit workspace. Each cell
//! keeps
//!
//! * a coordinate-inline *point list* of the valid tuples inside it — a
//!   chain of fixed-size chunks in one grid-owned arena of id and
//!   packed-coordinate arrays ([`cell`]), so cell scans never chase
//!   pointers into other storage and no cell owns a heap object.
//!   Deletion is a pop-front for sliding windows (per-cell arrival order
//!   equals per-cell expiry order) or id-indexed for the §7
//!   explicit-deletion stream model.
//!
//! The paper's per-cell *influence lists* (the ids of the queries whose
//! influence region intersects a cell, hash sets for O(1)
//! search/insert/delete) are kept in a parallel [`InfluenceTable`] indexed
//! by cell id rather than inside the cells themselves: query maintenance
//! then only ever *reads* the grid, so one shared grid can serve many
//! maintenance shards concurrently while each shard owns the lists for its
//! own queries.
//!
//! The grid also provides the geometric primitives the top-k computation
//! module needs: locating a tuple's cell in O(1), the `maxscore` of a cell
//! under a monotone scoring function, the best-corner start cell and the
//! per-dimension "one step worse" neighbours that drive the minimal-cell
//! traversal of Figure 6.

pub mod cell;
pub mod grid;
pub mod influence;
pub mod visit;

pub use cell::{CellMode, CellPoints, Chunks, CHUNK_POINTS};
pub use grid::{CellId, Grid};
pub use influence::InfluenceTable;
pub use visit::VisitStamps;
