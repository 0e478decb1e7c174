#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

//! The **Threshold Sorted List** (TSL) baseline of the paper (§3.2).
//!
//! TSL is the benchmark competitor assembled from prior work: the initial
//! result of a query is computed with Fagin's **Threshold Algorithm** (TA)
//! over `d` per-dimension sorted lists, and maintained with the
//! materialised-view technique of Yi et al. — each query keeps a *top-k′*
//! view with `k ≤ k′ ≤ kmax` entries; arrivals that beat the view's worst
//! member enter it (evicting the worst when `k′ = kmax`), expiries shrink
//! it, and when `k′` drops below `k` the view is refilled to `kmax` entries
//! by running TA again.
//!
//! Per processing cycle TSL therefore pays: `2·r·d` sorted-list updates plus
//! `r·Q` score evaluations (every arrival is scored against every view) —
//! the costs that the paper's grid-based TMA/SMA avoid.

pub mod lists;
pub mod monitor;
pub mod ta;
pub mod view;

pub use lists::SortedLists;
pub use monitor::{tuned_kmax, KmaxPolicy, TslMonitor, TslStats};
pub use ta::ta_search;
pub use view::TopView;
