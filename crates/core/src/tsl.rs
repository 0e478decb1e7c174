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

mod lists;
mod monitor;
mod ta;
pub(crate) mod view;

pub use lists::SortedLists;
pub use monitor::{KmaxPolicy, TslMonitor, TslStats};
pub use ta::{ta_search, TaAccessStats};
