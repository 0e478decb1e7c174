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
//!   | policy | band depth | tightening cap | label |
//!   |--------|------------|----------------|-------|
//!   | **TMA** ([`TmaMonitor`]) | `tuned_kmax(k)` | `2·depth + 8` | `TMA` |
//!   | **SMA** ([`SmaMonitor`]) | `k` | never | `SMA` |
//!
//!   Every band entry scores ≥ the admission threshold, so while the band
//!   holds ≥ k entries its k-prefix is the exact top-k; a traversal is
//!   needed only when a band drains below `k` (or outgrows its cap). The
//!   band is a [`skyband::Skyband`]: k-skyband maintenance with dominance
//!   counters in the (score, expiry-time) space of §3.1;
//! * **one monitor sandwich** ([`monitor::Monitor`]): one **ingest
//!   stage** ([`ingest::IngestState`] — one grid holding each tuple once,
//!   ordered by a window timeline, populated once per tick) under one
//!   **query maintenance** stage ([`maintenance::QueryMaintenance`]) that
//!   replays the tick's events;
//! * one **query table** for every grid stage ([`influence`]): the
//!   queries, their lazily maintained **influence lists** and the
//!   traversal scratch, registered, recomputed (with frontier clean-up
//!   walks) and removed in one place, which sweeps a query's entries in
//!   the call that frees its slot;
//! * the §7 extensions: **constrained** top-k queries ([`query::Query`]),
//!   **threshold** monitoring ([`threshold::ThresholdMonitor`], on the
//!   same ingest stage and query table, with static influence lists and no
//!   bands) and the explicit-deletion **update-stream** model
//!   ([`update_stream::UpdateStreamTma`], whose only tuple store is an
//!   id-indexed grid, on the same query table);
//! * the **TSL baseline** of §3.2 ([`tsl::TslMonitor`]: per-dimension
//!   sorted lists, Fagin's Threshold Algorithm and `kmax` views), the
//!   competitor of §8;
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
pub mod skyband;
pub mod stats;
#[cfg(test)]
mod testutil;
pub mod threshold;
pub mod tsl;
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
pub use tsl::{KmaxPolicy, TslMonitor};
pub use update_stream::{UpdateOp, UpdateStreamTma};

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;
    use tkm_common::{HeapBytes, Scored};
    use tkm_window::WindowSpec;

    /// A non-root counts no inline bytes: built empty or over a one-cell
    /// grid, every type below a root reports only the buffers it
    /// allocates — none, or exactly the ones its constructor sizes.
    #[test]
    fn non_roots_count_no_inline_bytes() {
        let one_cell = IngestState::new(2, WindowSpec::Count(10), GridSpec::PerDim(1)).unwrap();
        let grid = one_cell.grid().heap_bytes();
        // One cell: an influence list (16 B), its listed-bit word (8 B)
        // and a visit stamp (4 B).
        let stage = 16 + 8 + 4;
        let table = [
            ("ComputeScratch", ComputeScratch::new(0).heap_bytes(), 0),
            (
                "QueryTable",
                influence::QueryTable::<Query>::new(0).heap_bytes(),
                0,
            ),
            (
                "ListedEvents",
                influence::ListedEvents::default().heap_bytes(),
                0,
            ),
            (
                "MergeScratch",
                skyband::MergeScratch::default().heap_bytes(),
                0,
            ),
            ("TopList", TopList::default().heap_bytes(), 0),
            (
                "QueryRegistry",
                QueryRegistry::<TopList>::new().heap_bytes(),
                0,
            ),
            (
                "Skyband",
                skyband::Skyband::new(4).unwrap().heap_bytes(),
                7 * (size_of::<Scored>() + 4),
            ),
            (
                "TopView",
                tsl::view::TopView::new(2, 5).unwrap().heap_bytes(),
                6 * size_of::<Scored>(),
            ),
            (
                "SortedLists",
                tsl::SortedLists::new(3).unwrap().heap_bytes(),
                3 * size_of::<
                    std::collections::BTreeSet<(tkm_common::OrderedF64, tkm_common::TupleId)>,
                >(),
            ),
            // The grid alone: the stage keeps no per-cell table.
            ("IngestState", one_cell.heap_bytes(), grid),
            (
                "TmaMaintenance",
                TmaMaintenance::new_for(&one_cell).heap_bytes(),
                stage,
            ),
            (
                "SmaMaintenance",
                SmaMaintenance::new_for(&one_cell).heap_bytes(),
                stage,
            ),
        ];
        for (name, heap, want) in table {
            assert_eq!(heap, want, "{name}");
        }
    }
}
