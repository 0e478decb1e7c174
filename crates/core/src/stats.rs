//! Cumulative counters exposed by the monitoring engines.
//!
//! The counters mirror the cost factors of the paper's §6 analysis, so the
//! `model` figure of the `paper` binary can put the analytical model side
//! by side with observed behaviour.

/// Cumulative counters of a grid-based engine (TMA / SMA / variants).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Processing cycles executed.
    pub ticks: u64,
    /// Tuples inserted.
    pub arrivals: u64,
    /// Tuples expired/deleted.
    pub expirations: u64,
    /// Queries whose result was rebuilt from scratch by the top-k
    /// computation module (initial computations plus re-computations).
    pub recompute_queries: u64,
    /// Grid traversals launched by the computation module. A traversal
    /// serves exactly one query, so this equals `recompute_queries`; the
    /// field stays because callers outside the workspace build this struct
    /// literally.
    pub recompute_groups: u64,
    /// Cells de-heaped (processed) by the computation module.
    pub cells_processed: u64,
    /// Points examined inside processed cells.
    pub points_scanned: u64,
    /// Cells pushed onto the computation heap.
    pub heap_pushes: u64,
    /// Cells visited by influence-list clean-up walks.
    pub cleanup_cells: u64,
    /// Arrivals a query's band *kept*: admitted by the threshold and not
    /// already dominated `depth` times on arrival.
    pub result_updates: u64,
    /// Per-(arrival run × query) influence-list probes: how often a query
    /// was pulled out of a cell's influence list during arrival replay.
    /// With cell-grouped replay each listed cell's list is walked once per
    /// tick, so this counts the *bookkeeping* cost of a cycle's arrivals.
    /// Expiry probes no list.
    pub cell_probes: u64,
    /// Per-(tuple × query) probes: entries of an arrival run's coordinate
    /// block streamed through the scoring kernels (an arrival × every
    /// query listed in its cell, the paper's influence probe), plus one
    /// per band per cycle for the expiry sweep at the window's cutoff.
    pub tuple_probes: u64,
}

impl EngineStats {
    /// Folds the stream-side counters of an ingest stage into these
    /// maintenance-side counters (the split introduced by
    /// [`crate::ingest::IngestState`]).
    pub fn with_ingest(mut self, ingest: crate::ingest::IngestStats) -> EngineStats {
        self.ticks += ingest.ticks;
        self.arrivals += ingest.arrivals;
        self.expirations += ingest.expirations;
        self
    }

    /// Accumulates another stats block field-wise (a monitor adds its
    /// maintenance stage's counters to its ingest stage's).
    pub fn absorb(&mut self, other: EngineStats) {
        self.ticks += other.ticks;
        self.arrivals += other.arrivals;
        self.expirations += other.expirations;
        self.recompute_queries += other.recompute_queries;
        self.recompute_groups += other.recompute_groups;
        self.cells_processed += other.cells_processed;
        self.points_scanned += other.points_scanned;
        self.heap_pushes += other.heap_pushes;
        self.cleanup_cells += other.cleanup_cells;
        self.result_updates += other.result_updates;
        self.cell_probes += other.cell_probes;
        self.tuple_probes += other.tuple_probes;
    }

    /// Per-query recomputations, summed over queries (kept as a method so
    /// callers of the pre-split `recomputations` field read the same
    /// quantity).
    #[inline]
    pub fn recomputations(&self) -> u64 {
        self.recompute_queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_recompute_counters() {
        let mut a = EngineStats {
            recompute_queries: 5,
            recompute_groups: 5,
            ..EngineStats::default()
        };
        let b = EngineStats {
            recompute_queries: 3,
            recompute_groups: 3,
            ..EngineStats::default()
        };
        a.absorb(b);
        assert_eq!(a.recompute_queries, 8);
        assert_eq!(a.recompute_groups, 8);
        assert_eq!(a.recomputations(), 8);
    }
}
