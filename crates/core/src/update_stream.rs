//! Top-k monitoring over *update streams* (paper §7): streams with explicit
//! deletions instead of sliding-window expiry.
//!
//! Tuples no longer leave in arrival order, so the FIFO machinery is
//! replaced: the backing store is a slab with hash lookup and the grid
//! deletes from its coordinate-inline cells through an id → position
//! index. TMA carries over directly — a deletion
//! hitting a result triggers recomputation. SMA does **not** apply: the
//! skyband reduction requires knowing the expiry order in advance, which an
//! update stream does not provide (constructing [`UpdateStreamTma`] is the
//! only supported option, and the crate intentionally offers no SMA
//! counterpart).

use crate::compute::{compute_topk, ComputeScratch, InfluenceUpdate};
use crate::influence::{cleanup_from_frontier, remove_query_walk};
use crate::ingest::GridSpec;
use crate::kernel;
use crate::query::Query;
use crate::registry::QueryRegistry;
use crate::result::TopList;
use crate::stats::EngineStats;
use tkm_common::{QueryId, QuerySlot, Result, Scored, TkmError, TupleId};
use tkm_grid::{CellMode, Grid, InfluenceTable};
use tkm_window::SlabStore;

/// One operation of an update stream.
#[derive(Clone, Debug, PartialEq)]
pub enum UpdateOp {
    /// Insert a tuple with these coordinates.
    Insert(Vec<f64>),
    /// Delete a previously inserted tuple.
    Delete(TupleId),
}

#[derive(Debug)]
struct UsQuery {
    query: Query,
    top: TopList,
    affected: bool,
    /// [`ComputeOutcome::region_bound`] of the last computation: cells
    /// with traversal keys strictly above this already carry the slot.
    ///
    /// [`ComputeOutcome::region_bound`]: crate::compute::ComputeOutcome
    region_bound: f64,
}

/// TMA over an explicit-deletion update stream.
#[derive(Debug)]
pub struct UpdateStreamTma {
    store: SlabStore,
    grid: Grid,
    influence: InfluenceTable,
    scratch: ComputeScratch,
    queries: QueryRegistry<UsQuery>,
    stats: EngineStats,
    /// Reused per-cycle scratch: slots whose result lost a tuple.
    affected: Vec<QuerySlot>,
}

impl UpdateStreamTma {
    /// Creates a monitor over `dims`-dimensional tuples.
    pub fn new(dims: usize, grid: GridSpec) -> Result<UpdateStreamTma> {
        let grid = grid.build(dims, CellMode::Hash)?;
        let scratch = ComputeScratch::new(grid.num_cells());
        let influence = InfluenceTable::new(grid.num_cells());
        Ok(UpdateStreamTma {
            store: SlabStore::new(dims)?,
            grid,
            influence,
            scratch,
            queries: QueryRegistry::new(),
            stats: EngineStats::default(),
            affected: Vec::new(),
        })
    }

    /// Dimensionality.
    #[inline]
    pub fn dims(&self) -> usize {
        self.store.dims()
    }

    /// The backing store (read access).
    #[inline]
    pub fn store(&self) -> &SlabStore {
        &self.store
    }

    /// The underlying grid (read access, for diagnostics).
    #[inline]
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Registers a query and computes its initial result.
    pub fn register_query(&mut self, id: QueryId, query: Query) -> Result<()> {
        if query.dims() != self.dims() {
            return Err(TkmError::DimensionMismatch {
                expected: self.dims(),
                got: query.dims(),
            });
        }
        let k = query.k;
        let slot = self.queries.insert(
            id,
            UsQuery {
                query,
                top: TopList::new(k),
                affected: false,
                region_bound: f64::INFINITY,
            },
        )?;
        let Self {
            grid,
            influence,
            scratch,
            queries,
            stats,
            ..
        } = self;
        let (_, st) = queries.slot_mut(slot);
        let out = compute_topk(
            grid,
            scratch,
            Some(InfluenceUpdate::fresh(influence, slot)),
            &st.query.f,
            st.query.k,
            st.query.constraint.as_ref(),
            false,
            Some(std::mem::take(&mut st.top)),
        );
        stats.recompute_queries += 1;
        stats.recompute_groups += 1;
        stats.cells_processed += out.stats.cells_processed;
        stats.points_scanned += out.stats.points_scanned;
        st.top = out.top;
        st.region_bound = out.region_bound;
        Ok(())
    }

    /// Terminates a query, clearing its influence-list entries.
    pub fn remove_query(&mut self, id: QueryId) -> Result<()> {
        let (slot, st) = self.queries.remove(id)?;
        // Unlike the sliding-window engines (whose affected list lives only
        // inside one `apply_events` call), this one persists across the
        // open cycle — drop the slot before it is freed, or `end_cycle`
        // would resolve a dead (or recycled) slot.
        self.affected.retain(|s| *s != slot);
        self.stats.cleanup_cells += remove_query_walk(
            &self.grid,
            &mut self.influence,
            &mut self.scratch,
            slot,
            &st.query.f,
            st.query.constraint.as_ref(),
        );
        Ok(())
    }

    /// The current top-k result of a query, best first. Valid after
    /// [`UpdateStreamTma::end_cycle`] (deletions mid-cycle leave affected
    /// queries unresolved until then).
    pub fn result(&self, id: QueryId) -> Result<&[Scored]> {
        self.queries
            .get(id)
            .map(|q| q.top.as_slice())
            .ok_or(TkmError::UnknownQuery(id))
    }

    /// Inserts a tuple, updating affected results immediately.
    pub fn insert(&mut self, coords: &[f64]) -> Result<TupleId> {
        if coords.len() != self.dims() {
            return Err(TkmError::DimensionMismatch {
                expected: self.dims(),
                got: coords.len(),
            });
        }
        if let Some(bad) = coords.iter().find(|x| !(0.0..=1.0).contains(*x)) {
            return Err(TkmError::InvalidParameter(format!(
                "insert: coordinate {bad} outside the unit workspace"
            )));
        }
        let id = self.store.insert(coords)?;
        self.stats.arrivals += 1;
        let cell = self.grid.insert_point(coords, id);
        let queries = &mut self.queries;
        let slots = self.influence.as_slice(cell);
        // Each update is a cell run of one tuple, so the per-(run × query)
        // probe count equals the list length (same semantics as the
        // sliding-window engines' cell-grouped replay).
        self.stats.cell_probes += slots.len() as u64;
        for &slot in slots {
            self.stats.tuple_probes += 1;
            let (_, st) = queries.slot_mut(slot);
            if let Some(r) = &st.query.constraint {
                if !r.contains(coords) {
                    continue;
                }
            }
            let score = kernel::score_point(&st.query.f, coords);
            if score >= st.top.threshold() && st.top.offer(Scored::new(score, id)) {
                self.stats.result_updates += 1;
            }
        }
        Ok(id)
    }

    /// Deletes a tuple, marking queries whose result it was part of.
    pub fn delete(&mut self, id: TupleId) -> Result<()> {
        let mut scratch = self.scratch.coords;
        self.store.remove_into(id, &mut scratch)?;
        self.stats.expirations += 1;
        let coords = &scratch[..self.dims()];
        let cell = self
            .grid
            .remove_point(coords, id)
            // lint: allow(panic, reason=store/grid lockstep is the ingest invariant; desync is unrecoverable)
            .expect("store and grid are updated in lockstep");
        let queries = &mut self.queries;
        let slots = self.influence.as_slice(cell);
        self.stats.cell_probes += slots.len() as u64;
        for &slot in slots {
            self.stats.tuple_probes += 1;
            let (_, st) = queries.slot_mut(slot);
            if st.top.remove(id) && !st.affected {
                st.affected = true;
                self.affected.push(slot);
            }
        }
        Ok(())
    }

    /// Finishes a processing cycle: recomputes every query affected by
    /// deletions since the last call.
    pub fn end_cycle(&mut self) {
        self.stats.ticks += 1;
        let Self {
            grid,
            influence,
            scratch,
            queries,
            stats,
            affected,
            ..
        } = self;
        for &slot in affected.iter() {
            let (_, st) = queries.slot_mut(slot);
            st.affected = false;
            let out = compute_topk(
                grid,
                scratch,
                Some(InfluenceUpdate {
                    table: influence,
                    slot,
                    listed_above: st.region_bound,
                }),
                &st.query.f,
                st.query.k,
                st.query.constraint.as_ref(),
                false,
                Some(std::mem::take(&mut st.top)),
            );
            stats.recompute_queries += 1;
            stats.recompute_groups += 1;
            stats.cells_processed += out.stats.cells_processed;
            stats.points_scanned += out.stats.points_scanned;
            st.top = out.top;
            st.region_bound = out.region_bound;
            stats.cleanup_cells += cleanup_from_frontier(
                grid,
                influence,
                scratch,
                slot,
                &st.query.f,
                st.query.constraint.as_ref(),
            );
        }
        affected.clear();
    }

    /// Applies a batch of operations as one processing cycle; returns the
    /// ids assigned to the inserts, in order.
    pub fn apply(&mut self, ops: &[UpdateOp]) -> Result<Vec<TupleId>> {
        let mut ids = Vec::new();
        for op in ops {
            match op {
                UpdateOp::Insert(coords) => ids.push(self.insert(coords)?),
                UpdateOp::Delete(id) => self.delete(*id)?,
            }
        }
        self.end_cycle();
        Ok(ids)
    }

    /// Cumulative counters.
    #[inline]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Deep size estimate in bytes.
    pub fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.store.space_bytes()
            + self.grid.space_bytes()
            + self.influence.space_bytes()
            + self.scratch.space_bytes()
            + self.queries.space_bytes()
            + self.affected.capacity() * std::mem::size_of::<QuerySlot>()
            + self
                .queries
                .iter()
                .map(|(_, q)| std::mem::size_of::<UsQuery>() + q.top.space_bytes())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkm_common::ScoreFn;

    fn lcg(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 11) as f64 / (1u64 << 53) as f64).clamp(0.0, 1.0)
    }

    fn brute(store: &SlabStore, q: &Query) -> Vec<Scored> {
        let mut all: Vec<Scored> = store
            .iter()
            .filter(|(_, c)| q.constraint.as_ref().is_none_or(|r| r.contains(c)))
            .map(|(id, c)| Scored::new(q.f.score(c), id))
            .collect();
        all.sort_by(|a, b| b.cmp(a));
        all.truncate(q.k);
        all
    }

    #[test]
    fn random_insert_delete_stream_matches_brute_force() {
        let mut m = UpdateStreamTma::new(2, GridSpec::PerDim(6)).unwrap();
        let q = Query::top_k(ScoreFn::linear(vec![1.0, 2.0]).unwrap(), 3).unwrap();
        m.register_query(QueryId(0), q.clone()).unwrap();
        let mut seed = 42u64;
        let mut live: Vec<TupleId> = Vec::new();
        for cycle in 0..60 {
            let mut ops = Vec::new();
            for _ in 0..4 {
                ops.push(UpdateOp::Insert(vec![lcg(&mut seed), lcg(&mut seed)]));
            }
            // Delete ~3 arbitrary live tuples (not FIFO!).
            for _ in 0..3 {
                if live.len() > 2 {
                    let idx = (lcg(&mut seed) * live.len() as f64) as usize % live.len();
                    ops.push(UpdateOp::Delete(live.swap_remove(idx)));
                }
            }
            let new_ids = m.apply(&ops).unwrap();
            live.extend(new_ids);
            assert_eq!(
                m.result(QueryId(0)).unwrap(),
                &brute(m.store(), &q)[..],
                "divergence at cycle {cycle}"
            );
        }
        assert!(m.stats().recomputations() > 1, "deletions hit the result");
    }

    #[test]
    fn delete_validation() {
        let mut m = UpdateStreamTma::new(1, GridSpec::PerDim(4)).unwrap();
        let id = m.insert(&[0.5]).unwrap();
        m.delete(id).unwrap();
        assert!(matches!(m.delete(id), Err(TkmError::UnknownTuple(_))));
        assert!(m.insert(&[1.5]).is_err());
        assert!(m.insert(&[0.1, 0.2]).is_err());
    }

    #[test]
    fn deleting_entire_result_recovers() {
        let mut m = UpdateStreamTma::new(2, GridSpec::PerDim(4)).unwrap();
        let q = Query::top_k(ScoreFn::linear(vec![1.0, 1.0]).unwrap(), 2).unwrap();
        let a = m.insert(&[0.9, 0.9]).unwrap();
        let b = m.insert(&[0.8, 0.8]).unwrap();
        let _c = m.insert(&[0.1, 0.1]).unwrap();
        m.register_query(QueryId(1), q).unwrap();
        m.apply(&[UpdateOp::Delete(a), UpdateOp::Delete(b)])
            .unwrap();
        let res = m.result(QueryId(1)).unwrap();
        assert_eq!(res.len(), 1);
        assert!((res[0].score.get() - 0.2).abs() < 1e-12);
    }

    /// Regression: a query removed while deletions have it queued for
    /// recomputation must not leave its (freed, possibly recycled) slot in
    /// the pending-affected list — `end_cycle` would resolve a dead slot
    /// (panic) or recompute whichever query recycled it.
    #[test]
    fn removing_affected_query_before_end_cycle_is_safe() {
        let mut m = UpdateStreamTma::new(2, GridSpec::PerDim(4)).unwrap();
        let q = Query::top_k(ScoreFn::linear(vec![1.0, 1.0]).unwrap(), 2).unwrap();
        let a = m.insert(&[0.9, 0.9]).unwrap();
        let _b = m.insert(&[0.5, 0.5]).unwrap();
        m.register_query(QueryId(0), q.clone()).unwrap();
        m.delete(a).unwrap(); // QueryId(0) is now pending recomputation
        m.remove_query(QueryId(0)).unwrap();
        // Recycle the freed slot with a fresh query before the cycle ends.
        m.register_query(QueryId(1), q.clone()).unwrap();
        let recomputes = m.stats().recomputations();
        m.end_cycle(); // must neither panic nor recompute the new query
        assert_eq!(m.stats().recomputations(), recomputes);
        assert_eq!(m.result(QueryId(1)).unwrap(), &brute(m.store(), &q)[..]);
    }

    #[test]
    fn constrained_update_stream() {
        let mut m = UpdateStreamTma::new(2, GridSpec::PerDim(5)).unwrap();
        let r = tkm_common::Rect::new(vec![0.0, 0.0], vec![0.5, 0.5]).unwrap();
        let q = Query::constrained(ScoreFn::linear(vec![1.0, 1.0]).unwrap(), 2, r).unwrap();
        m.register_query(QueryId(0), q.clone()).unwrap();
        let mut seed = 7u64;
        let mut live = Vec::new();
        for _ in 0..30 {
            let id = m.insert(&[lcg(&mut seed), lcg(&mut seed)]).unwrap();
            live.push(id);
            if live.len() > 10 {
                let victim = live.remove(3);
                m.delete(victim).unwrap();
            }
            m.end_cycle();
            assert_eq!(m.result(QueryId(0)).unwrap(), &brute(m.store(), &q)[..]);
        }
    }
}
