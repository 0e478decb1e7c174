//! Top-k monitoring over *update streams* (paper §7): streams with explicit
//! deletions instead of sliding-window expiry.
//!
//! Tuples no longer leave in arrival order, so there is no FIFO list to
//! keep: the grid's coordinate-inline cells are the only tuple store, and
//! a deletion finds its victim through the grid's id → position index
//! (the paper: "the point lists of the cells are implemented as
//! hash-tables for supporting random insertions/deletions in constant
//! expected time"). TMA carries over directly — a deletion
//! hitting a result triggers recomputation. SMA does **not** apply: the
//! skyband reduction requires knowing the expiry order in advance, which an
//! update stream does not provide (constructing [`UpdateStreamTma`] is the
//! only supported option, and the crate intentionally offers no SMA
//! counterpart). The queries live in the query table every grid stage
//! uses (`crate::influence`); what stays here is the per-operation
//! maintenance and the list of queries a deletion left to recompute.

use crate::influence::{QueryTable, Recomputed, TableEntry};
use crate::ingest::GridSpec;
use crate::kernel;
use crate::query::Query;
use crate::result::TopList;
use crate::stats::EngineStats;
use tkm_common::{
    same_dims, FxHashSet, HeapBytes, QueryId, QuerySlot, Rect, Result, ScoreFn, Scored, TkmError,
    TupleId,
};
use tkm_grid::{CellMode, Grid};

/// One operation of an update stream.
#[derive(Clone, Debug, PartialEq)]
pub enum UpdateOp {
    /// Insert a tuple with these coordinates.
    Insert(Vec<f64>),
    /// Delete a previously inserted tuple.
    Delete(TupleId),
}

#[derive(Debug)]
pub(crate) struct UsQuery {
    query: Query,
    top: TopList,
    affected: bool,
    /// [`ComputeOutcome::region_bound`] of the last computation: cells
    /// with traversal keys strictly above this already carry the slot.
    ///
    /// [`ComputeOutcome::region_bound`]: crate::compute::ComputeOutcome
    region_bound: f64,
}

impl HeapBytes for UsQuery {
    fn heap_bytes(&self) -> usize {
        self.query.heap_bytes() + self.top.heap_bytes()
    }
}

impl TableEntry for UsQuery {
    fn region(&self) -> (&ScoreFn, Option<&Rect>) {
        self.query.region()
    }
}

/// TMA's computation: the top k, no ties beyond them.
impl Recomputed for UsQuery {
    const TRACK_TIES: bool = false;
    fn depth(&self) -> usize {
        self.query.k
    }
    fn listed_above(&self) -> f64 {
        self.region_bound
    }
}

/// TMA over an explicit-deletion update stream.
#[derive(Debug)]
pub struct UpdateStreamTma {
    /// The live tuples, each in its covering cell: the only copy.
    grid: Grid,
    /// Next arrival id to assign (ids are never reused; at most
    /// [`UpdateStreamTma::MAX_IDS`] are issued).
    next_id: u64,
    table: QueryTable<UsQuery>,
    stats: EngineStats,
    /// Reused per-cycle scratch: slots whose result lost a tuple.
    affected: Vec<QuerySlot>,
}

impl UpdateStreamTma {
    /// Tuple ids the monitor issues, `0..2³²`: the grid's cells store the
    /// low 32 bits of an id, which name it uniquely only while every id
    /// stored is less than 2³² apart from the newest. An insert past the
    /// last id is refused.
    pub const MAX_IDS: u64 = 1 << 32;

    /// Creates a monitor over `dims`-dimensional tuples.
    pub fn new(dims: usize, grid: GridSpec) -> Result<UpdateStreamTma> {
        let grid = grid.build(dims, CellMode::Hash)?;
        let table = QueryTable::new(grid.num_cells());
        Ok(UpdateStreamTma {
            grid,
            next_id: 0,
            table,
            stats: EngineStats::default(),
            affected: Vec::new(),
        })
    }

    /// A monitor whose next insert gets id `next_id`.
    #[cfg(test)]
    fn with_next_id(dims: usize, grid: GridSpec, next_id: u64) -> Result<UpdateStreamTma> {
        let mut m = UpdateStreamTma::new(dims, grid)?;
        m.next_id = next_id;
        Ok(m)
    }

    /// Dimensionality.
    #[inline]
    pub fn dims(&self) -> usize {
        self.grid.dims()
    }

    /// The underlying grid, whose cells hold the live tuples (read
    /// access).
    #[inline]
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    #[cfg(test)]
    pub(crate) fn table(&self) -> &QueryTable<UsQuery> {
        &self.table
    }

    /// Registers a query and computes its initial result, listing it in
    /// every cell of its influence region (its bound starts at `+∞`).
    pub fn register_query(&mut self, id: QueryId, query: Query) -> Result<()> {
        let state = UsQuery {
            query,
            top: TopList::default(),
            affected: false,
            region_bound: f64::INFINITY,
        };
        let slot = self.table.insert(&self.grid, id, state)?;
        let (st, out) = self
            .table
            .recompute(&self.grid, slot, TopList::default(), &mut self.stats);
        (st.top, st.region_bound) = (out.top, out.region_bound);
        Ok(())
    }

    /// Terminates a query, clearing its influence-list entries.
    pub fn remove_query(&mut self, id: QueryId) -> Result<()> {
        let (slot, swept) = self.table.remove(&self.grid, id)?;
        self.stats.cleanup_cells += swept;
        // Unlike the sliding-window engines (whose affected list lives only
        // inside one `apply_events` call), this one persists across the
        // open cycle — drop the freed slot, or `end_cycle` would resolve a
        // dead (or recycled) slot.
        self.affected.retain(|s| *s != slot);
        Ok(())
    }

    /// The current top-k result of a query, best first. Valid after
    /// [`UpdateStreamTma::end_cycle`] (deletions mid-cycle leave affected
    /// queries unresolved until then).
    pub fn result(&self, id: QueryId) -> Result<&[Scored]> {
        Ok(self.table.get(id)?.top.as_slice())
    }

    /// What an insert must satisfy: whole tuples inside the unit workspace.
    fn check_coords(&self, coords: &[f64]) -> Result<()> {
        same_dims(self.dims(), coords.len())?;
        match coords.iter().find(|x| !(0.0..=1.0).contains(*x)) {
            Some(bad) => Err(TkmError::InvalidParameter(format!(
                "insert: coordinate {bad} outside the unit workspace"
            ))),
            None => Ok(()),
        }
    }

    /// The refusal of an insert once every id has been issued.
    fn ids_exhausted() -> TkmError {
        TkmError::Unsupported(format!(
            "update stream: all {} tuple ids have been issued",
            Self::MAX_IDS
        ))
    }

    /// Inserts a tuple, updating affected results immediately.
    pub fn insert(&mut self, coords: &[f64]) -> Result<TupleId> {
        self.check_coords(coords)?;
        if self.next_id >= Self::MAX_IDS {
            return Err(Self::ids_exhausted());
        }
        let id = TupleId(self.next_id);
        self.next_id += 1;
        self.stats.arrivals += 1;
        let cell = self.grid.insert_point(coords, id);
        let (influence, queries) = self.table.split();
        let slots = influence.as_slice(cell);
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
        let cell = self.grid.cell_of(id).ok_or(TkmError::UnknownTuple(id))?;
        self.grid.remove_at(cell, id)?;
        self.stats.expirations += 1;
        let (influence, queries) = self.table.split();
        let slots = influence.as_slice(cell);
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
        let mut affected = std::mem::take(&mut self.affected);
        for slot in affected.drain(..) {
            let (_, st) = self.table.slot_mut(slot);
            st.affected = false;
            let reuse = std::mem::take(&mut st.top);
            let (st, out) = self
                .table
                .recompute(&self.grid, slot, reuse, &mut self.stats);
            (st.top, st.region_bound) = (out.top, out.region_bound);
            self.stats.cleanup_cells += self.table.sweep_frontier(&self.grid, slot);
        }
        self.affected = affected;
    }

    /// Applies a batch of operations as one processing cycle; returns the
    /// ids assigned to the inserts, in order. The whole batch is validated
    /// before anything is mutated — every insert a whole tuple inside the
    /// unit workspace, every delete naming a tuple that is live (or
    /// inserted earlier in the batch) and not already deleted by it — so a
    /// rejected batch changes nothing: a half-applied one would skip
    /// [`UpdateStreamTma::end_cycle`] and leave results unresolved.
    pub fn apply(&mut self, ops: &[UpdateOp]) -> Result<Vec<TupleId>> {
        let mut inserted = self.next_id..self.next_id;
        let mut deleted = FxHashSet::default();
        for op in ops {
            match op {
                UpdateOp::Insert(coords) => {
                    self.check_coords(coords)?;
                    if inserted.end >= Self::MAX_IDS {
                        return Err(Self::ids_exhausted());
                    }
                    inserted.end += 1;
                }
                UpdateOp::Delete(id) => {
                    let live = self.grid.cell_of(*id).is_some() || inserted.contains(&id.0);
                    if !live || !deleted.insert(*id) {
                        return Err(TkmError::UnknownTuple(*id));
                    }
                }
            }
        }
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

    /// Deep size estimate in bytes: the monitor is a root, so its struct
    /// plus the heap its members own.
    pub fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.grid.heap_bytes()
            + self.table.heap_bytes()
            + self.affected.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use tkm_common::ScoreFn;

    fn lcg(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 11) as f64 / (1u64 << 53) as f64).clamp(0.0, 1.0)
    }

    /// The tests' own record of the live tuples. The monitor keeps no
    /// second store to read back, so results *and* the grid's cells are
    /// held to this model.
    type Live = BTreeMap<TupleId, Vec<f64>>;

    /// Applies `ops` as one cycle to monitor and model alike.
    fn apply(m: &mut UpdateStreamTma, live: &mut Live, ops: &[UpdateOp]) -> Vec<TupleId> {
        let ids = m.apply(ops).unwrap();
        let mut assigned = ids.iter();
        for op in ops {
            match op {
                UpdateOp::Insert(coords) => {
                    live.insert(*assigned.next().unwrap(), coords.clone());
                }
                UpdateOp::Delete(id) => {
                    live.remove(id).expect("the model holds every victim");
                }
            }
        }
        ids
    }

    fn brute(live: &Live, q: &Query) -> Vec<Scored> {
        let mut all: Vec<Scored> = live
            .iter()
            .filter(|(_, c)| q.constraint.as_ref().is_none_or(|r| r.contains(c)))
            .map(|(id, c)| Scored::new(q.f.score(c), *id))
            .collect();
        all.sort_by(|a, b| b.cmp(a));
        all.truncate(q.k);
        all
    }

    /// Every live tuple sits in exactly its covering cell with its
    /// coordinates, and nothing else is indexed.
    fn assert_grid_holds(m: &UpdateStreamTma, live: &Live) {
        for (id, coords) in live {
            let cell = m.grid().locate(coords);
            assert_eq!(m.grid().cell_of(*id), Some(cell), "{id:?}");
            let stored = m.grid().points(cell).iter();
            let copies = stored.filter(|(pid, pc)| pid == id && pc == coords);
            assert_eq!(copies.count(), 1, "{id:?} in its cell");
        }
        let indexed: usize = m.grid().cells().map(|(_, points)| points.len()).sum();
        assert_eq!(indexed, live.len(), "grid indexes a dead tuple");
    }

    #[test]
    fn random_insert_delete_stream_matches_brute_force() {
        let mut m = UpdateStreamTma::new(2, GridSpec::PerDim(6)).unwrap();
        let q = Query::top_k(ScoreFn::linear(vec![1.0, 2.0]).unwrap(), 3).unwrap();
        m.register_query(QueryId(0), q.clone()).unwrap();
        let mut seed = 42u64;
        let mut model = Live::new();
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
            let new_ids = apply(&mut m, &mut model, &ops);
            live.extend(new_ids);
            assert_eq!(
                m.result(QueryId(0)).unwrap(),
                &brute(&model, &q)[..],
                "divergence at cycle {cycle}"
            );
            assert_grid_holds(&m, &model);
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
        // Rejected inserts consume no id, and a dead tuple's id is never
        // handed out again.
        assert_eq!(m.insert(&[0.5]).unwrap(), TupleId(id.0 + 1));
        assert!(UpdateStreamTma::new(0, GridSpec::PerDim(4)).is_err());
    }

    /// The last id is 2³² − 1: the insert after it is refused, alone or
    /// inside a batch, and leaves the monitor as it was; deletes still
    /// work.
    #[test]
    fn refuses_to_issue_id_two_to_the_32() {
        let mut m = UpdateStreamTma::with_next_id(1, GridSpec::PerDim(4), (1 << 32) - 2).unwrap();
        let q = Query::top_k(ScoreFn::linear(vec![1.0]).unwrap(), 2).unwrap();
        m.register_query(QueryId(0), q.clone()).unwrap();
        let below = m.insert(&[0.4]).unwrap();
        let ops = [UpdateOp::Insert(vec![0.9]), UpdateOp::Insert(vec![0.7])];
        let exhausted = UpdateStreamTma::ids_exhausted();
        assert_eq!(
            m.apply(&ops).unwrap_err(),
            exhausted,
            "the batch's second insert"
        );
        let last = m.insert(&[0.6]).unwrap();
        assert_eq!(last, TupleId((1 << 32) - 1));
        assert_eq!(m.insert(&[0.8]).unwrap_err(), exhausted);
        assert_eq!(m.apply(&ops[..1]).unwrap_err(), exhausted);
        m.end_cycle();
        let live = Live::from([(below, vec![0.4]), (last, vec![0.6])]);
        assert_eq!(m.result(QueryId(0)).unwrap(), &brute(&live, &q)[..]);
        assert_grid_holds(&m, &live);
        m.apply(&[UpdateOp::Delete(last)]).unwrap();
        let live = Live::from([(below, vec![0.4])]);
        assert_eq!(m.result(QueryId(0)).unwrap(), &brute(&live, &q)[..]);
        assert_grid_holds(&m, &live);
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
        let b = m.insert(&[0.5, 0.5]).unwrap();
        m.register_query(QueryId(0), q.clone()).unwrap();
        m.delete(a).unwrap(); // QueryId(0) is now pending recomputation
        m.remove_query(QueryId(0)).unwrap();
        // Recycle the freed slot with a fresh query before the cycle ends.
        m.register_query(QueryId(1), q.clone()).unwrap();
        let recomputes = m.stats().recomputations();
        m.end_cycle(); // must neither panic nor recompute the new query
        assert_eq!(m.stats().recomputations(), recomputes);
        let model = Live::from([(b, vec![0.5, 0.5])]);
        assert_eq!(m.result(QueryId(1)).unwrap(), &brute(&model, &q)[..]);
        assert_grid_holds(&m, &model);
    }

    #[test]
    fn constrained_update_stream() {
        let mut m = UpdateStreamTma::new(2, GridSpec::PerDim(5)).unwrap();
        let r = tkm_common::Rect::new(vec![0.0, 0.0], vec![0.5, 0.5]).unwrap();
        let q = Query::constrained(ScoreFn::linear(vec![1.0, 1.0]).unwrap(), 2, r).unwrap();
        m.register_query(QueryId(0), q.clone()).unwrap();
        let mut seed = 7u64;
        let mut model = Live::new();
        let mut live = Vec::new();
        for _ in 0..30 {
            let coords = vec![lcg(&mut seed), lcg(&mut seed)];
            let id = m.insert(&coords).unwrap();
            model.insert(id, coords);
            live.push(id);
            if live.len() > 10 {
                let victim = live.remove(3);
                m.delete(victim).unwrap();
                model.remove(&victim);
            }
            m.end_cycle();
            assert_eq!(m.result(QueryId(0)).unwrap(), &brute(&model, &q)[..]);
        }
        assert_grid_holds(&m, &model);
    }
}
