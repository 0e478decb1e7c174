//! Helpers shared by this crate's unit tests.

use crate::query::Query;
use tkm_common::Scored;
use tkm_grid::Grid;

/// `n` pseudo-random `dims`-dimensional tuples in the unit workspace, as a
/// flat coordinate buffer (a seeded LCG: deterministic per `seed`).
pub(crate) fn lcg_stream(seed: u64, n: usize, dims: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(1);
    let mut out = Vec::with_capacity(n * dims);
    for _ in 0..n * dims {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        out.push(((state >> 11) as f64 / (1u64 << 53) as f64).clamp(0.0, 1.0));
    }
    out
}

/// The top-k of `q` by scoring every tuple stored in `grid`'s cells.
pub(crate) fn brute(grid: &Grid, q: &Query) -> Vec<Scored> {
    let mut all: Vec<Scored> = grid
        .cells()
        .flat_map(|(_, points)| points.iter())
        .filter(|(_, c)| q.constraint.as_ref().is_none_or(|r| r.contains(c)))
        .map(|(id, c)| Scored::new(q.f.score(c), id))
        .collect();
    all.sort_by(|a, b| b.cmp(a));
    all.truncate(q.k);
    all
}
