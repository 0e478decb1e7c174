//! Engine runner: warm-up, measured stream replay, measurement capture.

use std::time::Instant;

use crate::params::{ExpParams, CYCLES};
use tkm_common::{QueryId, Rect, Result, ScoreFn, Timestamp};
use tkm_core::{
    BandMaintenance, BandPolicy, ContinuousTopK, GridSpec, KmaxPolicy, Monitor, Query, SmaMonitor,
    TmaMonitor, TslMonitor,
};
use tkm_datagen::{QueryGen, StreamSim};
use tkm_window::WindowSpec;

/// Engine selection for an experiment run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineSel {
    /// Threshold Sorted List baseline with its `kmax` policy.
    Tsl(KmaxPolicy),
    /// Top-k Monitoring Algorithm.
    Tma,
    /// Skyband Monitoring Algorithm.
    Sma,
}

impl EngineSel {
    /// TSL with the paper's fine-tuned `kmax` table.
    pub const TSL: EngineSel = EngineSel::Tsl(KmaxPolicy::Tuned);

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            EngineSel::Tsl(_) => "TSL",
            EngineSel::Tma => "TMA",
            EngineSel::Sma => "SMA",
        }
    }
}

/// Measurements of one engine run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunMeasurement {
    /// Wall-clock seconds spent in the measured ticks (the paper's "CPU
    /// time" — single-threaded, so the two coincide).
    pub cpu_seconds: f64,
    /// Engine state size after the run, bytes.
    pub space_bytes: usize,
    /// From-scratch computations (TMA/SMA) or view refills (TSL) during
    /// the measured ticks.
    pub recomputations: u64,
    /// Mean view (TSL) or band (TMA/SMA) size per query after the run.
    pub avg_view_len: f64,
}

/// The counters a run reads off an engine beyond [`ContinuousTopK`].
trait Counters: ContinuousTopK {
    /// Refills (TSL) or from-scratch computations (TMA/SMA) so far.
    fn recomputations(&self) -> u64;
    /// Mean view (TSL) or band (TMA/SMA) length per query.
    fn avg_view_len(&self) -> f64;
}

impl<P: BandPolicy> Counters for Monitor<BandMaintenance<P>> {
    fn recomputations(&self) -> u64 {
        self.stats().recomputations()
    }
    fn avg_view_len(&self) -> f64 {
        self.avg_band_len()
    }
}

impl Counters for TslMonitor {
    fn recomputations(&self) -> u64 {
        self.stats().refills
    }
    fn avg_view_len(&self) -> f64 {
        TslMonitor::avg_view_len(self)
    }
}

/// The `Q` scoring functions of the experiment defined by `p`.
pub(crate) fn query_workload(p: &ExpParams) -> Result<Vec<ScoreFn>> {
    Ok(QueryGen::new(p.dims, p.family, p.seed ^ 0x9e37_79b9_7f4a_7c15)?.workload(p.q))
}

/// The constraint box of the `i`-th constrained query (§7): the same
/// 0.4-wide interval on every axis, at one of seven offsets.
fn constraint_for(dims: usize, i: usize) -> Result<Rect> {
    let f = (i % 7) as f64 / 10.0;
    Rect::new(vec![f * 0.6; dims], vec![(f * 0.6 + 0.4).min(1.0); dims])
}

/// Feeds the first `n` tuples of `stream` to `feed` in large batches, so
/// the window is full before any query registers and the initial
/// computations run at steady-state density.
pub(crate) fn warm_up(
    stream: &mut StreamSim,
    n: usize,
    mut feed: impl FnMut(Timestamp, &[f64]) -> Result<()>,
) -> Result<()> {
    const WARM_CHUNK: usize = 50_000;
    let mut remaining = n;
    while remaining > 0 {
        let chunk = remaining.min(WARM_CHUNK);
        let (ts, batch) = stream.warmup_batch(chunk);
        feed(ts, batch)?;
        remaining -= chunk;
    }
    Ok(())
}

/// Feeds [`CYCLES`] processing cycles of `stream` to `feed` and returns
/// the wall-clock seconds they took.
pub(crate) fn timed_cycles(
    stream: &mut StreamSim,
    mut feed: impl FnMut(Timestamp, &[f64]) -> Result<()>,
) -> Result<f64> {
    let start = Instant::now();
    for _ in 0..CYCLES {
        let (ts, batch) = stream.next_batch();
        feed(ts, batch)?;
    }
    Ok(start.elapsed().as_secs_f64())
}

/// Runs one engine over the experiment defined by `p`: build, warm the
/// window with `N` tuples, register `Q` queries, then measure
/// [`CYCLES`] cycles of `r` arrivals each.
pub fn run_engine(sel: EngineSel, p: &ExpParams) -> Result<RunMeasurement> {
    let window = WindowSpec::Count(p.n);
    let grid = GridSpec::CellBudget(p.grid_cells);
    match sel {
        EngineSel::Tsl(kmax) => measure(TslMonitor::new(p.dims, window, kmax)?, p),
        EngineSel::Tma => measure(TmaMonitor::new(p.dims, window, grid)?, p),
        EngineSel::Sma => measure(SmaMonitor::new(p.dims, window, grid)?, p),
    }
}

fn measure(mut engine: impl Counters, p: &ExpParams) -> Result<RunMeasurement> {
    let mut stream = StreamSim::new(p.dims, p.dist, p.r, p.seed)?;
    warm_up(&mut stream, p.n, |ts, batch| engine.tick(ts, batch))?;
    for (i, f) in query_workload(p)?.into_iter().enumerate() {
        let query = if p.constrained {
            Query::constrained(f, p.k, constraint_for(p.dims, i)?)?
        } else {
            Query::top_k(f, p.k)?
        };
        engine.register_query(QueryId(i as u64), query)?;
    }

    let recomputes_before = engine.recomputations();
    let cpu_seconds = timed_cycles(&mut stream, |ts, batch| engine.tick(ts, batch))?;
    Ok(RunMeasurement {
        cpu_seconds,
        space_bytes: engine.space_bytes(),
        recomputations: engine.recomputations() - recomputes_before,
        avg_view_len: engine.avg_view_len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Scale;

    #[test]
    fn quick_run_all_engines() {
        let p = ExpParams::defaults(Scale::Quick);
        for sel in [EngineSel::TSL, EngineSel::Tma, EngineSel::Sma] {
            let m = run_engine(sel, &p).unwrap();
            assert!(m.cpu_seconds > 0.0, "{}", sel.label());
            assert!(m.space_bytes > 0, "{}", sel.label());
        }
    }
}
