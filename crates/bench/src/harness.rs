//! Engine runner: warm-up, measured stream replay, measurement capture.

use std::time::Instant;

use crate::params::ExpParams;
use tkm_common::{QueryId, Result, Timestamp};
use tkm_core::{GridSpec, Query, SmaMonitor, TmaMonitor};
use tkm_datagen::{QueryGen, StreamSim};
use tkm_tsl::{KmaxPolicy, TslMonitor};
use tkm_window::WindowSpec;

/// Engine selection for an experiment run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineSel {
    /// Threshold Sorted List baseline.
    Tsl,
    /// Top-k Monitoring Algorithm.
    Tma,
    /// Skyband Monitoring Algorithm.
    Sma,
}

impl EngineSel {
    /// All three engines in the paper's reporting order.
    pub const ALL: [EngineSel; 3] = [EngineSel::Tsl, EngineSel::Tma, EngineSel::Sma];

    /// The pair of grid-based engines (Figure 14).
    pub const GRID: [EngineSel; 2] = [EngineSel::Tma, EngineSel::Sma];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            EngineSel::Tsl => "TSL",
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

enum EngineBox {
    Tsl(TslMonitor),
    Tma(TmaMonitor),
    Sma(SmaMonitor),
}

impl EngineBox {
    fn build(sel: EngineSel, p: &ExpParams) -> Result<EngineBox> {
        let window = WindowSpec::Count(p.n);
        let grid = GridSpec::CellBudget(p.grid_cells);
        Ok(match sel {
            EngineSel::Tsl => EngineBox::Tsl(TslMonitor::new(p.dims, window, KmaxPolicy::Tuned)?),
            EngineSel::Tma => EngineBox::Tma(TmaMonitor::new(p.dims, window, grid)?),
            EngineSel::Sma => EngineBox::Sma(SmaMonitor::new(p.dims, window, grid)?),
        })
    }

    fn tick(&mut self, now: Timestamp, arrivals: &[f64]) -> Result<()> {
        match self {
            EngineBox::Tsl(m) => m.tick(now, arrivals),
            EngineBox::Tma(m) => m.tick(now, arrivals),
            EngineBox::Sma(m) => m.tick(now, arrivals),
        }
    }

    fn register(&mut self, id: QueryId, q: Query) -> Result<()> {
        match self {
            EngineBox::Tsl(m) => m.register_query(id, q.f, q.k),
            EngineBox::Tma(m) => m.register_query(id, q),
            EngineBox::Sma(m) => m.register_query(id, q),
        }
    }

    fn space_bytes(&self) -> usize {
        match self {
            EngineBox::Tsl(m) => m.space_bytes(),
            EngineBox::Tma(m) => m.space_bytes(),
            EngineBox::Sma(m) => m.space_bytes(),
        }
    }

    /// Refills (TSL) or from-scratch computations (TMA/SMA) so far.
    fn recompute_counter(&self) -> u64 {
        match self {
            EngineBox::Tsl(m) => m.stats().refills,
            EngineBox::Tma(m) => m.stats().recomputations(),
            EngineBox::Sma(m) => m.stats().recomputations(),
        }
    }

    fn avg_view_len(&self) -> f64 {
        match self {
            EngineBox::Tsl(m) => m.avg_view_len(),
            EngineBox::Tma(m) => m.avg_band_len(),
            EngineBox::Sma(m) => m.avg_band_len(),
        }
    }
}

/// Runs one engine over the experiment defined by `p`: build, warm the
/// window with `N` tuples, register `Q` queries, then measure `ticks`
/// cycles of `r` arrivals each.
pub fn run_engine(sel: EngineSel, p: &ExpParams) -> Result<RunMeasurement> {
    let workload = QueryGen::new(p.dims, p.family, p.seed ^ 0x9e37_79b9_7f4a_7c15)?.workload(p.q);
    let mut stream = StreamSim::new(p.dims, p.dist, p.r, p.seed)?;
    let mut engine = EngineBox::build(sel, p)?;

    // Warm-up: fill the window before registering queries so the initial
    // computations run at steady-state density.
    const WARM_CHUNK: usize = 50_000;
    let mut remaining = p.n;
    while remaining > 0 {
        let chunk = remaining.min(WARM_CHUNK);
        let (ts, batch) = stream.warmup_batch(chunk);
        engine.tick(ts, batch)?;
        remaining -= chunk;
    }
    for (i, f) in workload.into_iter().enumerate() {
        engine.register(QueryId(i as u64), Query::top_k(f, p.k)?)?;
    }

    let recomputes_before = engine.recompute_counter();
    let start = Instant::now();
    for _ in 0..p.ticks {
        let (ts, batch) = stream.next_batch();
        engine.tick(ts, batch)?;
    }
    let cpu_seconds = start.elapsed().as_secs_f64();

    Ok(RunMeasurement {
        cpu_seconds,
        space_bytes: engine.space_bytes(),
        recomputations: engine.recompute_counter() - recomputes_before,
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
        for sel in EngineSel::ALL {
            let m = run_engine(sel, &p).unwrap();
            assert!(m.cpu_seconds > 0.0, "{}", sel.label());
            assert!(m.space_bytes > 0, "{}", sel.label());
        }
    }
}
