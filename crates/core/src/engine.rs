//! The engine abstraction: one interface over TMA, SMA, TSL and the
//! brute-force oracle.

use crate::ingest::GridSpec;
use crate::maintenance::QueryMaintenance;
use crate::monitor::{Monitor, SmaMonitor, TmaMonitor};
use crate::oracle::OracleMonitor;
use crate::query::Query;
use crate::result::ResultDelta;
use crate::tsl::{KmaxPolicy, TslMonitor};
use tkm_common::{QueryId, Result, Scored, Timestamp};
use tkm_window::WindowSpec;

/// A continuous top-k monitoring engine.
///
/// All implementations report *identical* results for the same stream and
/// queries (the integration test suite enforces this); they differ only in
/// cost profile.
///
/// `Send` is a supertrait so a boxed engine (and the [`crate::server::
/// MonitorServer`] that owns one) can move into a serving thread; every
/// engine is plain owned data (custom scoring functions are already
/// `Send + Sync` via [`tkm_common::ScoringFunction`]).
pub trait ContinuousTopK: Send {
    /// Engine name for reports ("TMA", "SMA", "TSL", "ORACLE").
    fn name(&self) -> &'static str;

    /// Dimensionality of the monitored stream.
    fn dims(&self) -> usize;

    /// Registers a continuous query under a caller-chosen id.
    fn register_query(&mut self, id: QueryId, query: Query) -> Result<()>;

    /// Terminates a query.
    fn remove_query(&mut self, id: QueryId) -> Result<()>;

    /// Executes one processing cycle: `arrivals` is a flat coordinate
    /// buffer (one tuple per `dims` chunk), `now` drives time-based expiry.
    fn tick(&mut self, now: Timestamp, arrivals: &[f64]) -> Result<()>;

    /// The current top-k result of a query, best first.
    fn result(&self, id: QueryId) -> Result<Vec<Scored>>;

    /// Starts change reporting: every query's current result becomes the
    /// baseline [`ContinuousTopK::drain_changes`] reports against, and a
    /// query registered later is baselined at its registration result.
    fn track_changes(&mut self);

    /// Appends, in ascending `QueryId` order, one [`ResultDelta`] per
    /// query whose result differs from what was last reported for it, and
    /// makes the current results the new baseline. Appends nothing before
    /// [`ContinuousTopK::track_changes`].
    fn drain_changes(&mut self, out: &mut Vec<ResultDelta>);

    /// One-shot (snapshot) top-k over the current window contents, leaving
    /// no monitoring state behind.
    fn snapshot(&mut self, query: &Query) -> Result<Vec<Scored>>;

    /// Deep size estimate of all engine state, in bytes.
    fn space_bytes(&self) -> usize;
}

impl<M: QueryMaintenance> ContinuousTopK for Monitor<M> {
    fn name(&self) -> &'static str {
        Monitor::name(self)
    }
    fn dims(&self) -> usize {
        Monitor::dims(self)
    }
    fn register_query(&mut self, id: QueryId, query: Query) -> Result<()> {
        Monitor::register_query(self, id, query)
    }
    fn remove_query(&mut self, id: QueryId) -> Result<()> {
        Monitor::remove_query(self, id)
    }
    fn tick(&mut self, now: Timestamp, arrivals: &[f64]) -> Result<()> {
        Monitor::tick(self, now, arrivals)
    }
    fn result(&self, id: QueryId) -> Result<Vec<Scored>> {
        Monitor::result(self, id)
    }
    fn track_changes(&mut self) {
        Monitor::track_changes(self)
    }
    fn drain_changes(&mut self, out: &mut Vec<ResultDelta>) {
        Monitor::drain_changes(self, out)
    }
    fn snapshot(&mut self, query: &Query) -> Result<Vec<Scored>> {
        Monitor::snapshot(self, query)
    }
    fn space_bytes(&self) -> usize {
        Monitor::space_bytes(self)
    }
}

impl ContinuousTopK for OracleMonitor {
    fn name(&self) -> &'static str {
        "ORACLE"
    }
    fn dims(&self) -> usize {
        OracleMonitor::dims(self)
    }
    fn register_query(&mut self, id: QueryId, query: Query) -> Result<()> {
        OracleMonitor::register_query(self, id, query)
    }
    fn remove_query(&mut self, id: QueryId) -> Result<()> {
        OracleMonitor::remove_query(self, id)
    }
    fn tick(&mut self, now: Timestamp, arrivals: &[f64]) -> Result<()> {
        OracleMonitor::tick(self, now, arrivals)
    }
    fn result(&self, id: QueryId) -> Result<Vec<Scored>> {
        OracleMonitor::result(self, id).map(<[Scored]>::to_vec)
    }
    fn track_changes(&mut self) {
        OracleMonitor::track_changes(self)
    }
    fn drain_changes(&mut self, out: &mut Vec<ResultDelta>) {
        OracleMonitor::drain_changes(self, out)
    }
    fn snapshot(&mut self, query: &Query) -> Result<Vec<Scored>> {
        OracleMonitor::snapshot(self, query)
    }
    fn space_bytes(&self) -> usize {
        OracleMonitor::space_bytes(self)
    }
}

/// Which engine a [`crate::server::MonitorServer`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// Top-k Monitoring Algorithm (§4).
    Tma,
    /// Skyband Monitoring Algorithm (§5).
    Sma,
    /// Threshold Sorted List baseline (§3.2).
    Tsl,
    /// Brute-force reference.
    Oracle,
}

/// Builds a boxed engine from the common configuration knobs.
pub fn build_engine(
    kind: EngineKind,
    dims: usize,
    window: WindowSpec,
    grid: GridSpec,
    kmax: KmaxPolicy,
) -> Result<Box<dyn ContinuousTopK>> {
    Ok(match kind {
        EngineKind::Tma => Box::new(TmaMonitor::new(dims, window, grid)?),
        EngineKind::Sma => Box::new(SmaMonitor::new(dims, window, grid)?),
        EngineKind::Tsl => Box::new(TslMonitor::new(dims, window, kmax)?),
        EngineKind::Oracle => Box::new(OracleMonitor::new(dims, window)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkm_common::{Rect, ScoreFn, TkmError};

    #[test]
    fn all_engines_build_and_agree_on_a_tiny_stream() {
        let f = || ScoreFn::linear(vec![1.0, 2.0]).unwrap();
        let mut engines: Vec<Box<dyn ContinuousTopK>> = [
            EngineKind::Tma,
            EngineKind::Sma,
            EngineKind::Tsl,
            EngineKind::Oracle,
        ]
        .into_iter()
        .map(|k| {
            build_engine(
                k,
                2,
                WindowSpec::Count(6),
                GridSpec::PerDim(4),
                KmaxPolicy::Tuned,
            )
            .unwrap()
        })
        .collect();
        for e in &mut engines {
            e.register_query(QueryId(0), Query::top_k(f(), 2).unwrap())
                .unwrap();
        }
        let stream: [&[f64]; 3] = [
            &[0.1, 0.9, 0.8, 0.3, 0.5, 0.5],
            &[0.7, 0.7, 0.2, 0.2],
            &[0.95, 0.1, 0.4, 0.8],
        ];
        for (t, arrivals) in stream.iter().enumerate() {
            let reference = {
                let e = &mut engines[3];
                e.tick(Timestamp(t as u64), arrivals).unwrap();
                e.result(QueryId(0)).unwrap()
            };
            for e in engines[..3].iter_mut() {
                e.tick(Timestamp(t as u64), arrivals).unwrap();
                assert_eq!(e.result(QueryId(0)).unwrap(), reference, "{}", e.name());
            }
        }
    }

    #[test]
    fn tsl_rejects_constrained_queries() {
        let mut e = build_engine(
            EngineKind::Tsl,
            2,
            WindowSpec::Count(4),
            GridSpec::default(),
            KmaxPolicy::Tuned,
        )
        .unwrap();
        let r = Rect::new(vec![0.0, 0.0], vec![0.5, 0.5]).unwrap();
        let q = Query::constrained(ScoreFn::linear(vec![1.0, 1.0]).unwrap(), 1, r).unwrap();
        assert!(matches!(e.snapshot(&q), Err(TkmError::Unsupported(_))));
        assert!(matches!(
            e.register_query(QueryId(0), q),
            Err(TkmError::Unsupported(_))
        ));
    }
}
