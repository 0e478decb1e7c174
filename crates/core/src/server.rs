//! High-level facade: a monitoring server that owns one engine and hands
//! out query ids.
//!
//! This is the API a downstream application is expected to use; the raw
//! engines remain available for benchmarking and fine-grained control.

use crate::engine::{build_engine, ContinuousTopK, EngineKind};
use crate::ingest::GridSpec;
use crate::query::Query;
use crate::result::ResultDelta;
use crate::tsl::KmaxPolicy;
use tkm_common::{QueryId, Result, Scored, Timestamp, TkmError};
use tkm_window::WindowSpec;

/// Configuration of a [`MonitorServer`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Dimensionality of the tuple stream.
    pub dims: usize,
    /// Sliding-window semantics.
    pub window: WindowSpec,
    /// Grid sizing (ignored by TSL/oracle).
    pub grid: GridSpec,
    /// Engine selection; SMA is the paper's recommendation.
    pub engine: EngineKind,
    /// `kmax` policy (TSL only).
    pub kmax: KmaxPolicy,
    /// Whether per-tick result-change reporting starts enabled (see
    /// [`MonitorServer::enable_delta_tracking`]). Serving layers that fan
    /// deltas out to subscribers turn this on so no tick can slip through
    /// before tracking starts.
    pub delta_tracking: bool,
}

impl ServerConfig {
    /// A sensible default: SMA over a count-based window of `n` tuples on
    /// a grid sized for it (about one cell per 20 tuples, at most the
    /// paper's 12⁴ cells; see [`GridSpec::FitWindow`]).
    pub fn sma(dims: usize, n: usize) -> ServerConfig {
        ServerConfig {
            dims,
            window: WindowSpec::Count(n),
            grid: GridSpec::default(),
            engine: EngineKind::Sma,
            kmax: KmaxPolicy::Tuned,
            delta_tracking: false,
        }
    }

    /// Selects a different engine.
    pub fn with_engine(mut self, engine: EngineKind) -> ServerConfig {
        self.engine = engine;
        self
    }

    /// Selects a different window.
    pub fn with_window(mut self, window: WindowSpec) -> ServerConfig {
        self.window = window;
        self
    }

    /// Selects a different grid sizing.
    pub fn with_grid(mut self, grid: GridSpec) -> ServerConfig {
        self.grid = grid;
        self
    }

    /// Turns per-tick result-change reporting on from the first tick.
    pub fn with_delta_tracking(mut self, on: bool) -> ServerConfig {
        self.delta_tracking = on;
        self
    }
}

/// A continuous top-k monitoring server.
pub struct MonitorServer {
    engine: Box<dyn ContinuousTopK>,
    config: ServerConfig,
    next_query: u64,
    now: Timestamp,
    /// Result changes the engine reported since the last `take_deltas`.
    deltas: Vec<ResultDelta>,
}

impl MonitorServer {
    /// Builds a server from its configuration.
    pub fn new(cfg: ServerConfig) -> Result<MonitorServer> {
        let engine = build_engine(cfg.engine, cfg.dims, cfg.window, cfg.grid, cfg.kmax)?;
        let mut server = MonitorServer {
            engine,
            config: cfg,
            next_query: 0,
            now: Timestamp(0),
            deltas: Vec::new(),
        };
        if cfg.delta_tracking {
            server.enable_delta_tracking()?;
        }
        Ok(server)
    }

    /// The engine in use ("TMA", "SMA", "TSL" or "ORACLE").
    pub fn engine_name(&self) -> &'static str {
        self.engine.name()
    }

    /// The configuration the server was built from.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Dimensionality of the monitored stream.
    pub fn dims(&self) -> usize {
        self.engine.dims()
    }

    /// Registers a query, returning its server-assigned id.
    pub fn register(&mut self, query: Query) -> Result<QueryId> {
        let id = QueryId(self.next_query);
        self.engine.register_query(id, query)?;
        self.next_query += 1;
        Ok(id)
    }

    /// Terminates a query.
    pub fn unregister(&mut self, id: QueryId) -> Result<()> {
        self.engine.remove_query(id)
    }

    /// Turns on per-tick result-change reporting ("report changes to the
    /// client", Figures 9/11): after every tick, [`MonitorServer::take_deltas`]
    /// returns which tuples entered/left each query's top-k, in ascending
    /// query order. The current results become the baseline; a query
    /// registered later is reported relative to its registration result.
    ///
    /// The engine does the reporting: its maintenance stage marks the
    /// queries whose band a cycle touched, and only those are diffed,
    /// against a per-query copy of the last reported result.
    pub fn enable_delta_tracking(&mut self) -> Result<()> {
        self.engine.track_changes();
        Ok(())
    }

    /// Drains the result changes accumulated since the last call (empty
    /// unless [`MonitorServer::enable_delta_tracking`] was called).
    pub fn take_deltas(&mut self) -> Vec<ResultDelta> {
        // The next batch is about as long as this one: start it at this
        // one's capacity instead of regrowing from empty every cycle.
        let next = Vec::with_capacity(self.deltas.capacity());
        std::mem::replace(&mut self.deltas, next)
    }

    /// One-shot top-k against the current window contents — no continuous
    /// state is created.
    pub fn snapshot(&mut self, query: &Query) -> Result<Vec<Scored>> {
        self.engine.snapshot(query)
    }

    /// Feeds one processing cycle of arrivals (flat coordinate buffer, one
    /// tuple per `dims` chunk) and advances time by one tick.
    pub fn tick(&mut self, arrivals: &[f64]) -> Result<()> {
        self.tick_at(self.now, arrivals)
    }

    /// Like [`MonitorServer::tick`] with an explicit timestamp (must be
    /// non-decreasing across cycles; FIFO expiry depends on it, so a
    /// regressing timestamp is rejected rather than fed to the engine, and
    /// so is one with no successor — the clock could not move past it).
    pub fn tick_at(&mut self, now: Timestamp, arrivals: &[f64]) -> Result<()> {
        let Some(next) = now.0.checked_add(1).map(Timestamp) else {
            return Err(TkmError::InvalidParameter(format!(
                "timestamp {now} has no successor: the clock cannot move past it"
            )));
        };
        if next < self.now {
            return Err(TkmError::InvalidParameter(format!(
                "tick_at: timestamp {now} precedes the last processed cycle (now {})",
                self.now
            )));
        }
        self.engine.tick(now, arrivals)?;
        self.now = next;
        self.engine.drain_changes(&mut self.deltas);
        Ok(())
    }

    /// Current logical time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// The current top-k result of a query, best first.
    pub fn result(&self, id: QueryId) -> Result<Vec<Scored>> {
        self.engine.result(id)
    }

    /// Deep size estimate in bytes: engine state; excludes the batch
    /// [`MonitorServer::take_deltas`] hands out (one `ResultDelta` per
    /// query that changed last tick). `tests/space_accounting.rs` holds it
    /// to the heap a live-bytes allocator sees.
    pub fn space_bytes(&self) -> usize {
        self.engine.space_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkm_common::ScoreFn;

    #[test]
    fn end_to_end_lifecycle() {
        let mut server = MonitorServer::new(ServerConfig::sma(2, 5)).unwrap();
        assert_eq!(server.engine_name(), "SMA");
        let q = server
            .register(Query::top_k(ScoreFn::linear(vec![1.0, 1.0]).unwrap(), 2).unwrap())
            .unwrap();
        server.tick(&[0.9, 0.9, 0.1, 0.1, 0.5, 0.5]).unwrap();
        let res = server.result(q).unwrap();
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].score.get(), 1.8);
        server.unregister(q).unwrap();
        assert!(server.result(q).is_err());
    }

    #[test]
    fn tick_at_rejects_regressing_timestamps() {
        let mut server = MonitorServer::new(ServerConfig::sma(1, 4)).unwrap();
        server.tick_at(Timestamp(5), &[0.5]).unwrap();
        assert_eq!(server.now(), Timestamp(6));
        // Equal-to-last is allowed (several cycles in one instant)…
        server.tick_at(Timestamp(5), &[0.4]).unwrap();
        // …but going backwards is not.
        assert!(server.tick_at(Timestamp(2), &[0.3]).is_err());
        assert_eq!(server.now(), Timestamp(6), "rejected cycle left no trace");
        // A timestamp with no successor would wrap the clock to zero and
        // strand every later cycle behind the tuple it admitted.
        assert!(server.tick_at(Timestamp(u64::MAX), &[0.3]).is_err());
        assert_eq!(server.now(), Timestamp(6), "rejected cycle left no trace");
        server.tick(&[0.2]).unwrap();
        server.tick_at(Timestamp(u64::MAX - 1), &[0.1]).unwrap();
        assert!(server.tick(&[0.1]).is_err(), "the clock is exhausted");
        assert_eq!(server.now(), Timestamp(u64::MAX));
    }

    #[test]
    fn delta_tracking_from_construction() {
        let cfg = ServerConfig::sma(1, 4).with_delta_tracking(true);
        let mut server = MonitorServer::new(cfg).unwrap();
        assert!(server.config().delta_tracking);
        let q = server
            .register(Query::top_k(ScoreFn::linear(vec![1.0]).unwrap(), 2).unwrap())
            .unwrap();
        // The very first tick is already reported — no enable_delta_tracking
        // call races against it.
        server.tick(&[0.4, 0.9]).unwrap();
        let deltas = server.take_deltas();
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].query, q);
        assert_eq!(deltas[0].added.len(), 2);
        assert!(server.take_deltas().is_empty(), "drained");
    }

    #[test]
    fn ids_are_unique() {
        let mut server =
            MonitorServer::new(ServerConfig::sma(1, 5).with_engine(EngineKind::Tma)).unwrap();
        let f = || ScoreFn::linear(vec![1.0]).unwrap();
        let a = server.register(Query::top_k(f(), 1).unwrap()).unwrap();
        let b = server.register(Query::top_k(f(), 1).unwrap()).unwrap();
        assert_ne!(a, b);
    }
}
