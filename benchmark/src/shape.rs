//! The five workloads and their seeded inputs.
//!
//! `--seed` feeds `PointGen` / `QueryGen` here and nothing else: the
//! engines, the service and the sessions only ever see the generated
//! tuples and query weights. All generation happens before any clock
//! starts.

use tkm_common::{ScoreFn, Timestamp};
use tkm_core::{EngineKind, Query, ServerConfig};
use tkm_datagen::{DataDist, FnFamily, PointGen, QueryGen};
use tkm_window::WindowSpec;

/// The two engines every workload runs, in replay order.
pub const ENGINES: [EngineKind; 2] = [EngineKind::Sma, EngineKind::Tma];

/// Metric-name prefix of an engine (`sma` / `tma`).
pub fn engine_tag(engine: EngineKind) -> &'static str {
    match engine {
        EngineKind::Sma => "sma",
        EngineKind::Tma => "tma",
        EngineKind::Tsl | EngineKind::Oracle => unreachable!("the benchmark runs SMA and TMA"),
    }
}

/// How a workload's stream is laid out in time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Stream {
    /// Count window of `n`; every tick has its own timestamp and carries
    /// `r` uniform tuples.
    Uniform,
    /// The `replay --burst` shape: a time window of `span` timestamps,
    /// `group` consecutive ticks share a timestamp, odd groups are drawn
    /// from `[hot_lo, 1)^d`. A hot group outscores everything while live
    /// and expires in one tick, draining every query's band at once.
    Storm {
        group: usize,
        span: u64,
        hot_lo: f64,
    },
    /// Count window of `n` prefilled below 0.9 per axis; every tick is one
    /// tuple above 0.9 that beats all earlier ones, so every query's
    /// top-k changes on every tick.
    Rising,
}

/// Which public surface the end-to-end run drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Facade {
    /// `MonitorServer::tick_at` + `take_deltas`.
    Engine,
    /// A real `Service` on 127.0.0.1 with an ingest and a mirror
    /// `ServiceClient`.
    Serve,
    /// `MonitorServer` → `DeltaRouter` → `SessionOut` queues, no sockets.
    Fanout,
}

/// One workload: fixed work per replay, a reason to exist.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub name: &'static str,
    pub why: &'static str,
    pub facade: Facade,
    pub stream: Stream,
    pub dims: usize,
    /// Tuples resident before the first measured tick (the count-window
    /// size; for `Storm` the window is time-based and this is unused).
    pub n: usize,
    /// Arrivals per tick.
    pub r: usize,
    /// Registered queries, all linear top-`k`.
    pub q: usize,
    pub k: usize,
    /// Independent streams a replay runs back to back, each on a fresh
    /// system (see [`Inputs::streams`]).
    pub streams: usize,
    /// Measured ticks per stream.
    pub ticks: usize,
    /// Subscriber sessions in the delivery half (subscriber `i` follows
    /// query `i mod q`; a single session follows every query).
    pub sessions: usize,
}

/// Unmeasured ticks between registration and the first measured tick.
pub const WARM_TICKS: usize = 16;
/// Per-session cap on queued pushes (the service default).
pub const PUSH_CAP: usize = 1024;
/// Bytes one `peek_coalesced` call may stage: the reactor's
/// write-coalescing chunk.
pub const DRAIN_CHUNK: usize = 64 << 10;

pub const WORKLOADS: &[Shape] = &[
    Shape {
        name: "steady",
        why: "Q=1024 over a cache-resident 10k window, 10% turnover per tick: maintenance-bound; most queries change every tick, so result collect+diff is O(Q) and ingest is a small share",
        facade: Facade::Engine,
        stream: Stream::Uniform,
        dims: 2,
        n: 10_000,
        r: 1_000,
        q: 1_024,
        k: 10,
        streams: 4,
        ticks: 200,
        sessions: 1,
    },
    Shape {
        name: "ingest",
        why: "the paper's default stream (d=4, N=1M, r=10k, k=20) at Q=16: ingest-bound, working set far beyond cache, maintenance nearly idle; the low-Q ingest regression lives here",
        facade: Facade::Engine,
        stream: Stream::Uniform,
        dims: 4,
        n: 1_000_000,
        r: 10_000,
        q: 16,
        k: 20,
        streams: 1,
        ticks: 200,
        sessions: 1,
    },
    Shape {
        name: "storm",
        why: "time window where whole hot groups expire in one tick: bands drain, recomputation and result churn dominate, p90 is far above p50; the only user of the time-based window path",
        facade: Facade::Engine,
        stream: Stream::Storm {
            group: 3,
            span: 2,
            hot_lo: 0.5,
        },
        dims: 2,
        n: 0,
        r: 2_000,
        q: 1_024,
        k: 10,
        streams: 4,
        ticks: 102,
        sessions: 1,
    },
    Shape {
        name: "serve",
        why: "real Service on loopback, one ingest client and one mirror subscribed to all 256 queries: wire/handoff-bound (protocol parse, inbox, reactor flush, client parse), engine work is small",
        facade: Facade::Serve,
        stream: Stream::Uniform,
        dims: 2,
        n: 10_000,
        r: 200,
        q: 256,
        k: 8,
        streams: 2,
        ticks: 500,
        sessions: 1,
    },
    Shape {
        name: "fanout",
        why: "one tuple per tick changes all 64 results, encoded once and pushed into 10000 in-process session queues, then drained: the session layer used wide, no sockets, engine idle",
        facade: Facade::Fanout,
        stream: Stream::Rising,
        dims: 2,
        n: 1_000,
        r: 1,
        q: 64,
        k: 8,
        streams: 4,
        ticks: 100,
        sessions: 10_000,
    },
];

impl Shape {
    pub fn by_name(name: &str) -> Option<Shape> {
        WORKLOADS.iter().find(|w| w.name == name).copied()
    }

    /// The `--quick` smoke scale: a tenth of the ticks and of the window.
    pub fn quick(mut self) -> Shape {
        self.ticks = (self.ticks / 10).max(8);
        self.n /= 10;
        self.sessions = (self.sessions / 10).max(1);
        self
    }

    pub fn window(&self) -> WindowSpec {
        match self.stream {
            Stream::Uniform | Stream::Rising => WindowSpec::Count(self.n),
            // Capacity hint: `span` full waves plus the one accumulating.
            Stream::Storm { group, span, .. } => WindowSpec::TimeSized {
                duration: span,
                capacity: self.r * group * (span as usize + 1),
            },
        }
    }

    /// The engine configuration every facade and the traced pipeline
    /// share (default grid, unsharded, delta tracking on from tick 0).
    pub fn server_config(&self, engine: EngineKind) -> ServerConfig {
        ServerConfig::sma(self.dims, 1)
            .with_window(self.window())
            .with_engine(engine)
            .with_delta_tracking(true)
    }

    /// Measured ticks of one replay, over all its streams.
    pub fn replay_ticks(&self) -> usize {
        self.streams * self.ticks
    }

    /// Arrivals over the measured ticks of one replay.
    pub fn tuples(&self) -> usize {
        self.replay_ticks() * self.r
    }

    /// Subscribers of query `q`, ascending: session `i` follows query
    /// `i mod q`, except that a lone session follows everything.
    pub fn subscribers_of(&self, query: usize) -> impl Iterator<Item = usize> + '_ {
        let step = if self.sessions == 1 { 1 } else { self.q };
        let first = if self.sessions == 1 { 0 } else { query };
        (first..self.sessions).step_by(step)
    }
}

/// One processing cycle's input.
#[derive(Clone, Debug)]
pub struct Tick {
    pub ts: Timestamp,
    pub coords: Vec<f64>,
}

/// A registered query as generated: linear weights (kept so the `serve`
/// workload can put them on the wire) and `k`.
#[derive(Clone, Debug)]
pub struct QueryDef {
    pub weights: Vec<f64>,
    pub k: usize,
}

impl QueryDef {
    pub fn query(&self) -> Query {
        let f = ScoreFn::linear(self.weights.clone()).expect("generated weights are valid");
        Query::top_k(f, self.k).expect("k is positive")
    }
}

/// Everything a replay consumes, generated once per run from the seed.
pub struct Inputs {
    /// Ticks that fill the window before any query exists.
    pub prefill: Vec<Tick>,
    /// [`WARM_TICKS`] unmeasured ticks after registration.
    pub warm: Vec<Tick>,
    /// The measured ticks.
    pub ticks: Vec<Tick>,
    pub queries: Vec<QueryDef>,
}

impl Inputs {
    /// The `shape.streams` independent inputs of one run.
    ///
    /// What a tick costs depends on a few extreme tuples and on when each
    /// query last recomputed, which mixes slowly: over 8 seeds the probe
    /// and update counts of one `steady` or `storm` stream spread by
    /// +-8%, and a longer stream did not narrow that. A replay therefore
    /// runs several streams, each on a fresh system, and the metrics are
    /// taken over their concatenated ticks.
    pub fn streams(shape: &Shape, seed: u64) -> Vec<Inputs> {
        (0..shape.streams as u64)
            .map(|i| Inputs::generate(shape, seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .collect()
    }

    /// One stream's inputs.
    pub fn generate(shape: &Shape, seed: u64) -> Inputs {
        let mut qgen = QueryGen::new(shape.dims, FnFamily::Linear, seed ^ 0x9e37_79b9)
            .expect("workload dims are valid");
        let queries = qgen
            .workload(shape.q)
            .into_iter()
            .map(|f| match f {
                ScoreFn::Linear(l) => QueryDef {
                    weights: l.weights().to_vec(),
                    k: shape.k,
                },
                _ => unreachable!("FnFamily::Linear yields linear functions"),
            })
            .collect();

        let mut pgen =
            PointGen::new(shape.dims, DataDist::Ind, seed ^ 0x0b57).expect("workload dims");
        let mut clock = 0u64;
        let mut next = |len: usize, kind: Stream| -> Tick {
            let mut coords = Vec::with_capacity(len * shape.dims);
            pgen.fill_batch(len, &mut coords);
            let ts = match kind {
                Stream::Uniform | Stream::Rising => Timestamp(clock),
                Stream::Storm { group, hot_lo, .. } => {
                    let wave = clock / group as u64;
                    if wave % 2 == 1 {
                        for v in &mut coords {
                            *v = hot_lo + (1.0 - hot_lo) * *v;
                        }
                    }
                    Timestamp(wave)
                }
            };
            clock += 1;
            Tick { ts, coords }
        };

        let (prefill_ticks, per_prefill) = match shape.stream {
            // At least 1000 per batch, so a small-`r` workload does not
            // spend its set-up on prefill round trips.
            Stream::Uniform | Stream::Rising => {
                let batch = shape.r.max(1_000).min(shape.n);
                (shape.n.div_ceil(batch.max(1)), batch)
            }
            Stream::Storm { group, span, .. } => (group * span as usize, shape.r),
        };
        let mut prefill: Vec<Tick> = (0..prefill_ticks)
            .map(|_| next(per_prefill, shape.stream))
            .collect();
        let mut warm: Vec<Tick> = (0..WARM_TICKS)
            .map(|_| next(shape.r, shape.stream))
            .collect();
        let mut ticks: Vec<Tick> = (0..shape.ticks)
            .map(|_| next(shape.r, shape.stream))
            .collect();

        if shape.stream == Stream::Rising {
            for t in &mut prefill {
                t.coords.iter_mut().for_each(|v| *v *= 0.9);
            }
            // Strictly increasing per axis: tuple `i` sits in slot `i` of
            // (0.9, 1.0) with seeded jitter inside the slot.
            let total = (warm.len() + ticks.len()) as f64;
            for (i, t) in warm.iter_mut().chain(ticks.iter_mut()).enumerate() {
                for v in &mut t.coords {
                    *v = 0.9 + 0.1 * (i as f64 + *v) / total;
                }
            }
        }
        Inputs {
            prefill,
            warm,
            ticks,
            queries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let shape = Shape::by_name("storm").unwrap().quick();
        let a = Inputs::generate(&shape, 1);
        let b = Inputs::generate(&shape, 1);
        let c = Inputs::generate(&shape, 2);
        assert_eq!(a.ticks[3].coords, b.ticks[3].coords);
        assert_eq!(a.queries[5].weights, b.queries[5].weights);
        assert_ne!(a.ticks[3].coords, c.ticks[3].coords);
        assert_ne!(a.queries[5].weights, c.queries[5].weights);
    }

    #[test]
    fn storm_groups_share_timestamps_and_odd_groups_are_hot() {
        let shape = Shape::by_name("storm").unwrap().quick();
        let inputs = Inputs::generate(&shape, 3);
        assert_eq!(inputs.prefill.len(), 6);
        let all: Vec<&Tick> = inputs
            .prefill
            .iter()
            .chain(&inputs.warm)
            .chain(&inputs.ticks)
            .collect();
        for (clock, t) in all.iter().enumerate() {
            assert_eq!(t.ts, Timestamp(clock as u64 / 3));
            if t.ts.0 % 2 == 1 {
                assert!(t.coords.iter().all(|v| *v >= 0.5));
            }
        }
    }

    #[test]
    fn rising_stream_beats_everything_before_it() {
        let shape = Shape::by_name("fanout").unwrap().quick();
        let inputs = Inputs::generate(&shape, 4);
        assert!(inputs
            .prefill
            .iter()
            .all(|t| t.coords.iter().all(|v| *v < 0.9)));
        let hot: Vec<&Tick> = inputs.warm.iter().chain(&inputs.ticks).collect();
        for pair in hot.windows(2) {
            for (a, b) in pair[0].coords.iter().zip(&pair[1].coords) {
                assert!(0.9 <= *a && a < b && *b < 1.0);
            }
        }
    }

    #[test]
    fn subscriber_layout() {
        let wide = Shape::by_name("fanout").unwrap();
        let subs: Vec<usize> = wide.subscribers_of(3).take(3).collect();
        assert_eq!(subs, vec![3, 67, 131]);
        let total: usize = (0..wide.q).map(|q| wide.subscribers_of(q).count()).sum();
        assert_eq!(total, wide.sessions);
        let deep = Shape::by_name("serve").unwrap();
        assert_eq!(deep.subscribers_of(200).collect::<Vec<_>>(), vec![0]);
    }
}
