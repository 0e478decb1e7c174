//! One benchmark run: replay a workload until the time budget is spent,
//! prove the replays did identical and correct work, and reduce them to
//! the named metrics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tkm_core::EngineKind;

use crate::pipeline::{bare_replay, traced_delivery, traced_engine, DeliveryTrace, EngineTrace};
use crate::replay::{engine_replay, replay, wire_probe, ReplayOut};
use crate::shape::{engine_tag, Inputs, Shape, ENGINES};
use crate::stats::{as_us, highest_supported_percentile, median, percentile, pointwise_min, sum_s};
use crate::trace::{stage_series, to_jsonl, Span};
use crate::verify::oracle_finals;

/// How a run is sized.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    pub seed: u64,
    /// Wall time the replay loop may spend.
    pub seconds: f64,
    /// `--quick`: one round at a tenth of the scale.
    pub quick: bool,
}

/// What a run reports.
pub struct Outcome {
    pub workload: &'static str,
    /// Measured ticks over all replays.
    pub attempted: u64,
    pub failed: u64,
    /// Why `failed` is not zero, one line each.
    pub problems: Vec<String>,
    /// `(name, value)` in registry order.
    pub metrics: Vec<(String, f64)>,
    /// Printed, never gated: replay counts, noise ratios, p99.
    pub diagnostics: Vec<(String, String)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Replays of one engine reduced by the noise model.
struct Reduced {
    /// Pointwise minimum over replays, per tick.
    tick_min: Vec<u64>,
    ingest_min: Vec<u64>,
    /// Median-of-replays Σtick over Σ pointwise-min: how much contention
    /// the minimum removed (1.0 = none).
    noise: f64,
}

fn reduce(replays: &[&ReplayOut]) -> Result<Reduced, String> {
    let ticks: Vec<&[u64]> = replays.iter().map(|r| &r.tick_ns[..]).collect();
    let ingests: Vec<&[u64]> = replays.iter().map(|r| &r.ingest_ns[..]).collect();
    let tick_min = pointwise_min(&ticks)?;
    let sums: Vec<f64> = ticks.iter().map(|t| sum_s(t)).collect();
    Ok(Reduced {
        noise: median(&sums) / sum_s(&tick_min),
        ingest_min: pointwise_min(&ingests)?,
        tick_min,
    })
}

/// Checks that every replay did the same work as the first (pointwise-min
/// is meaningless otherwise) and that the work was right.
fn guard(
    rounds: &[Vec<ReplayOut>],
    oracle: &[Vec<tkm_common::Scored>],
    problems: &mut Vec<String>,
) -> u64 {
    let mut failed = 0u64;
    let first = &rounds[0][0];
    for (r, round) in rounds.iter().enumerate() {
        for (out, engine) in round.iter().zip(ENGINES) {
            let tag = engine_tag(engine);
            if out.failed > 0 {
                failed += out.failed;
                problems.push(format!("replay {r} {tag}: {} ticks failed", out.failed));
            }
            // SMA and TMA must report identical per-tick delta streams,
            // and a replay must repeat replay 0 exactly.
            let same = out.fingerprint == first.fingerprint
                && (out.deltas, out.pushes, out.push_bytes)
                    == (first.deltas, first.pushes, first.push_bytes);
            if !same {
                failed += 1;
                problems.push(format!(
                    "replay {r} {tag}: delta stream or push counts differ from replay 0"
                ));
            }
            let wrong = out
                .finals
                .iter()
                .zip(oracle)
                .filter(|(a, b)| a != b)
                .count()
                + out.finals.len().abs_diff(oracle.len());
            if wrong > 0 {
                failed += wrong as u64;
                problems.push(format!(
                    "replay {r} {tag}: {wrong} final results differ from the oracle"
                ));
            }
        }
    }
    failed
}

/// Runs rounds of `one` (one replay per engine) until the budget is spent;
/// at least two rounds, so every minimum is over at least two replays.
fn rounds_until<T>(budget: &Budget, mut one: impl FnMut(EngineKind) -> T) -> Vec<Vec<T>> {
    let start = Instant::now();
    let limit = Duration::from_secs_f64(budget.seconds);
    let mut rounds: Vec<Vec<T>> = Vec::new();
    loop {
        rounds.push(ENGINES.iter().map(|e| one(*e)).collect());
        let elapsed = start.elapsed();
        let per_round = elapsed / rounds.len() as u32;
        let enough = rounds.len() >= 2 && elapsed + per_round > limit;
        if budget.quick || enough {
            return rounds;
        }
    }
}

/// The end-to-end run (`--trace 0`): facade only.
pub fn end_to_end(shape: &Shape, budget: &Budget) -> Outcome {
    let inputs = Inputs::streams(shape, budget.seed);
    let rounds = rounds_until(budget, |engine| replay(shape, &inputs, engine));

    let mut problems = Vec::new();
    let oracle = oracle_finals(shape, &inputs);
    let failed = guard(&rounds, &oracle, &mut problems);

    let mut diagnostics = vec![("replays_per_engine".to_string(), rounds.len().to_string())];
    // One set-up = one SMA system plus one TMA system.
    let setups: Vec<f64> = rounds
        .iter()
        .map(|round| round.iter().map(|r| r.setup_s).sum())
        .collect();
    let mut metrics = vec![("setup_s".to_string(), median(&setups))];

    // (tag, reduced series, state size) per engine. A ragged replay was
    // already reported by `guard`; its engine then has no metrics.
    let engines: Vec<(&str, Reduced, f64)> = ENGINES
        .iter()
        .enumerate()
        .filter_map(|(i, engine)| {
            let replays: Vec<&ReplayOut> = rounds.iter().map(|round| &round[i]).collect();
            let reduced = reduce(&replays).ok()?;
            Some((engine_tag(*engine), reduced, replays[0].space_bytes as f64))
        })
        .collect();
    type Get<'a> = &'a dyn Fn(&Reduced, f64) -> f64;
    let columns: [(&str, Get); 4] = [
        ("tuples_per_s", &|r, _| {
            shape.tuples() as f64 / sum_s(&r.ingest_min)
        }),
        ("tick_p50_us", &|r, _| median(&as_us(&r.tick_min))),
        ("tick_p90_us", &|r, _| percentile(&as_us(&r.tick_min), 90.0)),
        ("space_bytes", &|_, space| space),
    ];
    for (suffix, get) in columns {
        for (tag, reduced, space) in &engines {
            metrics.push((format!("{tag}_{suffix}"), get(reduced, *space)));
        }
    }
    for (tag, reduced, _) in &engines {
        diagnostics.push((
            format!("{tag}_noise_ratio"),
            format!("{:.3}", reduced.noise),
        ));
        // The whole shape of the tick distribution, for reading a tail
        // metric against; only percentiles with ten samples beyond them.
        let ticks_us = as_us(&reduced.tick_min);
        let top = highest_supported_percentile(ticks_us.len()).unwrap_or(50);
        let shape_of: Vec<String> = [50u32, 75, 90, 95, 99]
            .into_iter()
            .filter(|p| *p <= top)
            .map(|p| format!("p{p} {:.1}", percentile(&ticks_us, f64::from(p))))
            .collect();
        diagnostics.push((
            format!("{tag}_tick_us"),
            format!("{} over {} samples", shape_of.join(", "), ticks_us.len()),
        ));
    }
    let first = &rounds[0][0];
    let per_tick = |v: u64| format!("{:.1}", v as f64 / shape.replay_ticks() as f64);
    diagnostics.push(("deltas_per_tick".into(), per_tick(first.deltas)));
    diagnostics.push(("pushes_per_tick".into(), per_tick(first.pushes)));
    diagnostics.push((
        "loop".into(),
        "closed: 1 generator thread, 1 outstanding tick".into(),
    ));

    Outcome {
        workload: shape.name,
        attempted: (rounds.len() * ENGINES.len() * shape.replay_ticks()) as u64,
        failed,
        problems,
        metrics,
        diagnostics,
    }
}

/// Per-stage self-time series of a set of traced passes, reduced by
/// pointwise minimum.
struct Stages(BTreeMap<&'static str, Vec<u64>>);

impl Stages {
    fn new(ticks: usize, passes: &[&[Span]]) -> Stages {
        let per_pass: Vec<_> = passes
            .iter()
            .map(|spans| stage_series(spans, ticks))
            .collect();
        let mut out = BTreeMap::new();
        for name in per_pass[0].keys() {
            let series: Vec<&[u64]> = per_pass
                .iter()
                .map(|m| m.get(name).map_or(&[][..], Vec::as_slice))
                .collect();
            let min = pointwise_min(&series).expect("traced passes record the same spans");
            out.insert(*name, min);
        }
        Stages(out)
    }

    fn ns(&self, name: &str) -> &[u64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    fn p50_us(&self, name: &str) -> f64 {
        median(&as_us(self.ns(name)))
    }

    fn sum_ns(&self, name: &str) -> f64 {
        self.ns(name).iter().sum::<u64>() as f64
    }

    /// Median over the ticks `pick` selects, 0 when it selects none.
    fn p50_us_where(&self, name: &str, pick: impl Fn(usize, u64) -> bool) -> f64 {
        let hit: Vec<u64> = self
            .ns(name)
            .iter()
            .enumerate()
            .filter(|(i, ns)| pick(*i, **ns))
            .map(|(_, ns)| *ns)
            .collect();
        if hit.is_empty() {
            0.0
        } else {
            median(&as_us(&hit))
        }
    }
}

/// The stages `MonitorServer::tick_at` + `take_deltas` cover.
const ENGINE_STAGES: [&str; 4] = ["ingest", "maintain", "collect", "diff"];
/// The stages of the delivery half, in pipeline order. With the engine
/// stages their p50s sum to the in-process part of a tick-to-mirror
/// latency.
const DELIVERY_STAGES: [&str; 9] = [
    "tick_encode",
    "tick_parse",
    "route",
    "encode",
    "enqueue",
    "drain",
    "frame",
    "parse",
    "apply",
];

fn sum_over(stages: &Stages, names: &[&str], f: impl Fn(&Stages, &str) -> f64) -> f64 {
    names.iter().map(|n| f(stages, n)).sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One traced pass of each half over `streams` (SMA): Σ of the stage p50s.
fn in_process_p50_us(shape: &Shape, streams: &[Inputs]) -> (f64, u64) {
    let engine = traced_engine(shape, streams, EngineKind::Sma, true);
    let delivery = traced_delivery(shape, streams, &engine.handoff);
    let ticks = shape.replay_ticks();
    let sum = sum_over(
        &Stages::new(ticks, &[&engine.spans]),
        &ENGINE_STAGES,
        Stages::p50_us,
    ) + sum_over(
        &Stages::new(ticks, &[&delivery.spans]),
        &DELIVERY_STAGES,
        Stages::p50_us,
    );
    (sum, engine.failed + delivery.failed)
}

/// The traced run (`--trace 1`): per-layer metrics, plus the span log
/// under `benchmark/out/`.
///
/// `--seconds` is spent on rounds of untraced facade + traced engine
/// pass, interleaved so both see the same machine; the delivery passes,
/// the bare window/grid replays and the wire probe are fixed work on top.
pub fn traced(shape: &Shape, budget: &Budget) -> Outcome {
    let inputs = Inputs::streams(shape, budget.seed);
    let mut handoff = Vec::new();
    let rounds = rounds_until(budget, |engine| {
        let facade = engine_replay(shape, &inputs, engine);
        let mut trace = traced_engine(shape, &inputs, engine, handoff.is_empty());
        if handoff.is_empty() {
            handoff = std::mem::take(&mut trace.handoff);
        }
        (facade, trace)
    });
    // SMA and TMA produce identical deltas, so one hand-off serves; two
    // passes, so the delivery stages get a minimum too.
    let passes = if budget.quick { 1 } else { 2 };
    let deliveries: Vec<DeliveryTrace> = (0..passes)
        .map(|_| traced_delivery(shape, &inputs, &handoff))
        .collect();
    drop(handoff);

    let mut problems = Vec::new();
    let mut failed = 0u64;
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| metrics.push((name.to_string(), value));
    let ticks = shape.replay_ticks();
    let tuples = shape.tuples() as f64;

    // The decomposed pipeline must reproduce the facade tick by tick, SMA
    // and TMA must agree, and passes must repeat their counters exactly.
    for (r, round) in rounds.iter().enumerate() {
        for (i, (facade, trace)) in round.iter().enumerate() {
            let twin = &rounds[0][i].1;
            let same = trace.fingerprint == facade.fingerprint
                && trace.fingerprint == rounds[0][0].1.fingerprint
                && trace.finals == facade.finals
                && trace.stats == twin.stats;
            let bad = trace.failed + facade.failed + u64::from(!same);
            if bad > 0 {
                failed += bad;
                problems.push(format!(
                    "replay {r} {}: traced engine pass and facade disagree, or counters moved between replays",
                    engine_tag(ENGINES[i])
                ));
            }
        }
    }
    for (r, pass) in deliveries.iter().enumerate() {
        let bad = pass.failed + u64::from(pass.counts != deliveries[0].counts);
        if bad > 0 {
            failed += bad;
            problems.push(format!(
                "delivery pass {r}: refused pushes, bad lines, a mirror that differs from the results, or counts that moved between passes"
            ));
        }
    }

    struct PerEngine<'a> {
        tag: &'static str,
        stages: Stages,
        /// The untraced facade, reduced the same way.
        facade: Reduced,
        /// Counters repeat exactly, so the first pass speaks for all.
        trace: &'a EngineTrace,
    }
    let per_engine: Vec<PerEngine> = ENGINES
        .iter()
        .enumerate()
        .map(|(i, engine)| {
            let facades: Vec<&ReplayOut> = rounds.iter().map(|round| &round[i].0).collect();
            let spans: Vec<&[Span]> = rounds.iter().map(|round| &round[i].1.spans[..]).collect();
            PerEngine {
                tag: engine_tag(*engine),
                stages: Stages::new(ticks, &spans),
                facade: reduce(&facades).expect("facade replays have one length"),
                trace: &rounds[0][i].1,
            }
        })
        .collect();
    let delivery_spans: Vec<&[Span]> = deliveries.iter().map(|d| &d.spans[..]).collect();
    let delivery = Stages::new(ticks, &delivery_spans);
    // `ingest` runs the same code under both engines; SMA's speaks.
    let sma = &per_engine[0];
    let engine_ns = |st: &Stages| sum_over(st, &ENGINE_STAGES, Stages::sum_ns);

    put("ingest.busy_us", sma.stages.p50_us("ingest"));
    put(
        "ingest.ns_per_tuple",
        ratio(sma.stages.sum_ns("ingest"), tuples),
    );
    put(
        "ingest.share",
        ratio(sma.stages.sum_ns("ingest"), engine_ns(&sma.stages)),
    );
    put("ingest.arrivals", sma.trace.stats.arrivals as f64);
    put("ingest.expirations", sma.trace.stats.expirations as f64);
    let bare: Vec<(u64, u64)> = (0..passes).map(|_| bare_replay(shape, &inputs)).collect();
    let window_ns = bare.iter().map(|b| b.0).min().unwrap_or(0);
    let grid_ns = bare.iter().map(|b| b.1).min().unwrap_or(0);
    put("window.ns_per_tuple", ratio(window_ns as f64, tuples));
    put("grid.ns_per_tuple", ratio(grid_ns as f64, tuples));

    // An expiry wave: a tick that expires at least half of the most any
    // tick expires (every tick of a count window, one in `2·group` of the
    // storm's time window).
    let expired = &sma.trace.expirations;
    let peak = expired.iter().max().copied().unwrap_or(0);
    let in_wave = |tick: usize, _: u64| peak > 0 && expired[tick] * 2 >= peak;

    type Row<'a> = (&'a str, &'a str, &'a dyn Fn(&PerEngine) -> f64);
    let rows: [Row; 18] = [
        ("maintain", "busy_us", &|e| e.stages.p50_us("maintain")),
        ("maintain", "share", &|e| {
            ratio(e.stages.sum_ns("maintain"), engine_ns(&e.stages))
        }),
        ("maintain", "cell_probes", &|e| {
            e.trace.stats.cell_probes as f64
        }),
        ("maintain", "tuple_probes", &|e| {
            e.trace.stats.tuple_probes as f64
        }),
        ("maintain", "result_updates", &|e| {
            e.trace.stats.result_updates as f64
        }),
        ("maintain", "update_ratio", &|e| {
            ratio(
                e.trace.stats.result_updates as f64,
                e.trace.stats.tuple_probes as f64,
            )
        }),
        ("maintain", "storm_busy_us", &|e| {
            e.stages.p50_us_where("maintain", in_wave)
        }),
        ("compute", "recompute_queries", &|e| {
            e.trace.stats.recompute_queries as f64
        }),
        ("compute", "recompute_groups", &|e| {
            e.trace.stats.recompute_groups as f64
        }),
        ("compute", "queries_per_traversal", &|e| {
            ratio(
                e.trace.stats.recompute_queries as f64,
                e.trace.stats.recompute_groups as f64,
            )
        }),
        ("compute", "cells_processed", &|e| {
            e.trace.stats.cells_processed as f64
        }),
        ("compute", "points_scanned", &|e| {
            e.trace.stats.points_scanned as f64
        }),
        ("compute", "cleanup_cells", &|e| {
            e.trace.stats.cleanup_cells as f64
        }),
        // One span per sampling point; every other tick reads 0.
        ("compute", "snapshot_us", &|e| {
            e.stages.p50_us_where("snapshot", |_, ns| ns > 0)
        }),
        ("result", "collect_us", &|e| e.stages.p50_us("collect")),
        ("result", "diff_us", &|e| e.stages.p50_us("diff")),
        ("result", "change_ratio", &|e| {
            ratio(e.trace.deltas as f64, e.trace.diffed as f64)
        }),
        ("server", "overhead_us", &|e| {
            median(&as_us(&e.facade.tick_min)) - sum_over(&e.stages, &ENGINE_STAGES, Stages::p50_us)
        }),
    ];
    for (layer, metric, get) in rows {
        for e in &per_engine {
            put(&format!("{layer}.{}.{metric}", e.tag), get(e));
        }
    }

    let counts = deliveries[0].counts;
    let per_tick = |v: u64| v as f64 / ticks as f64;
    put("route.busy_us", delivery.p50_us("route"));
    put("route.pairs_per_tick", per_tick(counts.pushes));
    let fanout_ns = sum_over(
        &delivery,
        &["route", "encode", "enqueue", "drain"],
        Stages::sum_ns,
    );
    put(
        "route.pushes_per_s",
        ratio(counts.pushes as f64, fanout_ns / 1e9),
    );
    put("protocol.encode_tick_us", delivery.p50_us("tick_encode"));
    put("protocol.parse_tick_us", delivery.p50_us("tick_parse"));
    put("protocol.encode_push_us", delivery.p50_us("encode"));
    put("protocol.parse_push_us", delivery.p50_us("parse"));
    put("protocol.encodes_per_tick", per_tick(counts.encodes));
    put("protocol.push_bytes_per_tick", per_tick(counts.push_bytes));
    let pushes = counts.pushes as f64;
    put(
        "session.enqueue_ns_per_push",
        ratio(delivery.sum_ns("enqueue"), pushes),
    );
    put(
        "session.drain_ns_per_push",
        ratio(delivery.sum_ns("drain"), pushes),
    );
    put(
        "session.bytes_per_drain_call",
        ratio(counts.drained_bytes as f64, counts.drain_calls as f64),
    );
    put(
        "session.frame_ns_per_line",
        ratio(delivery.sum_ns("frame"), counts.lines as f64),
    );
    put(
        "client.apply_ns_per_push",
        ratio(delivery.sum_ns("apply"), counts.applied as f64),
    );

    // The service + reactor layer can only be seen from outside, and its
    // cost does not depend on the engine workload: every traced run
    // carries the same `serve`-shaped probe (the full workload on
    // `serve`, a short one elsewhere).
    let serve = Shape::by_name("serve").expect("serve is a workload");
    let on_serve = shape.name == serve.name;
    let probe_shape = match (on_serve, budget.quick) {
        (true, _) => *shape,
        (false, true) => serve.quick(),
        (false, false) => Shape {
            streams: 1,
            ticks: 300,
            ..serve
        },
    };
    let probe_inputs = Inputs::streams(&probe_shape, budget.seed);
    let probe = wire_probe(&probe_shape, &probe_inputs[0], probe_shape.ticks.min(200));
    let in_process = if on_serve {
        sum_over(&sma.stages, &ENGINE_STAGES, Stages::p50_us)
            + sum_over(&delivery, &DELIVERY_STAGES, Stages::p50_us)
    } else {
        let (sum, bad) = in_process_p50_us(&probe_shape, &probe_inputs[..1]);
        failed += bad;
        sum
    };
    let t2m_p50 = median(&as_us(&probe.tick_to_mirror_ns));
    put(
        "service.empty_tick_rtt_us",
        median(&as_us(&probe.empty_tick_ns)),
    );
    put("service.ping_rtt_us", median(&as_us(&probe.ping_ns)));
    put("service.wire_residual_us", t2m_p50 - in_process);
    put("service.encodes", probe.encodes as f64);
    put("service.deltas", probe.deltas as f64);
    put("service.resyncs", probe.resyncs as f64);
    put("service.shed", probe.shed as f64);
    let probe_bad = probe.resyncs + probe.shed + u64::from(probe.encodes != probe.deltas);
    if probe_bad > 0 {
        failed += probe_bad;
        problems.push("wire probe: resyncs, sheds, or encodes != deltas".into());
    }

    // Traced engine spans against the untraced facade ticks they mirror.
    let facade_s: f64 = per_engine.iter().map(|e| sum_s(&e.facade.tick_min)).sum();
    let traced_s: f64 = per_engine
        .iter()
        .map(|e| (engine_ns(&e.stages) + e.stages.sum_ns("engine")) / 1e9)
        .sum();
    put("trace.overhead_pct", (traced_s / facade_s - 1.0) * 100.0);
    let leaf_ns: f64 = per_engine.iter().map(|e| engine_ns(&e.stages)).sum::<f64>()
        + sum_over(&delivery, &DELIVERY_STAGES, Stages::sum_ns);
    let glue_ns: f64 = per_engine
        .iter()
        .map(|e| e.stages.sum_ns("engine"))
        .sum::<f64>()
        + delivery.sum_ns("deliver");
    put("trace.attributed_share", ratio(leaf_ns, leaf_ns + glue_ns));

    let mut log = String::new();
    for (r, round) in rounds.iter().enumerate() {
        for ((_, trace), engine) in round.iter().zip(ENGINES) {
            to_jsonl(&mut log, r, engine_tag(engine), &trace.spans);
        }
    }
    for (r, pass) in deliveries.iter().enumerate() {
        to_jsonl(&mut log, r, "delivery", &pass.spans);
    }
    let mut diagnostics = vec![
        (
            "engine_replays_per_engine".to_string(),
            rounds.len().to_string(),
        ),
        ("delivery_passes".to_string(), deliveries.len().to_string()),
    ];
    for e in &per_engine {
        diagnostics.push((
            format!("{}_facade_vs_traced_engine_p50_us", e.tag),
            format!(
                "{:.1} vs {:.1}",
                median(&as_us(&e.facade.tick_min)),
                sum_over(&e.stages, &ENGINE_STAGES, Stages::p50_us) + e.stages.p50_us("engine")
            ),
        ));
    }
    diagnostics.extend([
        (
            "probe_tick_to_mirror_p50_us".to_string(),
            format!("{t2m_p50:.1}"),
        ),
        (
            "probe_in_process_stage_sum_us".to_string(),
            format!("{in_process:.1}"),
        ),
        ("span_log".to_string(), write_span_log(shape.name, &log)),
    ]);

    Outcome {
        workload: shape.name,
        attempted: (rounds.len() * ENGINES.len() * shape.replay_ticks()) as u64,
        failed,
        problems,
        metrics,
        diagnostics,
    }
}

/// Writes the span log next to the benchmark's sources and returns where
/// (or why not: a read-only checkout must not fail the run).
fn write_span_log(workload: &str, log: &str) -> String {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{workload}.jsonl"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, log)) {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("not written ({e})"),
    }
}
