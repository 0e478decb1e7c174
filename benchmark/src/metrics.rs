//! The metric registry: every name the benchmark prints, with its unit,
//! direction and (end-to-end only) regression bound. `BENCHMARK.json` is
//! generated from this table (`--manifest`), and a test pins the
//! committed file to it, so the two cannot drift.

use crate::json::Json;
use crate::shape::WORKLOADS;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees. `bound` is the
/// share of the parent's median by which it may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Seconds one driver run measures (`run_seconds` in the manifest and the
/// default of `--seconds`).
pub const RUN_SECONDS: u64 = 15;

/// The default seed; claims must also hold on [`HOLD_OUT_SEED`].
pub const DEFAULT_SEED: u64 = 20_060_627;
/// A seed not used while a change is written.
pub const HOLD_OUT_SEED: u64 = 7;

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every workload reports every one of these, once per engine: a *tick*
/// is one closed-loop cycle as that workload's user sees it (see the
/// README for the per-workload start and end points).
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("sma_tuples_per_s", "1/s", Better::Higher, 0.25),
    e2e("tma_tuples_per_s", "1/s", Better::Higher, 0.25),
    e2e("sma_tick_p50_us", "us", Better::Lower, 0.25),
    e2e("tma_tick_p50_us", "us", Better::Lower, 0.25),
    e2e("sma_tick_p90_us", "us", Better::Lower, 0.25),
    e2e("tma_tick_p90_us", "us", Better::Lower, 0.25),
    e2e("sma_space_bytes", "bytes", Better::Lower, 0.08),
    e2e("tma_space_bytes", "bytes", Better::Lower, 0.08),
];

/// A per-layer metric from the traced run. `moves` names the end-to-end
/// metric it should move and the workload to look on; it is printed and
/// documented, never enforced.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const ON_INGEST: &str = "*_tuples_per_s, *_tick_p50_us on ingest";
const ON_STEADY: &str = "*_tuples_per_s, *_tick_p50_us on steady";
const ON_STORM: &str = "*_tick_p90_us, *_tuples_per_s on storm";
const ON_STEADY_Q: &str = "*_tuples_per_s on steady (O(Q) per tick)";
const ON_FANOUT: &str = "*_tuples_per_s, *_tick_p50_us on fanout";
const ON_SERVE: &str = "*_tuples_per_s, *_tick_p50_us on serve";
const ON_WIRE: &str = "*_tick_p50_us, *_tick_p90_us, *_tuples_per_s on serve";
const HARNESS: &str = "none (harness self-check)";

/// Per-layer metrics, in pipeline order. Engine-specific ones come as
/// `<layer>.sma.*` / `<layer>.tma.*`.
pub const PER_LAYER: &[PerLayer] = &[
    // tkm_core::ingest
    pl("ingest.busy_us", "us", Lower, ON_INGEST),
    pl("ingest.ns_per_tuple", "ns", Lower, ON_INGEST),
    pl("ingest.share", "ratio", Lower, ON_INGEST),
    pl("ingest.arrivals", "count", Lower, ON_INGEST),
    pl("ingest.expirations", "count", Lower, ON_INGEST),
    // bare tkm_window::Window / tkm_grid::Grid fed the same batches
    pl("window.ns_per_tuple", "ns", Lower, ON_INGEST),
    pl("grid.ns_per_tuple", "ns", Lower, ON_INGEST),
    // tkm_core::maintenance + tkm_skyband + tkm_grid::influence
    pl("maintain.sma.busy_us", "us", Lower, ON_STEADY),
    pl("maintain.tma.busy_us", "us", Lower, ON_STEADY),
    pl("maintain.sma.share", "ratio", Lower, ON_STEADY),
    pl("maintain.tma.share", "ratio", Lower, ON_STEADY),
    pl("maintain.sma.cell_probes", "count", Lower, ON_STEADY),
    pl("maintain.tma.cell_probes", "count", Lower, ON_STEADY),
    pl("maintain.sma.tuple_probes", "count", Lower, ON_STEADY),
    pl("maintain.tma.tuple_probes", "count", Lower, ON_STEADY),
    pl("maintain.sma.result_updates", "count", Lower, ON_STEADY),
    pl("maintain.tma.result_updates", "count", Lower, ON_STEADY),
    pl("maintain.sma.update_ratio", "ratio", Higher, ON_STEADY),
    pl("maintain.tma.update_ratio", "ratio", Higher, ON_STEADY),
    pl("maintain.sma.storm_busy_us", "us", Lower, ON_STORM),
    pl("maintain.tma.storm_busy_us", "us", Lower, ON_STORM),
    // tkm_core::compute + tkm_core::kernel
    pl("compute.sma.recompute_queries", "count", Lower, ON_STORM),
    pl("compute.tma.recompute_queries", "count", Lower, ON_STORM),
    pl("compute.sma.recompute_groups", "count", Lower, ON_STORM),
    pl("compute.tma.recompute_groups", "count", Lower, ON_STORM),
    pl(
        "compute.sma.queries_per_traversal",
        "ratio",
        Higher,
        ON_STORM,
    ),
    pl(
        "compute.tma.queries_per_traversal",
        "ratio",
        Higher,
        ON_STORM,
    ),
    pl("compute.sma.cells_processed", "count", Lower, ON_STORM),
    pl("compute.tma.cells_processed", "count", Lower, ON_STORM),
    pl("compute.sma.points_scanned", "count", Lower, ON_STORM),
    pl("compute.tma.points_scanned", "count", Lower, ON_STORM),
    pl("compute.sma.cleanup_cells", "count", Lower, ON_STORM),
    pl("compute.tma.cleanup_cells", "count", Lower, ON_STORM),
    pl("compute.sma.snapshot_us", "us", Lower, ON_STORM),
    pl("compute.tma.snapshot_us", "us", Lower, ON_STORM),
    // result collection + ResultDelta::diff, and what MonitorServer adds
    pl("result.sma.collect_us", "us", Lower, ON_STEADY_Q),
    pl("result.tma.collect_us", "us", Lower, ON_STEADY_Q),
    pl("result.sma.diff_us", "us", Lower, ON_STEADY_Q),
    pl("result.tma.diff_us", "us", Lower, ON_STEADY_Q),
    pl("result.sma.change_ratio", "ratio", Lower, ON_STEADY_Q),
    pl("result.tma.change_ratio", "ratio", Lower, ON_STEADY_Q),
    pl("server.sma.overhead_us", "us", Lower, ON_STEADY_Q),
    pl("server.tma.overhead_us", "us", Lower, ON_STEADY_Q),
    // tkm_core::route
    pl("route.busy_us", "us", Lower, ON_FANOUT),
    pl("route.pairs_per_tick", "count", Lower, ON_FANOUT),
    pl("route.pushes_per_s", "1/s", Higher, ON_FANOUT),
    // tkm_service::protocol
    pl("protocol.encode_tick_us", "us", Lower, ON_SERVE),
    pl("protocol.parse_tick_us", "us", Lower, ON_SERVE),
    pl("protocol.encode_push_us", "us", Lower, ON_SERVE),
    pl("protocol.parse_push_us", "us", Lower, ON_SERVE),
    pl("protocol.encodes_per_tick", "count", Lower, ON_SERVE),
    pl("protocol.push_bytes_per_tick", "bytes", Lower, ON_SERVE),
    // tkm_service::session + tkm_service::client
    pl("session.enqueue_ns_per_push", "ns", Lower, ON_FANOUT),
    pl("session.drain_ns_per_push", "ns", Lower, ON_FANOUT),
    pl("session.bytes_per_drain_call", "bytes", Higher, ON_FANOUT),
    pl("session.frame_ns_per_line", "ns", Lower, ON_SERVE),
    pl("client.apply_ns_per_push", "ns", Lower, ON_SERVE),
    // tkm_service::service + reactor, seen from outside (sockets + STATS)
    pl("service.empty_tick_rtt_us", "us", Lower, ON_WIRE),
    pl("service.ping_rtt_us", "us", Lower, ON_WIRE),
    pl("service.wire_residual_us", "us", Lower, ON_WIRE),
    pl("service.encodes", "count", Lower, ON_WIRE),
    pl("service.deltas", "count", Lower, ON_WIRE),
    pl("service.resyncs", "count", Lower, ON_WIRE),
    pl("service.shed", "count", Lower, ON_WIRE),
    // the harness itself
    pl("trace.overhead_pct", "%", Lower, HARNESS),
    pl("trace.attributed_share", "ratio", Higher, HARNESS),
];

#[cfg(test)]
/// Whether `name` is a legal metric or workload name: starts with a
/// letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
/// Whether `unit` is a legal unit: 1..=16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok_char)
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn name_rule() {
        for good in [
            "setup_s",
            "maintain.sma.busy_us",
            "p95",
            "a-b_c.d",
            "9lives",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".hidden", "_x", "has space", "µs", "a/b", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("us"));
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit("a b"));
    }

    #[test]
    fn registry_obeys_the_contract() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "count")))
        {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_manifest_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(
            Json::parse(&text).unwrap(),
            manifest(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- --manifest > BENCHMARK.json"
        );
    }
}
