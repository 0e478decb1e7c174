//! Beyond the paper: query-sharded scale-out, replicated vs shared ingest.
//!
//! The paper's server is single-threaded; per-cycle cost is linear in the
//! query count Q (Figure 18). This experiment runs the same workload on
//! both sharding designs at S ∈ {1, 2, 4, 8} SMA shards:
//!
//! * `tkm_bench::replicated::ParallelMonitor` — S full engine replicas:
//!   every arrival is re-ingested S times and window+grid memory grows
//!   S-fold;
//! * `tkm_core::Monitor` — one shared window+grid ingested once, with
//!   per-query maintenance partitioned across S threads.
//!
//! Reported per design and S: per-run wall time, speedup over S=1, and
//! total memory — quantifying that shared ingest turns the S-fold memory
//! bill into O(1) tuple storage at the same CPU scale-out.
//!
//! `--smoke` runs a seconds-scale configuration (used by CI to exercise
//! the parallel path on every push).

// A CLI tool: stdout is the interface.
#![allow(clippy::print_stdout)]

use std::time::Instant;

use tkm_bench::replicated::ParallelMonitor;
use tkm_bench::table::{fmt_mb, fmt_secs};
use tkm_bench::{cli, ExpParams, Scale, Table};
use tkm_common::QueryId;
use tkm_core::{GridSpec, Query, SmaMonitor};
use tkm_datagen::{QueryGen, StreamSim};
use tkm_window::WindowSpec;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Drives one monitor through warm-up, registration and the measured
/// ticks; returns (seconds, space_bytes).
fn drive<M>(
    p: &ExpParams,
    workload: &[tkm_common::ScoreFn],
    mut register: impl FnMut(&mut M, QueryId, Query),
    mut tick: impl FnMut(&mut M, tkm_common::Timestamp, &[f64]),
    space: impl Fn(&M) -> usize,
    monitor: &mut M,
) -> (f64, usize) {
    let mut stream = StreamSim::new(p.dims, p.dist, p.r, p.seed).expect("dims");
    let mut remaining = p.n;
    while remaining > 0 {
        let chunk = remaining.min(50_000);
        let (ts, batch) = stream.warmup_batch(chunk);
        tick(monitor, ts, batch);
        remaining -= chunk;
    }
    for (i, f) in workload.iter().enumerate() {
        register(
            monitor,
            QueryId(i as u64),
            Query::top_k(f.clone(), p.k).expect("k"),
        );
    }
    let start = Instant::now();
    for _ in 0..p.ticks {
        let (ts, batch) = stream.next_batch();
        tick(monitor, ts, batch);
    }
    (start.elapsed().as_secs_f64(), space(monitor))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = if smoke {
        Scale::Quick
    } else {
        Scale::from_args()
    };
    // Sharding pays off when per-cycle CPU work is substantial: use the
    // heavy end of the paper's parameter space (ANT data, k = 100, 4x the
    // default query count). The smoke preset only checks plumbing.
    let base = ExpParams::defaults(scale);
    let p = if smoke {
        ExpParams {
            dist: tkm_datagen::DataDist::Ant,
            n: 2_000,
            r: 50,
            k: 10,
            q: 16,
            ticks: 5,
            grid_cells: 1_296,
            ..base
        }
    } else {
        ExpParams {
            dist: tkm_datagen::DataDist::Ant,
            k: 100,
            q: base.q * 4,
            ..base
        }
    };
    cli::header(
        "Scale-out — query sharding across cores (beyond the paper)",
        "extension of Figure 18 (cost linear in Q) to multi-core",
        scale,
        &p.summary(),
    );

    let workload = QueryGen::new(p.dims, p.family, p.seed ^ 0x517c_c1b7)
        .expect("dims")
        .workload(p.q);

    let mut table = Table::new(&[
        "design",
        "shards",
        "time [s]",
        "speedup",
        "space [MB]",
        "space vs S=1",
    ]);
    for design in ["replicated", "shared"] {
        let mut baseline_time = None;
        let mut baseline_space = None;
        for shards in SHARD_COUNTS {
            let (secs, bytes) = match design {
                "replicated" => {
                    let mut m = ParallelMonitor::with_replicas(shards, || {
                        SmaMonitor::new(
                            p.dims,
                            WindowSpec::Count(p.n),
                            GridSpec::CellBudget(p.grid_cells),
                        )
                    })
                    .expect("config");
                    drive(
                        &p,
                        &workload,
                        |m, id, q| m.register_query(id, q).expect("register"),
                        |m, ts, b| m.tick(ts, b).expect("tick"),
                        |m| m.space_bytes(),
                        &mut m,
                    )
                }
                _ => {
                    let mut m = SmaMonitor::with_shards(
                        p.dims,
                        WindowSpec::Count(p.n),
                        GridSpec::CellBudget(p.grid_cells),
                        shards,
                    )
                    .expect("config");
                    drive(
                        &p,
                        &workload,
                        |m, id, q| m.register_query(id, q).expect("register"),
                        |m, ts, b| m.tick(ts, b).expect("tick"),
                        |m| m.space_bytes(),
                        &mut m,
                    )
                }
            };
            let t0 = *baseline_time.get_or_insert(secs);
            let s0 = *baseline_space.get_or_insert(bytes);
            table.row(vec![
                design.to_string(),
                shards.to_string(),
                fmt_secs(secs),
                format!("{:.2}x", t0.max(1e-12) / secs.max(1e-12)),
                fmt_mb(bytes),
                format!("{:.2}x", bytes as f64 / s0.max(1) as f64),
            ]);
        }
    }
    cli::emit(&table);
    println!(
        "shape check: both designs speed up until per-tick thread overhead \
         dominates; replicated memory grows ~linearly with shards (S windows \
         + grids) while shared memory stays near flat (one window + grid, \
         per-shard query state only)."
    );
    if smoke {
        println!("smoke ok");
    }
}
