//! Beyond the paper: query-sharded scale-out over one shared ingest.
//!
//! The paper's server is single-threaded; per-cycle cost is linear in the
//! query count Q (Figure 18). This experiment runs one workload on
//! `tkm_core::Monitor` at S ∈ {1, 2, 4, 8} SMA shards: one shared
//! window+grid ingested once, with per-query maintenance partitioned
//! across S threads.
//!
//! Reported per S: per-run wall time, speedup over S=1, and total memory
//! — tuple storage is O(1) in S, only per-query state is per-shard.

// A CLI tool: stdout is the interface.
#![allow(clippy::print_stdout)]

use std::time::Instant;

use tkm_bench::table::{fmt_mb, fmt_secs};
use tkm_bench::{cli, ExpParams, Scale, Table};
use tkm_common::QueryId;
use tkm_core::{GridSpec, Query, SmaMonitor};
use tkm_datagen::{QueryGen, StreamSim};
use tkm_window::WindowSpec;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Drives an S-shard monitor through warm-up, registration and the
/// measured ticks; returns (seconds, space_bytes).
fn drive(p: &ExpParams, workload: &[tkm_common::ScoreFn], shards: usize) -> (f64, usize) {
    let mut monitor = SmaMonitor::with_shards(
        p.dims,
        WindowSpec::Count(p.n),
        GridSpec::CellBudget(p.grid_cells),
        shards,
    )
    .expect("config");
    let mut stream = StreamSim::new(p.dims, p.dist, p.r, p.seed).expect("dims");
    let mut remaining = p.n;
    while remaining > 0 {
        let chunk = remaining.min(50_000);
        let (ts, batch) = stream.warmup_batch(chunk);
        monitor.tick(ts, batch).expect("tick");
        remaining -= chunk;
    }
    for (i, f) in workload.iter().enumerate() {
        let query = Query::top_k(f.clone(), p.k).expect("k");
        monitor
            .register_query(QueryId(i as u64), query)
            .expect("register");
    }
    let start = Instant::now();
    for _ in 0..p.ticks {
        let (ts, batch) = stream.next_batch();
        monitor.tick(ts, batch).expect("tick");
    }
    (start.elapsed().as_secs_f64(), monitor.space_bytes())
}

fn main() {
    let scale = Scale::from_args();
    // Sharding pays off when per-cycle CPU work is substantial: use the
    // heavy end of the paper's parameter space (ANT data, k = 100, 4x the
    // default query count).
    let base = ExpParams::defaults(scale);
    let p = ExpParams {
        dist: tkm_datagen::DataDist::Ant,
        k: 100,
        q: base.q * 4,
        ..base
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
        "shards",
        "time [s]",
        "speedup",
        "space [MB]",
        "space vs S=1",
    ]);
    let mut baseline = None;
    for shards in SHARD_COUNTS {
        let (secs, bytes) = drive(&p, &workload, shards);
        let (t0, s0) = *baseline.get_or_insert((secs, bytes));
        table.row(vec![
            shards.to_string(),
            fmt_secs(secs),
            format!("{:.2}x", t0.max(1e-12) / secs.max(1e-12)),
            fmt_mb(bytes),
            format!("{:.2}x", bytes as f64 / s0.max(1) as f64),
        ]);
    }
    cli::emit(&table);
    println!(
        "shape check: time falls with S while per-cycle work outweighs the \
         per-tick thread overhead (not at --scale quick, and no further than \
         the machine has cores); memory stays near flat (one window + grid, \
         per-shard query state only)."
    );
}
