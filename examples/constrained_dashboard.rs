//! A sensor dashboard mixing the §7 query-type extensions:
//!
//! * **constrained top-k** — each dashboard panel ranks only the sensors
//!   inside its geographic pane (an axis-parallel rectangle over the
//!   normalised coordinates);
//! * **update streams** — sensors report *corrections*: a reading can be
//!   explicitly retracted (explicit deletion) rather than aging out, so
//!   the panel uses the hash-cell TMA variant.
//!
//! Run with: `cargo run --release --example constrained_dashboard`

// A CLI tool: stdout is the interface.
#![allow(clippy::print_stdout)]

use topk_monitor::engines::{GridSpec, TmaMonitor, UpdateStreamTma};
use topk_monitor::{
    DataDist, PointGen, Query, QueryId, Rect, ScoreFn, Timestamp, TkmError, TupleId, WindowSpec,
};

fn main() -> Result<(), TkmError> {
    const WINDOW: usize = 5_000;
    const RATE: usize = 250;
    const K: usize = 3;
    // Attributes: (signal strength, battery level) — rank panels by
    // f = 0.8·signal + 0.2·battery.
    let dims = 2;
    let f = ScoreFn::linear(vec![0.8, 0.2])?;

    // --- Sliding-window dashboard with four constrained panels ---
    let mut dash = TmaMonitor::new(dims, WindowSpec::Count(WINDOW), GridSpec::default())?;
    let panes = [
        ("north-west", Rect::new(vec![0.0, 0.5], vec![0.5, 1.0])?),
        ("north-east", Rect::new(vec![0.5, 0.5], vec![1.0, 1.0])?),
        ("south-west", Rect::new(vec![0.0, 0.0], vec![0.5, 0.5])?),
        ("south-east", Rect::new(vec![0.5, 0.0], vec![1.0, 0.5])?),
    ];
    for (i, (_, pane)) in panes.iter().enumerate() {
        dash.register_query(
            QueryId(i as u64),
            Query::constrained(f.clone(), K, pane.clone())?,
        )?;
    }

    let mut gen = PointGen::new(dims, DataDist::Ind, 7)?;
    for tick in 0..20u64 {
        let mut batch = Vec::with_capacity(RATE * dims);
        for _ in 0..RATE {
            batch.extend_from_slice(&gen.point());
        }
        dash.tick(Timestamp(tick), &batch)?;
    }
    println!("constrained panels after 20 cycles:");
    for (i, (name, pane)) in panes.iter().enumerate() {
        let top = dash.result(QueryId(i as u64))?;
        println!(
            "  {name:>10} {:?}..{:?}: best score {:.3} ({} results)",
            pane.lo(),
            pane.hi(),
            top.first().map_or(0.0, |s| s.score.get()),
            top.len()
        );
        // Every reported tuple really lies inside the pane.
        for hit in top {
            let coords = dash.coords(hit.id).expect("valid result");
            assert!(pane.contains(coords));
        }
    }

    // --- Update-stream panel: corrections retract readings ---
    let mut live = UpdateStreamTma::new(dims, GridSpec::default())?;
    live.register_query(QueryId(0), Query::top_k(f, K)?)?;
    let mut ids: Vec<TupleId> = Vec::new();
    for _ in 0..500 {
        ids.push(live.insert(&gen.point())?);
    }
    live.end_cycle();
    let before = live.result(QueryId(0))?.to_vec();
    println!("\nupdate-stream panel, top-{K} before corrections:");
    for hit in &before {
        println!("  {} score {:.3}", hit.id, hit.score.get());
    }
    // Retract the current best reading (a faulty sensor) — not the oldest!
    let faulty = before[0].id;
    live.delete(faulty)?;
    live.end_cycle();
    let after = live.result(QueryId(0))?;
    println!("after retracting {faulty}:");
    for hit in after {
        println!("  {} score {:.3}", hit.id, hit.score.get());
    }
    assert_ne!(after[0].id, faulty);
    assert_eq!(after[0].id, before[1].id, "the runner-up takes over");
    println!(
        "\nrecomputations triggered by corrections: {}",
        live.stats().recomputations() - 1
    );
    Ok(())
}
