//! Stock-market monitoring over a **time-based** window.
//!
//! Trades arrive at a variable rate; a time-based window keeps everything
//! from the last `WINDOW_TICKS` time units (so bursty periods hold more
//! tuples — the defining difference from count-based windows). Two
//! continuous views run side by side:
//!
//! * a top-k ranking of "hot" trades under a *non-linear* preference
//!   combining momentum and volume, `f = (0.2 + momentum)·(0.2 + volume)`
//!   (the product family of the paper's Figure 21);
//! * a threshold alert stream reporting every trade whose score clears a
//!   fixed bar (§7 threshold queries) — with exact per-cycle deltas.
//!
//! Run with: `cargo run --release --example stock_ticker`

// A CLI tool: stdout is the interface.
#![allow(clippy::print_stdout)]

use topk_monitor::engines::{GridSpec, SmaMonitor, ThresholdMonitor};
use topk_monitor::{DataDist, PointGen, Query, QueryId, ScoreFn, Timestamp, TkmError, WindowSpec};

fn main() -> Result<(), TkmError> {
    const WINDOW_TICKS: u64 = 8;
    const K: usize = 5;
    let dims = 2; // (momentum, volume), both normalised to [0, 1]

    let mut ranking = SmaMonitor::new(dims, WindowSpec::Time(WINDOW_TICKS), GridSpec::default())?;
    let mut alerts =
        ThresholdMonitor::new(dims, WindowSpec::Time(WINDOW_TICKS), GridSpec::default())?;

    let hot = ScoreFn::product(vec![0.2, 0.2])?;
    ranking.register_query(QueryId(0), Query::top_k(hot.clone(), K)?)?;
    // Alert when (0.2+m)(0.2+v) > 1.25 — roughly "both attributes ≥ 0.9".
    alerts.register_query(QueryId(0), hot, 1.25)?;

    let mut gen = PointGen::new(dims, DataDist::Ind, 99)?;
    let mut total = 0usize;

    println!("time-based window: trades from the last {WINDOW_TICKS} ticks stay ranked\n");
    for tick in 0..40u64 {
        // Bursty market: rate oscillates 20..120 trades per tick.
        let rate = 20 + 100 * usize::from(tick % 7 == 0 || tick % 11 == 0);
        let mut batch = Vec::with_capacity(rate * dims);
        for _ in 0..rate {
            let mut p = gen.point();
            // Market-wide momentum wave so leaders change over time.
            p[0] = (p[0] * 0.7 + 0.3 * ((tick as f64) / 6.0).sin().abs()).clamp(0.0, 1.0);
            batch.extend_from_slice(&p);
        }
        total += rate;

        let now = Timestamp(tick);
        ranking.tick(now, &batch)?;
        alerts.tick(now, &batch)?;

        let fresh_alerts = alerts.added(QueryId(0))?;
        if !fresh_alerts.is_empty() {
            println!(
                "tick {tick:>2}: {} alert(s), strongest score {:.3}",
                fresh_alerts.len(),
                fresh_alerts[0].score.get()
            );
        }
        if tick % 8 == 0 {
            let top = ranking.result(QueryId(0))?;
            let window_size = ranking.timeline().len();
            println!(
                "tick {tick:>2}: window holds {window_size} trades; top-{} scores: {}",
                top.len(),
                top.iter()
                    .map(|s| format!("{:.3}", s.score.get()))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
    }

    println!(
        "\ndone: {total} trades, {} skyband recomputations (SMA pre-computes future leaders)",
        ranking.stats().recomputations()
    );
    Ok(())
}
