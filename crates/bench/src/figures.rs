//! The paper's experiments (§8) as one table of figures.
//!
//! Every figure warms a window, registers `Q` queries, runs the measured
//! cycles and sweeps one Table 1 parameter. Nine of them are nothing more:
//! a [`Body::Sweep`] names the swept [`Axis`], the panels and the
//! [`Column`]s, each a projection of one engine's [`RunMeasurement`]. The
//! other four print the datasets, the §6 model, the TSL `kmax` tuning and
//! the §7 variants. All engine runs of one invocation go through its
//! [`Session`], which runs each distinct `(EngineSel, ExpParams)` once.

// Printing the figures is this module's purpose.
#![allow(clippy::print_stdout)]

use crate::analysis::ModelParams;
use crate::harness::{
    query_workload, run_engine, timed_cycles, warm_up, EngineSel, RunMeasurement,
};
use crate::params::{ExpParams, Scale, CYCLES};
use crate::table::{fmt_mb, fmt_secs, Table};
use tkm_common::{QueryId, Result};
use tkm_core::skyband::tuned_kmax;
use tkm_core::{GridSpec, KmaxPolicy, Query, ThresholdMonitor, UpdateStreamTma};
use tkm_datagen::{DataDist, FnFamily, PointGen, StreamSim};
use tkm_window::WindowSpec;

use DataDist::{Ant, Ind};
use EngineSel::{Sma, Tma};
use FnFamily::{Linear, Product, Quadratic};
use Metric::{Recomputes, Space, Time, ViewLen};

/// One figure or table of the paper.
pub struct Figure {
    /// Name on the `paper` command line.
    pub id: &'static str,
    /// Printed title.
    pub title: &'static str,
    /// The part of the paper it reproduces.
    pub paper_ref: &'static str,
    /// What it runs and prints.
    pub body: Body,
    /// The qualitative result the paper reports, printed after the tables.
    pub shape_check: &'static str,
}

/// What a figure runs and prints.
pub enum Body {
    /// One row per value of the [`Axis`], one table per (scoring family,
    /// distribution) panel, one engine run per [`Column`]. A heading names
    /// the panel when there is more than one.
    Sweep(Axis, &'static [(FnFamily, DataDist)], &'static [Column]),
    /// A figure that is not a sweep of engine runs.
    Custom(fn(&mut Session) -> Result<()>),
}

/// A Table 1 parameter and the values the paper sweeps it over.
#[derive(Clone, Copy, Debug)]
pub enum Axis {
    /// Grid cells per axis; the grid has `x^4` cells.
    CellsPerAxis(&'static [usize]),
    /// Dimensionality `d`; the cell budget stays the same.
    Dims(&'static [usize]),
    /// Window size `N` in paper millions (scaled), with `r = N/100`.
    Window(&'static [usize]),
    /// Arrival rate `r` in paper thousands (scaled).
    Rate(&'static [usize]),
    /// Query count `Q` at paper scale (scaled).
    Queries(&'static [usize]),
    /// Result size `k`.
    K(&'static [usize]),
}

impl Axis {
    fn headers(self) -> &'static [&'static str] {
        match self {
            Axis::CellsPerAxis(_) => &["cells/axis", "grid"],
            Axis::Dims(_) => &["d"],
            Axis::Window(_) => &["N"],
            Axis::Rate(_) => &["r"],
            Axis::Queries(_) => &["Q"],
            Axis::K(_) => &["k"],
        }
    }

    /// The setting of each row and its label cells.
    fn rows(self, base: ExpParams, scale: Scale) -> Vec<(ExpParams, Vec<String>)> {
        let (Axis::CellsPerAxis(values)
        | Axis::Dims(values)
        | Axis::Window(values)
        | Axis::Rate(values)
        | Axis::Queries(values)
        | Axis::K(values)) = self;
        let row = |v: usize| {
            let mut p = base;
            match self {
                Axis::CellsPerAxis(_) => p.grid_cells = v.pow(4),
                Axis::Dims(_) => p.dims = v,
                Axis::Window(_) => {
                    p.n = ExpParams::scale_n(scale, v);
                    p.r = p.n / 100;
                }
                Axis::Rate(_) => p.r = ExpParams::scale_r(scale, v),
                Axis::Queries(_) => p.q = ExpParams::scale_q(scale, v),
                Axis::K(_) => p.k = v,
            }
            let label = match self {
                Axis::CellsPerAxis(_) => vec![v.to_string(), format!("{v}^4")],
                Axis::Window(_) => vec![p.n.to_string()],
                Axis::Rate(_) => vec![p.r.to_string()],
                Axis::Queries(_) => vec![p.q.to_string()],
                Axis::Dims(_) | Axis::K(_) => vec![v.to_string()],
            };
            (p, label)
        };
        values.iter().map(|&v| row(v)).collect()
    }
}

/// One printed column: a measurement of one engine's run.
#[derive(Clone, Copy, Debug)]
pub struct Column {
    /// Column header.
    pub header: &'static str,
    /// The engine whose run fills the column.
    pub engine: EngineSel,
    /// The distribution to run on instead of the panel's (Table 2 puts
    /// IND and ANT side by side).
    pub dist: Option<DataDist>,
    /// The projection of the run printed in the column.
    pub metric: Metric,
}

const fn col(header: &'static str, engine: EngineSel, metric: Metric) -> Column {
    Column {
        header,
        engine,
        dist: None,
        metric,
    }
}

impl Column {
    const fn on(self, dist: DataDist) -> Column {
        Column {
            dist: Some(dist),
            ..self
        }
    }
}

/// A projection of [`RunMeasurement`] to one table cell.
#[derive(Clone, Copy, Debug)]
pub enum Metric {
    /// CPU time of the measured cycles, seconds.
    Time,
    /// Space after the run, MB.
    Space,
    /// Recomputations (refills for TSL) during the measured cycles.
    Recomputes,
    /// Mean view or band length per query.
    ViewLen,
}

impl Metric {
    fn show(self, m: &RunMeasurement) -> String {
        match self {
            Time => fmt_secs(m.cpu_seconds),
            Space => fmt_mb(m.space_bytes),
            Recomputes => m.recomputations.to_string(),
            ViewLen => format!("{:.1}", m.avg_view_len),
        }
    }
}

const IND: &[(FnFamily, DataDist)] = &[(Linear, Ind)];
const IND_ANT: &[(FnFamily, DataDist)] = &[(Linear, Ind), (Linear, Ant)];
const TIMES: &[Column] = &[
    col("TSL [s]", EngineSel::TSL, Time),
    col("TMA [s]", Tma, Time),
    col("SMA [s]", Sma, Time),
];
const KS: &[usize] = &[1, 5, 10, 20, 50, 100];
const DIMS: &[usize] = &[2, 3, 4, 5, 6];

/// Every figure and table, in the paper's order.
pub static FIGURES: [Figure; 13] = [
    Figure {
        id: "fig13",
        title: "Figure 13 — datasets",
        paper_ref: "Mouratidis et al., SIGMOD 2006, Figure 13 (IND and ANT, d = 2)",
        body: Body::Custom(datasets),
        shape_check: "IND covariance ~ 0; ANT covariance < 0 and sum variance \
         far below IND's (points hug the x+y = 1 anti-diagonal).",
    },
    Figure {
        id: "fig14",
        title: "Figure 14 — CPU time and space vs grid granularity",
        paper_ref: "Mouratidis et al., SIGMOD 2006, Figure 14 (a) and (b)",
        body: Body::Sweep(
            Axis::CellsPerAxis(&[5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]),
            IND,
            &[
                col("TMA time [s]", Tma, Time),
                col("SMA time [s]", Sma, Time),
                col("TMA space [MB]", Tma, Space),
                col("SMA space [MB]", Sma, Space),
            ],
        ),
        shape_check: "time is U-shaped with the minimum near 12 cells/axis; \
         space increases with granularity; SMA ≤ TMA in time throughout.",
    },
    Figure {
        id: "fig15",
        title: "Figure 15 — CPU time vs data dimensionality",
        paper_ref: "Mouratidis et al., SIGMOD 2006, Figure 15 (a) IND, (b) ANT",
        body: Body::Sweep(Axis::Dims(DIMS), IND_ANT, TIMES),
        shape_check: "cost grows with d for all methods; TSL is the slowest \
         by an order of magnitude; SMA ≤ TMA; ANT costs more than IND.",
    },
    Figure {
        id: "fig16",
        title: "Figure 16 — CPU time vs number of active tuples (r = N/100)",
        paper_ref: "Mouratidis et al., SIGMOD 2006, Figure 16 (a) IND, (b) ANT",
        body: Body::Sweep(Axis::Window(&[1, 2, 3, 4, 5]), IND_ANT, TIMES),
        shape_check: "cost grows with N for every method; TSL is slowest \
         (sorted-list maintenance on 2rd updates/cycle); SMA ≤ TMA.",
    },
    Figure {
        id: "fig17",
        title: "Figure 17 — CPU time vs arrival rate",
        paper_ref: "Mouratidis et al., SIGMOD 2006, Figure 17 (a) IND, (b) ANT",
        body: Body::Sweep(Axis::Rate(&[1, 5, 10, 50, 100]), IND_ANT, TIMES),
        shape_check: "cost grows with r; the grid methods stay well below \
         TSL at every rate; SMA's edge over TMA is larger on ANT.",
    },
    Figure {
        id: "fig18",
        title: "Figure 18 — CPU time vs number of queries",
        paper_ref: "Mouratidis et al., SIGMOD 2006, Figure 18 (a) IND, (b) ANT",
        body: Body::Sweep(Axis::Queries(&[100, 500, 1000, 2000, 5000]), IND_ANT, TIMES),
        shape_check: "near-linear growth in Q for every method; TSL ≫ TMA > SMA.",
    },
    Figure {
        id: "fig19",
        title: "Figure 19 — CPU time vs number of results k",
        paper_ref: "Mouratidis et al., SIGMOD 2006, Figure 19 (a) IND, (b) ANT",
        body: Body::Sweep(
            Axis::K(KS),
            IND_ANT,
            &[
                col("TSL [s]", EngineSel::TSL, Time),
                col("TMA [s]", Tma, Time),
                col("SMA [s]", Sma, Time),
                col("TMA recomputes", Tma, Recomputes),
            ],
        ),
        // The TMA column runs the engine labelled TMA: an SMA-style band
        // at `tuned_kmax` depth, not the paper's Figure 9 TMA, which
        // recomputes on every result expiry.
        shape_check: "cost grows with k; the TMA/SMA gap widens with k as \
         TMA's recomputation count climbs.",
    },
    Figure {
        id: "fig20",
        title: "Figure 20 — space requirements vs number of results k",
        paper_ref: "Mouratidis et al., SIGMOD 2006, Figure 20 (a) IND, (b) ANT",
        body: Body::Sweep(
            Axis::K(KS),
            IND_ANT,
            &[
                col("TSL [MB]", EngineSel::TSL, Space),
                col("TMA [MB]", Tma, Space),
                col("SMA [MB]", Sma, Space),
            ],
        ),
        shape_check: "space grows mildly with k; TSL uses the most memory \
         (d sorted lists); SMA slightly above TMA.",
    },
    Figure {
        id: "fig21",
        title: "Figure 21 — CPU time vs d for non-linear functions",
        paper_ref: "Mouratidis et al., SIGMOD 2006, Figure 21 (a)-(d)",
        body: Body::Sweep(
            Axis::Dims(DIMS),
            &[
                (Product, Ind),
                (Product, Ant),
                (Quadratic, Ind),
                (Quadratic, Ant),
            ],
            TIMES,
        ),
        shape_check: "same relative performance as the linear workload \
         (TSL ≫ TMA ≥ SMA, growing with d) for both non-linear families.",
    },
    Figure {
        id: "table2",
        title: "Table 2 — average view/skyband size per query",
        paper_ref: "Mouratidis et al., SIGMOD 2006, Table 2",
        body: Body::Sweep(
            Axis::K(KS),
            IND,
            &[
                col("TSL IND", EngineSel::TSL, ViewLen),
                col("SMA IND", Sma, ViewLen),
                col("TSL ANT", EngineSel::TSL, ViewLen).on(Ant),
                col("SMA ANT", Sma, ViewLen).on(Ant),
            ],
        ),
        shape_check: "SMA's skyband holds barely more than k entries; TSL's \
         views sit between k and the tuned kmax (paper: 26.7 vs 21.6 at k=20).",
    },
    Figure {
        id: "model",
        title: "Model vs measured — §6 analysis against engine counters",
        paper_ref: "Mouratidis et al., SIGMOD 2006, Section 6",
        body: Body::Custom(model),
        shape_check: "the measured TMA recompute rate stays below the \
         Pr_rec bound and both climb with k; the measured TMA/SMA ratio \
         moves with the model's (≥ 1, growing in k); skyband length ≈ k.",
    },
    Figure {
        id: "kmax",
        title: "kmax tuning — TSL CPU time vs kmax per k",
        paper_ref: "Mouratidis et al., SIGMOD 2006, §8 (tuned kmax = 4/10/20/30/70/120)",
        body: Body::Custom(kmax_tuning),
        shape_check: "kmax = k refills constantly; very large kmax slows the \
         per-arrival view probes; the tuned middle minimises time.",
    },
    Figure {
        id: "ext",
        title: "Extensions — constrained / threshold / update-stream variants (§7)",
        paper_ref: "Mouratidis et al., SIGMOD 2006, Section 7",
        body: Body::Custom(extensions),
        shape_check: "constrained traversals stay clipped to their region \
         (cost tracks in-region candidate density — sparse regions mean \
         higher result turnover, hence more recomputations); threshold \
         monitoring never recomputes; the update-stream variant recomputes \
         more (random deletions hit results more often than FIFO expiry) \
         and pays hash-cell overhead.",
    },
];

/// One `paper` invocation: the preset, the output form and every engine
/// run made so far.
pub struct Session {
    /// Parameter preset.
    scale: Scale,
    /// The default setting every figure varies.
    base: ExpParams,
    /// Whether each table is also printed as CSV.
    csv: bool,
    runs: Vec<(EngineSel, ExpParams, RunMeasurement)>,
}

impl Session {
    /// A session at `scale`'s default setting.
    fn new(scale: Scale, csv: bool) -> Session {
        Session {
            scale,
            base: ExpParams::defaults(scale),
            csv,
            runs: Vec::new(),
        }
    }

    /// [`run_engine`], run once per distinct `(sel, p)` in this session.
    fn run(&mut self, sel: EngineSel, p: &ExpParams) -> Result<RunMeasurement> {
        if let Some((_, _, m)) = self.runs.iter().find(|(s, q, _)| *s == sel && q == p) {
            return Ok(*m);
        }
        let m = run_engine(sel, p)?;
        self.runs.push((sel, *p, m));
        Ok(m)
    }

    /// Engine runs made so far.
    pub fn runs(&self) -> usize {
        self.runs.len()
    }

    /// Prints a table, and its CSV form if asked for.
    fn emit(&self, table: &Table) {
        println!("{}", table.render());
        if self.csv {
            println!("--- csv ---");
            println!("{}", table.to_csv());
        }
    }
}

impl Figure {
    /// Prints the figure: header, tables, shape check.
    pub fn run(&self, s: &mut Session) -> Result<()> {
        println!("== {} ==", self.title);
        println!("   reproduces: {}", self.paper_ref);
        println!("   scale: {:?}   setting: {}", s.scale, s.base.summary());
        println!();
        match self.body {
            Body::Sweep(axis, panels, columns) => sweep(s, axis, panels, columns)?,
            Body::Custom(body) => body(s)?,
        }
        println!("shape check: {}", self.shape_check);
        Ok(())
    }
}

fn sweep(
    s: &mut Session,
    axis: Axis,
    panels: &[(FnFamily, DataDist)],
    columns: &[Column],
) -> Result<()> {
    let mut headers = axis.headers().to_vec();
    headers.extend(columns.iter().map(|c| c.header));
    for &(family, dist) in panels {
        let mut table = Table::new(&headers);
        for (p, mut row) in axis.rows(s.base, s.scale) {
            for c in columns {
                let dist = c.dist.unwrap_or(dist);
                let m = s.run(c.engine, &ExpParams { family, dist, ..p })?;
                row.push(c.metric.show(&m));
            }
            table.row(row);
        }
        match (panels.len(), family) {
            (1, _) => {}
            (_, Linear) => println!("--- {} ---", dist.label()),
            _ => println!("--- f = {} on {} ---", family.label(), dist.label()),
        }
        s.emit(&table);
    }
    Ok(())
}

/// Reads `paper`'s `[--scale S] [--csv] [<figure>…]` (program name
/// excluded): the session, and the named figures, each once, in the order
/// given; every figure when none is named. An unknown flag, scale or
/// figure name is an error line.
pub fn parse_args(args: &[String]) -> std::result::Result<(Session, Vec<&'static Figure>), String> {
    let session = Session::new(
        Scale::from_arg_list(args)?,
        args.iter().any(|a| a == "--csv"),
    );
    let mut figures: Vec<&'static Figure> = Vec::new();
    let mut words = args.iter();
    while let Some(word) = words.next() {
        if word == "--scale" {
            words.next();
        } else if !word.starts_with("--") {
            let Some(fig) = FIGURES.iter().find(|f| f.id == word) else {
                let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
                return Err(format!(
                    "{word}: unknown figure (accepted: {})",
                    ids.join(" ")
                ));
            };
            if !figures.iter().any(|f| f.id == fig.id) {
                figures.push(fig);
            }
        }
    }
    if figures.is_empty() {
        figures = FIGURES.iter().collect();
    }
    Ok((session, figures))
}

const DENSITY_GRID: usize = 24;
const SAMPLES: usize = 4000;

/// Figure 13: a character-density plot of each 2-d dataset, and the
/// statistics that tell them apart.
fn datasets(s: &mut Session) -> Result<()> {
    println!(
        "{SAMPLES} samples per dataset (d = 2) on a {DENSITY_GRID}x{DENSITY_GRID} density grid"
    );
    println!();
    let mut stats = Table::new(&["dataset", "attr covariance", "sum variance"]);
    for dist in [Ind, Ant] {
        let (plot, cov, var) = density_plot(dist, s.base.seed)?;
        println!("--- {} ---", dist.label());
        println!("{plot}");
        stats.row(vec![
            dist.label().into(),
            format!("{cov:.4}"),
            format!("{var:.4}"),
        ]);
    }
    s.emit(&stats);
    Ok(())
}

fn density_plot(dist: DataDist, seed: u64) -> Result<(String, f64, f64)> {
    let mut gen = PointGen::new(2, dist, seed)?;
    let mut counts = vec![0u32; DENSITY_GRID * DENSITY_GRID];
    let mut points = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let p = gen.point();
        let i = ((p[0] * DENSITY_GRID as f64) as usize).min(DENSITY_GRID - 1);
        let j = ((p[1] * DENSITY_GRID as f64) as usize).min(DENSITY_GRID - 1);
        counts[j * DENSITY_GRID + i] += 1;
        points.push((p[0], p[1]));
    }
    let shades = [' ', '.', ':', '+', '*', '#', '@'];
    let max = counts.iter().copied().max().unwrap_or(1) as f64;
    let mut plot = String::new();
    for j in (0..DENSITY_GRID).rev() {
        for i in 0..DENSITY_GRID {
            let c = counts[j * DENSITY_GRID + i] as f64 / max;
            plot.push(shades[(c * (shades.len() - 1) as f64).round() as usize]);
            plot.push(' ');
        }
        plot.push('\n');
    }
    let mean = |f: &dyn Fn(f64, f64) -> f64| {
        points.iter().map(|&(x, y)| f(x, y)).sum::<f64>() / SAMPLES as f64
    };
    let (mx, my) = (mean(&|x, _| x), mean(&|_, y| y));
    let cov = mean(&|x, y| (x - mx) * (y - my));
    let ms = mean(&|x, y| x + y);
    let var = mean(&|x, y| (x + y - ms) * (x + y - ms));
    Ok((plot, cov, var))
}

/// §6: the recomputation bound `Pr_rec ≤ 1 − (1 − r/N)^k` against TMA's
/// measured recomputations per query-cycle, the model's T_TMA/T_SMA
/// against the measured CPU ratio, and the skyband length against `k`;
/// then the closed-form values at the paper's default setting.
fn model(s: &mut Session) -> Result<()> {
    let mut table = Table::new(&[
        "k",
        "Pr_rec bound",
        "TMA recompute rate",
        "T_TMA/T_SMA model",
        "TMA/SMA measured",
        "skyband len",
    ]);
    for k in [1usize, 5, 10, 20, 50] {
        let p = ExpParams { k, ..s.base };
        let model = ModelParams {
            n: p.n as f64,
            d: p.dims as f64,
            r: p.r as f64,
            q: p.q as f64,
            k: k as f64,
            delta: 1.0 / (p.grid_cells as f64).powf(1.0 / p.dims as f64).round(),
        };
        let tma = s.run(Tma, &p)?;
        let sma = s.run(Sma, &p)?;
        let rate = tma.recomputations as f64 / (p.q * CYCLES) as f64;
        table.row(vec![
            k.to_string(),
            format!("{:.3}", model.pr_rec()),
            format!("{rate:.3}"),
            format!("{:.2}", model.t_tma() / model.t_sma()),
            format!("{:.2}", tma.cpu_seconds / sma.cpu_seconds),
            format!("{:.1}", sma.avg_view_len),
        ]);
    }
    s.emit(&table);

    let m = ModelParams::default();
    let mut summary = Table::new(&["quantity", "paper default"]);
    for (quantity, value) in [
        ("cells per query C", format!("{:.1}", m.cells_per_query())),
        ("tuples per cell", format!("{:.1}", m.tuples_per_cell())),
        ("Pr_rec", format!("{:.3}", m.pr_rec())),
        ("T_comp (ops)", fmt_secs(m.t_comp())),
        ("T_TMA (ops)", format!("{:.0}", m.t_tma())),
        ("T_SMA (ops)", format!("{:.0}", m.t_sma())),
        ("S_TMA (slots)", format!("{:.0}", m.s_tma())),
        ("S_SMA (slots)", format!("{:.0}", m.s_sma())),
    ] {
        summary.row(vec![quantity.into(), value]);
    }
    println!("--- closed-form values at the paper's default setting ---");
    s.emit(&summary);
    Ok(())
}

/// §8's `kmax` fine-tuning for TSL: CPU time and refills over a range of
/// fixed `kmax` around the paper's tuned value, then Yi et al.'s dynamic
/// adjustment, per `k`.
fn kmax_tuning(s: &mut Session) -> Result<()> {
    for k in [1usize, 10, 20, 50] {
        let p = ExpParams { k, ..s.base };
        let tuned = tuned_kmax(k);
        let mut candidates = vec![
            k,
            k + (tuned - k).div_ceil(2),
            tuned,
            tuned + (tuned - k).max(1),
            2 * tuned,
        ];
        candidates.dedup();
        let policies = candidates.into_iter().map(KmaxPolicy::Fixed);
        let mut table = Table::new(&["kmax", "time [s]", "refills", "note"]);
        for policy in policies.chain([KmaxPolicy::Dynamic]) {
            let m = s.run(EngineSel::Tsl(policy), &p)?;
            let (kmax, note) = match policy {
                KmaxPolicy::Fixed(kmax) if kmax == tuned => (kmax.to_string(), "<- paper's tuned"),
                KmaxPolicy::Fixed(kmax) => (kmax.to_string(), ""),
                _ => ("dynamic".to_string(), "Yi et al. adjustment"),
            };
            table.row(vec![
                kmax,
                fmt_secs(m.cpu_seconds),
                m.recomputations.to_string(),
                note.into(),
            ]);
        }
        println!("--- k = {k} ---");
        s.emit(&table);
    }
    Ok(())
}

/// §7: constrained queries on TMA and SMA next to the unconstrained runs,
/// threshold queries, and TMA over an update stream whose deletions are
/// random instead of FIFO expiry.
fn extensions(s: &mut Session) -> Result<()> {
    let p = s.base;
    let mut table = Table::new(&["variant", "engine", "time [s]", "recomputes"]);
    for (variant, constrained) in [("full-space", false), ("constrained", true)] {
        for engine in [Tma, Sma] {
            let m = s.run(engine, &ExpParams { constrained, ..p })?;
            table.row(vec![
                variant.into(),
                engine.label().into(),
                fmt_secs(m.cpu_seconds),
                m.recomputations.to_string(),
            ]);
        }
    }
    table.row(vec![
        "threshold".into(),
        "grid".into(),
        fmt_secs(threshold_run(&p)?),
        "0".into(),
    ]);
    let (secs, recomputes) = update_stream_run(&p)?;
    table.row(vec![
        "update-stream".into(),
        "TMA(hash)".into(),
        fmt_secs(secs),
        recomputes.to_string(),
    ]);
    s.emit(&table);
    Ok(())
}

/// Seconds of the measured cycles with one threshold query per scoring
/// function, each threshold near the top of the function's range so the
/// matching sets stay top-k-sized.
fn threshold_run(p: &ExpParams) -> Result<f64> {
    let workload = query_workload(p)?;
    let mut stream = StreamSim::new(p.dims, p.dist, p.r, p.seed)?;
    let window = WindowSpec::Count(p.n);
    let mut m = ThresholdMonitor::new(p.dims, window, GridSpec::CellBudget(p.grid_cells))?;
    warm_up(&mut stream, p.n, |ts, batch| m.tick(ts, batch))?;
    for (i, f) in workload.into_iter().enumerate() {
        let tau = 0.97 * f.max_score_rect(&vec![0.0; p.dims], &vec![1.0; p.dims]);
        m.register_query(QueryId(i as u64), f, tau)?;
    }
    timed_cycles(&mut stream, |ts, batch| m.tick(ts, batch))
}

/// Seconds and recomputations of the measured cycles of update-stream
/// TMA, each cycle deleting `r` tuples picked pseudo-randomly.
fn update_stream_run(p: &ExpParams) -> Result<(f64, u64)> {
    let workload = query_workload(p)?;
    let mut stream = StreamSim::new(p.dims, p.dist, p.r, p.seed)?;
    let mut m = UpdateStreamTma::new(p.dims, GridSpec::CellBudget(p.grid_cells))?;
    let mut live = Vec::with_capacity(p.n + p.r);
    warm_up(&mut stream, p.n, |_, batch| {
        for coords in batch.chunks_exact(p.dims) {
            live.push(m.insert(coords)?);
        }
        Ok(())
    })?;
    for (i, f) in workload.into_iter().enumerate() {
        m.register_query(QueryId(i as u64), Query::top_k(f, p.k)?)?;
    }
    let before = m.stats().recomputations();
    let mut state = p.seed | 1;
    let secs = timed_cycles(&mut stream, |_, batch| {
        for coords in batch.chunks_exact(p.dims) {
            live.push(m.insert(coords)?);
        }
        for _ in 0..p.r {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let victim = live.swap_remove((state >> 33) as usize % live.len());
            m.delete(victim)?;
        }
        m.end_cycle();
        Ok(())
    })?;
    Ok((secs, m.stats().recomputations() - before))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_sweep_figures_share_one_set_of_runs() {
        // The count depends only on the swept settings, not on their size.
        let mut s = Session::new(Scale::Quick, false);
        s.base = ExpParams {
            n: 400,
            r: 4,
            q: 2,
            grid_cells: 16,
            ..s.base
        };
        for id in ["fig19", "fig20", "table2", "model"] {
            let fig = FIGURES.iter().find(|f| f.id == id).unwrap();
            fig.run(&mut s).unwrap();
        }
        // k ∈ {1, 5, 10, 20, 50, 100} × {IND, ANT} × {TSL, TMA, SMA}.
        assert_eq!(s.runs(), 36);
    }
}
