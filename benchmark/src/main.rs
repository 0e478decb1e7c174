//! The repo's benchmark: five seeded workloads over topk-monitor, every
//! output checked against an oracle, every metric printed by name.
//!
//! ```text
//! tkm_benchmark [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
//!               [--quick] [--aa [N]] [--manifest]
//! ```
//!
//! Without `--workload` all five run in turn. The last line of standard
//! output is one JSON object `{correct, attempted, failed, metrics}` for
//! the (last) workload: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The exit code is non-zero when any
//! output was wrong. See `README.md` next to this package.

mod json;
mod metrics;
mod pin;
mod pipeline;
mod replay;
mod run;
mod shape;
mod stats;
mod trace;
mod verify;

use std::process::ExitCode;

use json::Json;
use metrics::{Better, DEFAULT_SEED, END_TO_END, HOLD_OUT_SEED, PER_LAYER, RUN_SECONDS};
use run::{Budget, Outcome};
use shape::{Shape, WORKLOADS};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    aa: Option<usize>,
    manifest: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: tkm_benchmark [--workload {}] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--aa [N]] [--manifest]\n\
         seeds: {DEFAULT_SEED} by default; a claim must also hold on the hold-out seed {HOLD_OUT_SEED}",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        aa: None,
        manifest: false,
    };
    let mut it = argv.iter().peekable();
    // A flag's optional value: the next token when it is a number.
    let optional = |it: &mut std::iter::Peekable<std::slice::Iter<String>>| -> Option<usize> {
        let n = it.peek()?.parse().ok()?;
        it.next();
        Some(n)
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?.clone()),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => args.trace = optional(&mut it).is_none_or(|n| n != 0),
            "--quick" => args.quick = true,
            "--aa" => args.aa = Some(optional(&mut it).unwrap_or(2).max(2)),
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(args)
}

fn run_one(shape: &Shape, args: &Args) -> Outcome {
    let shape = if args.quick { shape.quick() } else { *shape };
    let budget = Budget {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
    };
    if args.trace {
        run::traced(&shape, &budget)
    } else {
        run::end_to_end(&shape, &budget)
    }
}

/// `(unit, better, what a per-layer metric should move)` of a
/// registered metric.
fn describe(name: &str) -> (&'static str, Better, Option<&'static str>) {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better, None))
        .chain(
            PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit, m.better, Some(m.moves))),
        )
        .find(|(n, ..)| *n == name)
        .map(|(_, unit, better, moves)| (unit, better, moves))
        .unwrap_or_else(|| panic!("{name} is not in the metric registry"))
}

fn print_outcome(out: &Outcome, seed: u64) {
    println!("# workload {} (seed {seed})", out.workload);
    for (name, value) in &out.metrics {
        let (unit, better, moves) = describe(name);
        let moves = moves.map_or(String::new(), |m| format!("; moves {m}"));
        println!(
            "{name:<36} {value:>18.4} {unit:<6} ({} is better{moves})",
            better.as_str()
        );
    }
    for (key, note) in &out.diagnostics {
        println!("  . {key}: {note}");
    }
    for problem in &out.problems {
        println!("  ! {problem}");
    }
    println!(
        "  ops {} failed {} -> {}",
        out.attempted,
        out.failed,
        if out.correct() { "correct" } else { "WRONG" }
    );
}

/// The contract's result line.
fn result_line(out: &Outcome) -> String {
    let metrics = out.metrics.iter().map(|(name, value)| {
        let (unit, ..) = describe(name);
        (
            name.clone(),
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .compact()
}

/// `--aa N`: the full set N times on the same code and seed. Every
/// end-to-end metric × workload must agree across the sets within its own
/// bound, or the benchmark cannot resolve a regression of that size.
fn aa(sets: usize, shapes: &[Shape], args: &Args) -> bool {
    let mut ok = true;
    for shape in shapes {
        let outs: Vec<Outcome> = (0..sets).map(|_| run_one(shape, args)).collect();
        println!("# A/A {} ({sets} sets, seed {})", shape.name, args.seed);
        for m in END_TO_END {
            let values: Vec<f64> = outs
                .iter()
                .filter_map(|o| o.metrics.iter().find(|(n, _)| n == m.name).map(|(_, v)| *v))
                .collect();
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            let gap = (hi - lo) / lo;
            let verdict = if gap <= m.bound { "ok" } else { "VIOLATION" };
            ok &= gap <= m.bound;
            println!(
                "{:<20} gap {:>7.3}%  bound {:>5.1}%  {verdict}",
                m.name,
                gap * 100.0,
                m.bound * 100.0
            );
        }
        for o in &outs {
            ok &= o.correct();
            for (key, note) in o
                .diagnostics
                .iter()
                .filter(|(k, _)| k.ends_with("noise_ratio"))
            {
                println!("  . {key}: {note}");
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tkm_benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", metrics::manifest().pretty());
        return ExitCode::SUCCESS;
    }
    let shapes: Vec<Shape> = match &args.workload {
        None => WORKLOADS.to_vec(),
        Some(name) => match Shape::by_name(name) {
            Some(s) => vec![s],
            None => {
                eprintln!("tkm_benchmark: no workload named {name}");
                return ExitCode::from(2);
            }
        },
    };
    match pin::pin_to_one_cpu() {
        Some(cpu) => println!("# pinned to cpu {cpu}"),
        None => println!("# not pinned: expect cross-CPU wake-up noise on serve"),
    }
    if let Some(sets) = args.aa {
        return if aa(sets, &shapes, &args) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let mut all_correct = true;
    for shape in &shapes {
        let out = run_one(shape, &args);
        print_outcome(&out, args.seed);
        println!("{}", result_line(&out));
        all_correct &= out.correct();
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_and_human_command_lines_both_parse() {
        let a = parse_args(&argv("--workload serve --seed 7 --seconds 15 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.trace),
            (Some("serve"), 7, true)
        );
        assert!(
            !parse_args(&argv("--trace 0 --workload steady"))
                .unwrap()
                .trace
        );
        let b = parse_args(&argv("--trace --quick")).unwrap();
        assert!(b.trace && b.quick && b.seed == DEFAULT_SEED);
        assert_eq!(parse_args(&argv("--aa")).unwrap().aa, Some(2));
        assert_eq!(parse_args(&argv("--aa 3 --quick")).unwrap().aa, Some(3));
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }

    /// The contract: `--trace 0` carries every end-to-end metric and
    /// `--trace 1` every per-layer metric, on every workload.
    #[test]
    fn quick_runs_emit_exactly_the_registered_metrics() {
        for shape in WORKLOADS {
            for trace in [false, true] {
                let args = Args {
                    workload: None,
                    seed: 3,
                    seconds: 1.0,
                    trace,
                    quick: true,
                    aa: None,
                    manifest: false,
                };
                let out = run_one(shape, &args);
                assert!(
                    out.correct(),
                    "{} trace={trace}: {:?}",
                    shape.name,
                    out.problems
                );
                let got: Vec<&str> = out.metrics.iter().map(|(n, _)| n.as_str()).collect();
                let want: Vec<&str> = if trace {
                    PER_LAYER.iter().map(|m| m.name).collect()
                } else {
                    END_TO_END.iter().map(|m| m.name).collect()
                };
                assert_eq!(got, want, "{} trace={trace}", shape.name);
                assert!(out.metrics.iter().all(|(_, v)| v.is_finite()));
                let line = Json::parse(&result_line(&out)).unwrap();
                assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
                assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            }
        }
    }
}
