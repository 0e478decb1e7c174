//! The paper's experiments: `paper [--scale quick|default|paper] [--csv]
//! [<figure>…]`.
//!
//! Runs the named figures and tables (`fig13` … `fig21`, `table2`,
//! `model`, `kmax`, `ext`; see `tkm_bench::figures`), or all of them when
//! none is named. Each prints its tables and the shape the paper reports.
//! An engine configuration that several figures contain runs once.

// A CLI tool: stdout is the interface.
#![allow(clippy::print_stdout)]

use tkm_bench::cli;
use tkm_bench::figures::parse_args;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut session, figures) = cli::or_usage_exit(parse_args(&argv));
    for (i, fig) in figures.iter().enumerate() {
        if i > 0 {
            println!();
        }
        if let Err(e) = fig.run(&mut session) {
            eprintln!("{}: {e}", fig.id);
            std::process::exit(1);
        }
    }
    eprintln!("paper: {} engine runs", session.runs());
}
