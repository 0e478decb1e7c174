//! Experiment parameters (Table 1 of the paper) with scale presets.
//!
//! The paper's full-scale setting (N up to 5M tuples, 100 cycles) runs in
//! minutes-to-hours depending on the engine; the scaled presets keep every
//! *relative* comparison intact while finishing quickly. The `paper`
//! binary accepts `--scale quick|default|paper`.

use crate::cli;
use tkm_datagen::{DataDist, FnFamily};

/// Measured processing cycles per run: the paper's 100. `N/r = 100` in
/// every preset's default setting, so a run sees one full window turnover.
pub const CYCLES: usize = 100;

/// Parameter-scale preset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test sizes (seconds).
    Quick,
    /// Default for `cargo bench` artifacts: ~1/10 of the paper per axis.
    Default,
    /// The paper's Table 1 values.
    Paper,
}

impl Scale {
    /// Parses a `--scale` argument.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "default" => Some(Scale::Default),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Reads `--scale X` from the `paper` binary's arguments (program name
    /// excluded): [`Scale::Default`] when the flag is absent, an error
    /// line for an unknown flag, a missing value or an unknown preset.
    pub fn from_arg_list(args: &[String]) -> Result<Scale, String> {
        cli::check_flags(args, "--scale --csv")?;
        cli::parse_flag(
            args,
            "--scale",
            Scale::Default,
            "quick|default|paper",
            Scale::parse,
        )
    }
}

/// One experiment setting (the knobs of Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExpParams {
    /// Data dimensionality `d`.
    pub dims: usize,
    /// Window size `N` (count-based).
    pub n: usize,
    /// Arrival rate `r` per cycle.
    pub r: usize,
    /// Number of queries `Q`.
    pub q: usize,
    /// Result cardinality `k`.
    pub k: usize,
    /// Total grid-cell budget.
    pub grid_cells: usize,
    /// Data distribution.
    pub dist: DataDist,
    /// Scoring-function family.
    pub family: FnFamily,
    /// Whether each query is restricted to a constraint box (§7).
    pub constrained: bool,
    /// RNG seed (data and queries derive sub-seeds from it).
    pub seed: u64,
}

impl ExpParams {
    /// The default setting at a given scale: the paper's
    /// `d=4, N=1M, r=10K, Q=1K, k=20`, grid 12⁴ — divided down for the
    /// smaller presets.
    pub fn defaults(scale: Scale) -> ExpParams {
        match scale {
            Scale::Paper => ExpParams {
                dims: 4,
                n: 1_000_000,
                r: 10_000,
                q: 1_000,
                k: 20,
                grid_cells: 20_736,
                dist: DataDist::Ind,
                family: FnFamily::Linear,
                constrained: false,
                seed: 20060627, // SIGMOD 2006, June 27
            },
            Scale::Default => ExpParams {
                n: 100_000,
                r: 1_000,
                q: 100,
                ..ExpParams::defaults(Scale::Paper)
            },
            Scale::Quick => ExpParams {
                n: 10_000,
                r: 100,
                q: 20,
                grid_cells: 4_096,
                ..ExpParams::defaults(Scale::Paper)
            },
        }
    }

    /// Scales a paper-axis value (like N = 1..5 M) down to the preset.
    pub fn scale_n(scale: Scale, millions: usize) -> usize {
        match scale {
            Scale::Paper => millions * 1_000_000,
            Scale::Default => millions * 100_000,
            Scale::Quick => millions * 10_000,
        }
    }

    /// Scales a paper arrival rate (in thousands) down to the preset.
    pub fn scale_r(scale: Scale, thousands: usize) -> usize {
        match scale {
            Scale::Paper => thousands * 1_000,
            Scale::Default => thousands * 100,
            Scale::Quick => (thousands * 10).max(1),
        }
    }

    /// Scales a paper query count down to the preset.
    pub fn scale_q(scale: Scale, queries: usize) -> usize {
        match scale {
            Scale::Paper => queries,
            Scale::Default => (queries / 10).max(1),
            Scale::Quick => (queries / 50).max(1),
        }
    }

    /// One-line summary for experiment headers.
    pub fn summary(&self) -> String {
        format!(
            "d={} N={} r={} Q={} k={} grid={} ticks={} dist={} f={}",
            self.dims,
            self.n,
            self.r,
            self.q,
            self.k,
            self.grid_cells,
            CYCLES,
            self.dist.label(),
            self.family.label()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale_of(words: &[&str]) -> Result<Scale, String> {
        let args: Vec<String> = words.iter().map(|w| w.to_string()).collect();
        Scale::from_arg_list(&args)
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(scale_of(&["--scale", "paper"]), Ok(Scale::Paper));
        assert_eq!(scale_of(&["--csv", "--scale", "quick"]), Ok(Scale::Quick));
        assert_eq!(scale_of(&["--scale", "default"]), Ok(Scale::Default));
        assert_eq!(scale_of(&[]), Ok(Scale::Default));
        assert_eq!(scale_of(&["--csv"]), Ok(Scale::Default));
    }

    #[test]
    fn mistyped_scale_is_an_error_not_the_default() {
        assert_eq!(
            scale_of(&["--scale", "papr"]).unwrap_err(),
            "--scale: invalid value `papr` (accepted: quick|default|paper)"
        );
        assert_eq!(
            scale_of(&["--scale"]).unwrap_err(),
            "--scale: missing value (accepted: quick|default|paper)"
        );
        assert!(scale_of(&["--smoke"])
            .unwrap_err()
            .starts_with("--smoke: unknown flag"));
    }

    #[test]
    fn paper_defaults_match_table1() {
        let p = ExpParams::defaults(Scale::Paper);
        assert_eq!(
            (p.dims, p.n, p.r, p.q, p.k),
            (4, 1_000_000, 10_000, 1_000, 20)
        );
        assert_eq!(p.grid_cells, 12usize.pow(4));
    }

    #[test]
    fn every_run_covers_a_window_turnover() {
        for scale in [Scale::Quick, Scale::Default, Scale::Paper] {
            let p = ExpParams::defaults(scale);
            assert!(CYCLES * p.r >= p.n, "{scale:?}: r={} N={}", p.r, p.n);
        }
    }

    #[test]
    fn scaled_axes_preserve_ratios() {
        // r = N/100 at every scale for the Figure 16 sweep.
        for scale in [Scale::Quick, Scale::Default, Scale::Paper] {
            for m in 1..=5 {
                let n = ExpParams::scale_n(scale, m);
                let r = ExpParams::scale_r(scale, m * 10);
                assert_eq!(n / r, 100, "N/r ratio broken at {scale:?} m={m}");
            }
        }
    }
}
