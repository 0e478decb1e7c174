//! Shared CLI plumbing for the `paper` and `serve` binaries.
//!
//! A flag or figure name the binary does not know, a flag without its
//! value and a value outside the accepted set are usage errors: one line
//! on stderr, exit code 2 — never a silent fall-back to some default run.

/// Rejects every `--flag` in `args` that `known` (space-separated) does
/// not list.
pub fn check_flags(args: &[String], known: &str) -> Result<(), String> {
    match args
        .iter()
        .find(|a| a.starts_with("--") && !known.split(' ').any(|k| k == a.as_str()))
    {
        Some(flag) => Err(format!("{flag}: unknown flag (accepted: {known})")),
        None => Ok(()),
    }
}

/// The value following `flag`, read by `parse`; `default` when the flag
/// is absent. `accepted` describes the accepted set for the error line.
pub fn parse_flag<T>(
    args: &[String],
    flag: &str,
    default: T,
    accepted: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, String> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(default);
    };
    let value = args
        .get(at + 1)
        .ok_or_else(|| format!("{flag}: missing value (accepted: {accepted})"))?;
    parse(value).ok_or_else(|| format!("{flag}: invalid value `{value}` (accepted: {accepted})"))
}

/// Unwraps parsed arguments, or ends the process as a usage error: the
/// message on stderr, exit code 2.
pub fn or_usage_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2)
    })
}
