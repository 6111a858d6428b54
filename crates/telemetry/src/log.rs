//! Minimal logger for the experiment binaries.
//!
//! Status output (progress lines, timings) goes through [`info!`] instead
//! of bare `eprintln!`, so `--quiet` can silence it uniformly. A
//! [`warn!`] (a caught invariant violation, a degraded run) always
//! prints: a run that fails must say why, `--quiet` or not. The level is a
//! process-wide atomic: binaries set it once from their flags. All log
//! output goes to stderr; stdout stays reserved for experiment *results*.

use std::sync::atomic::{AtomicBool, Ordering};

/// How much progress output a binary prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Warnings only.
    Quiet,
    /// Normal progress output too (the default).
    Info,
}

static QUIET: AtomicBool = AtomicBool::new(false);

/// Set the process-wide log level.
pub fn set_level(level: Level) {
    QUIET.store(level == Level::Quiet, Ordering::Relaxed);
}

/// The line a message prints, if any: a warning always, a progress line
/// only when not quiet.
fn line(warning: bool, quiet: bool, args: std::fmt::Arguments<'_>) -> Option<String> {
    if warning {
        Some(format!("warning: {args}"))
    } else {
        (!quiet).then(|| args.to_string())
    }
}

#[doc(hidden)]
pub fn log(warning: bool, args: std::fmt::Arguments<'_>) {
    if let Some(line) = line(warning, QUIET.load(Ordering::Relaxed), args) {
        eprintln!("{line}");
    }
}

/// Log a warning; printed at every level.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        $crate::log::log(true, format_args!($($arg)*))
    };
}

/// Log at info level (normal progress output; `--quiet` silences it).
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        $crate::log::log(false, format_args!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_warning_prints_at_every_level() {
        for quiet in [true, false] {
            let warned = line(true, quiet, format_args!("{} violation(s)", 2));
            assert_eq!(warned.as_deref(), Some("warning: 2 violation(s)"));
        }
        assert_eq!(line(false, true, format_args!("done")), None);
        let done = line(false, false, format_args!("done"));
        assert_eq!(done.as_deref(), Some("done"));
    }
}
