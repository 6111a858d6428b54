//! Flag values for the `simulate` and `repro` binaries: the one place a
//! token from the command line becomes a typed value, so a missing or
//! malformed one is a usage error — a one-line message and exit status 2 —
//! and never a panic.

use std::str::FromStr;

fn usage_error<T>(flag: &str, got: &str) -> ! {
    let full = std::any::type_name::<T>();
    let expected = full.rsplit("::").next().unwrap_or(full);
    eprintln!("error: {flag}: expected {expected}, got {got}");
    std::process::exit(2);
}

/// `token` parsed as the value of `flag`; a token that does not parse
/// prints `error: --port: expected u16, got "x"` and exits 2.
pub fn parsed<T: FromStr>(flag: &str, token: &str) -> T {
    token
        .parse()
        .unwrap_or_else(|_| usage_error::<T>(flag, &format!("{token:?}")))
}

/// The next argument parsed as the value of `flag`; exits 2 like
/// [`parsed`] when it does not parse or the arguments have run out.
pub fn value<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    match args.next() {
        Some(token) => parsed(flag, &token),
        None => usage_error::<T>(flag, "no value"),
    }
}
