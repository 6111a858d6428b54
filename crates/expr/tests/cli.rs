//! What the binaries do with a command line they cannot use: a flag value
//! that does not parse, or is not there, is a usage error (one `error:`
//! line, exit 2), and an exhibit that cannot write its output fails the run
//! (exit 1). Neither is a panic.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

fn assert_exit(out: &Output, code: i32, stderr_has: &str, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{what} panicked:\n{stderr}");
    assert_eq!(out.status.code(), Some(code), "{what}:\n{stderr}");
    assert!(stderr.contains(stderr_has), "{what}:\n{stderr}");
}

#[test]
fn a_bad_flag_value_is_a_usage_error() {
    let simulate = env!("CARGO_BIN_EXE_simulate");
    let repro = env!("CARGO_BIN_EXE_repro");
    let cases: &[(&str, &[&str], &str)] = &[
        (
            simulate,
            &["serve", "--port", "x"],
            r#"error: --port: expected u16, got "x""#,
        ),
        (
            simulate,
            &["connect", "--size-mb", "big"],
            r#"error: --size-mb: expected f64, got "big""#,
        ),
        (
            simulate,
            &["--seed", "-1"],
            r#"error: --seed: expected u64, got "-1""#,
        ),
        (
            simulate,
            &["faults", "--all", "--seed", "x"],
            r#"error: --seed: expected u64, got "x""#,
        ),
        (
            simulate,
            &["scenario", "--corpus", "--jobs", "two"],
            r#"error: --jobs: expected usize, got "two""#,
        ),
        (
            repro,
            &["--jobs", "x", "fig1"],
            r#"error: --jobs: expected usize, got "x""#,
        ),
        (
            repro,
            &["--seed", "1.5", "fig1"],
            r#"error: --seed: expected u64, got "1.5""#,
        ),
        (
            repro,
            &["monitor", "--clients", "many"],
            r#"error: --clients: expected usize, got "many""#,
        ),
        (
            simulate,
            &["serve", "--port"],
            "error: --port: expected u16, got no value",
        ),
        (
            repro,
            &["fig1", "--out"],
            "error: --out: expected PathBuf, got no value",
        ),
    ];
    for (bin, args, message) in cases {
        assert_exit(&run(bin, args), 2, message, &format!("{args:?}"));
    }
}

#[test]
fn an_exhibit_that_cannot_write_its_output_fails_the_run() {
    // A directory cannot be created under a character device.
    let args = ["--quick", "--quiet", "--out", "/dev/null/results", "fig1"];
    let out = run(env!("CARGO_BIN_EXE_repro"), &args);
    assert_exit(&out, 1, "repro: running exhibits:", "an unwritable --out");
}
