//! What the binaries do with a command line they cannot use: a flag value
//! that does not parse, is not there, or asks for a run that cannot happen
//! is a usage error (one `error:` line, exit 2), and an exhibit that cannot
//! write its output fails the run (exit 1). Neither is a panic.

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
            &["scenario", "--name", "ap-vanish", "--seed", "x"],
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

/// A scenario built from flags meets the rules a `.scenario` file meets,
/// and a fleet size the engine cannot hold is refused before it runs.
#[test]
fn a_value_no_run_can_use_is_a_usage_error() {
    let simulate = env!("CARGO_BIN_EXE_simulate");
    let repro = env!("CARGO_BIN_EXE_repro");
    let cases: &[(&str, &[&str], &str)] = &[
        (
            simulate,
            &["--size-mb", "-1", "--strategy", "mptcp"],
            "error: workload moves zero bytes",
        ),
        (
            simulate,
            &["--wifi-mbps", "0", "--strategy", "tcp-wifi"],
            "error: host link `wifi` has zero capacity",
        ),
        (
            simulate,
            &["--cell-mbps", "-5", "--strategy", "tcp-cellular"],
            "error: host link `cellular` has zero capacity",
        ),
        (
            repro,
            &["--quick", "--clients", "0", "fleet"],
            "error: --clients: fleet config has zero clients",
        ),
        (
            repro,
            &["--quick", "--clients", "1073741823", "fleet"],
            "error: --clients: fleet config has too many clients: 1073741823",
        ),
    ];
    for (bin, args, message) in cases {
        assert_exit(&run(bin, args), 2, message, &format!("{args:?}"));
    }
}

/// An exhibit named twice runs once, where it was first asked for.
#[test]
fn a_repeated_exhibit_runs_once() {
    let dir = std::env::temp_dir().join(format!("emptcp-cli-repeat-{}", std::process::id()));
    let out_dir = dir.to_str().expect("utf-8 temp path");
    let args = ["--quick", "--quiet", "--out", out_dir, "eq1", "fig1", "eq1"];
    let out = run(env!("CARGO_BIN_EXE_repro"), &args);
    let _ = std::fs::remove_dir_all(&dir);
    assert_exit(&out, 0, "", "a repeated id");
    let once = run(
        env!("CARGO_BIN_EXE_repro"),
        &["--quick", "--quiet", "--out", out_dir, "eq1", "fig1"],
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&once.stdout)
    );
}

/// Each output file has one writer: an exhibit run alone writes its own
/// files and no other exhibit's, even one it shares runs with.
#[test]
fn an_exhibit_writes_only_its_own_files() {
    let dir = std::env::temp_dir().join(format!("emptcp-cli-fig14-{}", std::process::id()));
    let out_dir = dir.to_str().expect("utf-8 temp path");
    let out = run(
        env!("CARGO_BIN_EXE_repro"),
        &["--quick", "--quiet", "--out", out_dir, "fig14"],
    );
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .expect("fig14 wrote its output directory")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    written.sort();
    let _ = std::fs::remove_dir_all(&dir);
    assert_exit(&out, 0, "", "fig14 alone");
    assert_eq!(written, ["fig14.json", "fig14.txt"]);
}

#[test]
fn an_exhibit_that_cannot_write_its_output_fails_the_run() {
    // A directory cannot be created under a character device.
    let args = ["--quick", "--quiet", "--out", "/dev/null/results", "fig1"];
    let out = run(env!("CARGO_BIN_EXE_repro"), &args);
    assert_exit(&out, 1, "repro: running exhibits:", "an unwritable --out");
}
