//! The experiment binaries' argument contract: every malformed
//! invocation is a single usage line on stderr and exit code 2 — never a
//! panic backtrace.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("experiment binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_usage_error(bin: &str, args: &[&str]) {
    let (code, stderr) = run(bin, args);
    assert_eq!(
        code,
        Some(2),
        "{bin} {args:?} must exit 2, stderr: {stderr}"
    );
    let trimmed = stderr.trim_end();
    assert!(
        trimmed.starts_with("error: ") && !trimmed.contains('\n'),
        "{bin} {args:?} must print one usage line, got: {stderr:?}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{bin} {args:?} must not panic: {stderr:?}"
    );
}

#[test]
fn scenario_runner_rejects_bad_invocations() {
    let bin = env!("CARGO_BIN_EXE_exp_scenario_run");
    assert_usage_error(bin, &[]);
    assert_usage_error(bin, &["missing.dyn", "--seed", "banana"]);
    assert_usage_error(bin, &["a.dyn", "b.dyn"]);
    assert_usage_error(bin, &["--unknown-flag"]);
    assert_usage_error(bin, &["/definitely/not/a/file.dyn"]);
}

#[test]
fn flagged_experiments_reject_bad_values() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_exp_phase_diagram"),
        &["--scale", "huge"],
    );
    assert_usage_error(env!("CARGO_BIN_EXE_exp_phase_diagram"), &["--threads", "0"]);
    assert_usage_error(
        env!("CARGO_BIN_EXE_exp_space_throughput"),
        &["--shards", "0"],
    );
    assert_usage_error(env!("CARGO_BIN_EXE_exp_space_throughput"), &["--nope"]);
}

#[test]
fn ledger_rejects_unknown_rows() {
    assert_usage_error(env!("CARGO_BIN_EXE_exp_paper_tables"), &["no-such-row"]);
    assert_usage_error(env!("CARGO_BIN_EXE_exp_paper_tables"), &["E2", "E11"]);
}
