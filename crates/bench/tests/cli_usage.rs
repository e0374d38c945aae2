//! The experiment binaries' argument contract: every malformed
//! invocation is a single usage line on stderr and exit code 2 — never a
//! panic backtrace.

use std::path::PathBuf;
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

/// Writes `text` to a file named `name` in the test scratch directory.
fn scenario_file(name: &str, text: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("scratch directory is writable");
    path
}

const SMALL: &str = "dynareg-scenario/1\nprotocol sync\nnet sync\nn 5\ndelta 2\nduration 60\n";

#[test]
fn scenario_runner_rejects_bad_invocations() {
    let bin = env!("CARGO_BIN_EXE_exp_scenario_run");
    assert_usage_error(bin, &[]);
    assert_usage_error(bin, &["missing.dyn", "--seed", "banana"]);
    assert_usage_error(bin, &["a.dyn", "b.dyn"]);
    assert_usage_error(bin, &["--unknown-flag"]);
    assert_usage_error(bin, &["/definitely/not/a/file.dyn"]);
    // A file that parses line by line but describes no runnable world:
    // more writers than processes.
    let roster = scenario_file("roster.dyn", &format!("{SMALL}writers 9\n"));
    assert_usage_error(bin, &[roster.to_str().expect("a UTF-8 path")]);
    // Spans derived from delta that overflow a tick count.
    for (name, text) in [
        (
            "huge_delta.dyn",
            format!("{SMALL}delta 6148914691236517206\nduration 20\n"),
        ),
        (
            "huge_cap.dyn",
            format!("{SMALL}delta 3\nnet async 9223372036854775807\n"),
        ),
        (
            "huge_es_delta.dyn",
            "dynareg-scenario/1\nprotocol es\nnet es 0\nn 5\ndelta 2000000000000000000\n"
                .to_string(),
        ),
    ] {
        let file = scenario_file(name, &text);
        assert_usage_error(bin, &[file.to_str().expect("a UTF-8 path")]);
    }
}

/// `--duration-ticks T` hashes the text the run was parsed from: the file
/// plus a `duration T` line, so its hash differs from the plain run's and
/// equals that of a file carrying the line itself.
#[test]
fn duration_override_is_hashed_as_an_appended_line() {
    let bin = env!("CARGO_BIN_EXE_exp_scenario_run");
    let hash = |path: &PathBuf, extra: &[&str]| {
        let out = Command::new(bin)
            .arg(path)
            .args(extra)
            .output()
            .expect("experiment binary runs");
        assert!(out.status.success(), "{path:?} {extra:?}");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let line = stdout.lines().find(|l| l.starts_with("scenario hash:"));
        line.expect("the runner prints the scenario hash")
            .to_string()
    };
    let plain = scenario_file("plain.dyn", SMALL);
    let longer = scenario_file("longer.dyn", &format!("{SMALL}duration 80\n"));
    let overridden = hash(&plain, &["--duration-ticks", "80"]);
    assert_eq!(overridden, hash(&longer, &[]));
    assert_ne!(overridden, hash(&plain, &[]));
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
