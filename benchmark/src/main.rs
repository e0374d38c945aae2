//! `dynabench` command line.
//!
//! ```text
//! dynabench run --workload W [--seed S] [--seconds T] [--trace 0|1] [--out DIR]
//! dynabench run [--traced] [--seed S] [--seconds T] [--out DIR]
//! dynabench compare A.json B.json
//! ```
//!
//! With `--workload`, one process runs one workload and prints, as the
//! last line of its standard output, the one-line JSON object the
//! benchmark driver reads. Without it, every workload runs in a process of
//! its own (so `peak_rss_mib` is per workload) and the records are merged
//! into `DIR/results.json`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use dynabench::compare::compare;
use dynabench::results::{Env, Results, WorkloadResult};
use dynabench::run::{fleet_threads, run_workload, RunArgs};
use dynabench::trace::{self_time_by_layer, to_jsonl, Span};
use dynabench::workloads::{Scale, NAMES};

const USAGE: &str = "usage: dynabench run [--workload W] [--seed S] [--seconds T] \
                     [--trace 0|1 | --traced] [--out DIR]\n       dynabench compare A.json B.json";

/// The default input seed (Baldoni et al.).
const DEFAULT_SEED: u64 = 0x000B_A1D0;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("`{flag}` needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.to_string()),
            "--seed" => {
                let v = value()?;
                cli.seed = v
                    .strip_prefix("0x")
                    .map_or_else(|| v.parse(), |hex| u64::from_str_radix(hex, 16))
                    .map_err(|_| format!("`--seed` takes a u64, got `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                cli.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("`--seconds` takes a positive number, got `{v}`"))?;
            }
            "--trace" => {
                cli.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("`--trace` takes 0 or 1, got `{v}`")),
                }
            }
            "--traced" => cli.traced = true,
            "--out" => cli.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &cli.workload {
        if !NAMES.contains(&w.as_str()) {
            return Err(format!("unknown workload `{w}` (one of {NAMES:?})"));
        }
    }
    Ok(cli)
}

fn result_path(out: &Path, workload: &str, traced: bool) -> PathBuf {
    out.join(format!(
        "results-{workload}{}.json",
        if traced { ".traced" } else { "" }
    ))
}

fn print_report(r: &WorkloadResult, spans: &[Span]) {
    println!(
        "== {}  seed {}  correct={}  attempted={} failed={}  digest={:#018x}  repeats {:?}",
        r.name, r.seed, r.correct, r.attempted, r.failed, r.digest, r.repeats
    );
    for why in &r.gate_failures {
        println!("  GATE: {why}");
    }
    for (title, metrics) in [("end-to-end", &r.end_to_end), ("per-layer", &r.per_layer)] {
        if metrics.is_empty() {
            continue;
        }
        println!("  {title}:");
        for m in metrics {
            let s = &m.summary;
            if s.n > 1 {
                println!(
                    "    {:<34} {:>16.6} {:<6} [q1 {:.6}, q3 {:.6}] n={}",
                    m.name, s.median, m.unit, s.q1, s.q3, s.n
                );
            } else {
                println!("    {:<34} {:>16.6} {}", m.name, s.median, m.unit);
            }
        }
    }
    if let Some(owner) = &r.owner {
        println!("  owner (largest non-residual layer share): {owner}");
    }
    if !spans.is_empty() {
        let by_layer: Vec<String> = self_time_by_layer(spans)
            .into_iter()
            .map(|(layer, s)| format!("{layer} {s:.3}s"))
            .collect();
        println!("  trace self time by layer: {}", by_layer.join(", "));
    }
}

/// One workload in this process.
fn run_one(cli: &Cli, workload: &str, process_start: Instant) -> Result<ExitCode, String> {
    let args = RunArgs {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds,
        traced: cli.traced,
        scale: Scale::Full,
        threads: fleet_threads(),
    };
    let out = run_workload(&args, process_start)?;
    let io = |e: std::io::Error| format!("cannot write under {}: {e}", cli.out.display());
    std::fs::create_dir_all(&cli.out).map_err(io)?;
    let file = Results {
        env: Env::probe(args.threads),
        seed: cli.seed,
        seconds: cli.seconds,
        workloads: vec![out.result.clone()],
    };
    std::fs::write(
        result_path(&cli.out, workload, cli.traced),
        file.to_json_text(),
    )
    .map_err(io)?;
    if cli.traced {
        std::fs::write(
            cli.out.join(format!("trace-{workload}.jsonl")),
            to_jsonl(&out.spans, workload),
        )
        .map_err(io)?;
    }
    print_report(&out.result, &out.spans);
    // Last line of standard output: what the benchmark driver parses.
    println!("{}", out.result.driver_line(cli.traced));
    Ok(if out.result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, each in a child process; merges their records.
fn run_all(cli: &Cli) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut merged = Vec::new();
    let mut ok = true;
    let mut env = None;
    for workload in NAMES {
        let mut record: Option<WorkloadResult> = None;
        for traced in [false, true] {
            if traced && !cli.traced {
                continue;
            }
            let status = Command::new(&exe)
                .arg("run")
                .args(["--workload", workload])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&cli.out)
                .status()
                .map_err(|e| format!("cannot start {workload}: {e}"))?;
            ok &= status.success();
            let path = result_path(&cli.out, workload, traced);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("{workload} left no {}: {e}", path.display()))?;
            let mut file = Results::from_json_text(&text)?;
            let child = file.workloads.pop().ok_or("empty child results")?;
            env = Some(file.env);
            match &mut record {
                // End-to-end numbers come from the untraced process; the
                // traced one adds the per-layer table.
                Some(r) => {
                    r.correct &= child.correct;
                    r.gate_failures.extend(child.gate_failures);
                    r.repeats.extend(
                        child
                            .repeats
                            .into_iter()
                            .map(|(k, n)| (format!("traced_{k}"), n)),
                    );
                    r.per_layer = child.per_layer;
                    r.owner = child.owner;
                }
                None => record = Some(child),
            }
        }
        merged.extend(record);
    }
    let results = Results {
        env: env.ok_or("no workload ran")?,
        seed: cli.seed,
        seconds: cli.seconds,
        workloads: merged,
    };
    let path = cli.out.join("results.json");
    std::fs::write(&path, results.to_json_text())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    for w in &results.workloads {
        if let Some(owner) = &w.owner {
            println!("  {:<12} owner: {owner}", w.name);
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("`compare` takes exactly two result files".into());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| Results::from_json_text(&text).map_err(|e| format!("{path}: {e}")))
    };
    let outcome = compare(&load(a)?, &load(b)?)?;
    print!("{}", outcome.report);
    Ok(ExitCode::from(outcome.exit_code() as u8))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|cli| match &cli.workload {
            Some(w) => run_one(&cli, w, process_start),
            None => run_all(&cli),
        }),
        Some((cmd, rest)) if cmd == "compare" => run_compare(rest),
        _ => Err("expected `run` or `compare`".into()),
    };
    outcome.unwrap_or_else(|why| {
        eprintln!("dynabench: {why}\n{USAGE}");
        ExitCode::from(2)
    })
}
