//! PHASE — the empirical churn/synchrony phase diagram (Theorem 1's map).
//!
//! Sweeps the synchronous protocol over a grid of `(c, δ)` points — 200 by
//! default, spanning both sides of Theorem 1's feasibility bound
//! `c = 1/(3δ)` under the worst-case adversary (exact-`δ` delays,
//! active-first eviction, migrating writer) — on `dynareg-fleet`'s
//! work-stealing thread pool, and reduces the fleet into the phase
//! diagram: per-cell verdicts, per-`δ` feasibility frontiers vs the
//! analytic curve, latency percentiles and the Lemma 2 active-set floor.
//!
//! Output is twofold: rendered tables + the compact phase grid on stdout,
//! and machine-readable `BENCH_phase.json`. The JSON is a pure function of
//! `(sweep spec, master seed)` — running with `--threads 1` and
//! `--threads N` produces **byte-identical** files (the fleet tier's
//! determinism contract; CI smoke-checks a scaled-down grid).
//!
//! Usage: `exp_phase_diagram [--threads N] [--scale full|smoke]
//! [--seed S] [--out PATH]` (defaults: all cores, full, 0xBA1D0,
//! `BENCH_phase.json`).

use std::time::Instant;

use dynareg_bench::Cli;
use dynareg_fleet::{default_threads, run_sweep, SweepDomain, SweepSpec};
use dynareg_sim::Span;

const USAGE: &str = "exp_phase_diagram [--threads N] [--scale full|smoke] [--seed S] [--out PATH]";

struct Args {
    threads: usize,
    scale: String,
    master_seed: u64,
    out: String,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        threads: default_threads(),
        scale: "full".to_string(),
        master_seed: 0x000B_A1D0,
        out: "BENCH_phase.json".to_string(),
    };
    let mut cli = Cli::from_env(USAGE);
    while let Some(flag) = cli.next_arg() {
        match flag.as_str() {
            "--threads" => {
                parsed.threads =
                    cli.parsed_where("--threads", "a positive integer", |&t: &usize| t > 0);
            }
            "--scale" => {
                let scale = cli.value("--scale");
                if scale != "full" && scale != "smoke" {
                    cli.fail(&format!("--scale takes full|smoke, got `{scale}`"));
                }
                parsed.scale = scale;
            }
            "--seed" => parsed.master_seed = cli.parsed("--seed", "a u64"),
            "--out" => parsed.out = cli.value("--out"),
            other => cli.fail(&format!("unknown argument `{other}`")),
        }
    }
    parsed
}

/// The sweep a given scale runs: `full` is the 200-point Theorem 1 grid,
/// `smoke` a 12-point miniature of the same shape for CI.
fn sweep_for(scale: &str, master_seed: u64) -> SweepSpec {
    let mut spec = SweepSpec::theorem1_default();
    spec.master_seed = master_seed;
    if scale == "smoke" {
        spec.domain = SweepDomain::Grid {
            deltas: vec![2, 4],
            fractions: vec![0.3, 0.6, 0.9, 1.2, 2.0, 3.0],
        };
        spec.populations = vec![12];
        spec.duration = Span::ticks(180);
    }
    spec
}

#[expect(
    clippy::disallowed_methods,
    reason = "bench harness timing, outside the simulation"
)]
fn main() {
    let args = parse_args();
    println!("PHASE — empirical churn/synchrony phase diagram (dynareg-fleet sweep)");
    println!("claim: feasible exactly below c = 1/(3δ); the measured frontier brackets the analytic curve\n");

    let spec = sweep_for(&args.scale, args.master_seed);
    let runs = spec.run_count();
    println!(
        "sweep: {} runs ({} scale) on {} thread(s), master seed {:#x}\n",
        runs, args.scale, args.threads, args.master_seed
    );

    let start = Instant::now();
    let report = run_sweep(&spec, args.threads);
    let secs = start.elapsed().as_secs_f64();

    println!("{}", report.phase_grid());
    println!("{}", report.cell_table().markdown());
    println!("feasibility frontier vs Theorem 1:");
    println!("{}", report.frontier_table().markdown());
    println!(
        "fleet: {} runs in {:.2}s = {:.1} runs/sec, digest {:#018x}, frontier brackets c*: {}",
        report.total_runs,
        secs,
        report.total_runs as f64 / secs.max(1e-9),
        report.fleet_digest,
        report.frontier_brackets_bound(),
    );

    // The JSON is deterministic (no wall-clock, no thread count): identical
    // for --threads 1 and --threads N.
    std::fs::write(&args.out, report.json()).expect("write phase-diagram json");
    println!("wrote {}", args.out);

    println!(
        "\nexpected shape (paper): every δ row is feasible ('#') left of the '|' boundary and \
         infeasible ('.') at and beyond it: availability — not safety — is \
         what collapses, and the empirical frontier hugs c = 1/(3δ) \
         (fraction 1.0) at every δ.",
    );
}
