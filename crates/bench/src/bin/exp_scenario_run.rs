//! SCENARIO — deterministic replay of one scenario file.
//!
//! Loads a `scenarios/*.dyn` file (format: `docs/FORMATS.md`), optionally
//! overrides the seed and duration, runs the world, and prints the per-key
//! verdicts, the fault-drop accounting, the **scenario hash** (FNV-1a over
//! the file bytes — plus a `duration T` line under `--duration-ticks T` —
//! and the effective seed) and the **run digest** (the fleet event-stream
//! digest). Replays are byte-identical: the same file and seed always
//! print the same hash and digest, which is what the CI `scenario-corpus`
//! job `cmp`-gates.
//!
//! With `--obs` (implied by `--trace-out` / `--timeseries-out`) the run
//! carries the observability layer: causal op spans with per-message
//! fates, a bounded flight-recorder trace ring, and an optional per-tick
//! gauge timeseries. Observability never touches the event stream — the
//! printed run digest is identical with and without it (CI's obs-smoke
//! gate `cmp`s exactly this). When any key's verdict fails, the stuck
//! operations' `why_stuck` chains — which messages were lost, and to
//! which fault rule — are printed, and the full flight-recorder dump
//! (JSONL, `dynareg-flight/1`) lands in `--trace-out`.
//!
//! Usage: `exp_scenario_run <scenario.dyn> [--seed S]
//! [--duration-ticks T] [--digest-out PATH] [--obs] [--trace-out PATH]
//! [--timeseries-out PATH]`

use dynareg_bench::Cli;
use dynareg_fleet::run_digest;
use dynareg_testkit::{parse_scenario, scenario_hash, ObsConfig, RunReport};

const USAGE: &str = "exp_scenario_run <scenario.dyn> [--seed S] [--duration-ticks T] \
     [--digest-out PATH] [--obs] [--trace-out PATH] [--timeseries-out PATH]";

struct Args {
    path: String,
    seed: Option<u64>,
    duration_ticks: Option<u64>,
    digest_out: Option<String>,
    obs: bool,
    trace_out: Option<String>,
    timeseries_out: Option<String>,
}

fn parse_args() -> Args {
    let mut cli = Cli::from_env(USAGE);
    let mut parsed = Args {
        path: String::new(),
        seed: None,
        duration_ticks: None,
        digest_out: None,
        obs: false,
        trace_out: None,
        timeseries_out: None,
    };
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--seed" => parsed.seed = Some(cli.parsed("--seed", "a u64")),
            "--duration-ticks" => {
                parsed.duration_ticks = Some(cli.parsed_where(
                    "--duration-ticks",
                    "a positive integer",
                    |&t: &u64| t > 0,
                ));
            }
            "--digest-out" => parsed.digest_out = Some(cli.value("--digest-out")),
            "--obs" => parsed.obs = true,
            "--trace-out" => parsed.trace_out = Some(cli.value("--trace-out")),
            "--timeseries-out" => parsed.timeseries_out = Some(cli.value("--timeseries-out")),
            flag if flag.starts_with('-') => cli.fail(&format!("unknown argument `{flag}`")),
            path if parsed.path.is_empty() => parsed.path = path.to_string(),
            extra => cli.fail(&format!("unexpected extra argument `{extra}`")),
        }
    }
    if parsed.path.is_empty() {
        cli.fail("missing scenario file");
    }
    // Either output file wants obs data, so asking for one opts in.
    parsed.obs |= parsed.trace_out.is_some() || parsed.timeseries_out.is_some();
    parsed
}

fn key_lines(report: &RunReport) {
    let fmt =
        |key: String, safe: bool, inversions: usize, live: bool, reads: usize, stuck: usize| {
            println!(
            "  {key:<4} safety={} inversions={inversions} liveness={} reads={reads} stuck={stuck}",
            if safe { "OK" } else { "VIOLATED" },
            if live { "OK" } else { "STUCK" },
        );
        };
    fmt(
        "r0".to_string(),
        report.safety.is_ok(),
        report.atomicity.inversions,
        report.liveness.is_ok(),
        report.safety.checked_reads,
        report.liveness.incomplete_stayer_count(),
    );
    for k in &report.extra_keys {
        fmt(
            k.key.to_string(),
            k.safety.is_ok(),
            k.atomicity.inversions,
            k.liveness.is_ok(),
            k.safety.checked_reads,
            k.liveness.incomplete_stayer_count(),
        );
    }
}

fn main() {
    let args = parse_args();
    let cli = Cli::new(Vec::new(), USAGE);

    let mut text = match std::fs::read_to_string(&args.path) {
        Ok(text) => text,
        Err(e) => cli.fail(&format!("cannot read `{}`: {e}", args.path)),
    };
    // The duration override is a directive appended to the text (later
    // duplicates win), so the hashed bytes describe the run exactly.
    if let Some(ticks) = args.duration_ticks {
        if !text.ends_with('\n') {
            text.push('\n');
        }
        text.push_str(&format!("duration {ticks}\n"));
    }
    let mut spec = match parse_scenario(&text) {
        Ok(spec) => spec,
        Err(e) => cli.fail(&format!("{}:{}", args.path, e)),
    };
    if let Some(seed) = args.seed {
        spec.seed = seed;
    }
    let hash = scenario_hash(&text, spec.seed);

    println!("SCENARIO — deterministic replay of {}", args.path);
    println!("claim: same file + seed ⇒ same scenario hash and run digest, every time\n");
    println!(
        "scenario: n={} δ={} duration={} seed={} churn={:?}",
        spec.n, spec.delta, spec.duration, spec.seed, spec.churn
    );
    let fault_shape = spec.faults.as_ref().map_or_else(
        || "none".to_string(),
        |p| {
            format!(
                "{} delay rule(s), {} partition(s), {} drop rule(s), regions={}",
                p.delay_rules().len(),
                p.partitions().len(),
                p.drops().len(),
                p.region().map_or(0, |r| r.regions()),
            )
        },
    );
    println!("faults:   {fault_shape}\n");

    let partition_rules = spec.faults.as_ref().map_or(0, |p| p.partitions().len());
    let drop_rules = spec.faults.as_ref().map_or(0, |p| p.drops().len());
    let report = if args.obs {
        let obs = ObsConfig {
            spans: true,
            timeseries_every: args.timeseries_out.as_ref().map(|_| 1),
            flight_recorder: Some(4096),
            tick_profile: false,
        };
        spec.run_observed(obs)
    } else {
        spec.run()
    };

    println!("{}\n", report.summary());
    println!("per-key space report:");
    key_lines(&report);

    println!("\nfault drops: {} total", report.fault_drops);
    for i in 0..partition_rules {
        println!(
            "  partition[{i}]: {}",
            report
                .metrics
                .keyed_counter("net.dropped.fault.partition", i as u32)
        );
    }
    for i in 0..drop_rules {
        println!(
            "  drop[{i}]:      {}",
            report
                .metrics
                .keyed_counter("net.dropped.fault.drop", i as u32)
        );
    }
    if report.delta_overruns > 0 {
        // δ-derived verdicts assume the bound holds; flag every breach.
        print!(
            "\nWARNING: {} deliveries exceeded the configured δ={} after the \
             synchrony guarantee began",
            report.delta_overruns, report.delta
        );
        if let Some((at, from, to, latency)) = report.delta_overrun_example {
            print!(" (first: {from} -> {to} at {at}, effective latency {latency})");
        }
        println!();
    }
    if report.inquiry_full() > 0 {
        println!(
            "shard starvation: {} INQUIRY_FULL message(s) over {} re-inquiry round(s)",
            report.inquiry_full(),
            report.reinquiry_rounds()
        );
    }
    if report.join_retransmits() > 0 {
        println!(
            "join retransmits: {} silence-triggered inquiry re-broadcast(s) \
             (loss-tolerant handshake; docs/PROTOCOL.md)",
            report.join_retransmits()
        );
    }

    if let Some(obs) = &report.obs {
        let stuck = obs.why_stuck_all();
        if !stuck.is_empty() {
            println!("\nstuck operations ({}):", stuck.len());
            for why in &stuck {
                print!("{why}");
            }
        }
        if let Some(path) = &args.trace_out {
            let dump = obs.flight_dump(&report.trace);
            if let Err(e) = std::fs::write(path, dump) {
                cli.fail(&format!("cannot write `{path}`: {e}"));
            }
            println!("flight-recorder dump written to {path}");
        }
        if let Some(path) = &args.timeseries_out {
            let ts = obs
                .timeseries
                .as_ref()
                .expect("--timeseries-out enables the recorder");
            if let Err(e) = std::fs::write(path, ts.to_jsonl()) {
                cli.fail(&format!("cannot write `{path}`: {e}"));
            }
            println!("timeseries written to {path}");
        }
    }

    let digest = run_digest(&report);
    println!("\nscenario hash: {hash:#018x}");
    println!("run digest:    {digest:#018x}");

    if let Some(path) = args.digest_out {
        let line = format!("scenario={hash:#018x} digest={digest:#018x}\n");
        if let Err(e) = std::fs::write(&path, line) {
            cli.fail(&format!("cannot write `{path}`: {e}"));
        }
        println!("digest line written to {path}");
    }
}
