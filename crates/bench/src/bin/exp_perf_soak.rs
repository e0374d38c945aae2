//! PERF — engine soak: sustained large-population throughput measurement.
//!
//! Unlike the `exp_*` figure reproductions, this binary exists to measure
//! the *engine* (event queue, broadcast fan-out, node storage, checkers)
//! rather than the protocol. It runs two synchronous scenarios:
//!
//! * **scale** — a large population (default n=5000) over many ticks
//!   (default 10_000) with sustained absolute churn and a read-heavy
//!   workload; this is the configuration the seed engine's `BinaryHeap` /
//!   `BTreeMap` / O(R·W) paths choked on.
//! * **edge** — a smaller population (n=200) with churn at 0.9 of the
//!   Theorem 1 threshold `1/(3δ)`, so the join pipeline (the O(n)-messages
//!   hot path) carries production-shaped load.
//!
//! It prints wall-clock throughput (events/sec processed by the simulator,
//! reads/sec judged by the safety checkers) and writes the same numbers as
//! machine-readable JSON — the perf trajectory every future PR measures
//! against.
//!
//! Usage: `exp_perf_soak [--nodes N] [--ticks T] [--out PATH]`
//! (defaults: 5000 nodes, 10000 ticks, `BENCH_baseline.json`).

use std::time::Instant;

use dynareg_bench::Cli;
use dynareg_churn::{ChurnDriver, ConstantRate, LeaveSelector};
use dynareg_core::sync::SyncConfig;
use dynareg_net::delay::Synchronous;
use dynareg_sim::obs::TickProfile;
use dynareg_sim::{IdSource, NodeId, Span, Time};
use dynareg_testkit::{ObsConfig, RateWorkload, SyncFactory, World, WorldConfig, WriterPolicy};
use dynareg_verify::{AtomicityChecker, LivenessChecker};

/// One measured scenario: what ran and how fast.
struct SoakResult {
    name: &'static str,
    nodes: usize,
    ticks: u64,
    churn_rate: f64,
    events: u64,
    messages: u64,
    sim_secs: f64,
    reads_checked: usize,
    check_secs: f64,
    safety_ok: bool,
    liveness_ok: bool,
    /// Wall-clock split of `sim_secs` across tick phases (delivery,
    /// timers, churn, workload, sampling) from the observability layer's
    /// tick profiler.
    tick_phases: TickProfile,
}

impl SoakResult {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.sim_secs.max(1e-9)
    }

    fn reads_per_sec(&self) -> f64 {
        self.reads_checked as f64 / self.check_secs.max(1e-9)
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "    {{\n",
                "      \"name\": \"{}\",\n",
                "      \"nodes\": {},\n",
                "      \"ticks\": {},\n",
                "      \"churn_rate\": {:.8},\n",
                "      \"events\": {},\n",
                "      \"messages\": {},\n",
                "      \"sim_secs\": {:.4},\n",
                "      \"events_per_sec\": {:.0},\n",
                "      \"reads_checked\": {},\n",
                "      \"check_secs\": {:.4},\n",
                "      \"reads_checked_per_sec\": {:.0},\n",
                "      \"safety_ok\": {},\n",
                "      \"liveness_ok\": {},\n",
                "      \"tick_phases\": {}\n",
                "    }}"
            ),
            self.name,
            self.nodes,
            self.ticks,
            self.churn_rate,
            self.events,
            self.messages,
            self.sim_secs,
            self.events_per_sec(),
            self.reads_checked,
            self.check_secs,
            self.reads_per_sec(),
            self.safety_ok,
            self.liveness_ok,
            self.tick_phases.json(),
        )
    }
}

/// Runs one synchronous soak scenario and measures it.
#[expect(
    clippy::disallowed_methods,
    reason = "bench harness timing, outside the simulation"
)]
fn soak(
    name: &'static str,
    n: usize,
    ticks: u64,
    delta: Span,
    churn_rate: f64,
    reads_per_tick: f64,
) -> SoakResult {
    let end = Time::at(ticks);
    // Drain: stop churn + workload 12δ before the end so ops can finish.
    let stop = Time::at(ticks.saturating_sub(delta.as_ticks() * 12).max(1));
    let mut world = World::new(
        SyncFactory::new(SyncConfig::new(delta)),
        WorldConfig {
            n,
            initial: 0,
            delay: Box::new(Synchronous::new(delta)),
            churn: ChurnDriver::new(
                Box::new(StopAfter {
                    inner: ConstantRate::new(churn_rate),
                    stop_at: stop,
                }),
                LeaveSelector::Random,
                IdSource::starting_at(n as u64),
            ),
            workload: Box::new(RateWorkload::new(delta.times(3), reads_per_tick).stopping_at(stop)),
            seed: 0x000B_A1D0, // Baldoni et al.
            trace: false,
            writer_policy: WriterPolicy::FixedProtected,
            writers: 1,
        },
    );
    world.protect(NodeId::from_raw(0));
    // Profiling only: no spans, no timeseries — the per-event `Instant`
    // reads are the whole overhead, and the event stream is untouched.
    world.set_obs(ObsConfig {
        tick_profile: true,
        ..ObsConfig::off()
    });

    let sim_start = Instant::now();
    world.run_until(end);
    let sim_secs = sim_start.elapsed().as_secs_f64();
    let events = world.events_processed();
    let tick_phases = world
        .take_obs_report()
        .and_then(|r| r.tick_profile)
        .unwrap_or_default();

    let (history, _presence, _metrics, _trace, network) = world.into_outputs();
    let messages = network.total_sent();

    // One atomicity check covers both semantics: it runs the regularity
    // sweep internally and tallies inversions separately, so the regular
    // verdict is "no violations beyond the inversions". Running
    // RegularityChecker as well would double-scan (and double-count)
    // every read.
    let check_start = Instant::now();
    let atomicity = AtomicityChecker::check(&history);
    let check_secs = check_start.elapsed().as_secs_f64();
    let safety_ok = atomicity.violation_count() == atomicity.inversions;
    let liveness = LivenessChecker::check(&history);

    SoakResult {
        name,
        nodes: n,
        ticks,
        churn_rate,
        events,
        messages,
        sim_secs,
        reads_checked: atomicity.checked_reads,
        check_secs,
        safety_ok,
        liveness_ok: liveness.is_ok(),
        tick_phases,
    }
}

/// Churn model wrapper going quiet at `stop_at` (mirrors the scenario
/// builder's drain behaviour without pulling in `Scenario`).
#[derive(Debug)]
struct StopAfter {
    inner: ConstantRate,
    stop_at: Time,
}

impl dynareg_churn::ChurnModel for StopAfter {
    fn refreshes(&mut self, now: Time, n: usize, rng: &mut dynareg_sim::DetRng) -> usize {
        if now >= self.stop_at {
            0
        } else {
            self.inner.refreshes(now, n, rng)
        }
    }

    fn nominal_rate(&self) -> Option<f64> {
        self.inner.nominal_rate()
    }
}

fn parse_args() -> (usize, u64, String) {
    let mut nodes = 5000usize;
    let mut ticks = 10_000u64;
    let mut out = "BENCH_baseline.json".to_string();
    let mut cli = Cli::from_env("exp_perf_soak [--nodes N] [--ticks T] [--out PATH]");
    while let Some(flag) = cli.next_arg() {
        match flag.as_str() {
            "--nodes" => {
                nodes = cli.parsed_where("--nodes", "a positive integer", |&n: &usize| n > 0);
            }
            "--ticks" => {
                ticks = cli.parsed_where("--ticks", "a positive integer", |&t: &u64| t > 0);
            }
            "--out" => out = cli.value("--out"),
            other => cli.fail(&format!("unknown argument `{other}`")),
        }
    }
    (nodes, ticks, out)
}

fn main() {
    let (nodes, ticks, out) = parse_args();
    println!("PERF — engine soak (tick-wheel queue, fan-out, slab world, sweep checkers)");
    println!("claim: sustained large-n throughput; regenerates the BENCH_*.json trajectory\n");

    let delta = Span::ticks(4);
    // Scale scenario: churn fixed in *absolute* terms (≈0.5 joins/tick) so
    // the per-join O(n) message cost — not the churn model — sets the load.
    let scale_churn = 0.5 / nodes as f64;
    let scale = soak("scale", nodes, ticks, delta, scale_churn, 10.0);
    report(&scale);

    // Edge scenario: churn at 0.9 of Theorem 1's threshold c* = 1/(3δ).
    let edge_n = nodes.min(200);
    let edge_ticks = ticks.min(2_000);
    let edge_churn = 0.9 / (3.0 * delta.as_ticks() as f64);
    let edge = soak("edge", edge_n, edge_ticks, delta, edge_churn, 2.0);
    report(&edge);

    let json = format!(
        "{{\n  \"schema\": \"dynareg-bench-soak/2\",\n  \"scenarios\": [\n{},\n{}\n  ]\n}}\n",
        scale.json(),
        edge.json()
    );
    std::fs::write(&out, &json).expect("write benchmark json");
    println!("\nwrote {out}");
}

fn report(r: &SoakResult) {
    println!(
        "{:>5}: n={} ticks={} c={:.6} | {} events in {:.2}s = {:.0} events/sec | \
         {} msgs | {} reads checked in {:.3}s = {:.0} reads/sec | safety={} liveness={}",
        r.name,
        r.nodes,
        r.ticks,
        r.churn_rate,
        r.events,
        r.sim_secs,
        r.events_per_sec(),
        r.messages,
        r.reads_checked,
        r.check_secs,
        r.reads_per_sec(),
        if r.safety_ok { "OK" } else { "VIOLATED" },
        if r.liveness_ok { "OK" } else { "STUCK" },
    );
    println!("       phases: {}", r.tick_phases);
}
