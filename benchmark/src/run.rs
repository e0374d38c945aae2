//! One workload, start to finish: set-up, timed repeats, the correctness
//! gate, and — in a traced run — recorded repeats, the tick-profile
//! repeat and the layer kernels.
//!
//! The system under test is a deterministic discrete-event simulator, not
//! a server: there is no arrival process, so the benchmark reports work
//! completed per host second at a stated input size, one closed batch per
//! repeat, every repeat a fresh world (or sweep) from the same generated
//! inputs.

use std::time::{Duration, Instant};

use crate::harness::{
    probe_counters, run_sweep, run_world, verify_sweep, SweepRepeat, WorldRepeat,
};
use crate::kernels::{run_kernels, KernelCosts};
use crate::results::{Metric, WorkloadResult};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::trace::{Recorder, Span};
use crate::workloads::{plan, Plan, Scale, WorldPlan};
use dynareg_fleet::SweepSpec;

/// Set-ups (input generation + warm-up repeat) per untraced run; `setup_s`
/// is their median.
const SETUPS: usize = 5;
/// Fewest timed repeats, however short `--seconds` is.
const MIN_REPEATS: usize = 3;
/// Recorded repeats of a traced run.
const RECORDED: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// How long the timed repeats go on, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Workload size (tests use `Scale::Smoke`).
    pub scale: Scale,
    /// Fleet worker threads.
    pub threads: usize,
}

/// A finished run: the result record and, when traced, the spans.
#[derive(Debug)]
pub struct RunOutput {
    /// Metrics, counts and gate verdict.
    pub result: WorkloadResult,
    /// The recorded spans (empty for an untraced run).
    pub spans: Vec<Span>,
}

/// The fleet workload's worker count: the machine's parallelism capped at
/// 2, so that the load never exceeds `nproc` threads.
pub fn fleet_threads() -> usize {
    dynareg_fleet::default_threads().min(2)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs `args.workload`. `Err` only for an unknown workload name; a failed
/// correctness gate comes back as `result.correct == false`.
pub fn run_workload(args: &RunArgs, process_start: Instant) -> Result<RunOutput, String> {
    let kind = plan(&args.workload, args.seed, args.scale)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let mut gate = Gate::default();
    let missing = probe_counters();
    gate.require(missing.is_empty(), || {
        format!("counters the harness reads are never incremented: {missing:?}")
    });
    Ok(match kind {
        Plan::World(_) => world_workload(args, process_start, gate),
        Plan::Sweep(_) => sweep_workload(args, process_start, gate),
    })
}

/// Collects correctness-gate failures.
#[derive(Debug, Default)]
struct Gate {
    failures: Vec<String>,
}

impl Gate {
    fn require(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(why());
        }
    }
}

/// Set-up samples and repeats of one workload.
struct Phases<P, R> {
    /// The generated inputs the repeats ran on.
    plan: P,
    setup_s: Vec<f64>,
    /// Warm-up repeats, then timed ones: the gate compares them all.
    all: Vec<R>,
    /// Index in `all` of the first timed repeat.
    first_timed: usize,
}

impl<P, R> Phases<P, R> {
    /// Sets up (generates the inputs and runs one warm-up repeat) a few
    /// times, then repeats on the last generated inputs for `seconds`. A
    /// traced run sets up once and times for a shorter while: its
    /// end-to-end numbers only serve as the base of `trace.overhead_ratio`.
    fn run(
        args: &RunArgs,
        process_start: Instant,
        generate: impl Fn() -> P,
        mut repeat: impl FnMut(&P) -> R,
    ) -> Phases<P, R> {
        let (setups, seconds) = if args.traced {
            (1, args.seconds * 0.4)
        } else {
            (SETUPS, args.seconds)
        };
        let mut setup_s = Vec::new();
        let mut all = Vec::new();
        let mut plan = None;
        for i in 0..setups {
            // The first set-up is charged from process start: whatever the
            // process does before its first repeat is set-up too.
            let t0 = if i == 0 {
                process_start
            } else {
                Instant::now()
            };
            let p = generate();
            all.push(repeat(&p));
            plan = Some(p);
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        let plan = plan.expect("at least one set-up");
        let first_timed = all.len();
        let time_box = Duration::from_secs_f64(seconds);
        let t0 = Instant::now();
        while all.len() - first_timed < MIN_REPEATS || t0.elapsed() < time_box {
            all.push(repeat(&plan));
        }
        Phases {
            plan,
            setup_s,
            all,
            first_timed,
        }
    }

    fn timed(&self) -> &[R] {
        &self.all[self.first_timed..]
    }

    fn repeat_counts(&self) -> Vec<(String, usize)> {
        vec![
            ("setup".into(), self.setup_s.len()),
            ("timed".into(), self.timed().len()),
        ]
    }
}

fn world_plan(args: &RunArgs) -> WorldPlan {
    match plan(&args.workload, args.seed, args.scale) {
        Some(Plan::World(p)) => p,
        _ => unreachable!("run_workload dispatches on the plan's kind"),
    }
}

fn sweep_spec(args: &RunArgs) -> SweepSpec {
    match plan(&args.workload, args.seed, args.scale) {
        Some(Plan::Sweep(s)) => s,
        _ => unreachable!("run_workload dispatches on the plan's kind"),
    }
}

fn world_workload(args: &RunArgs, process_start: Instant, mut gate: Gate) -> RunOutput {
    let mut off = Recorder::new(false);
    let phases = Phases::run(
        args,
        process_start,
        || world_plan(args),
        |p| run_world(p, false, &mut off),
    );
    let plan = &phases.plan;
    let first = &phases.all[0];
    let timed = phases.timed();

    gate.require(
        phases.all.iter().all(|r| {
            (r.digest, r.events, r.msgs_sent) == (first.digest, first.events, first.msgs_sent)
        }),
        || "event count, message count or op-stream digest differs between repeats".into(),
    );
    gate.require(first.regular, || "a read violated regularity".into());
    gate.require(first.delta_overruns == 0, || {
        format!("{} deliveries overran δ", first.delta_overruns)
    });
    if plan.fault_free() {
        gate.require(first.live, || {
            "an operation of a staying process is stuck".into()
        });
        gate.require(first.fault_drops == 0, || {
            "fault drops without a fault plan".into()
        });
        gate.require(first.join_retransmits == 0, || {
            "join retransmits on a lossless run".into()
        });
    }

    let column = |f: fn(&WorldRepeat) -> f64| -> Vec<f64> { timed.iter().map(f).collect() };
    let mut result = WorkloadResult::new(&args.workload, args.seed, first.digest, &first.ops);
    result.repeats = phases.repeat_counts();
    result.counts = vec![
        ("sim.events".into(), first.events),
        ("net.msgs_sent".into(), first.msgs_sent),
        ("churn.joins".into(), first.joins),
        ("churn.leaves".into(), first.leaves),
    ];
    for m in END_TO_END {
        let summary = match m.name {
            "events_per_sec" => Summary::of(&column(|r| r.events as f64 / r.run_until_s)),
            "runs_per_sec" => Summary::of(&column(|r| 1.0 / r.wall_s)),
            "wall_s" => Summary::of(&column(|r| r.wall_s)),
            "setup_s" => Summary::of(&phases.setup_s),
            "peak_rss_mib" => Summary::exact(peak_rss_mib()),
            "ops_ok_share" => Summary::exact(first.ops.ok_share()),
            "ops_in_bound_share" => Summary::exact(first.ops.in_bound_share()),
            other => unreachable!("unhandled end-to-end metric {other}"),
        };
        result.end_to_end.push(Metric::new(m.name, m.unit, summary));
    }

    let mut spans = Vec::new();
    if args.traced {
        let mut on = Recorder::new(true);
        let recorded: Vec<WorldRepeat> = (0..RECORDED)
            .map(|i| {
                on.set_repeat(i as u32 + 1);
                run_world(plan, false, &mut on)
            })
            .collect();
        on.set_repeat(RECORDED as u32 + 1);
        let profiled = run_world(plan, true, &mut on);
        on.set_repeat(RECORDED as u32 + 2);
        let kernels = run_kernels(plan, first, &mut on);
        gate.require(
            recorded
                .iter()
                .chain([&profiled])
                .all(|r| r.digest == first.digest),
            || "a recorded or profiled repeat changed the op-stream digest".into(),
        );
        let plain_wall = Summary::of(&column(|r| r.wall_s)).median;
        world_layers(
            &mut result,
            plan,
            &recorded,
            &profiled,
            &kernels,
            plain_wall,
            on.spans().len(),
        );
        result
            .repeats
            .extend([("recorded".into(), RECORDED), ("profiled".into(), 1)]);
        spans = on.spans().to_vec();
    }
    result.set_gate(gate.failures);
    RunOutput { result, spans }
}

fn median_of<R>(repeats: &[R], f: impl Fn(&R) -> f64) -> f64 {
    Summary::of(&repeats.iter().map(f).collect::<Vec<_>>()).median
}

/// Fills `result.per_layer` for a single-world workload.
fn world_layers(
    result: &mut WorkloadResult,
    plan: &WorldPlan,
    recorded: &[WorldRepeat],
    profiled: &WorldRepeat,
    k: &KernelCosts,
    plain_wall_s: f64,
    span_count: usize,
) {
    let r = &recorded[0];
    let run_until_s = median_of(recorded, |r| r.run_until_s);
    let check_s = median_of(recorded, |r| r.check_s);
    let run_ns = run_until_s * 1e9;
    let payload_entries = r.batch_replies * u64::from(plan.keys);
    let keyed_copies = if plan.keys > 1 { r.write_copies } else { 0 };
    let step_ns = if k.es_step_ns > 0.0 {
        k.es_step_ns
    } else {
        k.sync_step_ns
    };
    let sim_share = r.events as f64 * k.queue_ns_per_event / run_ns;
    let net_share = (r.broadcast_copies as f64 * k.broadcast_ns_per_recipient
        + r.unicast_msgs as f64 * k.send_ns_per_msg
        + (2 * r.joins + r.leaves) as f64 * k.presence_ns_per_change)
        / run_ns;
    let churn_share = plan.ticks as f64 * k.churn_step_ns_per_tick / run_ns;
    let core_share = ((r.msgs_sent - r.batch_replies - keyed_copies) as f64 * step_ns
        + keyed_copies as f64 * k.space_keyed_ns
        + payload_entries as f64 * k.space_batch_ns_per_entry)
        / run_ns;
    let profile = profiled.profile.unwrap_or_default();
    let shares = [
        ("sim", sim_share),
        ("net", net_share),
        ("churn", churn_share),
        ("core", core_share),
    ];
    result.owner = shares
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(layer, _)| (*layer).to_string());
    for m in PER_LAYER {
        let v = match m.name {
            "sim.events" => r.events as f64,
            "sim.queue_ns_per_event" => k.queue_ns_per_event,
            "sim.share" => sim_share,
            "net.msgs_sent" => r.msgs_sent as f64,
            "net.msgs_per_op" => r.msgs_sent as f64 / r.ops.invoked.max(1) as f64,
            "net.dropped_departed" => r.dropped_departed as f64,
            "net.fault_drops" => r.fault_drops as f64,
            "net.delta_overruns" => r.delta_overruns as f64,
            "net.broadcast_ns_per_recipient" => k.broadcast_ns_per_recipient,
            "net.send_ns_per_msg" => k.send_ns_per_msg,
            "net.presence_ns_per_change" => k.presence_ns_per_change,
            "net.share" => net_share,
            "churn.joins" => r.joins as f64,
            "churn.leaves" => r.leaves as f64,
            "churn.step_ns_per_tick" => k.churn_step_ns_per_tick,
            "churn.share" => churn_share,
            "core.sync_step_ns" => k.sync_step_ns,
            "core.es_step_ns" => k.es_step_ns,
            "core.space_batch_ns_per_entry" => k.space_batch_ns_per_entry,
            "core.payload_entries" => payload_entries as f64,
            "core.space_keyed_ns" => k.space_keyed_ns,
            "core.join_retransmits" => r.join_retransmits as f64,
            "core.inquiry_full" => r.inquiry_full as f64,
            "core.share" => core_share,
            "verify.check_s" => check_s,
            "verify.liveness_s" => median_of(recorded, |r| r.liveness_s),
            "verify.reads_checked" => r.reads_checked as f64,
            "verify.check_ns_per_read" => check_s * 1e9 / r.reads_checked.max(1) as f64,
            "testkit.world_new_s" => median_of(recorded, |r| r.world_new_s),
            "testkit.run_until_s" => run_until_s,
            "testkit.outputs_s" => median_of(recorded, |r| r.outputs_s),
            "testkit.ns_per_event" => run_ns / r.events.max(1) as f64,
            "testkit.dispatch_residual_share" => {
                1.0 - sim_share - net_share - churn_share - core_share
            }
            "testkit.profile_deliver_s" => profile.deliver_secs,
            "testkit.profile_timer_s" => profile.timer_secs,
            "testkit.profile_churn_s" => profile.churn_secs,
            "testkit.profile_workload_s" => profile.workload_secs,
            "testkit.profile_sample_s" => profile.sample_secs,
            "testkit.profile_overhead_ratio" => profiled.run_until_s / run_until_s,
            "testkit.ops_refused" => r.ops.refused as f64,
            "testkit.ops_deferred" => r.deferred as f64,
            "testkit.ops_late" => r.ops.late as f64,
            "testkit.ops_excused" => r.ops.excused as f64,
            "trace.overhead_ratio" => median_of(recorded, |r| r.wall_s) / plain_wall_s,
            "trace.spans" => span_count as f64,
            name if name.starts_with("fleet.") => 0.0,
            other => unreachable!("unhandled per-layer metric {other}"),
        };
        result
            .per_layer
            .push(Metric::new(m.name, m.unit, Summary::exact(v)));
    }
}

fn sweep_workload(args: &RunArgs, process_start: Instant, mut gate: Gate) -> RunOutput {
    let mut off = Recorder::new(false);
    let phases = Phases::run(
        args,
        process_start,
        || sweep_spec(args),
        |s| run_sweep(s, args.threads, &mut off),
    );
    let spec = &phases.plan;
    let first = &phases.all[0];
    let timed = phases.timed();

    gate.require(
        phases
            .all
            .iter()
            .all(|r| r.digest == first.digest && r.json == first.json),
        || "fleet digest or phase-diagram JSON differs between repeats".into(),
    );
    // One thread, every history kept long enough to classify its ops: the
    // JSON must equal the pooled run's byte for byte.
    let mut on = Recorder::new(args.traced);
    let checks = verify_sweep(spec, &mut on);
    let ops = &checks.ops;
    gate.require(checks.repeat.json == first.json, || {
        format!(
            "phase-diagram JSON differs between 1 and {} threads",
            args.threads
        )
    });

    let column = |f: fn(&SweepRepeat) -> f64| -> Vec<f64> { timed.iter().map(f).collect() };
    let mut result = WorkloadResult::new(&args.workload, args.seed, first.digest, ops);
    result.repeats = phases.repeat_counts();
    result.counts = vec![
        ("fleet.runs".into(), first.runs),
        ("net.msgs_sent".into(), first.messages),
    ];
    for m in END_TO_END {
        let summary = match m.name {
            // The fleet tier exposes no event count: messages sent, summed
            // over the worlds, stand in for it.
            "events_per_sec" => Summary::of(&column(|r| r.messages as f64 / r.run_points_s)),
            "runs_per_sec" => Summary::of(&column(|r| r.runs as f64 / r.wall_s)),
            "wall_s" => Summary::of(&column(|r| r.wall_s)),
            "setup_s" => Summary::of(&phases.setup_s),
            "peak_rss_mib" => Summary::exact(peak_rss_mib()),
            "ops_ok_share" => Summary::exact(ops.ok_share()),
            "ops_in_bound_share" => Summary::exact(ops.in_bound_share()),
            other => unreachable!("unhandled end-to-end metric {other}"),
        };
        result.end_to_end.push(Metric::new(m.name, m.unit, summary));
    }

    let mut spans = Vec::new();
    if args.traced {
        let recorded: Vec<SweepRepeat> = (0..RECORDED)
            .map(|i| {
                on.set_repeat(i as u32 + 1);
                run_sweep(spec, args.threads, &mut on)
            })
            .collect();
        on.set_repeat(RECORDED as u32 + 1);
        let single = run_sweep(spec, 1, &mut on);
        gate.require(single.json == first.json, || {
            "run_points on 1 thread produced a different phase diagram".into()
        });
        let run_points_s = median_of(&recorded, |r| r.run_points_s);
        let plain_wall = Summary::of(&column(|r| r.wall_s)).median;
        result.owner = Some("fleet".into());
        for m in PER_LAYER {
            let v = match m.name {
                "net.msgs_sent" => first.messages as f64,
                "verify.check_s" => checks.check_s,
                "verify.liveness_s" => checks.liveness_s,
                "verify.reads_checked" => checks.reads_checked as f64,
                "verify.check_ns_per_read" => {
                    checks.check_s * 1e9 / checks.reads_checked.max(1) as f64
                }
                "testkit.ops_refused" => ops.refused as f64,
                "testkit.ops_late" => ops.late as f64,
                "testkit.ops_excused" => ops.excused as f64,
                "fleet.points_s" => median_of(&recorded, |r| r.points_s),
                "fleet.run_points_s" => run_points_s,
                "fleet.reduce_s" => median_of(&recorded, |r| r.reduce_s),
                "fleet.json_s" => median_of(&recorded, |r| r.json_s),
                "fleet.thread_speedup" => single.run_points_s / run_points_s,
                "trace.overhead_ratio" => median_of(&recorded, |r| r.wall_s) / plain_wall,
                "trace.spans" => on.spans().len() as f64,
                // The worlds run inside the pool's threads: nothing of a
                // single world is visible from outside `run_points`.
                _ => 0.0,
            };
            result
                .per_layer
                .push(Metric::new(m.name, m.unit, Summary::exact(v)));
        }
        result
            .repeats
            .extend([("recorded".into(), RECORDED), ("single_thread".into(), 1)]);
        spans = on.spans().to_vec();
    }
    result.set_gate(gate.failures);
    RunOutput { result, spans }
}
