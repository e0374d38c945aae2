//! Runs one repeat of a workload and collects everything the metrics are
//! made of. Every call into a crate's public API happens inside a
//! [`Recorder`] span, so the same code serves timed and traced repeats.

use dynareg_churn::{ChurnDriver, LeaveSelector};
use dynareg_core::es::EsConfig;
use dynareg_core::space::{RegisterSpaceProcess, RetransmitConfig, ShardConfig};
use dynareg_core::sync::SyncConfig;
use dynareg_fleet::{run_points, PhaseReport, PointOutcome, RunPoint, SweepSpec};
use dynareg_net::delay::Synchronous;
use dynareg_sim::obs::TickProfile;
use dynareg_sim::{IdSource, NodeId, Span, Time};
use dynareg_testkit::{
    EsFactory, ObsConfig, RateWorkload, SpaceFactory, SpaceOf, SyncFactory, Workload, World,
    WorldConfig, WriterPolicy, ZipfKeys, ZipfWorkload,
};
use dynareg_verify::{
    AtomicityChecker, History, LivenessChecker, OpKind, RegularityChecker, SpaceHistory,
    SpaceReport,
};

use crate::ops::{tally_key, Limits, OpsTally};
use crate::trace::Recorder;
use crate::workloads::{Protocol, StopAfter, WorldPlan};

/// The `Metrics` counters the harness reads by string name. A rename in
/// the program would silently read 0, so [`probe_counters`] provokes each
/// one and the correctness gate refuses to run if any is missing.
pub const COUNTERS_READ: [&str; 6] = [
    "workload.skipped",
    "ops.skipped_busy",
    "workload.write_gated",
    "join.retransmits",
    "churn.joins",
    "churn.leaves",
];

/// Messages the protocols send point-to-point (`Network::send`); every
/// other label is a broadcast copy.
const UNICAST_LABELS: [&str; 4] = ["REPLY", "ACK", "DL_PREV", "BATCH"];

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Folds one key's operation stream into `h`: every record's id, invoker,
/// kind, value and instants, in history order.
fn fold_history(h: &mut u64, history: &History<Option<u64>>) {
    let opt = |v: Option<u64>| v.map_or(u64::MAX, |x| x.wrapping_add(1));
    for op in history.ops() {
        fnv(h, op.op.as_raw());
        fnv(h, op.node.as_raw());
        match &op.kind {
            OpKind::Join => fnv(h, 0),
            OpKind::Read { returned } => {
                fnv(h, 1);
                fnv(h, returned.map_or(0, |v| 1 + opt(v)));
            }
            OpKind::Write { value, index } => {
                fnv(h, 2);
                fnv(h, opt(*value));
                fnv(h, *index as u64);
            }
        }
        fnv(h, op.invoked_at.ticks());
        fnv(h, opt(op.completed_at.map(Time::ticks)));
    }
}

/// Everything one single-world repeat produced.
#[derive(Debug, Clone)]
pub struct WorldRepeat {
    /// `World::new` to checked verdict, host seconds.
    pub wall_s: f64,
    /// Span around `World::new` (+ `protect` / `set_faults` / `set_obs`).
    pub world_new_s: f64,
    /// Span around the one `World::run_until` call.
    pub run_until_s: f64,
    /// Span around `World::into_space_outputs`.
    pub outputs_s: f64,
    /// Span around `SpaceReport::check`.
    pub check_s: f64,
    /// Span around `LivenessChecker::check` on every key.
    pub liveness_s: f64,
    /// `World::events_processed`.
    pub events: u64,
    /// `Network::total_sent`.
    pub msgs_sent: u64,
    /// Copies sent by broadcast (all labels but the unicast ones).
    pub broadcast_copies: u64,
    /// Messages sent point-to-point.
    pub unicast_msgs: u64,
    /// `BATCH` replies sent (keyed join handshake).
    pub batch_replies: u64,
    /// `WRITE` copies sent.
    pub write_copies: u64,
    /// `Network::sent_of("INQUIRY_FULL")`.
    pub inquiry_full: u64,
    /// `Network::dropped_to_departed`.
    pub dropped_departed: u64,
    /// `Network::dropped_to_faults`.
    pub fault_drops: u64,
    /// `Network::delta_overruns`.
    pub delta_overruns: u64,
    /// `churn.joins` counter.
    pub joins: u64,
    /// `churn.leaves` counter.
    pub leaves: u64,
    /// `join.retransmits` counter.
    pub join_retransmits: u64,
    /// `workload.write_gated` counter: write beats the closed-loop
    /// generator skipped because that writer's previous operation on the key
    /// had not returned. No request is issued, so none is refused.
    pub deferred: u64,
    /// Reads the checkers judged.
    pub reads_checked: u64,
    /// Every key regular.
    pub regular: bool,
    /// Every key live (no stuck stayer).
    pub live: bool,
    /// Where every operation ended up.
    pub ops: OpsTally,
    /// FNV digest of every key's op stream plus the message, membership
    /// and event totals — wall-clock-free, so repeats must agree.
    pub digest: u64,
    /// The tick-phase profile, when the repeat ran with the profiler.
    pub profile: Option<TickProfile>,
}

/// Runs one repeat of `plan`. `profiled` installs
/// `ObsConfig { tick_profile: true, ..ObsConfig::off() }`.
pub fn run_world(plan: &WorldPlan, profiled: bool, rec: &mut Recorder) -> WorldRepeat {
    let delta = Span::ticks(plan.delta);
    let retransmit = plan
        .retransmit
        .map(|(base, budget)| RetransmitConfig::after(Span::ticks(base)).with_budget(budget));
    match (plan.protocol, plan.keys) {
        (Protocol::Sync, 1) => run_with(
            SyncFactory::new(SyncConfig::new(delta)).with_retransmit(retransmit),
            plan,
            profiled,
            rec,
        ),
        (Protocol::Sync, keys) => run_with(
            SpaceOf::new(
                SyncFactory::new(SyncConfig::new(delta)).with_retransmit(retransmit),
                keys,
            )
            .with_shards(ShardConfig::new(1).with_reinquire_every(delta.times(4))),
            plan,
            profiled,
            rec,
        ),
        (Protocol::Es, _) => {
            let mut cfg = EsConfig::new(plan.n);
            if let Some(q) = plan.join_quorum {
                cfg = cfg.with_join_quorum(q);
            }
            run_with(
                EsFactory::new(cfg).with_retransmit(retransmit),
                plan,
                profiled,
                rec,
            )
        }
    }
}

fn world_config(plan: &WorldPlan) -> WorldConfig {
    let stop = plan.stop_at();
    let write_every = Span::ticks(plan.write_every);
    let workload: Box<dyn Workload> = if plan.keys > 1 {
        Box::new(
            ZipfWorkload::new(
                ZipfKeys::new(plan.keys, 1.0),
                write_every,
                plan.reads_per_tick,
            )
            .stopping_at(stop),
        )
    } else {
        Box::new(RateWorkload::new(write_every, plan.reads_per_tick).stopping_at(stop))
    };
    WorldConfig {
        n: plan.n,
        initial: 0,
        delay: Box::new(Synchronous::new(Span::ticks(plan.delta))),
        churn: ChurnDriver::new(
            Box::new(StopAfter::new(plan.churn_rate, stop)),
            plan.selector,
            IdSource::starting_at(plan.n as u64),
        ),
        workload,
        seed: plan.seed,
        trace: false,
        writer_policy: WriterPolicy::FixedProtected,
        writers: plan.writers,
    }
}

fn run_with<F>(factory: F, plan: &WorldPlan, profiled: bool, rec: &mut Recorder) -> WorldRepeat
where
    F: SpaceFactory,
    F::Proc: RegisterSpaceProcess<Val = u64>,
{
    let limits = match plan.protocol {
        Protocol::Sync => Limits::sync(plan.delta),
        Protocol::Es => Limits::es(plan.delta),
    };
    // The span ends at the checked verdict: the op tally and the digest
    // below are the benchmark's own checking, not the program's work.
    let (parts, wall_s) = rec.span("dynabench", "repeat", |rec| {
        let (mut world, world_new_s) = rec.span("testkit", "World::new", |_| {
            let mut world = World::new(factory, world_config(plan));
            for w in 0..plan.writers as u64 {
                world.protect(NodeId::from_raw(w));
            }
            if !plan.fault_free() {
                world.set_faults(plan.faults.clone());
            }
            if profiled {
                world.set_obs(ObsConfig {
                    tick_profile: true,
                    ..ObsConfig::off()
                });
            }
            world
        });
        // `run_until` is not resumable (the tick chain stops at the first
        // `end`), so a repeat is exactly one call and no span slices it.
        let ((), run_until_s) = rec.span("testkit", "World::run_until", |_| {
            world.run_until(plan.end());
        });
        let events = world.events_processed();
        let profile = world.take_obs_report().and_then(|r| r.tick_profile);
        let (outputs, outputs_s) = rec.span("testkit", "World::into_space_outputs", |_| {
            world.into_space_outputs()
        });
        let (report, check_s) = rec.span("verify", "SpaceReport::check", |_| {
            SpaceReport::check(&outputs.0)
        });
        let (live, liveness_s) = rec.span("verify", "LivenessChecker::check", |_| {
            outputs
                .0
                .iter()
                .all(|(_, h)| LivenessChecker::check(h).is_ok())
        });
        let spans = [world_new_s, run_until_s, outputs_s, check_s, liveness_s];
        (outputs, report, live, events, profile, spans)
    });
    let ((space, presence, metrics, _trace, network), report, live, events, profile, spans) = parts;
    let [world_new_s, run_until_s, outputs_s, check_s, liveness_s] = spans;

    let refused = metrics.counter("workload.skipped") + metrics.counter("ops.skipped_busy");
    let mut unicast_msgs = 0;
    let mut broadcast_copies = 0;
    for (label, count) in network.sent_by_label() {
        if UNICAST_LABELS.contains(&label) {
            unicast_msgs += count;
        } else {
            broadcast_copies += count;
        }
    }
    WorldRepeat {
        wall_s,
        world_new_s,
        run_until_s,
        outputs_s,
        check_s,
        liveness_s,
        events,
        msgs_sent: network.total_sent(),
        broadcast_copies,
        unicast_msgs,
        batch_replies: network.sent_of("BATCH"),
        write_copies: network.sent_of("WRITE"),
        inquiry_full: network.sent_of("INQUIRY_FULL"),
        dropped_departed: network.dropped_to_departed(),
        fault_drops: network.dropped_to_faults(),
        delta_overruns: network.delta_overruns(),
        joins: metrics.counter("churn.joins"),
        leaves: metrics.counter("churn.leaves"),
        join_retransmits: metrics.counter("join.retransmits"),
        deferred: metrics.counter("workload.write_gated"),
        reads_checked: report.total_reads_checked() as u64,
        regular: report.all_regular(),
        live,
        ops: tally_space(&space, &report, limits, plan.end(), refused),
        digest: world_digest(
            &space,
            network.total_sent(),
            presence.total_arrivals() as u64,
            presence.total_departures() as u64,
            events,
        ),
        profile,
    }
}

fn tally_space(
    space: &SpaceHistory<Option<u64>>,
    report: &SpaceReport<Option<u64>>,
    limits: Limits,
    end: Time,
    refused: u64,
) -> OpsTally {
    let mut t = OpsTally {
        refused,
        ..OpsTally::default()
    };
    for verdict in &report.keys {
        // A join is one membership event recorded in every key's history:
        // count it on the anchor key only.
        let count_joins = verdict.key.as_raw() == 0;
        tally_key(
            space.key(verdict.key),
            &verdict.regularity,
            limits,
            end,
            count_joins,
            &mut t,
        );
    }
    t
}

fn world_digest(
    space: &SpaceHistory<Option<u64>>,
    msgs: u64,
    arrivals: u64,
    departures: u64,
    events: u64,
) -> u64 {
    let mut h = FNV_OFFSET;
    for (_, history) in space.iter() {
        fold_history(&mut h, history);
    }
    for v in [msgs, arrivals, departures, events] {
        fnv(&mut h, v);
    }
    h
}

/// Provokes every counter in [`COUNTERS_READ`] on a tiny purpose-built
/// world and returns the names that never appeared (empty = all present).
///
/// One synchronous world does it: total message loss forces a joiner's
/// zero-reply retransmit, a write beat shorter than `δ` gates the writer,
/// churn moves members, and two direct invocations hit an absent node and
/// a busy `(node, key)`.
pub fn probe_counters() -> Vec<&'static str> {
    use dynareg_net::{DropRule, FaultPlan};
    use dynareg_testkit::OpAction;
    let delta = Span::ticks(2);
    let factory = SyncFactory::new(SyncConfig::new(delta))
        .with_retransmit(Some(RetransmitConfig::after(delta.times(2))));
    let mut world = World::new(
        factory,
        WorldConfig {
            n: 4,
            initial: 0,
            delay: Box::new(Synchronous::new(delta)),
            churn: ChurnDriver::new(
                Box::new(StopAfter::new(0.25, Time::at(40))),
                LeaveSelector::Random,
                IdSource::starting_at(4),
            ),
            workload: Box::new(RateWorkload::new(Span::ticks(1), 0.0)),
            seed: 1,
            trace: false,
            writer_policy: WriterPolicy::FixedProtected,
            writers: 1,
        },
    );
    world.protect(NodeId::from_raw(0));
    world.set_faults(FaultPlan::none().with_drop(DropRule::lossy_everything(
        Time::ZERO,
        Time::at(30),
        1.0,
    )));
    world.run_until(Time::at(60));
    world.invoke(NodeId::from_raw(u64::MAX), OpAction::Read);
    world.invoke(NodeId::from_raw(0), OpAction::Write(u64::MAX - 1));
    world.invoke(NodeId::from_raw(0), OpAction::Write(u64::MAX));
    let metrics = world.metrics();
    COUNTERS_READ
        .into_iter()
        .filter(|name| metrics.counter(name) == 0)
        .collect()
}

/// Everything one fleet-sweep repeat produced.
#[derive(Debug, Clone)]
pub struct SweepRepeat {
    /// `SweepSpec::points` to rendered JSON, host seconds.
    pub wall_s: f64,
    /// Span around `SweepSpec::points`.
    pub points_s: f64,
    /// Span around `run_points`.
    pub run_points_s: f64,
    /// Span around `PhaseReport::from_outcomes`.
    pub reduce_s: f64,
    /// Span around `PhaseReport::json`.
    pub json_s: f64,
    /// Worlds built, run, checked and reduced.
    pub runs: u64,
    /// Messages sent, summed over the worlds (the only event count the
    /// fleet tier exposes).
    pub messages: u64,
    /// `PhaseReport::fleet_digest`.
    pub digest: u64,
    /// The rendered phase-diagram JSON (compared across thread counts).
    pub json: String,
}

/// Runs one sweep on `threads` workers.
pub fn run_sweep(spec: &SweepSpec, threads: usize, rec: &mut Recorder) -> SweepRepeat {
    let (mut out, wall_s) = rec.span("dynabench", "repeat", |rec| {
        let (points, points_s) = rec.span("fleet", "SweepSpec::points", |_| spec.points());
        let (outcomes, run_points_s) =
            rec.span("fleet", "run_points", |_| run_points(&points, threads));
        reduce(spec, &outcomes, points_s, run_points_s, rec)
    });
    out.wall_s = wall_s;
    out
}

fn reduce(
    spec: &SweepSpec,
    outcomes: &[PointOutcome],
    points_s: f64,
    run_points_s: f64,
    rec: &mut Recorder,
) -> SweepRepeat {
    let (report, reduce_s) = rec.span("fleet", "PhaseReport::from_outcomes", |_| {
        PhaseReport::from_outcomes(spec, outcomes)
    });
    let (json, json_s) = rec.span("fleet", "PhaseReport::json", |_| report.json());
    SweepRepeat {
        wall_s: 0.0,
        points_s,
        run_points_s,
        reduce_s,
        json_s,
        runs: report.total_runs,
        messages: outcomes.iter().map(|o| o.messages).sum(),
        digest: report.fleet_digest,
        json,
    }
}

/// What [`verify_sweep`] found.
#[derive(Debug, Clone)]
pub struct SweepVerification {
    /// The single-threaded sweep, reduced exactly as [`run_sweep`] does.
    pub repeat: SweepRepeat,
    /// Operations of the worlds below Theorem 1's threshold.
    pub ops: OpsTally,
    /// Regularity + atomicity re-check of every world's history, seconds.
    pub check_s: f64,
    /// Liveness re-check of every world's history, seconds.
    pub liveness_s: f64,
    /// Reads the re-check judged.
    pub reads_checked: u64,
}

/// The sweep's verification pass: runs every point on this thread, keeps
/// each world's history long enough to classify its operations and to
/// time the `verify` checkers on it, and reduces the outcomes exactly as
/// [`run_sweep`] does — so its JSON must equal the pooled run's byte for
/// byte (the fleet tier's 1-vs-N-thread determinism contract).
///
/// Only points below Theorem 1's threshold (`c/c* < 1`) enter the tally:
/// above it the paper *proves* operations fail, and the sweep crosses the
/// threshold on purpose.
pub fn verify_sweep(spec: &SweepSpec, rec: &mut Recorder) -> SweepVerification {
    let points: Vec<RunPoint> = spec.points();
    let mut ops = OpsTally::default();
    let (mut check_s, mut liveness_s, mut reads_checked) = (0.0, 0.0, 0);
    let outcomes: Vec<PointOutcome> = points
        .iter()
        .map(|point| {
            let report = point.spec.run();
            if point.fraction < 1.0 {
                ops.refused += report.metrics.counter("workload.skipped")
                    + report.metrics.counter("ops.skipped_busy");
                tally_report(point, &report, &mut ops);
            }
            let (checked, secs) = rec.span("verify", "Regularity+AtomicityChecker::check", |_| {
                RegularityChecker::check(&report.history).checked_reads
                    + AtomicityChecker::check(&report.history).checked_reads
            });
            check_s += secs;
            reads_checked += checked as u64 / 2;
            let (_, secs) = rec.span("verify", "LivenessChecker::check", |_| {
                LivenessChecker::check(&report.history).is_ok()
            });
            liveness_s += secs;
            PointOutcome::from_run(point, &report)
        })
        .collect();
    SweepVerification {
        repeat: reduce(spec, &outcomes, 0.0, 0.0, rec),
        ops,
        check_s,
        liveness_s,
        reads_checked,
    }
}

fn tally_report(point: &RunPoint, report: &dynareg_testkit::RunReport, ops: &mut OpsTally) {
    let limits = Limits::sync(point.delta);
    let end = Time::ZERO + point.spec.duration;
    tally_key(&report.history, &report.safety, limits, end, true, ops);
    for key in &report.extra_keys {
        tally_key(&key.history, &key.safety, limits, end, false, ops);
    }
}
