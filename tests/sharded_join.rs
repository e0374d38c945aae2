//! Key-sharded join replies under adversarial churn.
//!
//! The sharded handshake's liveness contract: a joiner holds its join open
//! until **every** shard's reply quorum is met, and the shared join timer
//! re-fires inquiries (escalating to the full-reply fallback) for shards
//! still short. These tests drain exactly one shard below quorum mid-join
//! and assert the join re-inquires and completes — after the re-inquiry
//! round for the synchronous protocol, after GST for the eventually
//! synchronous one.

use dynareg::churn::{ChurnDriver, LeaveSelector, NoChurn};
use dynareg::net::delay::{Asynchronous, EventuallySynchronous, Synchronous};
use dynareg::sim::{IdSource, NodeId, RegisterId, Span, Time};
use dynareg::testkit::{
    shard_of_node, ChurnChoice, EsFactory, OpAction, RateWorkload, ScenarioSpec, ShardConfig,
    SpaceOf, SyncFactory, World, WorldConfig, WriterPolicy,
};
use dynareg::verify::{OpKind, SpaceReport};
use dynareg_core::es::EsConfig;
use dynareg_core::space::{RegisterSpaceProcess, SpaceEffect, SpaceMsg};
use dynareg_core::sync::{SyncConfig, SyncMsg};

const GROUPS: u32 = 2;
const KEYS: u32 = 4;

fn quiet_workload() -> Box<RateWorkload> {
    // No client traffic: isolate the join handshake.
    Box::new(RateWorkload::new(Span::ticks(1_000_000), 0.0))
}

fn no_churn(n: usize) -> ChurnDriver {
    ChurnDriver::new(
        Box::new(NoChurn),
        LeaveSelector::Random,
        IdSource::starting_at(n as u64),
    )
}

/// The bootstrap members of one responder shard.
fn shard_members(n: usize, shard: u32) -> Vec<NodeId> {
    (0..n as u64)
        .map(NodeId::from_raw)
        .filter(|&id| shard_of_node(id, GROUPS) == shard)
        .collect()
}

/// Synchronous protocol, fully scripted: every shard-1 responder leaves
/// before the joiner's inquiry goes out, so shard 1's reply quorum cannot
/// be met in the first 2δ window. The shared join timer must withhold
/// shard 1's keys, re-fire a full inquiry, and complete the join one
/// round later — with shard 1's registers populated by the fallback
/// replies of the surviving (other-shard) responders.
#[test]
fn draining_one_shard_below_quorum_mid_join_refires_and_completes() {
    let delta = Span::ticks(3);
    let n = 8;
    let factory = SpaceOf::new(SyncFactory::new(SyncConfig::new(delta)), KEYS)
        .with_shards(ShardConfig::new(GROUPS).with_reinquire_every(delta.times(4)));
    let mut world = World::new(
        factory,
        WorldConfig {
            n,
            initial: 77,
            delay: Box::new(Synchronous::new(delta)),
            churn: no_churn(n),
            workload: quiet_workload(),
            seed: 11,
            trace: false,
            writer_policy: WriterPolicy::FixedProtected,
            writers: 1,
        },
    );
    // Joiner enters at t=5: waits δ (t=8), inquires, 2δ window ends t=14.
    world.schedule_join(Time::at(5));
    // Adversarial churn plan: every shard-1 responder leaves at t=6,
    // before the inquiry broadcast exists. Shard 1 goes to zero repliers —
    // below any quorum — while shard 0 stays intact.
    let drained = shard_members(n, 1);
    assert!(
        !drained.is_empty() && drained.len() < n,
        "both shards must be inhabited for the scenario to mean anything"
    );
    for &id in &drained {
        world.schedule_leave(Time::at(6), id);
    }
    world.run_until(Time::at(60));

    // The join completed — but not in the fast path. Fast path: enter(5) →
    // δ wait(8) → 2δ window(14). The first window closed with shard 1
    // short, so completion had to wait for the re-fired (full) inquiry and
    // the re-armed 2δ window: strictly later than t=14.
    let join = world
        .key_history(RegisterId::ZERO)
        .ops()
        .iter()
        .find(|r| matches!(r.kind, OpKind::Join) && r.invoked_at == Time::at(5))
        .expect("the scripted join is recorded")
        .clone();
    let completed = join.completed_at.expect("starved join still completes");
    assert!(
        completed > Time::at(14),
        "completion at {completed} means shard 1 was never withheld"
    );

    // The space activated every key at one instant (a join is live iff all
    // shards answered), and every key is clean.
    let report = SpaceReport::check(world.space_history());
    assert!(report.joins_consistent, "{}", report.summary());
    assert!(
        report.all_regular() && report.all_live(),
        "{}",
        report.summary()
    );

    // The re-inquiry is visible on the wire under its own label — the
    // operational signal that a shard quorum starved.
    let full_inquiries = world
        .network()
        .sent_by_label()
        .find(|(label, _)| *label == "INQUIRY_FULL")
        .map_or(0, |(_, count)| count);
    assert!(
        full_inquiries > 0,
        "the fallback re-inquiry is labeled INQUIRY_FULL"
    );

    // The starved shard's registers were populated by the full-reply
    // fallback, not left at ⊥: a local read on a shard-1 key returns the
    // initial value (a ⊥ read would be flagged as fabricated).
    let joiner = join.node;
    let shard1_key = (0..KEYS)
        .map(RegisterId::from_raw)
        .find(|k| k.as_raw() % GROUPS == 1)
        .expect("some key lives in shard 1");
    world.invoke(joiner, OpAction::Read.on_key(shard1_key));
    let read = world
        .key_history(shard1_key)
        .completed_reads()
        .next()
        .expect("the post-join read completes locally");
    assert_eq!(
        format!("{:?}", read.kind),
        "Read { returned: Some(Some(77)) }"
    );
}

/// ES protocol over an eventually synchronous network: churn drains shard
/// 1 below the (shard-sized) join quorum right after the joiner's inquiry;
/// pre-GST the heavy-tailed network keeps starving it, and the space's
/// re-inquiry timer keeps re-firing the full fallback until a post-GST
/// round completes the join.
#[test]
fn es_sharded_join_starved_pre_gst_completes_after_gst() {
    let delta = Span::ticks(3);
    let n = 6;
    let gst = Time::at(30);
    // Shard-sized join quorum: 2 of the ≈3 members of a shard. Reads and
    // write acks would still need the full majority of 4.
    let cfg = EsConfig::new(n).with_join_quorum(2);
    let factory = SpaceOf::new(EsFactory::new(cfg), KEYS)
        .with_shards(ShardConfig::new(GROUPS).with_reinquire_every(delta.times(4)));
    // Pre-GST the network is effectively unusable (every message takes
    // 25–30 ticks), so no pre-GST inquiry round can gather a quorum.
    let pre = Asynchronous::new(Span::ticks(25), 1.2, Span::ticks(30));
    let mut world = World::new(
        factory,
        WorldConfig {
            n,
            initial: 5,
            delay: Box::new(EventuallySynchronous::new(gst, delta, pre)),
            churn: no_churn(n),
            workload: quiet_workload(),
            seed: 3,
            trace: false,
            writer_policy: WriterPolicy::FixedProtected,
            writers: 1,
        },
    );
    // Leaves are applied before joins within a tick: shard 1 is already
    // down to a single member — below the join quorum of two — when the
    // joiner enters and broadcasts its inquiry.
    world.schedule_join(Time::at(2));
    let shard1 = shard_members(n, 1);
    assert!(
        shard1.len() >= 2,
        "need at least two shard-1 members to drain"
    );
    for &id in &shard1[1..] {
        world.schedule_leave(Time::at(2), id);
    }
    world.run_until(Time::at(150));

    let join = world
        .key_history(RegisterId::ZERO)
        .ops()
        .iter()
        .find(|r| matches!(r.kind, OpKind::Join))
        .expect("the scripted join is recorded")
        .clone();
    let completed = join
        .completed_at
        .expect("the join completes once GST restores timeliness");
    assert!(
        completed > gst,
        "completion at {completed} ought to wait out the pre-GST starvation (gst = {gst})"
    );
    let report = SpaceReport::check(world.space_history());
    assert!(report.joins_consistent, "{}", report.summary());
    assert!(report.all_live(), "{}", report.summary());
}

/// Scenario-level sharded runs stay green under churn, and the key-count
/// independence of the physical message count survives sharding (one
/// inquiry, one — smaller — reply per responder).
#[test]
fn sharded_scenarios_under_churn_stay_green_per_key() {
    let report = ScenarioSpec {
        keys: 16,
        shards: 4,
        zipf_exponent: 1.0,
        churn: ChurnChoice::Constant(0.005),
        reads_per_tick: 2.0,
        duration: Span::ticks(180),
        seed: 0xBA1D,
        ..ScenarioSpec::synchronous(60, Span::ticks(3))
    }
    .run();
    assert_eq!(report.keys, 16);
    assert_eq!(report.shards, 4);
    assert!(report.presence.total_arrivals() > 60, "churn ran");
    assert!(report.all_keys_safe(), "{}", report.summary());
    assert!(report.all_keys_live(), "{}", report.summary());
    assert!(
        report.summary().contains("shards=4"),
        "{}",
        report.summary()
    );

    // Per-key message accounting (ROADMAP open item): the keyed counters
    // sum to the space-wide ones and carry per-key latency histograms.
    let total: u64 = (0..16)
        .map(|k| report.key_reads_completed(RegisterId::from_raw(k)))
        .sum();
    assert_eq!(total, report.metrics.counter("ops.read_completed"));
    assert!(total > 0);
    let anchor = RegisterId::from_raw(0);
    assert!(
        report.key_reads_completed(anchor) > 0,
        "Zipf favours the anchor key"
    );
    let lat = report
        .metrics
        .keyed_histogram("latency.read", anchor.as_raw());
    let lat = lat.expect("anchor key read latency");
    assert_eq!(lat.count(), report.key_reads_completed(anchor));
    assert_eq!(lat.max(), Some(0), "sync reads are local at every key");
}

/// The ES protocol multiplexed over sharded joins also stays green under
/// churn (quorum-per-shard joins, majority reads).
#[test]
fn sharded_es_scenario_under_churn_stays_green_per_key() {
    let report = ScenarioSpec {
        keys: 8,
        shards: 2,
        zipf_exponent: 0.8,
        reads_per_tick: 1.5,
        duration: Span::ticks(360),
        seed: 7,
        ..ScenarioSpec::eventually_synchronous(12, Span::ticks(3), Time::ZERO)
            .churn_fraction_of_bound(0.5)
    }
    .run();
    assert_eq!(report.shards, 2);
    assert!(report.all_keys_safe(), "{}", report.summary());
    assert!(report.all_keys_live(), "{}", report.summary());
    assert!(report.total_reads_checked() > 40);
}

/// The feature's core claim, asserted on the wire: a factory-built
/// sharded responder answers a (non-full) inquiry with a reply of
/// exactly `K/G` payload entries — the legacy reply carries all `K` —
/// and a full re-inquiry falls back to the `K`-entry legacy transfer.
#[test]
fn sharded_reply_payload_is_k_over_g_on_the_wire() {
    use dynareg::testkit::SpaceFactory;

    let keys = 16;
    let groups = 4;
    let reply_entries = |factory: &SpaceOf<SyncFactory>, full: bool| -> usize {
        let mut responder = factory.space_bootstrap(NodeId::from_raw(0), 0);
        let effects = responder.on_message(
            Time::at(1),
            NodeId::from_raw(9),
            SpaceMsg::JoinAll {
                inner: SyncMsg::Inquiry,
                full,
            },
        );
        let [SpaceEffect::Send { msg, .. }] = effects.as_slice() else {
            panic!("one physical reply regardless of sharding, got {effects:?}");
        };
        msg.payload_count()
    };

    let sync = SyncFactory::new(SyncConfig::new(Span::ticks(3)));
    let legacy = SpaceOf::new(sync, keys);
    let sharded = SpaceOf::new(sync, keys).with_shards(ShardConfig::new(groups));
    assert_eq!(reply_entries(&legacy, false), keys as usize);
    assert_eq!(
        reply_entries(&sharded, false),
        (keys / groups) as usize,
        "a sharded reply carries exactly K/G entries"
    );
    assert_eq!(
        reply_entries(&sharded, true),
        keys as usize,
        "the full-fallback re-inquiry restores the legacy K-entry transfer"
    );
}

/// Sharding divides the join payload: with `G` groups each responder's
/// batch carries `K/G` entries, so the total payload entries transferred
/// per join drop by ≈ `G` while the message count stays key-independent.
#[test]
fn sharded_replies_shrink_payload_not_message_count() {
    let run = |shards: u32| {
        ScenarioSpec {
            keys: 16,
            shards,
            churn: ChurnChoice::Constant(0.01),
            reads_per_tick: 0.0,
            write_every: Some(Span::ticks(1_000_000)), // joins only
            duration: Span::ticks(120),
            seed: 7,
            ..ScenarioSpec::synchronous(30, Span::ticks(3))
        }
        .run()
    };
    let full = run(1);
    let sharded = run(4);
    assert!(full.presence.total_arrivals() > 45, "churn ran");
    assert_eq!(
        full.presence.total_arrivals(),
        sharded.presence.total_arrivals(),
        "same membership schedule (same seed, same churn draws)"
    );
    // Sharded joins may add the occasional full-fallback round under
    // concurrent joins, but the count stays within a few percent — far
    // from the 4× payload reduction.
    let (a, b) = (full.total_messages as f64, sharded.total_messages as f64);
    assert!(
        (b - a).abs() / a < 0.1,
        "message counts diverged: full={a} sharded={b}"
    );
}
