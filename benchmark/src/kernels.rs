//! Layer kernels: each drives **one** crate's public API alone, with the
//! shape `(n, δ, K, counts)` the workload just produced, and reports a
//! cost per unit of that layer's work.
//!
//! Kernels run cache-warm and back to back, so `count × kernel ns` is an
//! estimate of a layer's share of `World::run_until`, not a measurement of
//! it; the tick-profile repeat is the in-situ cross-check. Counts are
//! capped so that every kernel finishes in a fraction of a second.

use std::hint::black_box;
use std::time::Instant;

use dynareg_churn::ChurnDriver;
use dynareg_core::es::{EsConfig, EsMsg, EsRegister, Timestamp};
use dynareg_core::space::{
    RegisterSpace, RegisterSpaceProcess, ShardConfig, SpaceEffect, SpaceMsg,
};
use dynareg_core::sync::{SyncConfig, SyncMsg, SyncRegister};
use dynareg_core::{Effect, RegisterProcess};
use dynareg_net::delay::Synchronous;
use dynareg_net::{Network, Presence};
use dynareg_sim::{DetRng, EventQueue, IdSource, NodeId, OpId, RegisterId, Span, Time};

use crate::harness::WorldRepeat;
use crate::trace::Recorder;
use crate::workloads::{Protocol, StopAfter, WorldPlan};

/// Largest number of unit operations any kernel performs.
const CAP: u64 = 2_000_000;

/// Cost per unit of each layer's work, in nanoseconds (0 = the layer's
/// path is not on this workload).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelCosts {
    /// `EventQueue::schedule_class` + `pop`, per event.
    pub queue_ns_per_event: f64,
    /// `Network::broadcast`, per recipient.
    pub broadcast_ns_per_recipient: f64,
    /// `Network::send_present` with the workload's `FaultPlan`, per message.
    pub send_ns_per_msg: f64,
    /// `Presence::{enter, activate, leave}`, per change.
    pub presence_ns_per_change: f64,
    /// `ChurnDriver::step`, per tick.
    pub churn_step_ns_per_tick: f64,
    /// `SyncRegister::on_message_into`, per `WRITE` delivery.
    pub sync_step_ns: f64,
    /// `EsRegister` read round, per message handled.
    pub es_step_ns: f64,
    /// `RegisterSpace` join handshake (responder answers `JoinAll`, joiner
    /// absorbs the `Batch`), per batch entry.
    pub space_batch_ns_per_entry: f64,
    /// `RegisterSpace` delivering one `SpaceMsg::Keyed` write.
    pub space_keyed_ns: f64,
}

fn ids(range: std::ops::Range<u64>) -> impl Iterator<Item = NodeId> {
    range.map(NodeId::from_raw)
}

fn per_unit(secs: f64, units: u64) -> f64 {
    secs * 1e9 / units.max(1) as f64
}

/// Runs every kernel for `plan`, sized by what `run` observed.
pub fn run_kernels(plan: &WorldPlan, run: &WorldRepeat, rec: &mut Recorder) -> KernelCosts {
    let mut k = KernelCosts {
        queue_ns_per_event: queue(plan, run.events, rec),
        broadcast_ns_per_recipient: broadcast(plan, run.broadcast_copies, rec),
        send_ns_per_msg: send(plan, run.unicast_msgs, rec),
        presence_ns_per_change: presence(plan, run.joins, rec),
        churn_step_ns_per_tick: churn_step(plan, rec),
        sync_step_ns: sync_step(plan, run.write_copies, rec),
        ..KernelCosts::default()
    };
    if plan.protocol == Protocol::Es {
        k.es_step_ns = es_step(plan, run.msgs_sent, rec);
    }
    if plan.keys > 1 {
        k.space_batch_ns_per_entry = space_batch(plan, run.batch_replies, rec);
        k.space_keyed_ns = space_keyed(plan, run.write_copies, rec);
    }
    k
}

/// `n`-wide waves: schedule `n` deliveries at offsets in `[1, δ]`, pop `n`.
fn queue(plan: &WorldPlan, events: u64, rec: &mut Recorder) -> f64 {
    let total = events.min(CAP);
    let n = plan.n as u64;
    let (done, secs) = rec.span("sim", "kernel: EventQueue schedule_class+pop", |_| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut done = 0u64;
        while done < total {
            let now = q.now();
            for i in 0..n {
                q.schedule_class(now + Span::ticks(1 + i % plan.delta), 0, i);
            }
            for _ in 0..n {
                black_box(q.pop());
            }
            done += n;
        }
        done
    });
    per_unit(secs, done)
}

fn network(plan: &WorldPlan) -> (Network, Presence) {
    let mut presence = Presence::new();
    presence.bootstrap(ids(0..plan.n as u64), Time::ZERO);
    let mut net = Network::new(
        Box::new(Synchronous::new(Span::ticks(plan.delta))),
        DetRng::seed(plan.seed),
    );
    if !plan.fault_free() {
        net.set_faults(plan.faults.clone());
    }
    (net, presence)
}

/// Mid-run instant: inside the loss window of a lossy plan, so the fault
/// coin is paid where the real run pays it.
fn midrun(plan: &WorldPlan) -> Time {
    Time::at(plan.ticks / 2)
}

fn broadcast(plan: &WorldPlan, copies: u64, rec: &mut Recorder) -> f64 {
    let n = plan.n as u64;
    let rounds = (copies.min(CAP) / n).max(1);
    let (mut net, presence) = network(plan);
    let now = midrun(plan);
    let ((), secs) = rec.span("net", "kernel: Network::broadcast", |_| {
        for r in 0..rounds {
            black_box(net.broadcast(&presence, now, NodeId::from_raw(r % n), "WRITE", r));
        }
    });
    per_unit(secs, rounds * n)
}

fn send(plan: &WorldPlan, msgs: u64, rec: &mut Recorder) -> f64 {
    let n = plan.n as u64;
    let total = msgs.clamp(1, CAP);
    let (mut net, _presence) = network(plan);
    let now = midrun(plan);
    // `send_present` is the unicast entry point the world uses (it holds
    // the live-node slab, so `send`'s two presence lookups never run).
    let ((), secs) = rec.span("net", "kernel: Network::send_present", |_| {
        for i in 0..total {
            let from = NodeId::from_raw(i % n);
            let to = NodeId::from_raw((i * 7 + 1) % n);
            black_box(net.send_present(now, from, to, "REPLY", i));
        }
    });
    per_unit(secs, total)
}

/// One churn refresh is three presence changes: a leave, an enter and the
/// joiner's later activation.
fn presence(plan: &WorldPlan, joins: u64, rec: &mut Recorder) -> f64 {
    let n = plan.n as u64;
    let refreshes = joins.clamp(1, CAP / 20);
    let mut presence = Presence::new();
    presence.bootstrap(ids(0..n), Time::ZERO);
    let ((), secs) = rec.span("net", "kernel: Presence enter+activate+leave", |_| {
        for i in 0..refreshes {
            let t = Time::at(1 + i);
            presence.leave(NodeId::from_raw(i), t);
            presence.enter(NodeId::from_raw(n + i), t);
            presence.activate(NodeId::from_raw(n + i), t);
        }
        black_box(presence.active_count());
    });
    per_unit(secs, refreshes * 3)
}

/// Only the `step` calls are timed; applying each step to the presence
/// table (so the population stays what the driver expects) is not.
fn churn_step(plan: &WorldPlan, rec: &mut Recorder) -> f64 {
    let n = plan.n as u64;
    let ticks = plan.ticks.min(5_000);
    let mut presence = Presence::new();
    presence.bootstrap(ids(0..n), Time::ZERO);
    let mut driver = ChurnDriver::new(
        Box::new(StopAfter::new(plan.churn_rate, plan.stop_at())),
        plan.selector,
        IdSource::starting_at(n),
    );
    for w in 0..plan.writers as u64 {
        driver.protect(NodeId::from_raw(w));
    }
    let mut rng = DetRng::seed(plan.seed).fork(2);
    let (in_step, _) = rec.span("churn", "kernel: ChurnDriver::step", |_| {
        let mut in_step = 0.0;
        for tick in 1..=ticks {
            let now = Time::at(tick);
            let t0 = Instant::now();
            let step = driver.step(&presence, now, &mut rng);
            in_step += t0.elapsed().as_secs_f64();
            for victim in step.leaves {
                presence.leave(victim, now);
            }
            for id in step.joins {
                presence.enter(id, now);
                presence.activate(id, now);
            }
        }
        black_box((driver.total_joins(), driver.total_leaves()));
        in_step
    });
    per_unit(in_step, ticks)
}

fn sync_step(plan: &WorldPlan, deliveries: u64, rec: &mut Recorder) -> f64 {
    let total = deliveries.clamp(1, CAP);
    let mut reg = SyncRegister::new_bootstrap(
        NodeId::from_raw(1),
        SyncConfig::new(Span::ticks(plan.delta)),
        0u64,
    );
    let mut out = Vec::new();
    let ((), secs) = rec.span("core", "kernel: SyncRegister::on_message_into", |_| {
        for sn in 1..=total {
            let msg = SyncMsg::Write {
                value: sn,
                sn: sn as i64,
            };
            reg.on_message_into(Time::at(sn), NodeId::from_raw(0), msg, &mut out);
            black_box(&out);
            out.clear();
        }
    });
    per_unit(secs, total)
}

/// A read round as the reader sees it: `on_read`, then a majority of
/// replies. Cost is per message handled (the `on_read` call counts as one).
fn es_step(plan: &WorldPlan, msgs: u64, rec: &mut Recorder) -> f64 {
    let cfg = EsConfig::new(plan.n);
    let quorum = cfg.quorum() as u64;
    let rounds = (msgs.min(CAP) / (quorum + 1)).max(1);
    let mut reg = EsRegister::new_bootstrap(NodeId::from_raw(0), cfg, 0u64);
    let mut out = Vec::new();
    let ((), secs) = rec.span("core", "kernel: EsRegister read round", |_| {
        for round in 1..=rounds {
            let now = Time::at(round);
            let started = reg.on_read(now, OpId::from_raw(round));
            let Some(Effect::Broadcast {
                msg: EsMsg::Read { r_sn },
            }) = started.first()
            else {
                panic!("an ES read starts by broadcasting READ");
            };
            for from in 1..=quorum {
                let reply = EsMsg::Reply {
                    value: Some(round),
                    ts: Timestamp::INITIAL,
                    r_sn: *r_sn,
                };
                reg.on_message_into(now, NodeId::from_raw(from), reply, &mut out);
            }
            black_box(&out);
            out.clear();
        }
    });
    per_unit(secs, rounds * (quorum + 1))
}

type SyncSpace = RegisterSpace<SyncRegister<u64>>;

fn sync_space(plan: &WorldPlan, id: NodeId, joiner: bool) -> SyncSpace {
    let cfg = SyncConfig::new(Span::ticks(plan.delta));
    let shards = ShardConfig::new(1).with_reinquire_every(Span::ticks(plan.delta * 4));
    let regs = (0..plan.keys)
        .map(|_| {
            if joiner {
                SyncRegister::new_joiner(id, cfg, OpId::from_raw(0))
            } else {
                SyncRegister::new_bootstrap(id, cfg, 0u64)
            }
        })
        .collect();
    if joiner {
        RegisterSpace::new_joiner(regs).with_shards(shards)
    } else {
        RegisterSpace::new_bootstrap(regs).with_shards(shards)
    }
}

/// Drives a fresh joiner up to its inquiry broadcast by firing the timers
/// it sets (the synchronous join waits `δ` before inquiring).
fn joiner_at_inquiry(plan: &WorldPlan, id: NodeId) -> SyncSpace {
    let mut joiner = sync_space(plan, id, true);
    let mut effects = joiner.on_enter(Time::ZERO);
    for _ in 0..4 {
        if effects
            .iter()
            .any(|e| matches!(e, SpaceEffect::Broadcast { .. }))
        {
            return joiner;
        }
        let Some(SpaceEffect::SetTimer { delay, tag }) = effects
            .iter()
            .find(|e| matches!(e, SpaceEffect::SetTimer { .. }))
        else {
            break;
        };
        effects = joiner.on_timer(Time::ZERO + *delay, *tag);
    }
    panic!("a joining space broadcasts its inquiry after its waits");
}

/// The keyed join handshake, both halves: a bootstrap responder answers
/// the joiner's `JoinAll` with a `K`-entry `Batch`, the joiner absorbs it.
fn space_batch(plan: &WorldPlan, batches: u64, rec: &mut Recorder) -> f64 {
    let total = batches.clamp(1, CAP / (4 * u64::from(plan.keys)));
    let responders = (plan.n as u64 - 1).min(total);
    let joiner_id = NodeId::from_raw(plan.n as u64);
    let mut responder = sync_space(plan, NodeId::from_raw(0), false);
    let inquiry = SpaceMsg::JoinAll {
        inner: SyncMsg::Inquiry,
        full: false,
    };
    let mut out = Vec::new();
    let (entries, secs) = rec.span("core", "kernel: RegisterSpace JoinAll+Batch", |_| {
        let mut entries = 0u64;
        let mut done = 0u64;
        while done < total {
            let mut joiner = joiner_at_inquiry(plan, joiner_id);
            let now = Time::at(plan.delta * 2);
            for from in 0..responders {
                responder.on_message_into(now, joiner_id, inquiry.clone(), &mut out);
                let Some(SpaceEffect::Send { msg: batch, .. }) = out.pop() else {
                    panic!("an active responder answers a join inquiry");
                };
                out.clear();
                entries += batch.payload_count() as u64;
                joiner.on_message_into(now, NodeId::from_raw(from), batch, &mut out);
                out.clear();
            }
            black_box(&joiner);
            done += responders;
        }
        entries
    });
    per_unit(secs, entries)
}

fn space_keyed(plan: &WorldPlan, deliveries: u64, rec: &mut Recorder) -> f64 {
    let total = deliveries.clamp(1, CAP);
    let mut space = sync_space(plan, NodeId::from_raw(1), false);
    let mut out = Vec::new();
    let ((), secs) = rec.span("core", "kernel: RegisterSpace Keyed write", |_| {
        for sn in 1..=total {
            let msg = SpaceMsg::Keyed {
                key: RegisterId::from_raw((sn % u64::from(plan.keys)) as u32),
                inner: SyncMsg::Write {
                    value: sn,
                    sn: sn as i64,
                },
            };
            space.on_message_into(Time::at(sn), NodeId::from_raw(0), msg, &mut out);
            black_box(&out);
            out.clear();
        }
    });
    per_unit(secs, total)
}
