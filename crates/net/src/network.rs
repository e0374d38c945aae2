//! Reliable unicast and timely broadcast over a delay model.
//!
//! [`Network`] is deliberately *sans-queue*: it computes delivery instants
//! and returns [`Envelope`]s (unicast) or a [`Fanout`] (broadcast); the
//! simulation runtime schedules them on its event queue and re-checks
//! recipient presence at delivery time (a recipient may have left while the
//! message was in flight — the paper's processes "no longer send or receive
//! messages" after leaving).

use dynareg_sim::{DetRng, NodeId, Span, Time};

use crate::delay::DelayModel;
use crate::fault::{DropKind, FaultPlan, FaultVerdict};
use crate::presence::Presence;

/// A message in flight: who, what, when sent, when (tentatively) delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Deterministic message sequence id (see [`Network`]: one per send
    /// attempt, in send order). Lets a delivery be linked back to the
    /// exact send that caused it.
    pub seq: u64,
    /// Sender.
    pub from: NodeId,
    /// Recipient.
    pub to: NodeId,
    /// Instant the message was sent/broadcast.
    pub sent_at: Time,
    /// Instant it arrives (if the recipient is still present then).
    pub deliver_at: Time,
    /// Protocol-level label for tracing and statistics (e.g. `"INQUIRY"`).
    pub label: &'static str,
    /// The payload.
    pub msg: M,
}

/// What became of one send attempt, recorded in the optional message log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendFate {
    /// The copy was scheduled for delivery at the given instant. (Whether
    /// it actually lands also depends on the recipient still being present
    /// then — the runtime owns that check.)
    Scheduled {
        /// The sampled delivery instant.
        deliver_at: Time,
    },
    /// The fault layer swallowed the copy; `kind` is `"partition"` or
    /// `"drop"` and `rule` the plan index, matching
    /// [`Network::fault_drops_by_rule`].
    FaultDropped {
        /// Rule category: `"partition"` or `"drop"`.
        kind: &'static str,
        /// Rule index within its category (plan insertion order).
        rule: usize,
    },
}

/// One entry of the optional per-message fate log
/// ([`Network::enable_msg_log`]): every send attempt — including
/// fault-dropped broadcast copies that never reach a [`Fanout`] snapshot —
/// with its sequence id and fate. The causal-span layer joins this against
/// delivery records to explain wedged operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgRecord {
    /// Deterministic sequence id of the attempt.
    pub seq: u64,
    /// Sender.
    pub from: NodeId,
    /// Recipient of this copy.
    pub to: NodeId,
    /// Protocol-level label.
    pub label: &'static str,
    /// Send instant.
    pub sent_at: Time,
    /// What happened to the copy.
    pub fate: SendFate,
}

/// A broadcast in flight: **one** payload shared by every recipient, plus
/// the per-recipient delivery instants.
///
/// The seed engine materialized a broadcast as `n` cloned [`Envelope`]s up
/// front — O(n) payload clones and allocations on the hottest protocol
/// path (every `INQUIRY`/`WRITE` wave). A `Fanout` is the zero-copy
/// replacement: the payload is stored once, the recipient snapshot carries
/// only `(recipient, deliver_at)` pairs, and the runtime hands every copy
/// a reference to the one payload at delivery time, so a recipient clones
/// only what it keeps of it.
///
/// # Example
///
/// ```
/// use dynareg_net::{Network, Presence};
/// use dynareg_net::delay::Synchronous;
/// use dynareg_sim::{DetRng, NodeId, Span, Time};
///
/// let mut presence = Presence::new();
/// presence.bootstrap((0..3).map(NodeId::from_raw), Time::ZERO);
/// let mut net = Network::new(Box::new(Synchronous::new(Span::ticks(4))), DetRng::seed(7));
///
/// let fan = net.broadcast(&presence, Time::ZERO, NodeId::from_raw(0), "PING", ());
/// assert_eq!(fan.len(), 3); // self-delivery included
/// assert!(fan.recipients.iter().all(|&(_, at, _)| at <= Time::at(4)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fanout<M> {
    /// Sender.
    pub from: NodeId,
    /// Instant of the broadcast.
    pub sent_at: Time,
    /// Protocol-level label for tracing and statistics.
    pub label: &'static str,
    /// The payload, stored exactly once.
    pub msg: M,
    /// The timely-broadcast snapshot: every process present at `sent_at`
    /// (in id order, deterministic) with its sampled delivery instant and
    /// the copy's message sequence id. Fault-dropped copies consumed a
    /// sequence id too but never enter the snapshot.
    pub recipients: Vec<(NodeId, Time, u64)>,
}

impl<M> Fanout<M> {
    /// Number of recipients in the snapshot.
    pub fn len(&self) -> usize {
        self.recipients.len()
    }

    /// Whether the snapshot is empty (an empty system).
    pub fn is_empty(&self) -> bool {
        self.recipients.is_empty()
    }
}

/// The communication substrate: reliable point-to-point channels plus the
/// paper's timely broadcast, parameterized by a [`DelayModel`] and an
/// optional [`FaultPlan`].
///
/// # Message accounting
///
/// All send/drop statistics follow three rules, stated once here:
///
/// * **`sent_by_label` counts one unit per recipient channel actually
///   used**: a unicast [`Network::send_present`] counts 1; a
///   [`Network::broadcast`] counts one per process in its snapshot (so a
///   broadcast into an n-process system adds n).
/// * **`dropped_departed` counts every message abandoned because its
///   target was gone**: the runtime checks presence — at send time for a
///   unicast, at delivery time for every copy — and reports each drop via
///   [`Network::note_dropped_departed`]. A broadcast *sender* that has
///   departed is a protocol bug, not traffic: it panics in debug builds
///   and counts the whole attempt as dropped (without sending) in release
///   builds.
/// * **Fault-induced drops count as sent *and* as dropped**: a message
///   lost to a partition or a probabilistic [`crate::DropRule`] used its
///   channel (the sender paid for it), so `sent_by_label` counts it like
///   any other send — a broadcast still counts one per process in its
///   snapshot even when the fault layer swallows some copies — and the
///   loss is tallied separately under the per-rule fault-drop counters
///   ([`Network::dropped_to_faults`], [`Network::fault_drops_by_rule`]).
///   Probabilistic drops are never silent.
///
/// # Example
///
/// ```
/// use dynareg_net::{Network, Presence};
/// use dynareg_net::delay::Synchronous;
/// use dynareg_sim::{DetRng, NodeId, Span, Time};
///
/// let mut presence = Presence::new();
/// presence.bootstrap((0..3).map(NodeId::from_raw), Time::ZERO);
/// let mut net = Network::new(Box::new(Synchronous::new(Span::ticks(4))), DetRng::seed(7));
///
/// let fan = net.broadcast(&presence, Time::ZERO, NodeId::from_raw(0), "PING", ());
/// assert_eq!(fan.len(), 3); // self-delivery included
/// ```
#[derive(Debug)]
pub struct Network {
    delay: Box<dyn DelayModel>,
    faults: FaultPlan,
    rng: DetRng,
    /// Dedicated stream for fault drop coins, forked from the latency rng
    /// only when the plan can drop messages ([`FaultPlan::has_chaos`]) —
    /// so chaos-free plans leave the latency stream, and therefore the
    /// whole run, byte-identical to a network with no plan at all.
    fault_rng: Option<DetRng>,
    /// Per-label send counters. A handful of protocol labels exist and the
    /// counter is bumped once per message, so a pointer-first linear scan
    /// beats any map on the hot path; [`Network::sent_by_label`] sorts on
    /// read for deterministic reporting.
    sent_by_label: Vec<(&'static str, u64)>,
    dropped_departed: u64,
    /// Fault drops attributed per partition (index = partition order in
    /// the plan).
    dropped_by_partition: Vec<u64>,
    /// Fault drops attributed per probabilistic drop rule.
    dropped_by_drop_rule: Vec<u64>,
    /// Next message sequence id. Bumped once per send attempt (including
    /// fault-dropped copies), in deterministic send order — a plain
    /// counter, outside both rng streams and the event-stream digest.
    next_seq: u64,
    /// Optional per-attempt fate log ([`Network::enable_msg_log`]); `None`
    /// (the default) records nothing and costs one branch per send.
    msg_log: Option<Vec<MsgRecord>>,
    /// The delay model's advertised δ, cached at construction (the boxed
    /// model is behind a vtable; the overrun check runs per message).
    delta_bound: Option<Span>,
    /// Cached GST: overruns are only meaningful once the model claims δ
    /// holds.
    sync_from: Time,
    /// Deliveries whose effective latency (base sample + region matrix +
    /// delay faults) exceeded the advertised δ after GST.
    delta_overruns: u64,
    /// First overrun seen, kept for the diagnostic report:
    /// `(sent_at, from, to, latency)`.
    first_overrun: Option<(Time, NodeId, NodeId, Span)>,
}

impl Network {
    /// A network over the given delay model, drawing latency randomness from
    /// `rng`.
    pub fn new(delay: Box<dyn DelayModel>, rng: DetRng) -> Network {
        let delta_bound = delay.delta();
        let sync_from = delay.synchronous_from();
        Network {
            delay,
            faults: FaultPlan::none(),
            rng,
            fault_rng: None,
            sent_by_label: Vec::new(),
            dropped_departed: 0,
            dropped_by_partition: Vec::new(),
            dropped_by_drop_rule: Vec::new(),
            next_seq: 0,
            msg_log: None,
            delta_bound,
            sync_from,
            delta_overruns: 0,
            first_overrun: None,
        }
    }

    /// Adds `n` sends under `label`. Labels are interned `&'static str`s,
    /// so the common case is a pointer hit on the first few entries.
    #[inline]
    fn bump_label(&mut self, label: &'static str, n: u64) {
        for (l, c) in &mut self.sent_by_label {
            if std::ptr::eq(*l, label) || *l == label {
                *c += n;
                return;
            }
        }
        self.sent_by_label.push((label, n));
    }

    /// Installs a fault plan (replacing any previous one). Plans that can
    /// drop messages get a dedicated coin stream forked off the latency
    /// rng here, once; delay-only (and empty) plans consume nothing, so
    /// installing them is free.
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.fault_rng = if faults.has_chaos() {
            Some(self.rng.fork(0xFA))
        } else {
            None
        };
        self.dropped_by_partition = vec![0; faults.partitions().len()];
        self.dropped_by_drop_rule = vec![0; faults.drops().len()];
        self.faults = faults;
    }

    /// The delay model's advertised bound `δ`, if the synchrony class has
    /// one.
    pub fn delta(&self) -> Option<Span> {
        self.delta_bound
    }

    /// First instant from which the network is synchronous (GST).
    pub fn synchronous_from(&self) -> Time {
        self.sync_from
    }

    /// Samples one message's fate: its delivery instant, or the fault rule
    /// that dropped it (already counted; the attribution is returned so
    /// send sites can log it). The latency rng is always consumed (the
    /// base sample happens before fault resolution), so installing drop
    /// rules never shifts the latency stream of the messages that survive.
    /// Surviving latencies are checked against the advertised δ here —
    /// the one chokepoint every copy passes through — so a region baseline
    /// or delay fault that silently breaks the synchrony assumption is
    /// counted, not ignored.
    fn route(&mut self, now: Time, from: NodeId, to: NodeId) -> SendFate {
        let base = self.delay.sample(now, from, to, &mut self.rng);
        let latency = match self.fault_rng.as_mut().map(|r| r.unit()) {
            None => self.faults.apply(base, now, from, to),
            Some(coin) => match self.faults.evaluate(base, now, from, to, coin) {
                FaultVerdict::Deliver(latency) => latency,
                FaultVerdict::Dropped(DropKind::Partition(i)) => {
                    self.dropped_by_partition[i] += 1;
                    let kind = "partition";
                    return SendFate::FaultDropped { kind, rule: i };
                }
                FaultVerdict::Dropped(DropKind::Random(i)) => {
                    self.dropped_by_drop_rule[i] += 1;
                    let kind = "drop";
                    return SendFate::FaultDropped { kind, rule: i };
                }
            },
        };
        if let Some(delta) = self.delta_bound {
            if latency > delta && now >= self.sync_from {
                if self.delta_overruns == 0 {
                    self.first_overrun = Some((now, from, to, latency));
                }
                self.delta_overruns += 1;
            }
        }
        SendFate::Scheduled {
            deliver_at: now + latency,
        }
    }

    /// Assigns the next message sequence id (one per send attempt).
    #[inline]
    fn assign_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Sends `msg` point-to-point from `from` to `to` at `now`. The caller
    /// attests that both endpoints are present (the runtime knows — it
    /// holds the live-node slab), so no presence lookups happen here.
    /// Returns `None` when the fault layer drops the message in flight
    /// (counted as sent *and* as a fault drop; see *Message accounting* on
    /// [`Network`]).
    pub fn send_present<M>(
        &mut self,
        now: Time,
        from: NodeId,
        to: NodeId,
        label: &'static str,
        msg: M,
    ) -> Option<Envelope<M>> {
        self.bump_label(label, 1);
        let seq = self.assign_seq();
        let deliver_at = self.route_logged(seq, now, from, to, label)?;
        Some(Envelope {
            seq,
            from,
            to,
            sent_at: now,
            deliver_at,
            label,
            msg,
        })
    }

    /// Routes one copy and records its fate in the log (when enabled):
    /// the delivery instant, or `None` when the fault layer drops it.
    #[inline]
    fn route_logged(
        &mut self,
        seq: u64,
        now: Time,
        from: NodeId,
        to: NodeId,
        label: &'static str,
    ) -> Option<Time> {
        let fate = self.route(now, from, to);
        if let Some(log) = self.msg_log.as_mut() {
            log.push(MsgRecord {
                seq,
                from,
                to,
                label,
                sent_at: now,
                fate,
            });
        }
        match fate {
            SendFate::Scheduled { deliver_at } => Some(deliver_at),
            _ => None,
        }
    }

    /// Broadcasts `msg` to **every process in the system at `now`**
    /// (listening and active, including the sender), each copy with its own
    /// sampled latency.
    ///
    /// This is the paper's timely broadcast: under a synchronous model every
    /// copy lands within `δ`; processes entering *after* `now` receive
    /// nothing (the Figure 3(a) hazard). The payload is **not** cloned per
    /// recipient: the returned [`Fanout`] holds it once alongside the
    /// recipient snapshot, and the runtime expands copies at delivery time.
    ///
    /// # Panics
    /// Panics in debug builds if the sender is not present (release builds
    /// count one dropped attempt and return an empty fanout; see *Message
    /// accounting* on [`Network`]).
    pub fn broadcast<M>(
        &mut self,
        presence: &Presence,
        now: Time,
        from: NodeId,
        label: &'static str,
        msg: M,
    ) -> Fanout<M> {
        if !presence.is_present(from) {
            // Sending after leaving is a protocol bug worth failing loudly
            // on; release builds count the abandoned attempt instead.
            debug_assert!(false, "departed sender {from}");
            self.dropped_departed += 1;
            return Fanout {
                from,
                sent_at: now,
                label,
                msg,
                recipients: Vec::new(),
            };
        }
        let mut recipients = Vec::with_capacity(presence.present_count());
        // Id order → deterministic latency sampling. Fault-dropped copies
        // simply never enter the snapshot (the runtime schedules nothing
        // for them), but they still count as sent below — and still burn a
        // sequence id, so the fate log can name exactly which copies of a
        // broadcast were lost.
        for to in presence.present_iter() {
            let seq = self.assign_seq();
            if let Some(deliver_at) = self.route_logged(seq, now, from, to, label) {
                recipients.push((to, deliver_at, seq));
            }
        }
        self.bump_label(label, presence.present_count() as u64);
        Fanout {
            from,
            sent_at: now,
            label,
            msg,
            recipients,
        }
    }

    /// Records one delivery-time drop decided *outside* the network — the
    /// runtime tracks live nodes in its own slab and calls this when an
    /// in-flight message's recipient is gone, keeping `dropped_departed`
    /// accurate without a second membership structure.
    pub fn note_dropped_departed(&mut self) {
        self.dropped_departed += 1;
    }

    /// Messages sent so far, by label (broadcast counts one per recipient;
    /// see *Message accounting* on [`Network`]).
    pub fn sent_by_label(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let mut sorted = self.sent_by_label.clone();
        sorted.sort_unstable_by_key(|&(l, _)| l);
        sorted.into_iter()
    }

    /// Messages sent so far under one label (0 if the label never
    /// appeared) — the cheap point query behind per-tick label gauges.
    pub fn sent_of(&self, label: &str) -> u64 {
        self.sent_by_label
            .iter()
            .find(|&&(l, _)| l == label)
            .map_or(0, |&(_, c)| c)
    }

    /// Total messages sent (all labels).
    pub fn total_sent(&self) -> u64 {
        self.sent_by_label.iter().map(|&(_, v)| v).sum()
    }

    /// Messages abandoned because their target had left (at send or delivery
    /// time).
    pub fn dropped_to_departed(&self) -> u64 {
        self.dropped_departed
    }

    /// Messages dropped by the fault layer (partitions and probabilistic
    /// drop rules), total.
    pub fn dropped_to_faults(&self) -> u64 {
        self.dropped_by_partition.iter().sum::<u64>()
            + self.dropped_by_drop_rule.iter().sum::<u64>()
    }

    /// Fault drops attributed per rule, as `(kind, rule_index, count)`
    /// with kind `"partition"` or `"drop"` — indices follow the plan's
    /// insertion order.
    pub fn fault_drops_by_rule(&self) -> impl Iterator<Item = (&'static str, usize, u64)> + '_ {
        self.dropped_by_partition
            .iter()
            .enumerate()
            .map(|(i, &c)| ("partition", i, c))
            .chain(
                self.dropped_by_drop_rule
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| ("drop", i, c)),
            )
    }

    /// The sequence id the next send attempt will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The sequence id of the most recent send attempt, or `None` before
    /// the first. Lets a caller attribute a unicast whose envelope was
    /// fault-dropped (`send_present` returned `None`) — the attempt still
    /// consumed exactly one id.
    pub fn last_seq(&self) -> Option<u64> {
        self.next_seq.checked_sub(1)
    }

    /// Starts recording a [`MsgRecord`] per send attempt. Off by default;
    /// the log grows with every message, so only diagnostics turn it on.
    pub fn enable_msg_log(&mut self) {
        if self.msg_log.is_none() {
            self.msg_log = Some(Vec::new());
        }
    }

    /// The fate log so far, if enabled.
    pub fn msg_log(&self) -> Option<&[MsgRecord]> {
        self.msg_log.as_deref()
    }

    /// Takes the fate log, leaving recording disabled; empty when it was
    /// never enabled.
    pub fn take_msg_log(&mut self) -> Vec<MsgRecord> {
        self.msg_log.take().unwrap_or_default()
    }

    /// Deliveries whose effective latency exceeded the advertised δ after
    /// the model's GST — each one a silent break of the synchrony
    /// assumption the protocols' timers are derived from. Always counted
    /// (one comparison per delivered message); zero for models without a
    /// bound.
    pub fn delta_overruns(&self) -> u64 {
        self.delta_overruns
    }

    /// The first δ-overrun observed, as `(sent_at, from, to, latency)`.
    pub fn first_delta_overrun(&self) -> Option<(Time, NodeId, NodeId, Span)> {
        self.first_overrun
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::{Fixed, Synchronous};
    use crate::fault::DelayFault;
    use dynareg_sim::Span;

    fn n(i: u64) -> NodeId {
        NodeId::from_raw(i)
    }

    fn three_node_world() -> (Presence, Network) {
        let mut p = Presence::new();
        p.bootstrap([n(0), n(1), n(2)], Time::ZERO);
        let net = Network::new(Box::new(Synchronous::new(Span::ticks(5))), DetRng::seed(1));
        (p, net)
    }

    #[test]
    fn unicast_within_delta() {
        let (_, mut net) = three_node_world();
        for _ in 0..500 {
            let e = net
                .send_present(Time::at(10), n(0), n(1), "X", 42u64)
                .unwrap();
            assert!(e.deliver_at > Time::at(10) && e.deliver_at <= Time::at(15));
            assert_eq!(e.msg, 42);
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "departed sender"))]
    fn departed_sender_panics_in_debug() {
        let (mut p, mut net) = three_node_world();
        p.leave(n(0), Time::at(1));
        let sent = net.broadcast(&p, Time::at(2), n(0), "X", ());
        // Release builds reach here: the attempt is dropped, not sent.
        assert!(sent.is_empty());
        assert_eq!(net.dropped_to_departed(), 1);
        assert_eq!(net.total_sent(), 0);
    }

    #[test]
    fn broadcast_reaches_snapshot_including_self_and_listeners() {
        let (mut p, mut net) = three_node_world();
        p.enter(n(9), Time::at(1)); // listening joiner must receive
        let fan = net.broadcast(&p, Time::at(2), n(0), "WRITE", 7u64);
        let tos: Vec<NodeId> = fan.recipients.iter().map(|&(to, _, _)| to).collect();
        assert_eq!(tos, vec![n(0), n(1), n(2), n(9)], "snapshot in id order");
        assert_eq!(fan.len(), 4);
        assert_eq!((fan.msg, fan.label, fan.from), (7, "WRITE", n(0)));
    }

    #[test]
    fn broadcast_misses_later_arrivals() {
        let (mut p, mut net) = three_node_world();
        let fan = net.broadcast(&p, Time::at(2), n(0), "WRITE", ());
        p.enter(n(9), Time::at(3)); // enters after the broadcast
        assert!(fan.recipients.iter().all(|&(to, _, _)| to != n(9)));
    }

    #[test]
    fn delivery_drops_decided_by_the_runtime_are_counted() {
        let (_p, mut net) = three_node_world();
        net.note_dropped_departed();
        net.note_dropped_departed();
        assert_eq!(net.dropped_to_departed(), 2);
    }

    #[test]
    fn label_statistics_count_per_recipient() {
        let (p, mut net) = three_node_world();
        net.broadcast(&p, Time::ZERO, n(0), "INQUIRY", ());
        net.send_present(Time::ZERO, n(1), n(0), "REPLY", ())
            .unwrap();
        let stats: std::collections::BTreeMap<_, _> = net.sent_by_label().collect();
        assert_eq!(stats["INQUIRY"], 3);
        assert_eq!(stats["REPLY"], 1);
        assert_eq!(net.total_sent(), 4);
    }

    #[test]
    fn faults_stretch_targeted_messages() {
        let mut net = Network::new(Box::new(Fixed::new(Span::ticks(2))), DetRng::seed(3));
        net.set_faults(FaultPlan::none().with(DelayFault::starve_recipient(
            n(1),
            Time::ZERO,
            Time::MAX,
            Span::ticks(500),
        )));
        let slow = net.send_present(Time::ZERO, n(0), n(1), "X", ()).unwrap();
        let fast = net.send_present(Time::ZERO, n(1), n(0), "X", ()).unwrap();
        assert_eq!(slow.deliver_at, Time::at(500));
        assert_eq!(fast.deliver_at, Time::at(2));
    }

    #[test]
    fn partition_drops_cross_cut_and_counts() {
        use crate::fault::Partition;
        let (_, mut net) = three_node_world();
        net.set_faults(
            FaultPlan::none().with_partition(Partition::even_odd(Time::ZERO, Time::at(50))),
        );
        // 0 → 1 crosses the even/odd cut: dropped but counted as sent.
        assert!(net.send_present(Time::at(1), n(0), n(1), "X", ()).is_none());
        // 0 → 2 stays on the even side: delivered.
        assert!(net.send_present(Time::at(1), n(0), n(2), "X", ()).is_some());
        // After the heal everything flows.
        assert!(net
            .send_present(Time::at(50), n(0), n(1), "X", ())
            .is_some());
        assert_eq!(net.dropped_to_faults(), 1);
        assert_eq!(net.total_sent(), 3, "fault drops still count as sent");
        assert_eq!(net.dropped_to_departed(), 0);
        let by_rule: Vec<_> = net.fault_drops_by_rule().collect();
        assert_eq!(by_rule, vec![("partition", 0, 1)]);
    }

    #[test]
    fn broadcast_under_partition_reaches_own_side_only() {
        use crate::fault::Partition;
        let (p, mut net) = three_node_world();
        net.set_faults(
            FaultPlan::none().with_partition(Partition::even_odd(Time::ZERO, Time::MAX)),
        );
        let fan = net.broadcast(&p, Time::at(1), n(0), "WRITE", ());
        let tos: Vec<NodeId> = fan.recipients.iter().map(|&(to, _, _)| to).collect();
        assert_eq!(tos, vec![n(0), n(2)], "odd side never hears the write");
        assert_eq!(net.dropped_to_faults(), 1);
        let stats: std::collections::BTreeMap<_, _> = net.sent_by_label().collect();
        assert_eq!(stats["WRITE"], 3, "the snapshot size counts as sent");
    }

    #[test]
    fn probabilistic_drops_are_seeded_and_counted() {
        use crate::fault::DropRule;
        let run = |seed| {
            let mut net = Network::new(Box::new(Fixed::new(Span::ticks(2))), DetRng::seed(seed));
            net.set_faults(FaultPlan::none().with_drop(DropRule::lossy_everything(
                Time::ZERO,
                Time::MAX,
                0.5,
            )));
            let mut fates = Vec::new();
            for t in 0..200 {
                fates.push(net.send_present(Time::at(t), n(0), n(1), "X", ()).is_some());
            }
            (fates, net.dropped_to_faults())
        };
        let (fates_a, drops_a) = run(7);
        let (fates_b, drops_b) = run(7);
        assert_eq!(fates_a, fates_b, "same seed, same drop decisions");
        assert!(
            drops_a > 50 && drops_a < 150,
            "roughly half drop: {drops_a}"
        );
        assert_eq!(drops_a, drops_b);
        let (fates_c, _) = run(8);
        assert_ne!(fates_a, fates_c, "different seed, different coins");
    }

    #[test]
    fn delay_only_plans_leave_latency_stream_untouched() {
        // A delay-only plan must not consume coins: the surviving latency
        // stream is identical to the no-plan network's.
        let (_, mut plain) = three_node_world();
        let mut faulted = Network::new(Box::new(Synchronous::new(Span::ticks(5))), DetRng::seed(1));
        faulted.set_faults(FaultPlan::none().with(DelayFault::slow_everything(
            Time::at(1000),
            Time::at(2000),
            Span::ticks(9),
        )));
        for t in 0..100 {
            let a = plain
                .send_present(Time::at(t), n(0), n(1), "X", ())
                .unwrap();
            let b = faulted
                .send_present(Time::at(t), n(0), n(1), "X", ())
                .unwrap();
            assert_eq!(a.deliver_at, b.deliver_at);
        }
    }

    #[test]
    fn same_seed_same_latencies() {
        let (p, mut net1) = three_node_world();
        let mut net2 = Network::new(Box::new(Synchronous::new(Span::ticks(5))), DetRng::seed(1));
        let a = net1.broadcast(&p, Time::ZERO, n(0), "X", ());
        let b = net2.broadcast(&p, Time::ZERO, n(0), "X", ());
        assert_eq!(a, b);
    }

    #[test]
    fn sequence_ids_count_every_attempt_including_dropped_copies() {
        use crate::fault::Partition;
        let (p, mut net) = three_node_world();
        assert_eq!(net.last_seq(), None);
        net.set_faults(
            FaultPlan::none().with_partition(Partition::even_odd(Time::ZERO, Time::MAX)),
        );
        // Broadcast into 3 nodes: copies 0,1,2. The cross-cut copy to n(1)
        // is dropped but still consumes seq 1.
        let fan = net.broadcast(&p, Time::at(1), n(0), "WRITE", ());
        let seqs: Vec<u64> = fan.recipients.iter().map(|&(_, _, s)| s).collect();
        assert_eq!(seqs, vec![0, 2], "dropped copy burned seq 1");
        assert_eq!(net.next_seq(), 3);
        // A fault-dropped unicast still advances the counter.
        assert!(net.send_present(Time::at(2), n(0), n(1), "X", ()).is_none());
        assert_eq!(net.last_seq(), Some(3));
        let env = net.send_present(Time::at(2), n(0), n(2), "X", ()).unwrap();
        assert_eq!(env.seq, 4);
    }

    #[test]
    fn msg_log_records_fates_per_attempt() {
        use crate::fault::Partition;
        let (p, mut net) = three_node_world();
        net.enable_msg_log();
        net.set_faults(
            FaultPlan::none().with_partition(Partition::even_odd(Time::ZERO, Time::MAX)),
        );
        net.broadcast(&p, Time::at(1), n(0), "INQUIRY", ());
        let log = net.msg_log().unwrap();
        assert_eq!(log.len(), 3, "one record per copy, dropped included");
        assert_eq!(log[0].seq, 0);
        assert!(matches!(log[0].fate, SendFate::Scheduled { .. }));
        assert_eq!(log[1].to, n(1));
        assert_eq!(
            log[1].fate,
            SendFate::FaultDropped {
                kind: "partition",
                rule: 0
            }
        );
        assert!(log.iter().all(|r| r.label == "INQUIRY" && r.from == n(0)));
        let taken = net.take_msg_log();
        assert_eq!(taken.len(), 3);
        assert!(net.msg_log().is_none(), "taking the log disables it");
    }

    #[test]
    fn delta_overruns_count_post_gst_breaches_only() {
        use crate::delay::{Asynchronous, EventuallySynchronous};
        // δ=2 advertised from GST=100; stretch every delivery to 500 ticks.
        let pre = Asynchronous::new(Span::ticks(1), 0.5, Span::ticks(10));
        let mut net = Network::new(
            Box::new(EventuallySynchronous::new(
                Time::at(100),
                Span::ticks(2),
                pre,
            )),
            DetRng::seed(3),
        );
        net.set_faults(FaultPlan::none().with(DelayFault::slow_everything(
            Time::ZERO,
            Time::MAX,
            Span::ticks(500),
        )));
        net.send_present(Time::at(1), n(0), n(1), "X", ()).unwrap();
        assert_eq!(net.delta_overruns(), 0, "pre-GST latency is fair game");
        net.send_present(Time::at(150), n(0), n(1), "X", ())
            .unwrap();
        net.send_present(Time::at(151), n(0), n(1), "X", ())
            .unwrap();
        assert_eq!(net.delta_overruns(), 2);
        let (at, from, to, latency) = net.first_delta_overrun().unwrap();
        assert_eq!((at, from, to), (Time::at(150), n(0), n(1)));
        assert!(latency > Span::ticks(2));
    }

    #[test]
    fn clean_synchronous_traffic_never_overruns() {
        let (p, mut net) = three_node_world();
        for t in 0..200 {
            net.send_present(Time::at(t), n(0), n(1), "X", ()).unwrap();
        }
        net.broadcast(&p, Time::at(200), n(0), "WRITE", ());
        assert_eq!(net.delta_overruns(), 0);
        assert!(net.first_delta_overrun().is_none());
    }
}
