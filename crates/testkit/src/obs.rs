//! Causal op spans, message fates, and the `why_stuck` query.
//!
//! The observability layer the [`crate::World`] feeds when an
//! [`ObsConfig`] is installed via `World::set_obs`:
//!
//! * every client operation (join / read / write) gets an [`OpSpan`]
//!   recording its phase transitions — invoked → inquiry sent → quorum
//!   progress → timer re-fires → completed (or stuck);
//! * every message carries the network's deterministic sequence id, each
//!   `Deliver` is linked to the `Send` that caused it, and messages a
//!   handler sends *while processing a delivery* inherit that delivery's
//!   operation attribution — so a joiner's `INQUIRY`, the responders'
//!   `REPLY`s, and any re-inquiries all land in the same causal set;
//! * [`ObsReport::why_stuck`] joins the two: for a wedged operation it
//!   returns the span plus every message of its causal set that never
//!   arrived, with the fault rule that swallowed each one.
//!
//! Everything here is bookkeeping over values the run already computes:
//! no randomness is consumed and no event is reordered, so an instrumented
//! run is digest-identical to an uninstrumented one (the zero-cost claim
//! CI gates with a byte-compare).

use std::fmt;

use dynareg_net::{MsgRecord, SendFate};
use dynareg_sim::obs::{TickProfile, Timeseries};
use dynareg_sim::{LookupMap, NodeId, OpId, RegisterId, Time};

pub use dynareg_sim::obs::ObsConfig;

/// A phase transition inside an operation's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpPhase {
    /// The client invoked the operation.
    Invoked,
    /// The operation's first protocol message went out (the inquiry /
    /// write wave).
    Sent,
    /// The first message of the operation's causal set arrived back at
    /// the invoking node (quorum progress; subsequent arrivals bump
    /// [`OpSpan::deliveries`] without new phase events).
    Progress,
    /// A protocol timer re-fired for this operation and sent again (e.g.
    /// a sharded join's `INQUIRY_FULL` re-inquiry round).
    Refire,
    /// The space layer re-broadcast the join inquiry after a silence
    /// window (loss-tolerant bounded retransmission; `docs/PROTOCOL.md`).
    Retransmit,
    /// The operation returned to the client.
    Completed,
}

impl fmt::Display for OpPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpPhase::Invoked => "invoked",
            OpPhase::Sent => "sent",
            OpPhase::Progress => "progress",
            OpPhase::Refire => "re-fire",
            OpPhase::Retransmit => "retransmit",
            OpPhase::Completed => "completed",
        };
        f.write_str(s)
    }
}

/// One timestamped phase transition, with the message label that marked
/// it (empty for phases without one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseEvent {
    /// When the transition happened.
    pub at: Time,
    /// Which transition.
    pub phase: OpPhase,
    /// The protocol label involved (`""` for `Invoked`/`Completed`).
    pub label: &'static str,
}

/// The causal span of one client operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpSpan {
    /// The register the operation addresses (joins anchor at `r0`).
    pub key: RegisterId,
    /// The operation id (links to the history).
    pub op: OpId,
    /// The invoking node.
    pub node: NodeId,
    /// `"join"`, `"read"` or `"write"`.
    pub label: &'static str,
    /// Invocation instant.
    pub invoked_at: Time,
    /// Completion instant, `None` while (or forever if) the op is wedged.
    pub completed_at: Option<Time>,
    /// Phase transitions in order.
    pub phases: Vec<PhaseEvent>,
    /// Messages of this op's causal set delivered back to the invoking
    /// node (the quorum-progress count).
    pub deliveries: u64,
    /// Timer re-fire rounds observed.
    pub refires: u64,
}

impl OpSpan {
    /// Whether the operation never completed.
    pub fn is_stuck(&self) -> bool {
        self.completed_at.is_none()
    }
}

/// The final fate of one sent message copy, after joining the network's
/// send log with the runtime's delivery record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgFate {
    /// Delivered to its recipient.
    Delivered {
        /// Delivery instant.
        at: Time,
    },
    /// Swallowed in flight by the fault layer.
    FaultDropped {
        /// `"partition"` or `"drop"`.
        kind: &'static str,
        /// Rule index within its category.
        rule: usize,
    },
    /// Dropped at delivery time because the recipient had departed.
    DroppedDeparted {
        /// The (non-)delivery instant.
        at: Time,
    },
    /// Still scheduled when the run ended.
    InFlight,
}

impl MsgFate {
    /// Whether the copy reached its recipient.
    pub fn delivered(&self) -> bool {
        matches!(self, MsgFate::Delivered { .. })
    }
}

impl fmt::Display for MsgFate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsgFate::Delivered { at } => write!(f, "delivered {at}"),
            MsgFate::FaultDropped { kind, rule } => write!(f, "fault-dropped ({kind}[{rule}])"),
            MsgFate::DroppedDeparted { at } => write!(f, "recipient departed ({at})"),
            MsgFate::InFlight => write!(f, "still in flight at run end"),
        }
    }
}

/// One message copy with its causal links resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgInfo {
    /// Deterministic sequence id.
    pub seq: u64,
    /// Sender.
    pub from: NodeId,
    /// Recipient.
    pub to: NodeId,
    /// Protocol label.
    pub label: &'static str,
    /// Send instant.
    pub sent_at: Time,
    /// What became of the copy.
    pub fate: MsgFate,
    /// The sequence id of the delivery that caused this send, if it was
    /// sent from inside a message handler.
    pub parent: Option<u64>,
    /// The client operation this copy's causal chain serves, if known.
    pub op: Option<(RegisterId, OpId)>,
}

/// The answer to "why is this operation stuck?": its span plus every
/// message of its causal set that never arrived.
#[derive(Debug, Clone)]
pub struct WhyStuck {
    /// The wedged operation's span.
    pub span: OpSpan,
    /// Messages of the op's causal set that were never delivered, in send
    /// order.
    pub lost: Vec<MsgInfo>,
    /// Messages of the causal set that *were* delivered.
    pub delivered: u64,
}

impl fmt::Display for WhyStuck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "stuck {} {} on {} (key {}), invoked {}: {} deliveries, {} re-fire(s), {} message(s) lost",
            self.span.label,
            self.span.op,
            self.span.node,
            self.span.key,
            self.span.invoked_at,
            self.delivered,
            self.span.refires,
            self.lost.len(),
        )?;
        for p in &self.span.phases {
            if p.label.is_empty() {
                writeln!(f, "  [{}] {}", p.at, p.phase)?;
            } else {
                writeln!(f, "  [{}] {} {}", p.at, p.phase, p.label)?;
            }
        }
        for m in &self.lost {
            writeln!(
                f,
                "  lost seq {}: {} {} -> {} sent {} — {}",
                m.seq, m.label, m.from, m.to, m.sent_at, m.fate
            )?;
        }
        Ok(())
    }
}

/// Schema tag of the flight-recorder dump.
pub const FLIGHT_SCHEMA: &str = "dynareg-flight/1";

/// Everything the observability layer collected over one run.
#[derive(Debug, Default)]
pub struct ObsReport {
    /// One span per tracked client operation, in invocation order.
    pub spans: Vec<OpSpan>,
    /// Every message copy sent, with resolved fates and causal links, in
    /// sequence order. Empty unless spans were enabled.
    pub msgs: Vec<MsgInfo>,
    /// The per-tick gauge timeseries, if recording was enabled.
    pub timeseries: Option<Timeseries>,
    /// Wall-clock accounting per tick phase, if profiling was enabled.
    pub tick_profile: Option<TickProfile>,
}

impl ObsReport {
    /// The span of `(key, op)`, if tracked.
    pub fn span(&self, key: RegisterId, op: OpId) -> Option<&OpSpan> {
        self.spans.iter().find(|s| s.key == key && s.op == op)
    }

    /// Spans that never completed, in invocation order.
    pub fn stuck_spans(&self) -> impl Iterator<Item = &OpSpan> {
        self.spans.iter().filter(|s| s.is_stuck())
    }

    /// Explains one wedged operation: the first stuck span carrying `op`
    /// (any key), with the undelivered messages of its causal set.
    pub fn why_stuck(&self, op: OpId) -> Option<WhyStuck> {
        let span = self.spans.iter().find(|s| s.op == op && s.is_stuck())?;
        Some(self.explain(span))
    }

    /// Explains every wedged operation, in invocation order.
    pub fn why_stuck_all(&self) -> Vec<WhyStuck> {
        self.stuck_spans().map(|s| self.explain(s)).collect()
    }

    fn explain(&self, span: &OpSpan) -> WhyStuck {
        let target = Some((span.key, span.op));
        let mut lost = Vec::new();
        let mut delivered = 0u64;
        for m in &self.msgs {
            if m.op != target {
                continue;
            }
            if m.fate.delivered() {
                delivered += 1;
            } else {
                lost.push(*m);
            }
        }
        WhyStuck {
            span: span.clone(),
            lost,
            delivered,
        }
    }

    /// Renders the flight-recorder dump: a JSONL artifact holding the
    /// retained tail of the trace ring plus one `why_stuck` chain per
    /// wedged operation. `trace` is the run's (ring-buffered) trace log.
    pub fn flight_dump(&self, trace: &dynareg_sim::trace::TraceLog) -> String {
        let chains = self.why_stuck_all();
        let mut out = format!(
            "{{\"schema\":\"{FLIGHT_SCHEMA}\",\"retained\":{},\"evicted\":{},\"stuck_spans\":{}}}\n",
            trace.len(),
            trace.dropped(),
            chains.len(),
        );
        for e in trace.entries() {
            out.push_str(&format!(
                "{{\"t\":{},\"line\":\"{}\"}}\n",
                e.time.ticks(),
                json_escape(&e.to_string()),
            ));
        }
        for c in &chains {
            let lost_seqs: Vec<String> = c.lost.iter().map(|m| m.seq.to_string()).collect();
            out.push_str(&format!(
                "{{\"why_stuck\":{{\"op\":{},\"node\":{},\"key\":{},\"label\":\"{}\",\"invoked_at\":{},\"deliveries\":{},\"refires\":{},\"lost_seqs\":[{}],\"chain\":\"{}\"}}}}\n",
                c.span.op.as_raw(),
                c.span.node.as_raw(),
                c.span.key.as_raw(),
                c.span.label,
                c.span.invoked_at.ticks(),
                c.delivered,
                c.span.refires,
                lost_seqs.join(","),
                json_escape(&c.to_string()),
            ));
        }
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// What the world is currently dispatching — the causal context a sent
/// message inherits its operation attribution (and parent link) from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cause {
    /// Nothing op-related (bootstrap, untracked traffic).
    None,
    /// Directly inside a client invocation.
    Op(RegisterId, OpId),
    /// Inside a message handler; the delivered seq and its attribution.
    Deliver(u64, Option<(RegisterId, OpId)>),
    /// Inside a timer handler attributed to an operation (if resolvable).
    Timer(Option<(RegisterId, OpId)>),
}

/// The world-side collector behind `World::set_obs`. All methods are
/// invoked behind an `Option` check, so a world without observability
/// never touches any of this.
#[derive(Debug)]
pub(crate) struct WorldObs {
    pub(crate) cfg: ObsConfig,
    spans: Vec<OpSpan>,
    // The five attribution maps are keyed by dense sequence ids / op ids and
    // probed on the per-message hot path, where hashing beats a B-tree
    // walk; `LookupMap` cannot be iterated.
    /// `(key, op) → index into spans`.
    span_ix: LookupMap<(RegisterId, OpId), usize>,
    /// Operation attribution of each sent sequence id.
    seq_op: LookupMap<u64, (RegisterId, OpId)>,
    /// Causal parent (delivered seq) of each sent sequence id.
    seq_parent: LookupMap<u64, u64>,
    /// Delivery instants by sequence id.
    delivered: LookupMap<u64, Time>,
    /// Delivery-time departed-recipient drops by sequence id.
    dropped_departed: LookupMap<u64, Time>,
    pub(crate) cause: Cause,
    pub(crate) timeseries: Option<Timeseries>,
    pub(crate) profile: TickProfile,
}

impl WorldObs {
    pub(crate) fn new(cfg: ObsConfig) -> WorldObs {
        WorldObs {
            cfg,
            spans: Vec::new(),
            span_ix: LookupMap::new(),
            seq_op: LookupMap::new(),
            seq_parent: LookupMap::new(),
            delivered: LookupMap::new(),
            dropped_departed: LookupMap::new(),
            cause: Cause::None,
            timeseries: cfg.timeseries_every.map(Timeseries::new),
            profile: TickProfile::default(),
        }
    }

    /// The operation the current cause attributes sends to.
    fn cause_op(&self) -> Option<(RegisterId, OpId)> {
        match self.cause {
            Cause::None => None,
            Cause::Op(k, o) => Some((k, o)),
            Cause::Deliver(_, op) | Cause::Timer(op) => op,
        }
    }

    /// The attribution of a delivered sequence id (for propagating the
    /// causal context into its handler).
    pub(crate) fn op_of_seq(&self, seq: u64) -> Option<(RegisterId, OpId)> {
        self.seq_op.get(&seq).copied()
    }

    /// A client operation was invoked.
    pub(crate) fn op_invoked(
        &mut self,
        key: RegisterId,
        op: OpId,
        node: NodeId,
        label: &'static str,
        now: Time,
    ) {
        if !self.cfg.spans {
            return;
        }
        let ix = self.spans.len();
        self.spans.push(OpSpan {
            key,
            op,
            node,
            label,
            invoked_at: now,
            completed_at: None,
            phases: vec![PhaseEvent {
                at: now,
                phase: OpPhase::Invoked,
                label: "",
            }],
            deliveries: 0,
            refires: 0,
        });
        self.span_ix.insert((key, op), ix);
    }

    /// The space layer retransmitted the join inquiry of `(key, op)`
    /// after a silence window. The re-broadcast itself is a separate send
    /// (counted under [`OpSpan::refires`] via the timer cause); this adds
    /// the distinguishing phase event.
    pub(crate) fn op_retransmit(&mut self, key: RegisterId, op: OpId, now: Time) {
        if !self.cfg.spans {
            return;
        }
        let Some(&ix) = self.span_ix.get(&(key, op)) else {
            return;
        };
        self.spans[ix].phases.push(PhaseEvent {
            at: now,
            phase: OpPhase::Retransmit,
            label: "INQUIRY",
        });
    }

    /// A client operation completed.
    pub(crate) fn op_completed(&mut self, key: RegisterId, op: OpId, now: Time) {
        let Some(&ix) = self.span_ix.get(&(key, op)) else {
            return;
        };
        let span = &mut self.spans[ix];
        span.completed_at = Some(now);
        span.phases.push(PhaseEvent {
            at: now,
            phase: OpPhase::Completed,
            label: "",
        });
    }

    /// One logical send effect (unicast or broadcast) consumed the
    /// sequence ids `first .. first + count`, under `label`, from the
    /// current cause. Fault-dropped copies are inside the range too.
    pub(crate) fn note_send(&mut self, first: u64, count: u64, label: &'static str, now: Time) {
        if !self.cfg.spans || count == 0 {
            return;
        }
        let op = self.cause_op();
        let parent = match self.cause {
            Cause::Deliver(seq, _) => Some(seq),
            _ => None,
        };
        for seq in first..first + count {
            if let Some(op) = op {
                self.seq_op.insert(seq, op);
            }
            if let Some(p) = parent {
                self.seq_parent.insert(seq, p);
            }
        }
        let Some(op) = op else { return };
        let Some(&ix) = self.span_ix.get(&op) else {
            return;
        };
        let span = &mut self.spans[ix];
        if matches!(self.cause, Cause::Timer(_)) {
            span.refires += 1;
            span.phases.push(PhaseEvent {
                at: now,
                phase: OpPhase::Refire,
                label,
            });
        } else if !span.phases.iter().any(|p| p.phase == OpPhase::Sent) {
            span.phases.push(PhaseEvent {
                at: now,
                phase: OpPhase::Sent,
                label,
            });
        }
    }

    /// A copy was delivered. Quorum progress is counted when it lands on
    /// the invoking node of the operation it serves.
    pub(crate) fn note_delivered(&mut self, seq: u64, to: NodeId, label: &'static str, now: Time) {
        if !self.cfg.spans {
            return;
        }
        self.delivered.insert(seq, now);
        let Some(&op) = self.seq_op.get(&seq) else {
            return;
        };
        let Some(&ix) = self.span_ix.get(&op) else {
            return;
        };
        let span = &mut self.spans[ix];
        if span.node == to {
            span.deliveries += 1;
            if !span.phases.iter().any(|p| p.phase == OpPhase::Progress) {
                span.phases.push(PhaseEvent {
                    at: now,
                    phase: OpPhase::Progress,
                    label,
                });
            }
        }
    }

    /// A copy was abandoned at delivery time (recipient departed).
    pub(crate) fn note_drop_departed(&mut self, seq: u64, now: Time) {
        if self.cfg.spans {
            self.dropped_departed.insert(seq, now);
        }
    }

    /// Folds the network's send log into the final report.
    pub(crate) fn into_report(self, log: Vec<MsgRecord>) -> ObsReport {
        let msgs = log
            .into_iter()
            .map(|r| {
                let fate = match r.fate {
                    SendFate::FaultDropped { kind, rule } => MsgFate::FaultDropped { kind, rule },
                    SendFate::Scheduled { .. } => {
                        if let Some(&at) = self.delivered.get(&r.seq) {
                            MsgFate::Delivered { at }
                        } else if let Some(&at) = self.dropped_departed.get(&r.seq) {
                            MsgFate::DroppedDeparted { at }
                        } else {
                            MsgFate::InFlight
                        }
                    }
                };
                MsgInfo {
                    seq: r.seq,
                    from: r.from,
                    to: r.to,
                    label: r.label,
                    sent_at: r.sent_at,
                    fate,
                    parent: self.seq_parent.get(&r.seq).copied(),
                    op: self.seq_op.get(&r.seq).copied(),
                }
            })
            .collect();
        ObsReport {
            spans: self.spans,
            msgs,
            timeseries: self.timeseries,
            tick_profile: if self.cfg.tick_profile {
                Some(self.profile)
            } else {
                None
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(i: u64) -> NodeId {
        NodeId::from_raw(i)
    }

    fn rec(seq: u64, label: &'static str, fate: SendFate) -> MsgRecord {
        MsgRecord {
            seq,
            from: nid(1),
            to: nid(2),
            label,
            sent_at: Time::at(10),
            fate,
        }
    }

    #[test]
    fn span_lifecycle_and_why_stuck_chain() {
        let mut obs = WorldObs::new(ObsConfig::full());
        let key = RegisterId::ZERO;
        let op = OpId::from_raw(7);
        obs.op_invoked(key, op, nid(1), "join", Time::at(10));
        obs.cause = Cause::Op(key, op);
        obs.note_send(0, 3, "INQUIRY", Time::at(10));
        // seq 1 delivered to a responder, which replies (seq 3) from
        // inside the delivery — the reply inherits the join attribution.
        obs.note_delivered(1, nid(2), "INQUIRY", Time::at(12));
        obs.note_delivered(2, nid(3), "INQUIRY", Time::at(13));
        obs.cause = Cause::Deliver(1, obs.op_of_seq(1));
        obs.note_send(3, 1, "REPLY", Time::at(12));
        obs.note_delivered(3, nid(1), "REPLY", Time::at(14));
        // A timer re-fire for the same op.
        obs.cause = Cause::Timer(Some((key, op)));
        obs.note_send(4, 1, "INQUIRY_FULL", Time::at(20));

        let report = obs.into_report(vec![
            rec(
                0,
                "INQUIRY",
                SendFate::FaultDropped {
                    kind: "drop",
                    rule: 0,
                },
            ),
            rec(
                1,
                "INQUIRY",
                SendFate::Scheduled {
                    deliver_at: Time::at(12),
                },
            ),
            rec(
                2,
                "INQUIRY",
                SendFate::Scheduled {
                    deliver_at: Time::at(13),
                },
            ),
            rec(
                3,
                "REPLY",
                SendFate::Scheduled {
                    deliver_at: Time::at(14),
                },
            ),
            rec(
                4,
                "INQUIRY_FULL",
                SendFate::FaultDropped {
                    kind: "drop",
                    rule: 1,
                },
            ),
        ]);

        let span = report.span(key, op).expect("span tracked");
        assert!(span.is_stuck());
        assert_eq!(span.deliveries, 1, "the REPLY landed on the joiner");
        assert_eq!(span.refires, 1);
        let phases: Vec<OpPhase> = span.phases.iter().map(|p| p.phase).collect();
        assert_eq!(
            phases,
            vec![
                OpPhase::Invoked,
                OpPhase::Sent,
                OpPhase::Progress,
                OpPhase::Refire
            ]
        );

        let why = report.why_stuck(op).expect("stuck span explained");
        assert_eq!(why.delivered, 3, "seqs 1, 2 and 3 arrived");
        let lost: Vec<u64> = why.lost.iter().map(|m| m.seq).collect();
        assert_eq!(lost, vec![0, 4], "both fault-dropped copies named");
        assert_eq!(why.lost[0].op, Some((key, op)));
        assert_eq!(report.msgs[3].parent, Some(1), "REPLY linked to its cause");
        let text = why.to_string();
        assert!(text.contains("stuck join op7"));
        assert!(text.contains("lost seq 0: INQUIRY"));
        assert!(text.contains("fault-dropped (drop[0])"));

        // Completed ops stop being stuck.
        assert!(report.why_stuck(OpId::from_raw(99)).is_none());
    }

    /// Two collectors fed the same calls render identically: the
    /// attribution maps print their length, never their (hash-ordered)
    /// entries.
    #[test]
    fn debug_rendering_is_the_same_for_identical_collectors() {
        let build = || {
            let mut obs = WorldObs::new(ObsConfig::full());
            let key = RegisterId::ZERO;
            for i in 0..12 {
                let op = OpId::from_raw(i);
                obs.op_invoked(key, op, nid(i), "read", Time::at(i));
                obs.cause = Cause::Op(key, op);
                obs.note_send(2 * i, 2, "READ", Time::at(i));
                obs.note_delivered(2 * i, nid(50), "READ", Time::at(i + 1));
            }
            obs
        };
        let (a, b) = (format!("{:?}", build()), format!("{:?}", build()));
        assert_eq!(a, b);
        assert_eq!(a.matches("LookupMap { len: ").count(), 5, "{a}");
        assert!(a.contains("seq_op: LookupMap { len: 24 }"), "{a}");
    }

    #[test]
    fn completed_span_is_not_stuck() {
        let mut obs = WorldObs::new(ObsConfig::full());
        let key = RegisterId::ZERO;
        let op = OpId::from_raw(1);
        obs.op_invoked(key, op, nid(5), "read", Time::at(1));
        obs.op_completed(key, op, Time::at(3));
        let report = obs.into_report(Vec::new());
        let span = report.span(key, op).unwrap();
        assert!(!span.is_stuck());
        assert_eq!(span.completed_at, Some(Time::at(3)));
        assert_eq!(span.phases.last().unwrap().phase, OpPhase::Completed);
        assert!(report.why_stuck(op).is_none());
        assert_eq!(report.why_stuck_all().len(), 0);
    }

    #[test]
    fn flight_dump_is_schema_tagged_and_escaped() {
        use dynareg_sim::trace::{TraceEvent, TraceLog};
        let mut obs = WorldObs::new(ObsConfig::full());
        obs.op_invoked(
            RegisterId::ZERO,
            OpId::from_raw(2),
            nid(3),
            "join",
            Time::at(5),
        );
        let report = obs.into_report(Vec::new());
        let mut trace = TraceLog::with_capacity_limit(2);
        for i in 0..4 {
            trace.record(
                Time::at(i),
                TraceEvent::Note {
                    node: nid(1),
                    text: format!("step \"{i}\""),
                },
            );
        }
        let dump = report.flight_dump(&trace);
        let mut lines = dump.lines();
        let header = lines.next().unwrap();
        assert!(header.contains(FLIGHT_SCHEMA));
        assert!(header.contains("\"retained\":2"));
        assert!(header.contains("\"evicted\":2"));
        assert!(header.contains("\"stuck_spans\":1"));
        assert!(dump.contains("\\\"2\\\""), "quotes inside lines escaped");
        assert!(dump.contains("\"why_stuck\""));
        assert_eq!(dump.lines().count(), 1 + 2 + 1);
    }

    #[test]
    fn spans_off_records_nothing() {
        let mut obs = WorldObs::new(ObsConfig {
            tick_profile: true,
            ..ObsConfig::off()
        });
        obs.op_invoked(
            RegisterId::ZERO,
            OpId::from_raw(1),
            nid(1),
            "read",
            Time::at(1),
        );
        obs.cause = Cause::Op(RegisterId::ZERO, OpId::from_raw(1));
        obs.note_send(0, 5, "INQUIRY", Time::at(1));
        obs.note_delivered(0, nid(1), "INQUIRY", Time::at(2));
        let report = obs.into_report(Vec::new());
        assert!(report.spans.is_empty());
        assert!(report.msgs.is_empty());
        assert!(report.timeseries.is_none());
        assert!(report.tick_profile.is_some());
    }
}
