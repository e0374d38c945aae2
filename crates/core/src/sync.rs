//! The synchronous protocol — Figures 1 and 2 of the paper, line by line.
//!
//! Design principle (§3.3): *fast reads*. A read is purely local — no wait
//! statement, no messages. The price is paid at join and write time:
//!
//! * **join** (Figure 1): wait `δ` (line 02 — see the Figure 3 discussion
//!   below); if no `WRITE` arrived in the meantime (line 03), broadcast
//!   `INQUIRY` (line 05) and wait the `2δ` maximum round trip (line 06);
//!   adopt the freshest reply (lines 07–08); become active (line 10) and
//!   answer postponed inquiries (line 11).
//! * **write** (Figure 2): broadcast `WRITE(v, sn)` and wait `δ` so every
//!   process present at the broadcast has delivered it before the write
//!   returns (timely delivery).
//! * **read** (Figure 2): return the local copy. Zero ticks, zero messages.
//!
//! ## Why the `wait(δ)` at line 02 (Figure 3)
//!
//! A process `pᵢ` entering *just after* a write's broadcast is not covered
//! by the broadcast's timely delivery (it was not in the system at the
//! send). Without line 02, `pᵢ` could inquire, gather only *old* replies
//! that raced past the in-flight `WRITE`s, and serve a stale value on a
//! later read that is concurrent with nothing — a regularity violation.
//! Waiting `δ` first guarantees any write concurrent with the join's start
//! has been delivered to the repliers (and to `pᵢ` itself if it was in the
//! system at the send). [`SyncConfig::skip_join_wait`] disables the wait to
//! reproduce Figure 3(a) experimentally.
//!
//! ## Assumptions inherited from the paper
//!
//! Known delay bound `δ`; known constant churn `c ≤ 1/(3δ)` (Theorem 1);
//! writes are not concurrent (single writer, or externally serialized);
//! reliable timely broadcast.

use dynareg_sim::{NodeId, OpId, Span, Time};

use crate::actor::{Effect, EffectSink, OpOutcome, RegisterProcess, Value};

/// Wire messages of the synchronous protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncMsg<V> {
    /// `INQUIRY(i)` — a joining process asks for the register value
    /// (Figure 1, line 05). The sender id travels in the envelope.
    Inquiry,
    /// `REPLY(⟨i, register, sn⟩)` — an active process's current copy
    /// (Figure 1, lines 11 & 14). `value` is `None` only if the replier
    /// itself never obtained a value (impossible under the paper's
    /// assumptions; representable so over-bound churn experiments stay
    /// well-defined).
    Reply {
        /// The replier's register copy.
        value: Option<V>,
        /// The copy's sequence number (−1 = never wrote nor adopted).
        sn: i64,
    },
    /// `WRITE(val, sn)` — a write's dissemination (Figure 2, line 01).
    Write {
        /// The value being written.
        value: V,
        /// Its sequence number.
        sn: i64,
    },
}

impl<V> SyncMsg<V> {
    /// Message label for traces and statistics.
    pub fn label(&self) -> &'static str {
        match self {
            SyncMsg::Inquiry => "INQUIRY",
            SyncMsg::Reply { .. } => "REPLY",
            SyncMsg::Write { .. } => "WRITE",
        }
    }
}

/// Configuration of the synchronous protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncConfig {
    /// The known bound `δ` on broadcast/point-to-point latency.
    pub delta: Span,
    /// Disable the Figure 1 line-02 `wait(δ)` — **unsound**; exists solely
    /// to reproduce the Figure 3(a) counter-example.
    pub skip_join_wait: bool,
}

impl SyncConfig {
    /// The paper's protocol with bound `delta`.
    ///
    /// # Panics
    /// Panics if `delta` is zero.
    pub fn new(delta: Span) -> SyncConfig {
        assert!(!delta.is_zero(), "delta must be at least one tick");
        SyncConfig {
            delta,
            skip_join_wait: false,
        }
    }

    /// The Figure 3(a) ablation: same protocol without the initial join
    /// wait.
    pub fn without_join_wait(delta: Span) -> SyncConfig {
        SyncConfig {
            skip_join_wait: true,
            ..SyncConfig::new(delta)
        }
    }

    /// The churn threshold `1/(3δ)` under which Theorem 1 proves the
    /// protocol correct.
    pub fn churn_threshold(&self) -> f64 {
        1.0 / (3.0 * self.delta.as_ticks() as f64)
    }
}

/// Timer tags (the protocol's three `wait` statements).
const TIMER_JOIN_WAIT: u64 = 1; // Figure 1, line 02: wait(δ)
const TIMER_INQUIRY_WAIT: u64 = 2; // Figure 1, line 06: wait(2δ)
const TIMER_WRITE_WAIT: u64 = 3; // Figure 2, line 02: wait(δ)

/// Join-phase progression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JoinPhase {
    /// Figure 1 line 02: waiting the initial `δ`.
    InitialWait,
    /// Figure 1 line 06: `INQUIRY` broadcast, waiting `2δ` for replies.
    Inquiring,
}

/// The join's state (Figure 1), which exists only until line 10 sets
/// `activeᵢ`: a process holds it boxed while its join is in flight and
/// drops it when the join returns.
#[derive(Debug, Clone)]
struct Joining<V> {
    phase: JoinPhase,
    /// `repliesᵢ`, folded: the join only ever reads its `(sn, sender)`-
    /// maximal entry (lines 07–08), so that entry is all that is kept —
    /// `(sn, sender, value)`, `None` while no reply arrived.
    best_reply: Option<(i64, NodeId, Option<V>)>,
    /// `|repliesᵢ|` since line 04, duplicates included.
    reply_count: usize,
    /// `reply_toᵢ` — inquirers to answer upon activation.
    reply_to: Vec<NodeId>,
    /// The join op id (recorded by the runtime for the history).
    op: OpId,
}

/// One process running the synchronous protocol of Figures 1–2.
///
/// # Example
///
/// ```
/// use dynareg_core::sync::{SyncConfig, SyncRegister};
/// use dynareg_core::{RegisterProcess, Effect, OpOutcome};
/// use dynareg_sim::{NodeId, OpId, Span, Time};
///
/// // A bootstrap member holds the initial value and reads it locally.
/// let cfg = SyncConfig::new(Span::ticks(4));
/// let mut p = SyncRegister::new_bootstrap(NodeId::from_raw(0), cfg, 0u64);
/// let effects = p.on_read(Time::ZERO, OpId::from_raw(1));
/// assert!(matches!(
///     effects[0],
///     Effect::OpComplete { outcome: OpOutcome::Read(Some(0)), .. }
/// ));
/// ```
#[derive(Debug, Clone)]
pub struct SyncRegister<V> {
    id: NodeId,
    config: SyncConfig,
    /// `registerᵢ` — the local copy (`None` = ⊥).
    register: Option<V>,
    /// `snᵢ` — sequence number of the local copy (−1 while ⊥).
    sn: i64,
    /// The in-flight write, if any (the paper's writer blocks in `wait(δ)`).
    pending_write: Option<OpId>,
    /// The join's state while it is in flight: never held by a bootstrap
    /// member, dropped when the join returns — `activeᵢ` is its absence.
    join: Option<Box<Joining<V>>>,
}

impl<V: Value> SyncRegister<V> {
    /// A process of the initial population: active from the start, holding
    /// the register's initial value with sequence number 0 (§3.3,
    /// "Initially, n processes compose the system…").
    pub fn new_bootstrap(id: NodeId, config: SyncConfig, initial: V) -> SyncRegister<V> {
        SyncRegister {
            id,
            config,
            register: Some(initial),
            sn: 0,
            pending_write: None,
            join: None,
        }
    }

    /// A process about to enter the system; `join_op` identifies its join
    /// operation in the recorded history.
    pub fn new_joiner(id: NodeId, config: SyncConfig, join_op: OpId) -> SyncRegister<V> {
        SyncRegister {
            id,
            config,
            register: None,
            sn: -1,
            pending_write: None,
            join: Some(Box::new(Joining {
                phase: JoinPhase::InitialWait,
                best_reply: None,
                reply_count: 0,
                reply_to: Vec::new(),
                op: join_op,
            })),
        }
    }

    /// The join operation this process is executing, if any.
    pub fn pending_join(&self) -> Option<OpId> {
        self.join.as_ref().map(|join| join.op)
    }

    /// The local register copy (`None` = ⊥).
    pub fn local_value(&self) -> Option<&V> {
        self.register.as_ref()
    }

    /// The local sequence number (−1 while ⊥).
    pub fn local_sn(&self) -> i64 {
        self.sn
    }

    /// The join's state; only a joining process has inputs that need it.
    fn joining(&mut self) -> &mut Joining<V> {
        self.join
            .as_deref_mut()
            .expect("a join wait fires while joining")
    }

    /// Figure 1, lines 10–11: switch to active and flush `reply_toᵢ`.
    fn become_active(&mut self) -> Vec<Effect<SyncMsg<V>, V>> {
        // Line 10: activeᵢ ← true — the join's state goes with the join.
        let join = self.join.take().expect("only a joining process activates");
        let mut effects = Vec::new();
        // Line 11: for each j ∈ reply_toᵢ send REPLY⟨i, registerᵢ, snᵢ⟩.
        for j in join.reply_to {
            effects.push(Effect::Send {
                to: j,
                msg: SyncMsg::Reply {
                    value: self.register.clone(),
                    sn: self.sn,
                },
            });
        }
        // Line 12: return ok.
        effects.push(Effect::JoinComplete);
        effects
    }

    /// Figure 1, lines 07–08: adopt the reply with the largest sequence
    /// number, if larger than ours.
    fn adopt_best_reply(&mut self) {
        if let Some((sn, _, value)) = self.joining().best_reply.take() {
            // Line 08: if sn > snᵢ then adopt.
            if sn > self.sn {
                self.sn = sn;
                self.register = value;
            }
        }
    }
}

impl<V: Value> RegisterProcess for SyncRegister<V> {
    type Msg = SyncMsg<V>;
    type Val = V;

    fn id(&self) -> NodeId {
        self.id
    }

    fn is_active(&self) -> bool {
        self.join.is_none()
    }

    fn join_replies(&self) -> Option<usize> {
        // A plain counter: this join completes on a timer, so its only
        // consumer asks "zero or not" and duplicates cannot mislead it.
        self.join.as_ref().map(|join| join.reply_count)
    }

    /// `operation join(i)` — Figure 1.
    fn on_enter(&mut self, _now: Time) -> Vec<Effect<SyncMsg<V>, V>> {
        if self.join.is_none() {
            // Bootstrap member: already active, nothing to do.
            return vec![Effect::JoinComplete];
        }
        // Line 01 happened at construction (registerᵢ ← ⊥, snᵢ ← −1, …).
        if self.config.skip_join_wait {
            // Figure 3(a) ablation: jump straight to the line-03 check.
            return self.on_timer(_now, TIMER_JOIN_WAIT);
        }
        // Line 02: wait(δ).
        vec![Effect::SetTimer {
            delay: self.config.delta,
            tag: TIMER_JOIN_WAIT,
        }]
    }

    fn on_timer(&mut self, _now: Time, tag: u64) -> Vec<Effect<SyncMsg<V>, V>> {
        match tag {
            TIMER_JOIN_WAIT => {
                debug_assert_eq!(self.joining().phase, JoinPhase::InitialWait);
                // Line 03: if registerᵢ = ⊥ …
                if self.register.is_none() {
                    // Line 04: repliesᵢ ← ∅.
                    let join = self.joining();
                    (join.best_reply, join.reply_count) = (None, 0);
                    join.phase = JoinPhase::Inquiring;
                    // Line 05: broadcast INQUIRY(i); line 06: wait(2δ).
                    vec![
                        Effect::Broadcast {
                            msg: SyncMsg::Inquiry,
                        },
                        Effect::SetTimer {
                            delay: self.config.delta.times(2),
                            tag: TIMER_INQUIRY_WAIT,
                        },
                    ]
                } else {
                    // A WRITE arrived during the wait: lines 10-12 directly.
                    self.become_active()
                }
            }
            TIMER_INQUIRY_WAIT => {
                debug_assert_eq!(self.joining().phase, JoinPhase::Inquiring);
                // Lines 07–08: adopt the freshest reply.
                self.adopt_best_reply();
                // Lines 10–12.
                self.become_active()
            }
            TIMER_WRITE_WAIT => {
                // Figure 2, line 02: the write's wait(δ) elapsed → return ok.
                let op = self
                    .pending_write
                    .take()
                    .expect("write timer without pending write");
                vec![Effect::OpComplete {
                    op,
                    outcome: OpOutcome::WriteOk,
                }]
            }
            other => panic!("unknown timer tag {other}"),
        }
    }

    /// Figure 1 lines 13–17 and Figure 2 lines 03–04. Message delivery is
    /// the simulator's hottest edge (every INQUIRY in a join wave lands here
    /// once per process); pushing into the runtime's sink makes it
    /// allocation-free, and a value is cloned only when it is kept: a
    /// `WRITE` adopted, or a `REPLY` that becomes the best.
    fn on_message_ref(
        &mut self,
        _now: Time,
        from: NodeId,
        msg: &SyncMsg<V>,
        out: &mut impl EffectSink<SyncMsg<V>, V>,
    ) {
        match msg {
            // Figure 1, lines 13–16.
            SyncMsg::Inquiry => match self.join.as_deref_mut() {
                // Line 14: immediate REPLY.
                None => out.push(Effect::Send {
                    to: from,
                    msg: SyncMsg::Reply {
                        value: self.register.clone(),
                        sn: self.sn,
                    },
                }),
                // Line 15: postpone until active.
                Some(join) => {
                    if !join.reply_to.contains(&from) {
                        join.reply_to.push(from);
                    }
                }
            },
            // Figure 1, line 17 — folded on arrival; among equal
            // `(sn, sender)` keys the last wins. An active process reads none.
            &SyncMsg::Reply { ref value, sn } => {
                if let Some(join) = self.join.as_deref_mut() {
                    join.reply_count += 1;
                    let best = join.best_reply.as_ref();
                    if best.is_none_or(|(s, id, _)| (sn, from) >= (*s, *id)) {
                        join.best_reply = Some((sn, from, value.clone()));
                    }
                }
            }
            // Figure 2, lines 03–04.
            &SyncMsg::Write { ref value, sn } => {
                if sn > self.sn {
                    self.register = Some(value.clone());
                    self.sn = sn;
                }
            }
        }
    }

    /// `operation read()` — Figure 2: purely local, zero latency.
    fn on_read(&mut self, _now: Time, op: OpId) -> Vec<Effect<SyncMsg<V>, V>> {
        assert!(
            self.is_active(),
            "reads are invoked only after join returns"
        );
        vec![Effect::OpComplete {
            op,
            outcome: OpOutcome::Read(self.register.clone()),
        }]
    }

    /// `operation write(v)` — Figure 2.
    fn on_write(&mut self, _now: Time, op: OpId, value: V) -> Vec<Effect<SyncMsg<V>, V>> {
        assert!(
            self.is_active(),
            "writes are invoked only after join returns"
        );
        assert!(
            self.pending_write.is_none(),
            "writes are not concurrent (paper assumption)"
        );
        // Line 01: snᵢ ← snᵢ + 1; registerᵢ ← v; broadcast WRITE(v, snᵢ).
        self.sn += 1;
        self.register = Some(value.clone());
        self.pending_write = Some(op);
        vec![
            Effect::Broadcast {
                msg: SyncMsg::Write { value, sn: self.sn },
            },
            // Line 02: wait(δ) … return ok (on timer).
            Effect::SetTimer {
                delay: self.config.delta,
                tag: TIMER_WRITE_WAIT,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::completions;
    use proptest::prelude::*;

    fn nid(i: u64) -> NodeId {
        NodeId::from_raw(i)
    }

    fn oid(i: u64) -> OpId {
        OpId::from_raw(i)
    }

    fn cfg() -> SyncConfig {
        SyncConfig::new(Span::ticks(4))
    }

    fn bootstrap(i: u64) -> SyncRegister<u64> {
        SyncRegister::new_bootstrap(nid(i), cfg(), 0)
    }

    fn joiner(i: u64) -> SyncRegister<u64> {
        SyncRegister::new_joiner(nid(i), cfg(), oid(900 + i))
    }

    #[test]
    fn bootstrap_is_immediately_active_with_initial_value() {
        let mut p = bootstrap(0);
        assert!(p.is_active());
        assert_eq!(p.on_enter(Time::ZERO), vec![Effect::JoinComplete]);
        assert_eq!(p.local_value(), Some(&0));
        assert_eq!(p.local_sn(), 0);
    }

    #[test]
    fn read_is_local_and_immediate() {
        let mut p = bootstrap(0);
        let effects = p.on_read(Time::ZERO, oid(1));
        assert_eq!(
            completions(&effects),
            vec![(oid(1), OpOutcome::Read(Some(0)))]
        );
        assert_eq!(effects.len(), 1, "no messages, no timers");
    }

    #[test]
    fn write_broadcasts_then_waits_delta() {
        let mut p = bootstrap(0);
        let effects = p.on_write(Time::ZERO, oid(1), 42);
        assert_eq!(
            effects[0],
            Effect::Broadcast {
                msg: SyncMsg::Write { value: 42, sn: 1 }
            }
        );
        assert_eq!(
            effects[1],
            Effect::SetTimer {
                delay: Span::ticks(4),
                tag: TIMER_WRITE_WAIT
            }
        );
        // Local copy updated immediately (line 01).
        assert_eq!(p.local_value(), Some(&42));
        // Completion fires on the timer.
        let done = p.on_timer(Time::at(4), TIMER_WRITE_WAIT);
        assert_eq!(completions(&done), vec![(oid(1), OpOutcome::WriteOk)]);
    }

    #[test]
    #[should_panic(expected = "not concurrent")]
    fn overlapping_writes_panic() {
        let mut p = bootstrap(0);
        p.on_write(Time::ZERO, oid(1), 42);
        p.on_write(Time::at(1), oid(2), 43);
    }

    #[test]
    fn join_waits_delta_then_inquires_when_bottom() {
        let mut p = joiner(5);
        let enter = p.on_enter(Time::ZERO);
        assert_eq!(
            enter,
            vec![Effect::SetTimer {
                delay: Span::ticks(4),
                tag: TIMER_JOIN_WAIT
            }]
        );
        let after_wait = p.on_timer(Time::at(4), TIMER_JOIN_WAIT);
        assert_eq!(
            after_wait[0],
            Effect::Broadcast {
                msg: SyncMsg::Inquiry
            }
        );
        assert_eq!(
            after_wait[1],
            Effect::SetTimer {
                delay: Span::ticks(8),
                tag: TIMER_INQUIRY_WAIT
            }
        );
        assert!(!p.is_active());
    }

    #[test]
    fn join_skips_inquiry_if_write_arrived_during_wait() {
        let mut p = joiner(5);
        p.on_enter(Time::ZERO);
        // A WRITE lands during the initial δ wait (listening mode).
        p.on_message(Time::at(2), nid(0), SyncMsg::Write { value: 9, sn: 3 });
        let effects = p.on_timer(Time::at(4), TIMER_JOIN_WAIT);
        assert_eq!(effects, vec![Effect::JoinComplete]);
        assert!(p.is_active());
        assert_eq!(p.local_value(), Some(&9));
        assert_eq!(p.local_sn(), 3);
    }

    #[test]
    fn join_adopts_freshest_reply() {
        let mut p = joiner(5);
        p.on_enter(Time::ZERO);
        p.on_timer(Time::at(4), TIMER_JOIN_WAIT);
        p.on_message(
            Time::at(6),
            nid(1),
            SyncMsg::Reply {
                value: Some(10),
                sn: 1,
            },
        );
        p.on_message(
            Time::at(7),
            nid(2),
            SyncMsg::Reply {
                value: Some(20),
                sn: 2,
            },
        );
        p.on_message(
            Time::at(8),
            nid(3),
            SyncMsg::Reply {
                value: Some(10),
                sn: 1,
            },
        );
        let effects = p.on_timer(Time::at(12), TIMER_INQUIRY_WAIT);
        assert!(effects.contains(&Effect::JoinComplete));
        assert_eq!(p.local_value(), Some(&20));
        assert_eq!(p.local_sn(), 2);
    }

    #[test]
    fn join_with_no_replies_activates_bottom() {
        // Beyond the churn bound nobody may answer; the process still
        // activates (with ⊥) — the checker will flag any read of ⊥.
        let mut p = joiner(5);
        p.on_enter(Time::ZERO);
        p.on_timer(Time::at(4), TIMER_JOIN_WAIT);
        let effects = p.on_timer(Time::at(12), TIMER_INQUIRY_WAIT);
        assert!(effects.contains(&Effect::JoinComplete));
        assert_eq!(p.local_value(), None);
    }

    /// Drives a joiner to its post-inquiry wait (lines 02–06).
    fn inquiring<V: Value>(p: &mut SyncRegister<V>) {
        p.on_enter(Time::ZERO);
        p.on_timer(Time::at(4), TIMER_JOIN_WAIT);
        assert_eq!(p.join_replies(), Some(0));
    }

    #[test]
    fn duplicate_replies_fold_and_late_replies_are_ignored() {
        let mut p = joiner(5);
        inquiring(&mut p);
        // A retransmitted inquiry makes the same sender answer twice: the
        // running maximum is unmoved by an exact duplicate, and on an equal
        // `(sn, sender)` key the later reply wins (as `max_by_key` did).
        for value in [10, 10, 11] {
            let reply = SyncMsg::Reply {
                value: Some(value),
                sn: 1,
            };
            assert!(p.on_message(Time::at(6), nid(1), reply).is_empty());
        }
        assert_eq!(p.join_replies(), Some(3), "a counter, not a sender set");
        let effects = p.on_timer(Time::at(12), TIMER_INQUIRY_WAIT);
        assert_eq!(effects, vec![Effect::JoinComplete]);
        assert_eq!((p.local_value(), p.local_sn()), (Some(&11), 1));
        // A reply landing after activation is dropped on the floor: it is
        // never read, so it must not be kept either.
        let late = SyncMsg::Reply {
            value: Some(99),
            sn: 9,
        };
        assert!(p.on_message(Time::at(13), nid(2), late).is_empty());
        assert_eq!((p.local_value(), p.local_sn()), (Some(&11), 1));
        assert_eq!(p.join_replies(), None);
        assert!(p.join.is_none(), "the join's state is gone");
    }

    #[test]
    fn join_state_does_not_grow_with_replies_and_is_released() {
        use std::rc::Rc;
        // Every reply carries a handle on one allocation, so its strong
        // count is the number of reply values the joiner is holding.
        let held = Rc::new(7u64);
        let mut p: SyncRegister<Rc<u64>> = SyncRegister::new_joiner(nid(5), cfg(), oid(905));
        inquiring(&mut p);
        for i in 0..1000 {
            let reply = SyncMsg::Reply {
                value: Some(Rc::clone(&held)),
                sn: i % 3,
            };
            p.on_message(Time::at(6), nid(i as u64 % 50), reply);
            assert!(Rc::strong_count(&held) <= 2, "one best reply, not a list");
        }
        assert_eq!(p.join_replies(), Some(1000));
        let effects = p.on_timer(Time::at(12), TIMER_INQUIRY_WAIT);
        assert_eq!(effects, vec![Effect::JoinComplete]);
        // Adopted into the register; the join state itself is gone.
        assert_eq!(p.local_sn(), 2);
        assert_eq!(Rc::strong_count(&held), 2);
        assert!(p.join.is_none(), "the join's state is gone");
    }

    #[test]
    fn an_active_process_holds_only_its_register() {
        // `id`, `config`, `registerᵢ`, `snᵢ`, the pending write and the
        // join box's pointer: the join's state lives behind the box.
        assert!(std::mem::size_of::<SyncRegister<u64>>() <= 80);
        let mut boot = bootstrap(0);
        assert!(boot.join.is_none(), "a bootstrap member never joins");
        boot.on_enter(Time::ZERO);
        assert!(boot.join.is_none());
        let mut p = joiner(5);
        assert_eq!(p.pending_join(), Some(oid(905)));
        inquiring(&mut p);
        assert!(p.join.is_some(), "held while the join is in flight");
        p.on_message(Time::at(5), nid(8), SyncMsg::Inquiry);
        let effects = p.on_timer(Time::at(12), TIMER_INQUIRY_WAIT);
        assert_eq!(effects.last(), Some(&Effect::JoinComplete));
        assert!(p.join.is_none() && p.is_active());
        assert_eq!(p.pending_join(), None);
        // A process joined through a WRITE during its initial wait, too.
        let mut q = joiner(6);
        q.on_enter(Time::ZERO);
        q.on_message(Time::at(2), nid(0), SyncMsg::Write { value: 9, sn: 3 });
        q.on_timer(Time::at(4), TIMER_JOIN_WAIT);
        assert!(q.join.is_none() && q.is_active());
    }

    /// One message of a generated join: `REPLY⟨from, value, sn⟩` or a
    /// concurrent `WRITE(value, sn)`.
    #[derive(Debug, Clone)]
    struct JoinMsg {
        from: u64,
        write: bool,
        value: Option<u64>,
        sn: i64,
    }

    /// Small ranges on purpose: duplicate senders, equal-`sn` ties, equal
    /// `(sn, sender)` keys carrying different values, and `⊥` are all likely.
    fn join_msgs() -> impl Strategy<Value = Vec<JoinMsg>> {
        let msg = (0u64..4, 0u32..5, prop::bool::ANY, 0u64..3, 0u64..5).prop_map(
            |(from, kind, bottom, value, sn)| JoinMsg {
                from,
                write: kind == 0,
                value: (!bottom).then_some(value),
                sn: sn as i64 - 1,
            },
        );
        prop::collection::vec(msg, 0..24)
    }

    /// The stored-list join this module ran before replies were folded:
    /// every reply kept, line 08 adopting `max_by_key`'s pick. Returns the
    /// `(registerᵢ, snᵢ)` the join ends with.
    fn stored_list_join(early: &[JoinMsg], inquiry: &[JoinMsg]) -> (Option<u64>, i64) {
        let (mut register, mut my_sn) = (None, -1);
        let mut replies: Vec<(NodeId, Option<u64>, i64)> = Vec::new();
        replies.extend(early.iter().map(|m| (nid(m.from), m.value, m.sn)));
        replies.clear(); // line 04
        for m in inquiry {
            match m.value {
                Some(value) if m.write => {
                    if m.sn > my_sn {
                        (register, my_sn) = (Some(value), m.sn);
                    }
                }
                _ => replies.push((nid(m.from), m.value, m.sn)),
            }
        }
        if let Some((_, value, sn)) = replies.iter().max_by_key(|(id, _, sn)| (*sn, *id)) {
            if *sn > my_sn {
                (register, my_sn) = (*value, *sn);
            }
        }
        (register, my_sn)
    }

    fn deliver(p: &mut SyncRegister<u64>, m: &JoinMsg) {
        let msg = match m.value {
            Some(value) if m.write => SyncMsg::Write { value, sn: m.sn },
            value => SyncMsg::Reply { value, sn: m.sn },
        };
        assert!(p.on_message(Time::at(5), nid(m.from), msg).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The folded join adopts exactly what the stored list adopted,
        /// whatever arrives: before the line-04 reset, in duplicate, tied,
        /// at `⊥`, or interleaved with concurrent writes.
        #[test]
        fn folded_join_adopts_what_the_stored_list_adopted(
            early in join_msgs(),
            inquiry in join_msgs(),
        ) {
            let mut p = joiner(9);
            p.on_enter(Time::ZERO);
            // Only replies can precede the inquiry: a `WRITE` during the
            // initial wait skips it (line 03).
            for m in &early {
                deliver(&mut p, &JoinMsg { write: false, ..m.clone() });
            }
            inquiring(&mut p);
            for m in &inquiry {
                deliver(&mut p, m);
            }
            let replies = inquiry.iter().filter(|m| !(m.write && m.value.is_some())).count();
            prop_assert_eq!(p.join_replies(), Some(replies));
            let effects = p.on_timer(Time::at(12), TIMER_INQUIRY_WAIT);
            prop_assert_eq!(effects, vec![Effect::JoinComplete]);
            prop_assert_eq!(
                (p.local_value().copied(), p.local_sn()),
                stored_list_join(&early, &inquiry)
            );
        }
    }

    #[test]
    fn write_received_during_inquiry_beats_stale_replies() {
        let mut p = joiner(5);
        p.on_enter(Time::ZERO);
        p.on_timer(Time::at(4), TIMER_JOIN_WAIT);
        p.on_message(
            Time::at(5),
            nid(1),
            SyncMsg::Reply {
                value: Some(10),
                sn: 1,
            },
        );
        // Concurrent write lands directly (line 03-04 of Figure 2).
        p.on_message(Time::at(6), nid(0), SyncMsg::Write { value: 30, sn: 3 });
        p.on_timer(Time::at(12), TIMER_INQUIRY_WAIT);
        assert_eq!(
            p.local_value(),
            Some(&30),
            "stale reply must not regress the copy"
        );
        assert_eq!(p.local_sn(), 3);
    }

    #[test]
    fn active_process_replies_to_inquiry_immediately() {
        let mut p = bootstrap(0);
        let effects = p.on_message(Time::at(1), nid(7), SyncMsg::Inquiry);
        assert_eq!(
            effects,
            vec![Effect::Send {
                to: nid(7),
                msg: SyncMsg::Reply {
                    value: Some(0),
                    sn: 0
                }
            }]
        );
    }

    #[test]
    fn joining_process_postpones_reply_until_active() {
        let mut p = joiner(5);
        p.on_enter(Time::ZERO);
        // Another joiner inquires while we are still joining.
        assert!(p
            .on_message(Time::at(1), nid(8), SyncMsg::Inquiry)
            .is_empty());
        // Duplicate inquiries are answered once.
        assert!(p
            .on_message(Time::at(2), nid(8), SyncMsg::Inquiry)
            .is_empty());
        p.on_message(Time::at(2), nid(0), SyncMsg::Write { value: 5, sn: 1 });
        let effects = p.on_timer(Time::at(4), TIMER_JOIN_WAIT);
        let replies: Vec<&Effect<SyncMsg<u64>, u64>> = effects
            .iter()
            .filter(|e| matches!(e, Effect::Send { .. }))
            .collect();
        assert_eq!(
            replies,
            vec![&Effect::Send {
                to: nid(8),
                msg: SyncMsg::Reply {
                    value: Some(5),
                    sn: 1
                }
            }]
        );
    }

    #[test]
    fn stale_write_does_not_regress() {
        let mut p = bootstrap(0);
        p.on_message(Time::at(1), nid(1), SyncMsg::Write { value: 7, sn: 2 });
        p.on_message(Time::at(2), nid(1), SyncMsg::Write { value: 3, sn: 1 });
        assert_eq!(p.local_value(), Some(&7));
        assert_eq!(p.local_sn(), 2);
    }

    #[test]
    fn skip_join_wait_inquires_immediately() {
        let mut p: SyncRegister<u64> = SyncRegister::new_joiner(
            nid(5),
            SyncConfig::without_join_wait(Span::ticks(4)),
            oid(1),
        );
        let effects = p.on_enter(Time::ZERO);
        assert_eq!(
            effects[0],
            Effect::Broadcast {
                msg: SyncMsg::Inquiry
            }
        );
    }

    #[test]
    fn sequential_writes_increment_sn() {
        let mut p = bootstrap(0);
        p.on_write(Time::ZERO, oid(1), 10);
        p.on_timer(Time::at(4), TIMER_WRITE_WAIT);
        let effects = p.on_write(Time::at(5), oid(2), 20);
        assert_eq!(
            effects[0],
            Effect::Broadcast {
                msg: SyncMsg::Write { value: 20, sn: 2 }
            }
        );
    }

    #[test]
    fn writer_handover_continues_sn_chain() {
        // A second (non-concurrent) writer that observed sn=5 continues at 6.
        let mut p = bootstrap(1);
        p.on_message(Time::at(1), nid(0), SyncMsg::Write { value: 50, sn: 5 });
        let effects = p.on_write(Time::at(10), oid(3), 60);
        assert_eq!(
            effects[0],
            Effect::Broadcast {
                msg: SyncMsg::Write { value: 60, sn: 6 }
            }
        );
    }

    #[test]
    fn churn_threshold_matches_theorem_1() {
        assert!((cfg().churn_threshold() - 1.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn labels_cover_all_variants() {
        assert_eq!(SyncMsg::<u64>::Inquiry.label(), "INQUIRY");
        assert_eq!(
            SyncMsg::Reply {
                value: Some(1u64),
                sn: 0
            }
            .label(),
            "REPLY"
        );
        assert_eq!(SyncMsg::Write { value: 1u64, sn: 0 }.label(), "WRITE");
    }

    #[test]
    #[should_panic(expected = "after join returns")]
    fn read_before_active_panics() {
        let mut p = joiner(5);
        p.on_enter(Time::ZERO);
        p.on_read(Time::at(1), oid(1));
    }
}
