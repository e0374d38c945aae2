//! Keyed register spaces: many registers over one churn substrate.
//!
//! The paper implements **one** anonymous register per system; its §7 asks
//! for richer objects. This module generalizes the abstraction to a
//! *register space* — a dense set of keys `r0 … r(k−1)`, each an
//! independent register run by its own protocol instance — while paying
//! the membership machinery (join handshake, presence, broadcast fan-out)
//! **once per process**, not once per key:
//!
//! * [`RegisterSpaceProcess`] is the runtime-facing trait: every client
//!   operation and completion addresses a `(RegisterId, op)` pair, and
//!   effects carry their key ([`SpaceEffect`]).
//! * [`RegisterSpace`] multiplexes `k` instances of any
//!   [`RegisterProcess`] behind a **single shared join handshake**: a
//!   joiner inquires once ([`SpaceMsg::JoinAll`]), every responder answers
//!   with *all* keys' states in one physical reply
//!   ([`SpaceMsg::Batch`]), and join-phase timers are shared. Steady-state
//!   traffic is tagged per key ([`SpaceMsg::Keyed`]); timer tags are
//!   key-partitioned.
//! * [`SoloSpace`] adapts a single [`RegisterProcess`] to the space trait
//!   with **zero wire or behavioural overhead** — raw protocol messages,
//!   no key tags. It is the 1-key fast path, chosen by the factory from
//!   the key count: re-measured at PR 16 HEAD, after the `Keyed` fast
//!   exit, `K = 1` through [`RegisterSpace`] still runs at 0.64–0.70× of
//!   its events per second (dynabench `soak_scale`, `es_quorum`,
//!   `churn_edge`), and the 1-key equivalence property tests hold the two
//!   digest-identical.
//!
//! # The shared handshake's contract
//!
//! [`RegisterSpace`] coalesces the join phase generically, which requires
//! three properties both paper protocols have:
//!
//! 1. **Join-phase broadcasts are key-agnostic.** An `INQUIRY` carries no
//!    register state, so when several instances inquire in the same step
//!    the space sends one [`SpaceMsg::JoinAll`] (the lowest emitting key's
//!    payload) and lets every responder answer for every key.
//! 2. **Join-phase timers are uniform.** Instances that are still joining
//!    request the same `(delay, tag)` waits in the same step (the sync
//!    protocol's `wait(δ)` / `wait(2δ)`), so the space arms one shared
//!    timer and dispatches its expiry to every still-joining instance.
//!
//! 3. **Answering a join-phase inquiry while active reads state and
//!    changes none**; the sender appears only as the `Send` target
//!    (Figure 1 line 14, Figure 4 line 13 — an ES instance that is
//!    `reading` adds a `DL_PREV`, and two `Send`s are not such an answer).
//!
//! Steady-state operation needs no contract: a read/write/timer touches
//! exactly one key's instance and its effects are tagged with that key.
//!
//! Both ends of the handshake stream: a responder builds its
//! [`SpaceMsg::Batch`] in one pass over its instances (one reply vector,
//! sized once), and a joiner hands each received entry to its instance as
//! it goes — the sync protocol folds it into a running maximum, so a join
//! holds O(1) state per key however many processes answer.
//!
//! # Standing answers
//!
//! By contract 3 a responder's answer changes only when one of its keys is
//! stepped, so a join-done [`RegisterSpace`] whose stripe answered a
//! `JoinAll` with one `Send` per key keeps that batch — inquiry payload,
//! stripe, and the `Rc` slice the reply carries — and the next equal
//! inquiry gets a pointer copy: nothing stepped, nothing allocated. Every
//! `&mut` to an instance comes from one accessor that marks the key in a
//! 64-bit dirty mask (`key mod 64`: exact up to 64 keys, conservative
//! beyond); an inquiry that finds marks re-steps only the marked keys of
//! its stripe and overwrites their entries through `Rc::make_mut` — in
//! place when no reply still shares the slice, on a copy otherwise, so a
//! `Batch` on the wire is never written. A marked key answering anything
//! but its one `Send` drops the answer; the inquiry finishes key by key.
//! Memory: `K` × ≈ 40 B per node beside `K` × ≈ 160 B of instances.
//!
//! # Key-sharded join replies
//!
//! The shared handshake's full-state reply transfers `K` payload entries
//! per responder — `K·n` entries per join, which is what collapses join
//! throughput at large key counts. [`ShardConfig`] shards the reply side:
//! every responder belongs to a deterministic shard
//! `shard(p) = hash(node_id) mod G` ([`shard_of_node`]) and answers a
//! (non-full) [`SpaceMsg::JoinAll`] only for the keys of *its* shard
//! (`key mod G`), so one reply carries `K/G` entries. The joiner still
//! broadcasts a single inquiry; it tracks, per shard, the distinct
//! responders whose [`SpaceMsg::Batch`]es covered that shard's keys, and
//! the shared join timer only activates the keys of shards that met the
//! configured per-shard quorum — shards still short keep their instances
//! joining and the timer **re-fires the inquiry** (re-arming itself) until
//! every shard has answered. A re-inquiry is *full* (`full: true`): any
//! active process answers for all keys, so one starved shard degrades a
//! join to the full-state transfer for one extra round instead of
//! wedging it — availability falls back to the paper's argument while the
//! common case pays `1/G` of the payload.
//!
//! Quorum-based protocols (ES) set no join timers; a sharded space arms
//! its own re-inquiry timer ([`ShardConfig::reinquire_every`]) instead,
//! and the per-key join quorum is sized to the shard
//! (`EsConfig::join_quorum`) — the quorum-per-shard liveness trade the
//! fleet tier's phase diagrams measure.
//!
//! `G = 1` (the default) is the full-reply handshake: every gate, filter
//! and fallback below is conditioned on `groups > 1`.
//!
//! # Loss-tolerant join retransmission
//!
//! The paper assumes reliable channels, so a lost inquiry or reply is a
//! case its join never handles: a sync joiner blind-activates at `⊥` and a
//! quorum-driven (ES) joiner wedges **forever**. [`RetransmitConfig`]
//! bounds that gap for unsharded (`G = 1`) handshakes — sharded spaces
//! already re-fire via the withheld-expiry/re-inquiry machinery above:
//!
//! * **Timer-driven joins** (sync): when the post-inquiry wait expires
//!   with *zero* replies gathered ([`RegisterProcess::join_replies`]), the
//!   space re-fires the inquiry and re-arms the same wait instead of
//!   dispatching the expiry, up to [`RetransmitConfig::budget`] times per
//!   join; the budget exhausted, the expiry dispatches normally and the
//!   paper's blind `⊥` activation proceeds.
//! * **Timer-less joins** (ES): the space arms its own silence timer
//!   ([`RETRANSMIT_TAG`]); each expiry with no new replies since the last
//!   beat re-broadcasts the inquiry and doubles the wait (capped after
//!   `budget` doublings — the "current timeout estimate"), so a joiner
//!   whose handshake was swallowed converges within a bounded number of
//!   rounds once the network turns lossless.
//!
//! Every retransmission is marked by a digest-invisible
//! [`SpaceEffect::Retransmit`] so the runtime can count
//! `join.retransmits` without parsing wire labels. Responders are
//! idempotent by construction: a re-received inquiry is re-answered from
//! current state, and duplicate `Batch` replies never double-count a
//! shard quorum (`shard_heard` is a set per shard).
//!
//! The full wire-level lifecycle (message grammar, shard striping, the
//! retransmit state machine) is specified in `docs/PROTOCOL.md` at the
//! repository root.

use std::collections::BTreeSet;
use std::fmt;
use std::rc::Rc;

use dynareg_sim::{NodeId, OpId, RegisterId, Span, Time};

use crate::actor::{Effect, OpOutcome, RegisterProcess, Value};

/// Wire messages of a register space over inner protocol messages `M`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpaceMsg<M> {
    /// One register's protocol message, delivered to that key's instance.
    Keyed {
        /// The addressed register.
        key: RegisterId,
        /// The inner protocol payload.
        inner: M,
    },
    /// The shared join handshake: a joiner's single inquiry. A non-`full`
    /// inquiry is answered by each responder for its own key shard; a
    /// `full` inquiry (re-inquiries, and every inquiry of an unsharded
    /// space) is delivered to *every* key's instance at the receiver
    /// (join-phase broadcasts are key-agnostic; see the module docs).
    JoinAll {
        /// The inner inquiry payload.
        inner: M,
        /// Whether responders must answer for every key regardless of
        /// their shard (the starvation fallback; always effectively true
        /// when `G = 1`).
        full: bool,
    },
    /// The batched per-key answers to a fan-in delivery — all keys' states
    /// in one physical message (the other half of the shared handshake).
    /// Immutable once sent: a responder may hand the same allocation to
    /// several inquirers (module docs, "Standing answers").
    Batch {
        /// `(key, payload)` pairs, in processing order.
        replies: Rc<[(RegisterId, M)]>,
    },
}

impl<M> SpaceMsg<M> {
    /// Number of inner protocol messages this physical message carries.
    pub fn payload_count(&self) -> usize {
        match self {
            SpaceMsg::Keyed { .. } | SpaceMsg::JoinAll { .. } => 1,
            SpaceMsg::Batch { replies } => replies.len(),
        }
    }
}

/// An output of a register-space state machine, interpreted by the
/// runtime. The mirror of [`Effect`] with the key carried wherever the
/// runtime needs it (completions and annotations); wire payloads carry
/// their key inside the message type instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpaceEffect<M, V> {
    /// Send `msg` point-to-point to `to`.
    Send {
        /// Recipient process.
        to: NodeId,
        /// Payload.
        msg: M,
    },
    /// Broadcast `msg` to every process in the system.
    Broadcast {
        /// Payload.
        msg: M,
    },
    /// Request a timer callback after `delay`, tagged with `tag`
    /// (key-partitioned by the space; opaque to the runtime).
    SetTimer {
        /// How long to wait.
        delay: Span,
        /// Discriminator handed back on expiry.
        tag: u64,
    },
    /// The space's join returned `ok`: **every** key's instance is active.
    /// Emitted exactly once per process.
    JoinComplete,
    /// A client operation on `key` returned.
    OpComplete {
        /// The addressed register.
        key: RegisterId,
        /// The operation.
        op: OpId,
        /// Its result.
        outcome: OpOutcome<V>,
    },
    /// Free-form annotation for traces, attributed to a key.
    Note {
        /// The annotating register.
        key: RegisterId,
        /// Message text.
        text: String,
    },
    /// The join handshake was re-fired after silence (see the module's
    /// "Loss-tolerant join retransmission"). A marker, not a message: the
    /// runtime counts it (`join.retransmits`) and annotates the join span,
    /// but it is invisible to the event stream and the run digest.
    Retransmit,
}

/// A keyed register-space instance bound to one process: the runtime-facing
/// generalization of [`RegisterProcess`] where every client operation
/// addresses a `(RegisterId, op)` pair.
///
/// # Contract
///
/// Same shape as [`RegisterProcess`], lifted to the space: `on_enter` is
/// called once; `on_read`/`on_write` only after the space's single
/// [`SpaceEffect::JoinComplete`]; the runtime never overlaps two client
/// operations on the same *process* (per-process sequentiality — stricter
/// than per-key, matching the paper's sequential processes).
pub trait RegisterSpaceProcess: fmt::Debug {
    /// The space's wire message type.
    type Msg: Clone + fmt::Debug;
    /// The registers' value type.
    type Val: Value;

    /// This process's identity.
    fn id(&self) -> NodeId;

    /// Whether the space's join has returned (all keys active).
    fn is_active(&self) -> bool;

    /// Number of keys in the space.
    fn key_count(&self) -> u32;

    /// The process enters the system and starts its (shared) `join`.
    fn on_enter(&mut self, now: Time) -> Vec<SpaceEffect<Self::Msg, Self::Val>>;

    /// A message from `from` is delivered; effects append to `out` (the
    /// runtime calls this with a reused buffer — the delivery fast path).
    fn on_message_into(
        &mut self,
        now: Time,
        from: NodeId,
        msg: Self::Msg,
        out: &mut Vec<SpaceEffect<Self::Msg, Self::Val>>,
    );

    /// Allocating convenience form of
    /// [`on_message_into`](RegisterSpaceProcess::on_message_into).
    fn on_message(
        &mut self,
        now: Time,
        from: NodeId,
        msg: Self::Msg,
    ) -> Vec<SpaceEffect<Self::Msg, Self::Val>> {
        let mut out = Vec::new();
        self.on_message_into(now, from, msg, &mut out);
        out
    }

    /// A timer set via [`SpaceEffect::SetTimer`] with this `tag` expired.
    fn on_timer(&mut self, now: Time, tag: u64) -> Vec<SpaceEffect<Self::Msg, Self::Val>>;

    /// The client invokes `read` on register `key`, identified by `op`.
    fn on_read(
        &mut self,
        now: Time,
        key: RegisterId,
        op: OpId,
    ) -> Vec<SpaceEffect<Self::Msg, Self::Val>>;

    /// The client invokes `write(value)` on register `key`.
    fn on_write(
        &mut self,
        now: Time,
        key: RegisterId,
        op: OpId,
        value: Self::Val,
    ) -> Vec<SpaceEffect<Self::Msg, Self::Val>>;
}

/// Adapts one [`RegisterProcess`] to the space trait with no wire overhead:
/// `Msg = P::Msg` (no key tags), every effect attributed to
/// [`RegisterId::ZERO`]. Byte-identical behaviour to driving `P` directly —
/// the 1-key fast path the factory picks from the key count, and what the
/// 1-key equivalence property tests pit [`RegisterSpace`] against.
#[derive(Debug)]
pub struct SoloSpace<P: RegisterProcess> {
    inner: P,
    /// Reused scratch so the delivery fast path stays allocation-free.
    scratch: Vec<Effect<P::Msg, P::Val>>,
    /// Join re-fire state; inert without a policy (the default of
    /// [`SoloSpace::new`]).
    refire: JoinRefire<P::Msg>,
}

impl<P: RegisterProcess> SoloSpace<P> {
    /// Wraps a protocol instance.
    pub fn new(inner: P) -> SoloSpace<P> {
        SoloSpace {
            inner,
            scratch: Vec::new(),
            refire: JoinRefire::new(),
        }
    }

    /// Installs (or clears) the bounded join-retransmit policy.
    pub fn with_retransmit(mut self, config: Option<RetransmitConfig>) -> SoloSpace<P> {
        self.refire.policy = config;
        self
    }

    /// The wrapped instance.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    fn lift(
        effects: impl IntoIterator<Item = Effect<P::Msg, P::Val>>,
    ) -> Vec<SpaceEffect<P::Msg, P::Val>> {
        effects.into_iter().map(lift_effect).collect()
    }

    /// Observes a join-phase step's lifted effects (inquiry payload and
    /// armed waits) and appends the silence timer for timer-less joins —
    /// the solo counterpart of [`RegisterSpace::flush`]'s bookkeeping. A
    /// no-op unless a retransmit policy is installed and the join is still
    /// in flight.
    fn observe_join_step(&mut self, out: &mut Vec<SpaceEffect<P::Msg, P::Val>>) {
        if self.refire.policy.is_none() || self.inner.is_active() {
            return;
        }
        for effect in out.iter() {
            match effect {
                SpaceEffect::Broadcast { msg } => {
                    self.refire.inquiry.get_or_insert_with(|| msg.clone());
                }
                SpaceEffect::SetTimer { delay, tag } => self.refire.record_wait(*tag, *delay),
                _ => {}
            }
        }
        let inner = &self.inner;
        self.refire.arm(|| inner.join_replies().unwrap_or(0), out);
    }
}

/// Attributes a single-register effect to the anchor key.
fn lift_effect<M, V>(e: Effect<M, V>) -> SpaceEffect<M, V> {
    match e {
        Effect::Send { to, msg } => SpaceEffect::Send { to, msg },
        Effect::Broadcast { msg } => SpaceEffect::Broadcast { msg },
        Effect::SetTimer { delay, tag } => SpaceEffect::SetTimer { delay, tag },
        Effect::JoinComplete => SpaceEffect::JoinComplete,
        Effect::OpComplete { op, outcome } => SpaceEffect::OpComplete {
            key: RegisterId::ZERO,
            op,
            outcome,
        },
        Effect::Note(text) => SpaceEffect::Note {
            key: RegisterId::ZERO,
            text,
        },
    }
}

impl<P: RegisterProcess> RegisterSpaceProcess for SoloSpace<P> {
    type Msg = P::Msg;
    type Val = P::Val;

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn is_active(&self) -> bool {
        self.inner.is_active()
    }

    fn key_count(&self) -> u32 {
        1
    }

    fn on_enter(&mut self, now: Time) -> Vec<SpaceEffect<P::Msg, P::Val>> {
        let mut out = Self::lift(self.inner.on_enter(now));
        self.observe_join_step(&mut out);
        out
    }

    fn on_message_into(
        &mut self,
        now: Time,
        from: NodeId,
        msg: P::Msg,
        out: &mut Vec<SpaceEffect<P::Msg, P::Val>>,
    ) {
        let mut scratch = std::mem::take(&mut self.scratch);
        debug_assert!(scratch.is_empty());
        self.inner.on_message_into(now, from, msg, &mut scratch);
        out.extend(scratch.drain(..).map(lift_effect));
        self.scratch = scratch;
    }

    fn on_timer(&mut self, now: Time, tag: u64) -> Vec<SpaceEffect<P::Msg, P::Val>> {
        let mut out = Vec::new();
        let (inner, done) = (&self.inner, self.inner.is_active());
        if tag == RETRANSMIT_TAG {
            // The space's own silence timer — never forwarded (timer-less
            // inner protocols panic on unknown tags).
            let heard = inner.join_replies().unwrap_or(0);
            self.refire.beat(done, heard, &mut out);
            return out;
        }
        if self
            .refire
            .intercept(done, tag, || inner.join_replies(), &mut out)
        {
            return out;
        }
        let mut out = Self::lift(self.inner.on_timer(now, tag));
        self.observe_join_step(&mut out);
        out
    }

    fn on_read(
        &mut self,
        now: Time,
        key: RegisterId,
        op: OpId,
    ) -> Vec<SpaceEffect<P::Msg, P::Val>> {
        debug_assert_eq!(key, RegisterId::ZERO, "a solo space has one key");
        Self::lift(self.inner.on_read(now, op))
    }

    fn on_write(
        &mut self,
        now: Time,
        key: RegisterId,
        op: OpId,
        value: P::Val,
    ) -> Vec<SpaceEffect<P::Msg, P::Val>> {
        debug_assert_eq!(key, RegisterId::ZERO, "a solo space has one key");
        Self::lift(self.inner.on_write(now, op, value))
    }
}

/// Timer-tag partitioning: regular tags carry their key in the upper half
/// (`key << 32 | tag`), shared join-phase timers live in a reserved
/// partition marked by the top bit.
const SHARED_TAG: u64 = 1 << 63;
const KEY_TAG_SHIFT: u32 = 32;
const INNER_TAG_MASK: u64 = (1 << KEY_TAG_SHIFT) - 1;
/// The space's own re-inquiry timer (sharded joins over protocols that set
/// no join timers). Inner tags fit 32 bits, so bit 62 cannot collide with
/// a forwarded shared tag.
const REINQUIRE_TAG: u64 = SHARED_TAG | (1 << 62);
/// The unsharded join-retransmit silence timer (timer-less protocols under
/// [`RetransmitConfig`]). Like `REINQUIRE_TAG`, bit 61 cannot collide
/// with a forwarded inner tag.
pub const RETRANSMIT_TAG: u64 = SHARED_TAG | (1 << 61);

/// Bounded join-handshake retransmission policy (see the module's
/// "Loss-tolerant join retransmission"). Attached to a space via
/// [`SoloSpace::with_retransmit`] / [`RegisterSpace::with_retransmit`];
/// absent (the default of every raw constructor), nothing re-fires — on a
/// lossless network the effect stream is the same either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetransmitConfig {
    /// The initial silence window: how long a joiner's inquiry may go
    /// unanswered before the handshake re-fires (`2δ` in the scenario
    /// harness — the paper's post-inquiry wait).
    pub base: Span,
    /// Retry cap: timer-driven joins intercept at most this many
    /// zero-reply expiries; timer-less joins stop doubling their silence
    /// window after this many consecutive silent beats (the window then
    /// plateaus at `base << budget`, so liveness after the loss stops is
    /// still guaranteed). Doubling stops after 16 steps whatever the
    /// budget, so the window cannot overflow: the plateau is
    /// `base << min(budget, 16)`.
    pub budget: u32,
}

impl RetransmitConfig {
    /// A policy re-firing after `base` ticks of silence, budget 4.
    ///
    /// # Panics
    /// Panics if `base` is zero.
    pub fn after(base: Span) -> RetransmitConfig {
        assert!(
            !base.is_zero(),
            "retransmit silence window must be positive"
        );
        RetransmitConfig { base, budget: 4 }
    }

    /// Sets the retry budget (interception cap; backoff plateau at
    /// `base << min(budget, 16)`).
    ///
    /// # Panics
    /// Panics if `budget` is zero.
    pub fn with_budget(mut self, budget: u32) -> RetransmitConfig {
        assert!(budget > 0, "retransmit budget must be positive");
        self.budget = budget;
        self
    }

    /// The silence window after `attempts` consecutive silent beats:
    /// `base << min(attempts, budget, 16)`.
    fn backoff(&self, attempts: u32) -> Span {
        Span::ticks(self.base.as_ticks() << attempts.min(self.budget).min(16))
    }
}

/// The join handshake's re-fire state machine: "the inquiry went
/// unanswered, send it again", once. Each space holds one, records into it
/// the inquiry (already wrapped for its wire) and the join waits (under
/// their outer tags) it observes, and asks it the three decisions —
/// [`arm`](Self::arm), [`beat`](Self::beat), [`intercept`](Self::intercept);
/// every re-broadcast leaves through [`refire`](Self::refire).
#[derive(Debug)]
struct JoinRefire<W> {
    /// Retransmit policy (`None` = no interceptions, no silence beats).
    policy: Option<RetransmitConfig>,
    /// The sharded pace: while set, `policy` is inert and the silence
    /// timer re-inquires this often instead — unconditionally, and
    /// uncounted (the wire labels those inquiries `INQUIRY_FULL`).
    reinquire: Option<Span>,
    /// The wire message a re-fire broadcasts, recorded at the inquiry.
    inquiry: Option<W>,
    /// `(tag, delay)` of the join waits armed so far, so an intercepted or
    /// withheld expiry can re-arm itself.
    waits: Vec<(u64, Span)>,
    /// Whether the silence timer is outstanding.
    armed: bool,
    /// Consecutive silent beats (the backoff exponent, plateaued).
    attempts: u32,
    /// Zero-reply interceptions consumed (timer-driven joins).
    used: u32,
    /// Reply count at the last silence beat (progress detection).
    seen: usize,
}

impl<W: Clone> JoinRefire<W> {
    fn new() -> JoinRefire<W> {
        JoinRefire {
            policy: None,
            reinquire: None,
            inquiry: None,
            waits: Vec::new(),
            armed: false,
            attempts: 0,
            used: 0,
            seen: 0,
        }
    }

    fn record_wait(&mut self, tag: u64, delay: Span) {
        match self.waits.iter_mut().find(|(t, _)| *t == tag) {
            Some((_, d)) => *d = delay,
            None => self.waits.push((tag, delay)),
        }
    }

    /// Join wait `tag` as a timer to re-arm, if it was recorded.
    fn wait(&self, tag: u64) -> Option<(Span, u64)> {
        let &(_, delay) = self.waits.iter().find(|&&(t, _)| t == tag)?;
        Some((delay, tag))
    }

    /// The retry budget in force (none while sharded).
    fn budget(&self) -> u32 {
        let policy = self.policy.filter(|_| self.reinquire.is_none());
        policy.map_or(0, |cfg| cfg.budget)
    }

    /// The silence timer at the current pace, if any.
    fn silence(&self) -> Option<(Span, u64)> {
        match self.reinquire {
            Some(every) => Some((every, REINQUIRE_TAG)),
            None => self
                .policy
                .map(|cfg| (cfg.backoff(self.attempts), RETRANSMIT_TAG)),
        }
    }

    /// The one emitter: re-broadcasts the recorded inquiry — marked with
    /// [`SpaceEffect::Retransmit`] when the policy drives it — and arms
    /// `timer` behind it.
    fn refire<V>(&self, out: &mut Vec<SpaceEffect<W, V>>, timer: Option<(Span, u64)>) {
        if let Some(msg) = self.inquiry.clone() {
            out.push(SpaceEffect::Broadcast { msg });
            if self.reinquire.is_none() {
                out.push(SpaceEffect::Retransmit);
            }
        }
        if let Some((delay, tag)) = timer {
            out.push(SpaceEffect::SetTimer { delay, tag });
        }
    }

    /// Decision 1, closing a join-phase step: a timer-less (quorum)
    /// protocol inquired, so the space arms its own silence timer for a
    /// swallowed handshake to re-fire on.
    fn arm<V>(&mut self, heard: impl FnOnce() -> usize, out: &mut Vec<SpaceEffect<W, V>>) {
        if self.armed || self.inquiry.is_none() || !self.waits.is_empty() {
            return;
        }
        if let Some((delay, tag)) = self.silence() {
            out.push(SpaceEffect::SetTimer { delay, tag });
            self.armed = true;
            self.seen = heard();
        }
    }

    /// Decision 2, the silence timer fired: re-broadcast the inquiry if no
    /// reply arrived since the last beat (at the sharded pace, always),
    /// back the window off (progress resets it), and re-arm.
    fn beat<V>(&mut self, done: bool, heard: usize, out: &mut Vec<SpaceEffect<W, V>>) {
        self.armed = false;
        if done || self.silence().is_none() {
            return;
        }
        if self.reinquire.is_some() || heard <= self.seen {
            self.refire(out, None);
            self.attempts = (self.attempts + 1).min(self.budget());
        } else {
            self.attempts = 0;
        }
        self.arm(|| heard, out);
    }

    /// Decision 3, join wait `tag` expired: with the inquiry out, zero
    /// replies gathered and budget left, re-fire the inquiry and re-arm
    /// the same wait instead of dispatching the expiry — which would
    /// blind-activate at `⊥`. Returns whether the expiry was consumed.
    fn intercept<V>(
        &mut self,
        done: bool,
        tag: u64,
        heard: impl FnOnce() -> Option<usize>,
        out: &mut Vec<SpaceEffect<W, V>>,
    ) -> bool {
        let wait = self.wait(tag);
        let spent = self.used >= self.budget();
        if done || spent || self.inquiry.is_none() || wait.is_none() || heard() != Some(0) {
            return false;
        }
        self.used += 1;
        self.refire(out, wait);
        true
    }
}

/// Deterministic shard of a responder: SplitMix64 finalizer over the node
/// id, reduced mod `groups`. Stable across runs and thread counts.
pub fn shard_of_node(node: NodeId, groups: u32) -> u32 {
    let mut x = node.as_raw().wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % u64::from(groups.max(1))) as u32
}

/// Deterministic shard of a key: dense keys stripe round-robin over the
/// groups, so every shard owns `⌈K/G⌉` or `⌊K/G⌋` keys.
pub fn shard_of_key(key: RegisterId, groups: u32) -> u32 {
    key.as_raw() % groups.max(1)
}

/// How join replies are sharded across responders (see the module docs).
///
/// `G = 1` is the full-state reply handshake — the [`Default`], and what
/// every constructor starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of shard groups `G`. `1` = full replies. Clamped to
    /// the key count when a space is assembled (a shard with no keys
    /// answers nothing and gates nothing).
    pub groups: u32,
    /// Distinct responders whose replies must cover a shard before the
    /// shared join timer may activate that shard's keys (sync-style
    /// timer-driven joins; quorum protocols gate on their own
    /// `join_quorum` instead).
    pub quorum: usize,
    /// Re-inquiry period for protocols that set no join timers (ES): while
    /// the shared join is incomplete the space re-broadcasts a full
    /// inquiry at this interval.
    pub reinquire_every: Span,
}

impl ShardConfig {
    /// Sharded replies over `groups` groups, per-shard quorum 1, re-inquiry
    /// every 8 ticks.
    ///
    /// # Panics
    /// Panics if `groups` is zero.
    pub fn new(groups: u32) -> ShardConfig {
        assert!(groups > 0, "shard groups must be positive");
        ShardConfig {
            groups,
            quorum: 1,
            reinquire_every: Span::ticks(8),
        }
    }

    /// Sets the per-shard responder quorum.
    ///
    /// # Panics
    /// Panics if `quorum` is zero.
    pub fn with_quorum(mut self, quorum: usize) -> ShardConfig {
        assert!(quorum > 0, "a shard quorum must be positive");
        self.quorum = quorum;
        self
    }

    /// Sets the re-inquiry period for timer-less (quorum) protocols.
    ///
    /// # Panics
    /// Panics if `period` is zero.
    pub fn with_reinquire_every(mut self, period: Span) -> ShardConfig {
        assert!(!period.is_zero(), "re-inquiry period must be positive");
        self.reinquire_every = period;
        self
    }
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig::new(1)
    }
}

/// A per-node multiplexer owning one [`RegisterProcess`] instance per key
/// behind a single shared join handshake. See the module docs for the
/// coalescing rules and their contract.
#[derive(Debug)]
pub struct RegisterSpace<P: RegisterProcess> {
    id: NodeId,
    regs: Regs<P>,
    /// Whether this space already emitted its single `JoinComplete`.
    join_done: bool,
    /// Reused scratch for the instances' effect lists.
    scratch: Vec<Effect<P::Msg, P::Val>>,
    /// Join-reply sharding (`groups == 1` = full replies).
    shard: ShardConfig,
    /// This process's responder shard (`shard_of_node(id, groups)`).
    my_shard: u32,
    /// Per-shard distinct responders whose batches covered that shard's
    /// keys (joiner-side quorum tracking; empty unless `groups > 1`).
    shard_heard: Vec<BTreeSet<NodeId>>,
    /// Join re-fire state; on the sharded pace while `groups > 1`.
    refire: JoinRefire<SpaceMsg<P::Msg>>,
}

use regs::Regs;

/// A stripe's `(key, payload)` replies: what a [`SpaceMsg::Batch`] carries.
type Entries<M> = Rc<[(RegisterId, M)]>;

/// The instances and their standing answer (module docs), in a module of
/// their own so that no `&mut P` is reachable without dirtying its key.
mod regs {
    use super::*;

    /// A join-done responder's last all-`Send` answer to a `JoinAll`.
    #[derive(Debug)]
    struct Standing<M> {
        /// The inquiry payload it answers (ES replies echo its `r_sn`).
        inquiry: M,
        /// The stripe it covers: keys `first, first + stride, …`.
        stripe: (u32, usize),
        entries: Entries<M>,
    }

    #[derive(Debug)]
    pub(super) struct Regs<P: RegisterProcess> {
        regs: Vec<P>,
        /// Bit `key % 64`: `key` was stepped since `answer` was kept (exact
        /// to 64 keys). Inline: the `Keyed` exit touches no new cache line.
        dirty: u64,
        answer: Option<Standing<P::Msg>>,
    }

    impl<P: RegisterProcess> std::ops::Deref for Regs<P> {
        type Target = [P];

        fn deref(&self) -> &[P] {
            &self.regs
        }
    }

    impl<P: RegisterProcess> Regs<P> {
        pub fn new(regs: Vec<P>) -> Regs<P> {
            Regs {
                regs,
                dirty: 0,
                answer: None,
            }
        }

        fn bit(key: RegisterId) -> u64 {
            1 << (key.as_raw() % 64)
        }

        /// The only `&mut P` there is.
        pub fn step(&mut self, key: RegisterId) -> &mut P {
            self.dirty |= Self::bit(key);
            &mut self.regs[key.as_raw() as usize]
        }

        /// Whether `key` (or one sharing its bit) was stepped since `keep`.
        pub fn is_dirty(&self, key: RegisterId) -> bool {
            self.dirty & Self::bit(key) != 0
        }

        pub fn any_dirty(&self) -> bool {
            self.dirty != 0
        }

        /// Takes the standing answer's entries out if it answers `inquiry`
        /// over `stripe`; drops an answer that does not.
        pub fn take_answer(
            &mut self,
            inquiry: &P::Msg,
            stripe: (u32, usize),
        ) -> Option<Entries<P::Msg>> {
            let fits = |a: &Standing<P::Msg>| a.stripe == stripe && a.inquiry == *inquiry;
            self.answer.take().filter(fits).map(|a| a.entries)
        }

        /// Keeps `entries`, just built or patched, as the answer to `inquiry`
        /// over `stripe`. Debug builds first ask every key again (contract 3).
        pub fn keep(
            &mut self,
            now: Time,
            from: NodeId,
            inquiry: P::Msg,
            stripe: (u32, usize),
            entries: &Entries<P::Msg>,
        ) {
            if cfg!(debug_assertions) {
                for (key, kept) in entries.iter() {
                    let reg = &mut self.regs[key.as_raw() as usize];
                    let fresh = reg.on_message(now, from, inquiry.clone());
                    let same = matches!(fresh.as_slice(),
                        [Effect::Send { to, msg }] if *to == from && msg == kept);
                    assert!(same, "stale answer for {key:?}: {kept:?}, now {fresh:?}");
                }
            }
            self.dirty = 0;
            let entries = Rc::clone(entries);
            self.answer = Some(Standing {
                inquiry,
                stripe,
                entries,
            });
        }
    }
}

/// One target's pending fan-in replies: `(target, per-key payloads)`.
type FanGroup<M> = (NodeId, Vec<(RegisterId, M)>);

/// Per-call routing context: collects the joins' coalescable effects
/// (shared broadcast, shared timers) and — during multi-instance fan-in —
/// the per-target reply batches, flushed in deterministic order at the end
/// of the space-level step.
struct StepCtx<M, V> {
    out: Vec<SpaceEffect<SpaceMsg<M>, V>>,
    /// First join-phase broadcast payload of this step, if any.
    join_broadcast: Option<M>,
    /// Distinct `(delay, tag)` join-phase timer requests of this step.
    join_timers: Vec<(Span, u64)>,
    /// The shared wait whose expiry a starved shard withheld this step:
    /// the flush re-fires the (full) inquiry and re-arms it.
    withheld: Option<u64>,
    /// Per-target send groups (fan-in batching); insertion-ordered.
    fan_sends: Option<Vec<FanGroup<M>>>,
    /// Emit single-entry fan-in groups as `Batch` anyway (sharded joins:
    /// the joiner counts per-shard quorums by batch content, so join
    /// replies must be identifiable on the wire even when a shard owns
    /// one key). Never set when `groups == 1`.
    force_batch: bool,
}

impl<M, V> StepCtx<M, V> {
    fn new(batch_fan_in: bool, force_batch: bool) -> StepCtx<M, V> {
        StepCtx {
            out: Vec::new(),
            join_broadcast: None,
            join_timers: Vec::new(),
            withheld: None,
            fan_sends: batch_fan_in.then(Vec::new),
            force_batch: batch_fan_in && force_batch,
        }
    }

    /// Moves `entries` to the end of `to`'s fan-in group, opening the group
    /// if these are its first.
    fn fan_to(&mut self, to: NodeId, entries: &mut Vec<(RegisterId, M)>) {
        let Some(groups) = &mut self.fan_sends else {
            return;
        };
        match groups.iter_mut().find(|(t, _)| *t == to) {
            Some((_, group)) => group.append(entries),
            None if entries.is_empty() => {}
            None => groups.push((to, std::mem::take(entries))),
        }
    }
}

impl<P: RegisterProcess> RegisterSpace<P> {
    /// A space whose instances are already active (bootstrap members).
    ///
    /// # Panics
    /// Panics if `regs` is empty, the instances disagree on identity, or
    /// any instance is not active.
    pub fn new_bootstrap(regs: Vec<P>) -> RegisterSpace<P> {
        let mut space = RegisterSpace::new_joiner(regs);
        assert!(
            space.regs.iter().all(|r| r.is_active()),
            "bootstrap instances must be active"
        );
        // Bootstrap spaces run no handshake: steady-state routing from the
        // first effect (the runtime may never call `on_enter` on them).
        space.join_done = true;
        space
    }

    /// A space about to enter the system: every instance runs its join
    /// through the shared handshake.
    ///
    /// # Panics
    /// Panics if `regs` is empty or the instances disagree on identity.
    pub fn new_joiner(regs: Vec<P>) -> RegisterSpace<P> {
        assert!(!regs.is_empty(), "a register space needs at least one key");
        let id = regs[0].id();
        assert!(
            regs.iter().all(|r| r.id() == id),
            "all instances of a space belong to one process"
        );
        RegisterSpace {
            id,
            regs: Regs::new(regs),
            join_done: false,
            scratch: Vec::new(),
            shard: ShardConfig::default(),
            my_shard: 0,
            shard_heard: Vec::new(),
            refire: JoinRefire::new(),
        }
    }

    /// Installs a join-reply shard configuration. `groups` is clamped to
    /// the key count (a shard owning no keys answers nothing and gates
    /// nothing); a clamped-to-1 (or explicit `G = 1`) config leaves the
    /// space on the full-reply path.
    pub fn with_shards(mut self, config: ShardConfig) -> RegisterSpace<P> {
        let groups = config.groups.min(self.regs.len() as u32).max(1);
        self.shard = ShardConfig { groups, ..config };
        self.my_shard = shard_of_node(self.id, groups);
        self.refire.reinquire = (groups > 1).then_some(config.reinquire_every);
        self.shard_heard = if groups > 1 {
            vec![BTreeSet::new(); groups as usize]
        } else {
            Vec::new()
        };
        self
    }

    /// Installs (or clears) the bounded join-retransmit policy. Only an
    /// unsharded (`G = 1`) handshake uses it; see [`RetransmitConfig`].
    pub fn with_retransmit(mut self, config: Option<RetransmitConfig>) -> RegisterSpace<P> {
        self.refire.policy = config;
        self
    }

    /// The effective shard configuration (groups clamped to the key count).
    pub fn shard_config(&self) -> ShardConfig {
        self.shard
    }

    /// This process's responder shard.
    pub fn responder_shard(&self) -> u32 {
        self.my_shard
    }

    /// The instance backing `key`.
    pub fn register(&self, key: RegisterId) -> &P {
        &self.regs[key.as_raw() as usize]
    }

    /// Total join replies gathered by still-joining instances, if any
    /// instance reports a count ([`RegisterProcess::join_replies`]).
    fn joining_replies(regs: &[P]) -> Option<usize> {
        let joining = regs.iter().filter(|r| !r.is_active());
        joining.filter_map(P::join_replies).reduce(|a, b| a + b)
    }

    /// Routes one instance's raw effects into the step context.
    fn route(
        &mut self,
        key: RegisterId,
        ctx: &mut StepCtx<P::Msg, P::Val>,
        effects: &mut Vec<Effect<P::Msg, P::Val>>,
    ) {
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => match &mut ctx.fan_sends {
                    Some(groups) => match groups.iter_mut().find(|(t, _)| *t == to) {
                        Some((_, entries)) => entries.push((key, msg)),
                        None => groups.push((to, vec![(key, msg)])),
                    },
                    None => ctx.out.push(SpaceEffect::Send {
                        to,
                        msg: SpaceMsg::Keyed { key, inner: msg },
                    }),
                },
                Effect::Broadcast { msg } => {
                    if self.join_done {
                        ctx.out.push(SpaceEffect::Broadcast {
                            msg: SpaceMsg::Keyed { key, inner: msg },
                        });
                    } else if ctx.join_broadcast.is_none() {
                        // Shared handshake: one inquiry covers every key
                        // (join-phase broadcasts are key-agnostic; module
                        // docs, contract 1). The first sharded inquiry asks
                        // each responder only for its shard; its re-fires
                        // ask any responder for every key, so a starved
                        // shard falls back to the full-state transfer
                        // instead of wedging the join.
                        let full = self.shard.groups > 1;
                        self.refire
                            .inquiry
                            .get_or_insert_with(|| SpaceMsg::JoinAll {
                                inner: msg.clone(),
                                full,
                            });
                        ctx.join_broadcast = Some(msg);
                    }
                }
                Effect::SetTimer { delay, tag } => {
                    debug_assert!(tag <= INNER_TAG_MASK, "inner timer tags must fit 32 bits");
                    if self.join_done {
                        ctx.out.push(SpaceEffect::SetTimer {
                            delay,
                            tag: (u64::from(key.as_raw()) << KEY_TAG_SHIFT) | tag,
                        });
                    } else if !ctx.join_timers.contains(&(delay, tag)) {
                        // Shared handshake: still-joining instances request
                        // uniform waits (contract 2) — arm each once.
                        ctx.join_timers.push((delay, tag));
                    }
                }
                Effect::JoinComplete => {
                    if !self.join_done && self.regs.iter().all(|r| r.is_active()) {
                        self.join_done = true;
                        ctx.out.push(SpaceEffect::JoinComplete);
                    }
                }
                Effect::OpComplete { op, outcome } => {
                    ctx.out.push(SpaceEffect::OpComplete { key, op, outcome });
                }
                Effect::Note(text) => ctx.out.push(SpaceEffect::Note { key, text }),
            }
        }
    }

    /// Flushes the step context into the final effect list: direct effects
    /// first (their order is the instances' own), then the coalesced join
    /// broadcast, shared timers (recorded, so an expiry can re-arm itself),
    /// the re-fire for a withheld expiry, the silence timer for protocols
    /// that arm no join timer themselves, and batched fan-in replies.
    fn flush(
        &mut self,
        mut ctx: StepCtx<P::Msg, P::Val>,
    ) -> Vec<SpaceEffect<SpaceMsg<P::Msg>, P::Val>> {
        let mut out = ctx.out;
        if let Some(inner) = ctx.join_broadcast.take() {
            let msg = SpaceMsg::JoinAll { inner, full: false };
            out.push(SpaceEffect::Broadcast { msg });
        }
        for (delay, tag) in ctx.join_timers.drain(..) {
            let tag = SHARED_TAG | tag;
            self.refire.record_wait(tag, delay);
            out.push(SpaceEffect::SetTimer { delay, tag });
        }
        if let Some(tag) = ctx.withheld {
            self.refire.refire(&mut out, self.refire.wait(tag));
        }
        if !self.join_done {
            let regs = &*self.regs;
            let heard = || Self::joining_replies(regs).unwrap_or(0);
            self.refire.arm(heard, &mut out);
        }
        if let Some(groups) = ctx.fan_sends.take() {
            for (to, mut entries) in groups {
                debug_assert!(!entries.is_empty());
                if entries.len() == 1 && !ctx.force_batch {
                    let (key, inner) = entries.pop().expect("checked non-empty");
                    out.push(SpaceEffect::Send {
                        to,
                        msg: SpaceMsg::Keyed { key, inner },
                    });
                } else {
                    let replies = entries.into();
                    let msg = SpaceMsg::Batch { replies };
                    out.push(SpaceEffect::Send { to, msg });
                }
            }
        }
        out
    }

    /// Delivers a fan-in message's per-key payloads in one pass over a
    /// single scratch borrow. An instance answering with exactly one `Send`
    /// back to `from` (any active responder) appends to `from`'s reply
    /// group, allocated once at exact capacity and returned for the caller
    /// to close; every other effect list takes the generic
    /// [`route`](Self::route) — so the effects, and their order, are those
    /// of stepping the keys one by one.
    ///
    /// With `patch` — a standing answer's entries, one per entry of
    /// `entries` — only dirty keys are stepped, their one `Send` overwriting
    /// their entry. The first to answer anything else takes `patch` away: the
    /// entries before it open the reply group and the pass goes on without.
    fn fan_in(
        &mut self,
        now: Time,
        from: NodeId,
        entries: impl ExactSizeIterator<Item = (RegisterId, P::Msg)>,
        ctx: &mut StepCtx<P::Msg, P::Val>,
        patch: &mut Option<&mut [(RegisterId, P::Msg)]>,
    ) -> Vec<(RegisterId, P::Msg)> {
        let mut scratch = std::mem::take(&mut self.scratch);
        debug_assert!(scratch.is_empty());
        let capacity = entries.len();
        let batching = ctx.fan_sends.is_some();
        // `from`'s reply group, local to the loop until something routes.
        let mut replies = Vec::new();
        for (at, (key, inner)) in entries.enumerate() {
            if patch.is_some() && !self.regs.is_dirty(key) {
                continue;
            }
            let reg = self.regs.step(key);
            reg.on_message_into(now, from, inner, &mut scratch);
            // Peek before popping: moving a whole `Effect` out right after
            // the instance wrote it stalls on store forwarding.
            match scratch.as_slice() {
                [] if patch.is_none() => {}
                [Effect::Send { to, .. }] if batching && *to == from => {
                    if replies.capacity() == 0 && patch.is_none() {
                        replies.reserve_exact(capacity);
                    }
                    if let Some(Effect::Send { msg, .. }) = scratch.pop() {
                        match patch {
                            Some(kept) => kept[at].1 = msg,
                            None => replies.push((key, msg)),
                        }
                    }
                }
                _ => {
                    if let Some(kept) = patch.take() {
                        replies.extend_from_slice(&kept[..at]);
                    }
                    ctx.fan_to(from, &mut replies);
                    self.route(key, ctx, &mut scratch);
                }
            }
        }
        self.scratch = scratch;
        replies
    }

    /// Runs `step` on the instance backing `key`, routing its effects.
    fn step_one(
        &mut self,
        key: RegisterId,
        ctx: &mut StepCtx<P::Msg, P::Val>,
        step: impl FnOnce(&mut P, &mut Vec<Effect<P::Msg, P::Val>>),
    ) {
        let mut scratch = std::mem::take(&mut self.scratch);
        debug_assert!(scratch.is_empty());
        step(self.regs.step(key), &mut scratch);
        self.route(key, ctx, &mut scratch);
        self.scratch = scratch;
    }
}

impl<P: RegisterProcess> RegisterSpaceProcess for RegisterSpace<P> {
    type Msg = SpaceMsg<P::Msg>;
    type Val = P::Val;

    fn id(&self) -> NodeId {
        self.id
    }

    fn is_active(&self) -> bool {
        self.join_done
    }

    fn key_count(&self) -> u32 {
        self.regs.len() as u32
    }

    fn on_enter(&mut self, now: Time) -> Vec<SpaceEffect<Self::Msg, Self::Val>> {
        if self.join_done {
            // Bootstrap member: already active (mirrors the single-register
            // protocols' bootstrap `on_enter`).
            return vec![SpaceEffect::JoinComplete];
        }
        // A multi-instance step: per-target sends batch (keys > 1), so the
        // handshake costs one physical message per counterpart however
        // many keys the space owns.
        let mut ctx = StepCtx::new(self.regs.len() > 1, self.shard.groups > 1);
        for raw in 0..self.regs.len() as u32 {
            self.step_one(RegisterId::from_raw(raw), &mut ctx, |reg, scratch| {
                scratch.append(&mut reg.on_enter(now));
            });
        }
        self.flush(ctx)
    }

    fn on_message_into(
        &mut self,
        now: Time,
        from: NodeId,
        msg: Self::Msg,
        out: &mut Vec<SpaceEffect<Self::Msg, Self::Val>>,
    ) {
        if let SpaceMsg::Keyed { key, inner } = msg {
            debug_assert!(self.scratch.is_empty());
            let reg = self.regs.step(key);
            reg.on_message_into(now, from, inner, &mut self.scratch);
            // Steady state's common delivery — a `WRITE` already applied
            // or stale — emits nothing, and once the join is done a flush
            // adds nothing of its own: leave before any context is built.
            if self.scratch.is_empty() && self.join_done {
                return;
            }
            let mut scratch = std::mem::take(&mut self.scratch);
            let mut ctx = StepCtx::new(false, false);
            ctx.out = std::mem::take(out);
            self.route(key, &mut ctx, &mut scratch);
            self.scratch = scratch;
            *out = self.flush(ctx);
            return;
        }
        // The handshake's fan-in messages batch per-target sends; the step
        // appends straight into the runtime's buffer (`flush` returns it).
        let mut ctx = StepCtx::new(self.regs.len() > 1, self.shard.groups > 1);
        ctx.out = std::mem::take(out);
        match msg {
            SpaceMsg::Keyed { .. } => unreachable!("stepped above"),
            SpaceMsg::JoinAll { inner, full } => {
                // Fan the shared inquiry into every instance — or, on a
                // sharded space answering a non-full inquiry, into this
                // responder's stripe (`shard_of_key` is `key mod G`) only.
                // Each key's answers to one target coalesce into a single
                // Batch (the "all keys' states in one reply" half of the
                // handshake; `K/G` of them when sharded). A 1-key space
                // batches nothing, staying message-for-message identical
                // to the solo path.
                let stripe = match self.shard.groups {
                    g if g > 1 && !full => (self.my_shard, g as usize),
                    _ => (0, 1),
                };
                let keys = (stripe.0..self.regs.len() as u32).step_by(stripe.1);
                // A standing answer (module docs) serves the inquiry as it is
                // or after its dirty keys answered again; without one, or once
                // a key answers more than its `Send`, every key is stepped.
                let mut kept = self.regs.take_answer(&inner, stripe);
                if kept.is_none() || self.regs.any_dirty() {
                    let width = keys.len();
                    let entries = keys.map(|raw| (RegisterId::from_raw(raw), inner.clone()));
                    let mut patch = kept.as_mut().map(Rc::make_mut);
                    let mut replies = self.fan_in(now, from, entries, &mut ctx, &mut patch);
                    let stepped = patch.is_none();
                    if stepped && self.join_done && replies.len() == width {
                        // One `Send` per key and nothing else (a 1-key
                        // space batches nothing, so it never gets here).
                        kept = Some(replies.into());
                    } else if stepped {
                        kept = None;
                        ctx.fan_to(from, &mut replies);
                    }
                }
                if let Some(replies) = kept {
                    self.regs.keep(now, from, inner, stripe, &replies);
                    let msg = SpaceMsg::Batch { replies };
                    ctx.out.push(SpaceEffect::Send { to: from, msg });
                }
            }
            SpaceMsg::Batch { replies } => {
                // Joiner-side shard bookkeeping: a batch from `from`
                // covers the shards of the keys it carries (its own shard
                // for a sharded reply, every shard for a full-fallback
                // one).
                if self.shard.groups > 1 && !self.join_done {
                    for (key, _) in replies.iter() {
                        let s = shard_of_key(*key, self.shard.groups) as usize;
                        self.shard_heard[s].insert(from);
                    }
                }
                let entries = replies.iter().cloned();
                let mut replies = self.fan_in(now, from, entries, &mut ctx, &mut None);
                ctx.fan_to(from, &mut replies);
            }
        }
        *out = self.flush(ctx);
    }

    fn on_timer(&mut self, now: Time, tag: u64) -> Vec<SpaceEffect<Self::Msg, Self::Val>> {
        let mut out = Vec::new();
        if tag == RETRANSMIT_TAG || tag == REINQUIRE_TAG {
            // The space's own silence timer — never forwarded to instances.
            let heard = Self::joining_replies(&self.regs).unwrap_or(0);
            self.refire.beat(self.join_done, heard, &mut out);
            return out;
        }
        if tag & SHARED_TAG != 0 {
            // A shared join-phase timer: dispatch to every still-joining
            // instance (exactly the requesters; module docs, contract 2) —
            // except, once the sharded inquiry is out, instances of shards
            // still short of their reply quorum: those stay joining and the
            // timer re-fires the inquiry (full fallback) and re-arms.
            // Multi-instance step → per-target sends batch, so postponed
            // replies flushed at activation stay one message per inquirer.
            let groups = self.shard.groups;
            let (regs, done) = (&*self.regs, self.join_done);
            let heard = || Self::joining_replies(regs);
            if self.refire.intercept(done, tag, heard, &mut out) {
                // An unsharded zero-reply expiry: dispatching it would
                // blind-activate every key at ⊥.
                return out;
            }
            let inner_tag = tag & !SHARED_TAG;
            // Snapshot the gate before stepping: the first dispatched
            // instance may broadcast the inquiry (flipping `inquired`)
            // mid-step, and pre-inquiry waits must dispatch to every key.
            let gate = groups > 1 && self.refire.inquiry.is_some() && !self.join_done;
            let mut ctx = StepCtx::new(self.regs.len() > 1, groups > 1);
            let mut withheld = false;
            for raw in 0..self.regs.len() as u32 {
                if self.regs[raw as usize].is_active() {
                    continue;
                }
                let shard = shard_of_key(RegisterId::from_raw(raw), groups) as usize;
                if gate && self.shard_heard[shard].len() < self.shard.quorum {
                    withheld = true;
                    continue;
                }
                self.step_one(RegisterId::from_raw(raw), &mut ctx, |reg, scratch| {
                    scratch.append(&mut reg.on_timer(now, inner_tag));
                });
            }
            ctx.withheld = withheld.then_some(tag);
            self.flush(ctx)
        } else {
            let key = RegisterId::from_raw((tag >> KEY_TAG_SHIFT) as u32);
            let inner_tag = tag & INNER_TAG_MASK;
            let mut ctx = StepCtx::new(false, false);
            self.step_one(key, &mut ctx, |reg, scratch| {
                scratch.append(&mut reg.on_timer(now, inner_tag));
            });
            self.flush(ctx)
        }
    }

    fn on_read(
        &mut self,
        now: Time,
        key: RegisterId,
        op: OpId,
    ) -> Vec<SpaceEffect<Self::Msg, Self::Val>> {
        let mut ctx = StepCtx::new(false, false);
        self.step_one(key, &mut ctx, |reg, scratch| {
            scratch.append(&mut reg.on_read(now, op));
        });
        self.flush(ctx)
    }

    fn on_write(
        &mut self,
        now: Time,
        key: RegisterId,
        op: OpId,
        value: Self::Val,
    ) -> Vec<SpaceEffect<Self::Msg, Self::Val>> {
        let mut ctx = StepCtx::new(false, false);
        self.step_one(key, &mut ctx, |reg, scratch| {
            scratch.append(&mut reg.on_write(now, op, value));
        });
        self.flush(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::es::{EsConfig, EsMsg, EsRegister, Timestamp};
    use crate::sync::{SyncConfig, SyncMsg, SyncRegister};
    use proptest::prelude::*;

    fn nid(i: u64) -> NodeId {
        NodeId::from_raw(i)
    }

    fn oid(i: u64) -> OpId {
        OpId::from_raw(i)
    }

    fn key(k: u32) -> RegisterId {
        RegisterId::from_raw(k)
    }

    fn cfg() -> SyncConfig {
        SyncConfig::new(Span::ticks(3))
    }

    fn bootstrap_space(id: u64, keys: u32) -> RegisterSpace<SyncRegister<u64>> {
        RegisterSpace::new_bootstrap(
            (0..keys)
                .map(|k| SyncRegister::new_bootstrap(nid(id), cfg(), u64::from(100 + k)))
                .collect(),
        )
    }

    fn joiner_space(id: u64, keys: u32) -> RegisterSpace<SyncRegister<u64>> {
        RegisterSpace::new_joiner(
            (0..keys)
                .map(|_| SyncRegister::new_joiner(nid(id), cfg(), oid(900 + id)))
                .collect(),
        )
    }

    #[test]
    fn bootstrap_space_is_active_and_reads_per_key() {
        let mut s = bootstrap_space(0, 4);
        assert!(s.is_active());
        assert_eq!(s.key_count(), 4);
        let effects = s.on_read(Time::ZERO, key(2), oid(1));
        assert_eq!(
            effects,
            vec![SpaceEffect::OpComplete {
                key: key(2),
                op: oid(1),
                outcome: OpOutcome::Read(Some(102)),
            }]
        );
    }

    #[test]
    fn bootstrap_enter_emits_one_join_complete() {
        let mut s = bootstrap_space(0, 3);
        let effects = s.on_enter(Time::ZERO);
        assert_eq!(effects, vec![SpaceEffect::JoinComplete]);
    }

    #[test]
    fn write_is_tagged_with_its_key() {
        let mut s = bootstrap_space(0, 4);
        let effects = s.on_write(Time::ZERO, key(3), oid(1), 7);
        assert!(matches!(
            &effects[0],
            SpaceEffect::Broadcast {
                msg: SpaceMsg::Keyed { key: k, inner: SyncMsg::Write { value: 7, .. } }
            } if *k == key(3)
        ));
        // The write's wait(δ) timer is key-partitioned.
        let SpaceEffect::SetTimer { tag, .. } = effects[1] else {
            panic!("expected timer, got {:?}", effects[1]);
        };
        assert_eq!(tag >> KEY_TAG_SHIFT, 3);
        // Expiry routes back to key 3 only: the write completes there.
        let done = s.on_timer(Time::at(3), tag);
        assert!(matches!(
            done.as_slice(),
            [SpaceEffect::OpComplete { key: k, op, outcome: OpOutcome::WriteOk }]
                if *k == key(3) && *op == oid(1)
        ));
    }

    #[test]
    fn joiner_shares_one_handshake() {
        let mut s = joiner_space(9, 8);
        // Enter: all 8 instances wait δ — one shared timer.
        let enter = s.on_enter(Time::ZERO);
        assert_eq!(enter.len(), 1);
        let SpaceEffect::SetTimer { tag, delay } = enter[0] else {
            panic!("expected shared timer, got {:?}", enter[0]);
        };
        assert_ne!(
            tag & SHARED_TAG,
            0,
            "join timers live in the shared partition"
        );
        assert_eq!(delay, Span::ticks(3));
        // Expiry: all 8 inquire — one JoinAll broadcast, one shared 2δ wait.
        let inquire = s.on_timer(Time::at(3), tag);
        assert_eq!(
            inquire.len(),
            2,
            "one broadcast + one shared timer: {inquire:?}"
        );
        assert!(matches!(
            inquire[0],
            SpaceEffect::Broadcast {
                msg: SpaceMsg::JoinAll {
                    inner: SyncMsg::Inquiry,
                    full: false
                }
            }
        ));
        let SpaceEffect::SetTimer { tag: t2, .. } = inquire[1] else {
            panic!("expected shared inquiry timer");
        };
        // No replies arrive; expiry activates every key and completes the
        // space join exactly once.
        let done = s.on_timer(Time::at(9), t2);
        assert_eq!(done, vec![SpaceEffect::JoinComplete]);
        assert!(s.is_active());
    }

    #[test]
    fn join_all_fans_in_and_batches_the_replies() {
        let mut responder = bootstrap_space(0, 5);
        let effects = responder.on_message(
            Time::at(1),
            nid(9),
            SpaceMsg::JoinAll {
                inner: SyncMsg::Inquiry,
                full: false,
            },
        );
        // Five per-key replies to one joiner → one physical Batch.
        assert_eq!(effects.len(), 1);
        let SpaceEffect::Send {
            to,
            msg: SpaceMsg::Batch { replies },
        } = &effects[0]
        else {
            panic!("expected one batched reply, got {effects:?}");
        };
        assert_eq!(*to, nid(9));
        assert_eq!(replies.len(), 5);
        assert!(replies
            .iter()
            .enumerate()
            .all(|(i, (k, _))| *k == key(i as u32)));
    }

    #[test]
    fn batch_delivery_routes_each_entry_to_its_key() {
        let mut s = joiner_space(9, 2);
        let enter = s.on_enter(Time::ZERO);
        let SpaceEffect::SetTimer { tag, .. } = enter[0] else {
            panic!()
        };
        let inquire = s.on_timer(Time::at(3), tag);
        let SpaceEffect::SetTimer { tag: t2, .. } = inquire[1] else {
            panic!()
        };
        // A responder's batch carries distinct values per key.
        s.on_message_into(
            Time::at(5),
            nid(0),
            SpaceMsg::Batch {
                replies: vec![
                    (
                        key(0),
                        SyncMsg::Reply {
                            value: Some(100),
                            sn: 0,
                        },
                    ),
                    (
                        key(1),
                        SyncMsg::Reply {
                            value: Some(101),
                            sn: 0,
                        },
                    ),
                ]
                .into(),
            },
            &mut Vec::new(),
        );
        let done = s.on_timer(Time::at(9), t2);
        assert_eq!(done, vec![SpaceEffect::JoinComplete]);
        assert_eq!(s.register(key(0)).local_value(), Some(&100));
        assert_eq!(s.register(key(1)).local_value(), Some(&101));
    }

    #[test]
    fn one_key_space_batches_nothing() {
        let mut responder = bootstrap_space(0, 1);
        let effects = responder.on_message(
            Time::at(1),
            nid(9),
            SpaceMsg::JoinAll {
                inner: SyncMsg::Inquiry,
                full: false,
            },
        );
        // A single reply stays a Keyed unicast — message-for-message
        // identical to the solo path.
        assert!(matches!(
            effects.as_slice(),
            [SpaceEffect::Send {
                msg: SpaceMsg::Keyed { .. },
                ..
            }]
        ));
    }

    #[test]
    fn keyed_write_reaches_only_its_instance() {
        let mut s = bootstrap_space(0, 3);
        s.on_message_into(
            Time::at(1),
            nid(1),
            SpaceMsg::Keyed {
                key: key(1),
                inner: SyncMsg::Write { value: 7, sn: 5 },
            },
            &mut Vec::new(),
        );
        assert_eq!(s.register(key(0)).local_value(), Some(&100));
        assert_eq!(s.register(key(1)).local_value(), Some(&7));
        assert_eq!(s.register(key(2)).local_value(), Some(&102));
    }

    #[test]
    fn write_during_wait_still_gets_other_keys_via_the_shared_inquiry() {
        // Key 0 adopts a WRITE during the initial δ wait, key 1 does not:
        // the shared handshake still inquires (for key 1) and the space
        // completes only when both keys are active.
        let mut s = joiner_space(9, 2);
        let enter = s.on_enter(Time::ZERO);
        let SpaceEffect::SetTimer { tag, .. } = enter[0] else {
            panic!()
        };
        s.on_message_into(
            Time::at(1),
            nid(0),
            SpaceMsg::Keyed {
                key: key(0),
                inner: SyncMsg::Write { value: 55, sn: 1 },
            },
            &mut Vec::new(),
        );
        let after_wait = s.on_timer(Time::at(3), tag);
        // Key 0 became active (no broadcast from it); key 1 inquires.
        assert!(
            after_wait.iter().any(|e| matches!(
                e,
                SpaceEffect::Broadcast {
                    msg: SpaceMsg::JoinAll { .. }
                }
            )),
            "key 1 still inquires: {after_wait:?}"
        );
        assert!(
            !after_wait.contains(&SpaceEffect::JoinComplete),
            "space join incomplete while key 1 is joining"
        );
        let SpaceEffect::SetTimer { tag: t2, .. } = *after_wait
            .iter()
            .find(|e| matches!(e, SpaceEffect::SetTimer { .. }))
            .expect("shared inquiry timer")
        else {
            unreachable!()
        };
        let done = s.on_timer(Time::at(9), t2);
        assert_eq!(done, vec![SpaceEffect::JoinComplete]);
        assert_eq!(s.register(key(0)).local_value(), Some(&55));
    }

    #[test]
    fn solo_space_is_a_transparent_adapter() {
        let mut solo = SoloSpace::new(SyncRegister::<u64>::new_bootstrap(nid(0), cfg(), 5));
        assert!(solo.is_active());
        assert_eq!(solo.key_count(), 1);
        let effects = solo.on_read(Time::ZERO, RegisterId::ZERO, oid(1));
        assert_eq!(
            effects,
            vec![SpaceEffect::OpComplete {
                key: RegisterId::ZERO,
                op: oid(1),
                outcome: OpOutcome::Read(Some(5)),
            }]
        );
        // Raw protocol messages, no key tags.
        let mut out = Vec::new();
        solo.on_message_into(Time::at(1), nid(7), SyncMsg::Inquiry, &mut out);
        assert!(matches!(
            out.as_slice(),
            [SpaceEffect::Send { to, msg: SyncMsg::Reply { .. } }] if *to == nid(7)
        ));
    }

    fn sharded_bootstrap(id: u64, keys: u32, groups: u32) -> RegisterSpace<SyncRegister<u64>> {
        bootstrap_space(id, keys).with_shards(ShardConfig::new(groups))
    }

    fn sharded_joiner(id: u64, keys: u32, groups: u32) -> RegisterSpace<SyncRegister<u64>> {
        joiner_space(id, keys).with_shards(ShardConfig::new(groups))
    }

    /// A batched reply from `from` covering the keys of its shard.
    fn shard_batch(from: u64, keys: u32, groups: u32, value: u64) -> SpaceMsg<SyncMsg<u64>> {
        SpaceMsg::Batch {
            replies: (0..keys)
                .filter(|&k| shard_of_key(key(k), groups) == shard_of_node(nid(from), groups))
                .map(|k| {
                    (
                        key(k),
                        SyncMsg::Reply {
                            value: Some(value),
                            sn: 1,
                        },
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn shard_groups_clamp_to_the_key_count() {
        let s = sharded_bootstrap(0, 4, 64);
        assert_eq!(s.shard_config().groups, 4);
        let s1 = sharded_bootstrap(0, 1, 8);
        assert_eq!(s1.shard_config().groups, 1, "a 1-key space cannot shard");
    }

    #[test]
    fn sharded_responder_answers_only_its_shard() {
        let groups = 2;
        let keys = 6;
        let mut responder = sharded_bootstrap(0, keys, groups);
        let mine = responder.responder_shard();
        let effects = responder.on_message(
            Time::at(1),
            nid(9),
            SpaceMsg::JoinAll {
                inner: SyncMsg::Inquiry,
                full: false,
            },
        );
        let [SpaceEffect::Send {
            to,
            msg: SpaceMsg::Batch { replies },
        }] = effects.as_slice()
        else {
            panic!("expected one forced batch, got {effects:?}");
        };
        assert_eq!(*to, nid(9));
        assert_eq!(replies.len() as u32, keys / groups);
        assert!(replies
            .iter()
            .all(|(k, _)| shard_of_key(*k, groups) == mine));
    }

    #[test]
    fn full_reinquiry_is_answered_for_every_key() {
        let mut responder = sharded_bootstrap(0, 6, 2);
        let effects = responder.on_message(
            Time::at(1),
            nid(9),
            SpaceMsg::JoinAll {
                inner: SyncMsg::Inquiry,
                full: true,
            },
        );
        let [SpaceEffect::Send {
            msg: SpaceMsg::Batch { replies },
            ..
        }] = effects.as_slice()
        else {
            panic!("expected one batch, got {effects:?}");
        };
        assert_eq!(replies.len(), 6, "the fallback is the legacy full reply");
    }

    #[test]
    fn starved_shard_withholds_activation_and_refires_the_inquiry() {
        let groups = 2;
        let keys = 4;
        let mut s = sharded_joiner(9, keys, groups);
        // δ wait → inquiry (sharded, not full) + 2δ wait.
        let enter = s.on_enter(Time::ZERO);
        let SpaceEffect::SetTimer { tag, .. } = enter[0] else {
            panic!()
        };
        let inquire = s.on_timer(Time::at(3), tag);
        assert!(matches!(
            inquire[0],
            SpaceEffect::Broadcast {
                msg: SpaceMsg::JoinAll { full: false, .. }
            }
        ));
        let SpaceEffect::SetTimer { tag: t2, delay } = inquire[1] else {
            panic!()
        };
        assert_eq!(delay, Span::ticks(6));
        // Only the responder covering shard 0 answers; find one per shard.
        let in_shard = |g: u32| {
            (0..64)
                .find(|&i| shard_of_node(nid(i), groups) == g)
                .unwrap()
        };
        let (r0, r1) = (in_shard(0), in_shard(1));
        s.on_message_into(
            Time::at(5),
            nid(r0),
            shard_batch(r0, keys, groups, 100),
            &mut Vec::new(),
        );
        // 2δ expiry: shard 0's keys activate, shard 1's are withheld; the
        // timer re-fires a *full* inquiry and re-arms itself.
        let effects = s.on_timer(Time::at(9), t2);
        assert!(
            !s.is_active(),
            "space join incomplete while shard 1 starves"
        );
        assert!(
            effects.iter().any(|e| matches!(
                e,
                SpaceEffect::Broadcast {
                    msg: SpaceMsg::JoinAll { full: true, .. }
                }
            )),
            "withheld shard re-fires a full inquiry: {effects:?}"
        );
        let rearm = effects
            .iter()
            .find_map(|e| match e {
                SpaceEffect::SetTimer { tag, delay } => Some((*tag, *delay)),
                _ => None,
            })
            .expect("re-armed shared timer");
        assert_eq!(rearm.1, Span::ticks(6), "same 2δ wait re-armed");
        assert!(
            !effects.contains(&SpaceEffect::JoinComplete),
            "no JoinComplete while a shard is short"
        );
        // Shard 1's responder answers the re-inquiry; the re-armed expiry
        // completes the join, and the adopted values are per shard.
        s.on_message_into(
            Time::at(11),
            nid(r1),
            shard_batch(r1, keys, groups, 200),
            &mut Vec::new(),
        );
        let done = s.on_timer(Time::at(15), rearm.0);
        assert!(done.contains(&SpaceEffect::JoinComplete), "{done:?}");
        assert!(s.is_active());
        for k_raw in 0..keys {
            let expect = if shard_of_key(key(k_raw), groups) == 0 {
                100
            } else {
                200
            };
            assert_eq!(s.register(key(k_raw)).local_value(), Some(&expect));
        }
    }

    #[test]
    fn shard_quorum_counts_distinct_responders() {
        let groups = 2;
        let mut s =
            sharded_joiner(9, 4, groups).with_shards(ShardConfig::new(groups).with_quorum(2));
        let enter = s.on_enter(Time::ZERO);
        let SpaceEffect::SetTimer { tag, .. } = enter[0] else {
            panic!()
        };
        let inquire = s.on_timer(Time::at(3), tag);
        let SpaceEffect::SetTimer { tag: t2, .. } = inquire[1] else {
            panic!()
        };
        // One responder per shard — quorum 2 not met anywhere, even if the
        // same responder repeats itself.
        let in_shard = |g: u32| {
            (0..64)
                .find(|&i| shard_of_node(nid(i), groups) == g)
                .unwrap()
        };
        for _ in 0..3 {
            s.on_message_into(
                Time::at(5),
                nid(in_shard(0)),
                shard_batch(in_shard(0), 4, groups, 7),
                &mut Vec::new(),
            );
        }
        let effects = s.on_timer(Time::at(9), t2);
        assert!(!s.is_active(), "one chatty responder is one vote");
        assert!(effects.iter().any(|e| matches!(
            e,
            SpaceEffect::Broadcast {
                msg: SpaceMsg::JoinAll { full: true, .. }
            }
        )));
        // A second distinct responder per shard satisfies quorum 2 — the
        // full fallback reply covers both shards at once.
        let extra = (0..64)
            .find(|&i| i != in_shard(0) && i != in_shard(1))
            .unwrap();
        s.on_message_into(
            Time::at(11),
            nid(in_shard(1)),
            shard_batch(in_shard(1), 4, groups, 8),
            &mut Vec::new(),
        );
        let full_reply = SpaceMsg::Batch {
            replies: (0..4)
                .map(|k| {
                    (
                        key(k),
                        SyncMsg::Reply {
                            value: Some(9),
                            sn: 1,
                        },
                    )
                })
                .collect(),
        };
        s.on_message_into(
            Time::at(11),
            nid(in_shard(0)),
            full_reply.clone(),
            &mut Vec::new(),
        );
        s.on_message_into(Time::at(11), nid(extra), full_reply, &mut Vec::new());
        // The withheld expiry re-armed the same shared tag; its next firing
        // finds every shard at quorum and completes the join.
        let done = s.on_timer(Time::at(15), t2);
        assert!(done.contains(&SpaceEffect::JoinComplete), "{done:?}");
    }

    #[test]
    fn one_group_sharding_is_the_legacy_handshake() {
        // G = 1 through the shard-config path produces exactly the legacy
        // effect streams: the equivalence oracle at the unit level.
        assert_eq!(ShardConfig::default(), ShardConfig::new(1));
        let mut legacy = bootstrap_space(0, 5);
        let mut sharded = sharded_bootstrap(0, 5, 1);
        for full in [false, true] {
            assert_eq!(
                legacy.on_message(
                    Time::at(1),
                    nid(9),
                    SpaceMsg::JoinAll {
                        inner: SyncMsg::Inquiry,
                        full
                    },
                ),
                sharded.on_message(
                    Time::at(1),
                    nid(9),
                    SpaceMsg::JoinAll {
                        inner: SyncMsg::Inquiry,
                        full
                    },
                ),
            );
        }
        let mut legacy_j = joiner_space(9, 3);
        let mut sharded_j = sharded_joiner(9, 3, 1);
        let a = legacy_j.on_enter(Time::ZERO);
        let b = sharded_j.on_enter(Time::ZERO);
        assert_eq!(a, b);
        let SpaceEffect::SetTimer { tag, .. } = a[0] else {
            panic!()
        };
        assert_eq!(
            legacy_j.on_timer(Time::at(3), tag),
            sharded_j.on_timer(Time::at(3), tag)
        );
    }

    #[test]
    fn shard_hash_is_deterministic_and_spread() {
        let groups = 16;
        let mut seen = vec![0u32; groups as usize];
        for i in 0..1000 {
            let s = shard_of_node(nid(i), groups);
            assert_eq!(s, shard_of_node(nid(i), groups));
            assert!(s < groups);
            seen[s as usize] += 1;
        }
        assert!(
            seen.iter().all(|&c| c > 20),
            "1000 nodes spread over 16 shards without starving one: {seen:?}"
        );
    }

    fn solo_sync_joiner(retransmit: Option<RetransmitConfig>) -> SoloSpace<SyncRegister<u64>> {
        SoloSpace::new(SyncRegister::new_joiner(nid(9), cfg(), oid(900)))
            .with_retransmit(retransmit)
    }

    /// Drives a solo sync joiner to its post-inquiry wait, returning the
    /// 2δ timer tag.
    fn inquire_solo_sync(s: &mut SoloSpace<SyncRegister<u64>>) -> u64 {
        let enter = s.on_enter(Time::ZERO);
        let [SpaceEffect::SetTimer { tag, .. }] = enter.as_slice() else {
            panic!("expected the δ wait, got {enter:?}");
        };
        let inquire = s.on_timer(Time::at(3), *tag);
        assert!(matches!(
            inquire[0],
            SpaceEffect::Broadcast {
                msg: SyncMsg::Inquiry
            }
        ));
        let SpaceEffect::SetTimer { tag: t2, delay } = inquire[1] else {
            panic!("expected the 2δ wait, got {inquire:?}");
        };
        assert_eq!(delay, Span::ticks(6));
        t2
    }

    #[test]
    fn solo_sync_intercepts_zero_reply_expiries_until_the_budget() {
        let rc = RetransmitConfig::after(Span::ticks(6)).with_budget(2);
        let mut s = solo_sync_joiner(Some(rc));
        let t2 = inquire_solo_sync(&mut s);
        // Two zero-reply expiries are intercepted: the inquiry re-fires and
        // the same 2δ wait is re-armed instead of dispatching the expiry.
        let mut now = 9;
        for round in 0..2 {
            let fired = s.on_timer(Time::at(now), t2);
            assert_eq!(
                fired,
                vec![
                    SpaceEffect::Broadcast {
                        msg: SyncMsg::Inquiry
                    },
                    SpaceEffect::Retransmit,
                    SpaceEffect::SetTimer {
                        delay: Span::ticks(6),
                        tag: t2,
                    },
                ],
                "interception {round}"
            );
            assert!(!s.is_active(), "still joining after interception {round}");
            now += 6;
        }
        // Budget exhausted: the next expiry dispatches normally, so the
        // paper's blind ⊥ activation is preserved — only delayed.
        let done = s.on_timer(Time::at(now), t2);
        assert!(done.contains(&SpaceEffect::JoinComplete), "{done:?}");
        assert!(s.is_active());
        assert_eq!(s.inner().local_value(), None, "blind activation is at ⊥");
    }

    #[test]
    fn solo_sync_dispatches_normally_once_a_reply_arrived() {
        let mut s = solo_sync_joiner(Some(RetransmitConfig::after(Span::ticks(6))));
        let t2 = inquire_solo_sync(&mut s);
        s.on_message_into(
            Time::at(5),
            nid(1),
            SyncMsg::Reply {
                value: Some(41),
                sn: 2,
            },
            &mut Vec::new(),
        );
        // One reply is enough to stand down: the expiry adopts and
        // activates exactly as the pre-retransmit protocol would.
        let done = s.on_timer(Time::at(9), t2);
        assert!(done.contains(&SpaceEffect::JoinComplete), "{done:?}");
        assert!(s.is_active());
        assert_eq!(s.inner().local_value(), Some(&41));
    }

    #[test]
    fn sync_retransmit_policy_is_invisible_on_a_lossless_handshake() {
        let mut plain = solo_sync_joiner(None);
        let mut with_policy = solo_sync_joiner(Some(RetransmitConfig::after(Span::ticks(6))));
        assert_eq!(plain.on_enter(Time::ZERO), with_policy.on_enter(Time::ZERO));
        let (ta, tb) = (
            inquire_solo_sync(&mut plain),
            inquire_solo_sync(&mut with_policy),
        );
        assert_eq!(ta, tb);
        for s in [&mut plain, &mut with_policy] {
            s.on_message_into(
                Time::at(5),
                nid(1),
                SyncMsg::Reply {
                    value: Some(41),
                    sn: 2,
                },
                &mut Vec::new(),
            );
        }
        // Replies landed before the wait expired: effect-for-effect
        // identical with and without the policy (the digest-equivalence
        // contract of the lossless path).
        assert_eq!(
            plain.on_timer(Time::at(9), ta),
            with_policy.on_timer(Time::at(9), tb)
        );
        assert!(plain.is_active() && with_policy.is_active());
    }

    #[test]
    fn solo_es_silence_timer_rebroadcasts_with_backoff_and_resets_on_progress() {
        // n = 3 ⇒ join quorum 2: one reply is progress but not completion.
        let ecfg = EsConfig::new(3);
        let rc = RetransmitConfig::after(Span::ticks(8)).with_budget(2);
        let mut s = SoloSpace::new(EsRegister::<u64>::new_joiner(nid(9), ecfg, oid(900)))
            .with_retransmit(Some(rc));
        // ES joins arm no timers, so the space appends its own silence
        // timer right behind the inquiry.
        assert_eq!(
            s.on_enter(Time::ZERO),
            vec![
                SpaceEffect::Broadcast {
                    msg: EsMsg::Inquiry { r_sn: 0 }
                },
                SpaceEffect::SetTimer {
                    delay: Span::ticks(8),
                    tag: RETRANSMIT_TAG,
                },
            ]
        );
        // Silent beats re-fire the inquiry and double the window (8 → 16 →
        // 32); after `budget = 2` silent beats the window plateaus at
        // `base << 2` — retries stay unbounded, backoff does not.
        for (at, next) in [(8, 16), (24, 32), (56, 32)] {
            assert_eq!(
                s.on_timer(Time::at(at), RETRANSMIT_TAG),
                vec![
                    SpaceEffect::Broadcast {
                        msg: EsMsg::Inquiry { r_sn: 0 }
                    },
                    SpaceEffect::Retransmit,
                    SpaceEffect::SetTimer {
                        delay: Span::ticks(next),
                        tag: RETRANSMIT_TAG,
                    },
                ],
                "silent beat at {at}"
            );
        }
        // One reply (below quorum) is progress: the next beat re-arms at
        // the base window without re-broadcasting.
        s.on_message_into(
            Time::at(60),
            nid(1),
            EsMsg::Reply {
                value: Some(7),
                ts: Timestamp::INITIAL,
                r_sn: 0,
            },
            &mut Vec::new(),
        );
        assert!(!s.is_active());
        assert_eq!(
            s.on_timer(Time::at(88), RETRANSMIT_TAG),
            vec![SpaceEffect::SetTimer {
                delay: Span::ticks(8),
                tag: RETRANSMIT_TAG,
            }]
        );
        // Quorum reached: the join completes, and the stale beat stands
        // down without re-arming.
        let mut out = Vec::new();
        s.on_message_into(
            Time::at(90),
            nid(2),
            EsMsg::Reply {
                value: Some(7),
                ts: Timestamp::INITIAL,
                r_sn: 0,
            },
            &mut out,
        );
        assert!(out.contains(&SpaceEffect::JoinComplete), "{out:?}");
        assert!(s.is_active());
        assert_eq!(s.on_timer(Time::at(96), RETRANSMIT_TAG), vec![]);
    }

    fn spaced_es_joiner(keys: u32) -> RegisterSpace<EsRegister<u64>> {
        let ecfg = EsConfig::new(3).with_join_quorum(2);
        RegisterSpace::new_joiner(
            (0..keys)
                .map(|_| EsRegister::<u64>::new_joiner(nid(9), ecfg, oid(900)))
                .collect(),
        )
        .with_retransmit(Some(RetransmitConfig::after(Span::ticks(8))))
    }

    #[test]
    fn spaced_one_group_es_join_retransmits_like_solo() {
        let mut s = spaced_es_joiner(2);
        // Both keys' inquiries coalesce into one JoinAll; the silence
        // timer rides right behind it — the solo sequence, spaced.
        assert_eq!(
            s.on_enter(Time::ZERO),
            vec![
                SpaceEffect::Broadcast {
                    msg: SpaceMsg::JoinAll {
                        inner: EsMsg::Inquiry { r_sn: 0 },
                        full: false,
                    }
                },
                SpaceEffect::SetTimer {
                    delay: Span::ticks(8),
                    tag: RETRANSMIT_TAG,
                },
            ]
        );
        assert_eq!(
            s.on_timer(Time::at(8), RETRANSMIT_TAG),
            vec![
                SpaceEffect::Broadcast {
                    msg: SpaceMsg::JoinAll {
                        inner: EsMsg::Inquiry { r_sn: 0 },
                        full: false,
                    }
                },
                SpaceEffect::Retransmit,
                SpaceEffect::SetTimer {
                    delay: Span::ticks(16),
                    tag: RETRANSMIT_TAG,
                },
            ]
        );
        assert!(!s.is_active());
    }

    #[test]
    fn duplicate_batch_replies_never_complete_a_join_early() {
        let mut s = spaced_es_joiner(2);
        s.on_enter(Time::ZERO);
        let batch = || SpaceMsg::Batch {
            replies: (0..2)
                .map(|k| {
                    (
                        key(k),
                        EsMsg::Reply {
                            value: Some(7),
                            ts: Timestamp::INITIAL,
                            r_sn: 0,
                        },
                    )
                })
                .collect(),
        };
        // A retransmitted inquiry often elicits duplicate replies: the
        // same responder's batch delivered twice is still one vote toward
        // join quorum 2.
        for round in 0..2 {
            let mut out = Vec::new();
            s.on_message_into(Time::at(5), nid(1), batch(), &mut out);
            assert!(
                !out.contains(&SpaceEffect::JoinComplete),
                "duplicate delivery {round} completed the join: {out:?}"
            );
        }
        assert!(!s.is_active(), "a duplicate reply is not a second vote");
        // A second *distinct* responder reaches the quorum.
        let mut out = Vec::new();
        s.on_message_into(Time::at(6), nid(2), batch(), &mut out);
        assert!(out.contains(&SpaceEffect::JoinComplete), "{out:?}");
        assert!(s.is_active());
    }

    /// The per-key path the single-pass fan-in replaced, as an oracle: one
    /// `step_one` (scratch take, `route`, group `find`) per entry.
    fn per_key_fan_in<P: RegisterProcess>(
        space: &mut RegisterSpace<P>,
        from: NodeId,
        entries: Vec<(RegisterId, P::Msg)>,
    ) -> Vec<SpaceEffect<SpaceMsg<P::Msg>, P::Val>> {
        let mut ctx = StepCtx::new(space.regs.len() > 1, space.shard.groups > 1);
        for (key, inner) in entries {
            space.step_one(key, &mut ctx, |reg, scratch| {
                reg.on_message_into(Time::at(7), from, inner, scratch);
            });
        }
        space.flush(ctx)
    }

    /// The keys a responder answers a `JoinAll` for, by `shard_of_key`.
    fn answered_keys<P: RegisterProcess>(space: &RegisterSpace<P>, full: bool) -> Vec<RegisterId> {
        let groups = space.shard.groups;
        (0..space.key_count())
            .map(key)
            .filter(|k| groups == 1 || full || shard_of_key(*k, groups) == space.my_shard)
            .collect()
    }

    /// A sync joiner past its `δ` wait in which `active` keys adopted a
    /// `WRITE` meanwhile (so they are active) and the rest are inquiring.
    fn mixed_sync_space(
        keys: u32,
        groups: u32,
        active: &[u32],
    ) -> RegisterSpace<SyncRegister<u64>> {
        let mut s = sharded_joiner(9, keys, groups);
        let enter = s.on_enter(Time::ZERO);
        let SpaceEffect::SetTimer { tag, .. } = enter[0] else {
            panic!("expected the shared δ wait, got {enter:?}");
        };
        for &k in active {
            let write = SyncMsg::Write { value: 50, sn: 2 };
            let msg = SpaceMsg::Keyed {
                key: key(k),
                inner: write,
            };
            s.on_message_into(Time::at(1), nid(0), msg, &mut Vec::new());
        }
        s.on_timer(Time::at(3), tag);
        for k in 0..keys {
            assert_eq!(s.register(key(k)).is_active(), active.contains(&k));
        }
        s
    }

    #[test]
    fn single_pass_join_all_matches_the_per_key_path() {
        let inquirer = nid(77);
        for (keys, groups, active) in [
            (6, 1, &[0, 2, 5][..]),
            (6, 4, &[0, 2, 5]),
            (6, 4, &[]),
            (1, 1, &[0]),
            (1, 1, &[]),
        ] {
            for full in [false, true] {
                let mut single = mixed_sync_space(keys, groups, active);
                let mut per_key = mixed_sync_space(keys, groups, active);
                let entries = answered_keys(&per_key, full)
                    .into_iter()
                    .map(|k| (k, SyncMsg::Inquiry))
                    .collect();
                let inquiry = SpaceMsg::JoinAll {
                    inner: SyncMsg::Inquiry,
                    full,
                };
                let got = single.on_message(Time::at(7), inquirer, inquiry);
                let want = per_key_fan_in(&mut per_key, inquirer, entries);
                assert_eq!(got, want, "K={keys} G={groups} full={full} {active:?}");
                if keys == 1 {
                    let batches = got.iter().filter(|e| {
                        matches!(
                            e,
                            SpaceEffect::Send {
                                msg: SpaceMsg::Batch { .. },
                                ..
                            }
                        )
                    });
                    assert_eq!(batches.count(), 0, "a 1-key space never batches");
                }
                // The joining keys postponed the inquirer identically: both
                // spaces answer it the same way on activation.
                let tag = SHARED_TAG | 2; // the shared `wait(2δ)`
                assert_eq!(
                    single.on_timer(Time::at(9), tag),
                    per_key.on_timer(Time::at(9), tag)
                );
            }
        }
    }

    /// An ES space with every shape of answer to one inquiry: key 0 active
    /// (one `Send`), key 1 active *and reading* (two `Send`s — the generic
    /// route), keys 2–3 still joining (a `DL_PREV` back, a postponement).
    fn mixed_es_space(groups: u32) -> RegisterSpace<EsRegister<u64>> {
        let ecfg = EsConfig::new(3).with_join_quorum(2).with_notes();
        let regs = (0..4).map(|_| EsRegister::<u64>::new_joiner(nid(9), ecfg, oid(900)));
        let mut s = RegisterSpace::new_joiner(regs.collect()).with_shards(ShardConfig::new(groups));
        s.on_enter(Time::ZERO);
        for from in [1, 2] {
            let reply = EsMsg::Reply {
                value: Some(7),
                ts: Timestamp::INITIAL,
                r_sn: 0,
            };
            let batch = SpaceMsg::Batch {
                replies: vec![(key(0), reply.clone()), (key(1), reply)].into(),
            };
            s.on_message_into(Time::at(2), nid(from), batch, &mut Vec::new());
        }
        assert!(s.register(key(1)).is_active() && !s.register(key(2)).is_active());
        s.on_read(Time::at(3), key(1), oid(5));
        s
    }

    #[test]
    fn single_pass_fan_in_matches_the_per_key_path_on_es() {
        for groups in [1, 4] {
            for full in [false, true] {
                let mut single = mixed_es_space(groups);
                let mut per_key = mixed_es_space(groups);
                let inquiry = EsMsg::Inquiry { r_sn: 0 };
                let entries = answered_keys(&per_key, full)
                    .into_iter()
                    .map(|k| (k, inquiry.clone()))
                    .collect();
                let msg = SpaceMsg::JoinAll {
                    inner: inquiry,
                    full,
                };
                let got = single.on_message(Time::at(7), nid(77), msg);
                assert_eq!(
                    got,
                    per_key_fan_in(&mut per_key, nid(77), entries),
                    "JoinAll G={groups} full={full}"
                );
                // Absorbing a batch that completes the join: acks to the
                // responder, a note, the postponed replies to the inquirer
                // (a second target) and `JoinComplete`, in the same order.
                let reply = EsMsg::Reply {
                    value: Some(8),
                    ts: Timestamp::INITIAL,
                    r_sn: 0,
                };
                for from in [1, 2] {
                    let entries: Vec<_> = (0..4).map(|k| (key(k), reply.clone())).collect();
                    let batch = SpaceMsg::Batch {
                        replies: entries.clone().into(),
                    };
                    if groups > 1 {
                        // The oracle bypasses the Batch arm's shard
                        // bookkeeping; nothing below reads it.
                        per_key.shard_heard = single.shard_heard.clone();
                    }
                    let got = single.on_message(Time::at(8), nid(from), batch);
                    assert_eq!(
                        got,
                        per_key_fan_in(&mut per_key, nid(from), entries),
                        "Batch from {from} G={groups} full={full}"
                    );
                }
                assert!(single.is_active() && per_key.is_active());
            }
        }
    }

    #[test]
    fn payload_count_reflects_batching() {
        assert_eq!(
            SpaceMsg::Keyed {
                key: key(0),
                inner: ()
            }
            .payload_count(),
            1
        );
        assert_eq!(
            SpaceMsg::JoinAll {
                inner: (),
                full: false
            }
            .payload_count(),
            1
        );
        assert_eq!(
            SpaceMsg::<()>::Batch {
                replies: vec![(key(0), ()), (key(1), ())].into(),
            }
            .payload_count(),
            2
        );
    }

    /// The join a re-fire machine serves: timer-driven (the protocol armed
    /// join wait 2) or quorum-driven, in an unsharded or a sharded space.
    enum Join {
        Timed,
        Quorum,
        ShardedTimed,
        Sharded,
    }

    /// One input to the re-fire machine.
    enum Step {
        /// A join-phase step closed (decision 1) with this many replies in.
        Arm(usize),
        /// The silence timer fired (decision 2): `(done, heard)`.
        Beat(bool, usize),
        /// Join wait 2 expired (decision 3): `(done, heard)`.
        Expire(bool, Option<usize>),
    }

    #[test]
    fn join_refire_decisions() {
        use Join::*;
        use Step::*;
        type Fx = SpaceEffect<u8, u64>;
        type Case = (&'static str, Join, Vec<(Step, Vec<Fx>)>);
        let timer = |ticks, tag| Fx::SetTimer {
            delay: Span::ticks(ticks),
            tag,
        };
        let silence = |ticks| timer(ticks, RETRANSMIT_TAG);
        let refired = |rearm| vec![Fx::Broadcast { msg: 7 }, Fx::Retransmit, rearm];
        let reinquiry = || vec![Fx::Broadcast { msg: 7 }, timer(12, REINQUIRE_TAG)];
        // (case, the join's kind, steps and what each must emit — an
        // expiry emitting nothing was not consumed).
        let table: Vec<Case> = vec![
            (
                "budget exhaustion lets the expiry dispatch (blind ⊥ activation)",
                Timed,
                vec![
                    (Arm(0), vec![]),
                    (Expire(false, Some(0)), refired(timer(6, 2))),
                    (Expire(false, Some(0)), refired(timer(6, 2))),
                    (Expire(false, Some(0)), vec![]),
                ],
            ),
            (
                "a gathered reply, or no reply count at all, stands down",
                Timed,
                vec![
                    (Expire(false, Some(1)), vec![]),
                    (Expire(false, None), vec![]),
                ],
            ),
            (
                "the window plateaus at base << budget",
                Quorum,
                vec![
                    (Arm(0), vec![silence(8)]),
                    (Arm(0), vec![]),
                    (Beat(false, 0), refired(silence(16))),
                    (Beat(false, 0), refired(silence(32))),
                    (Beat(false, 0), refired(silence(32))),
                ],
            ),
            (
                "progress resets the exponent; a duplicate reply is not progress",
                Quorum,
                vec![
                    (Arm(0), vec![silence(8)]),
                    (Beat(false, 0), refired(silence(16))),
                    (Beat(false, 1), vec![silence(8)]),
                    (Beat(false, 1), refired(silence(16))),
                ],
            ),
            (
                "nothing is emitted once the join is done",
                Timed,
                vec![(Expire(true, Some(0)), vec![]), (Beat(true, 0), vec![])],
            ),
            (
                "the sharded pace beats unconditionally, uncounted, at one period",
                Sharded,
                vec![
                    (Arm(0), vec![timer(12, REINQUIRE_TAG)]),
                    (Beat(false, 0), reinquiry()),
                    (Beat(false, 5), reinquiry()),
                ],
            ),
            (
                "a sharded space never intercepts",
                ShardedTimed,
                vec![(Expire(false, Some(0)), vec![])],
            ),
        ];
        for (case, join, steps) in table {
            let mut m = JoinRefire::new();
            m.policy = Some(RetransmitConfig::after(Span::ticks(8)).with_budget(2));
            m.inquiry = Some(7u8);
            match join {
                Timed | ShardedTimed => m.record_wait(2, Span::ticks(6)),
                Quorum | Sharded => {}
            }
            if matches!(join, Sharded | ShardedTimed) {
                m.reinquire = Some(Span::ticks(12));
            }
            for (i, (step, want)) in steps.into_iter().enumerate() {
                let mut out = Vec::new();
                match step {
                    Arm(heard) => m.arm(|| heard, &mut out),
                    Beat(done, heard) => m.beat(done, heard, &mut out),
                    Expire(done, heard) => {
                        let consumed = m.intercept(done, 2, || heard, &mut out);
                        assert_eq!(consumed, !out.is_empty(), "{case}: step {i}");
                    }
                }
                assert_eq!(out, want, "{case}: step {i}");
            }
        }
    }

    // ---- Standing join answers ------------------------------------------

    /// The `Batch` a responder answered `from`'s inquiry with.
    fn batch_to<M: Clone + fmt::Debug, V: fmt::Debug>(
        effects: &[SpaceEffect<SpaceMsg<M>, V>],
        from: NodeId,
    ) -> Entries<M> {
        match effects {
            [SpaceEffect::Send {
                to,
                msg: SpaceMsg::Batch { replies },
            }] if *to == from => Rc::clone(replies),
            other => panic!("expected one Batch to {from:?}, got {other:?}"),
        }
    }

    fn sync_inquiry(full: bool) -> SpaceMsg<SyncMsg<u64>> {
        SpaceMsg::JoinAll {
            inner: SyncMsg::Inquiry,
            full,
        }
    }

    fn remote_write(k: u32, value: u64, sn: i64) -> SpaceMsg<SyncMsg<u64>> {
        SpaceMsg::Keyed {
            key: key(k),
            inner: SyncMsg::Write { value, sn },
        }
    }

    #[test]
    fn a_reply_in_flight_keeps_its_entries() {
        let reply = |value, sn| SyncMsg::Reply {
            value: Some(value),
            sn,
        };
        let mut s = bootstrap_space(0, 5);
        let first = batch_to(
            &s.on_message(Time::at(1), nid(7), sync_inquiry(false)),
            nid(7),
        );
        let sent = first.to_vec();
        // Key 2 adopts a WRITE while `first` is still on the wire.
        s.on_message_into(Time::at(2), nid(1), remote_write(2, 77, 5), &mut Vec::new());
        let second = batch_to(
            &s.on_message(Time::at(3), nid(8), sync_inquiry(false)),
            nid(8),
        );
        assert!(
            !Rc::ptr_eq(&first, &second),
            "a shared slice is not written"
        );
        assert_eq!(first.to_vec(), sent, "the reply in flight is what was sent");
        let changed: Vec<usize> = (0..5).filter(|&i| first[i] != second[i]).collect();
        assert_eq!(changed, vec![2]);
        assert_eq!(second[2], (key(2), reply(77, 5)));
        // Nothing stepped since: the next inquirer gets the same allocation.
        drop(first);
        let third = batch_to(
            &s.on_message(Time::at(4), nid(9), sync_inquiry(false)),
            nid(9),
        );
        assert!(Rc::ptr_eq(&second, &third));
        // With every reply delivered and dropped the slice is the space's
        // alone again, and the next dirty key is patched in place. (A copy
        // would be allocated while this one is still alive, so it could not
        // reuse the address.)
        let at = Rc::as_ptr(&third).cast::<()>();
        drop((second, third));
        s.on_message_into(Time::at(5), nid(1), remote_write(4, 78, 6), &mut Vec::new());
        let fourth = batch_to(
            &s.on_message(Time::at(6), nid(7), sync_inquiry(false)),
            nid(7),
        );
        assert_eq!(Rc::as_ptr(&fourth).cast::<()>(), at);
        assert_eq!(fourth[2], (key(2), reply(77, 5)));
        assert_eq!(fourth[4], (key(4), reply(78, 6)));
    }

    #[test]
    fn inputs_the_standing_answer_cannot_serve_behave_as_before() {
        // A still-joining responder whose stripe is all active answers with
        // one Batch, but a joining space's flush has more to say: no answer.
        let mut joining = mixed_sync_space(6, 1, &[0, 1, 2, 3, 4]);
        for _ in 0..2 {
            let got = joining.on_message(Time::at(7), nid(77), sync_inquiry(false));
            assert_eq!(batch_to(&got, nid(77)).len(), 5);
            assert!(joining
                .regs
                .take_answer(&SyncMsg::Inquiry, (0, 1))
                .is_none());
        }
        // A 1-key space batches nothing and keeps nothing.
        let mut one = bootstrap_space(0, 1);
        for _ in 0..2 {
            let got = one.on_message(Time::at(1), nid(9), sync_inquiry(false));
            let [SpaceEffect::Send {
                msg: SpaceMsg::Keyed { .. },
                ..
            }] = got.as_slice()
            else {
                panic!("expected one Keyed reply, got {got:?}");
            };
            assert!(one.regs.take_answer(&SyncMsg::Inquiry, (0, 1)).is_none());
        }
        // A one-key stripe under G > 1 is a forced one-entry Batch, kept
        // like any other; a full inquiry is another stripe and replaces it.
        let mut striped = sharded_bootstrap(0, 4, 4);
        let mine = striped.responder_shard();
        let a = batch_to(
            &striped.on_message(Time::at(1), nid(9), sync_inquiry(false)),
            nid(9),
        );
        let b = batch_to(
            &striped.on_message(Time::at(2), nid(8), sync_inquiry(false)),
            nid(8),
        );
        assert!(Rc::ptr_eq(&a, &b));
        assert_eq!(a.iter().map(|(k, _)| *k).collect::<Vec<_>>(), [key(mine)]);
        let full = batch_to(
            &striped.on_message(Time::at(3), nid(8), sync_inquiry(true)),
            nid(8),
        );
        assert_eq!(full.len(), 4);
        assert!(striped
            .regs
            .take_answer(&SyncMsg::Inquiry, (0, 1))
            .is_some());
    }

    /// A sync instance that logs the key of every message it is stepped
    /// with.
    #[derive(Debug)]
    struct Logged {
        key: u32,
        log: Rc<std::cell::RefCell<Vec<u32>>>,
        inner: SyncRegister<u64>,
    }

    impl RegisterProcess for Logged {
        type Msg = SyncMsg<u64>;
        type Val = u64;

        fn id(&self) -> NodeId {
            self.inner.id()
        }

        fn is_active(&self) -> bool {
            self.inner.is_active()
        }

        fn on_enter(&mut self, now: Time) -> Vec<Effect<SyncMsg<u64>, u64>> {
            self.inner.on_enter(now)
        }

        fn on_message_into(
            &mut self,
            now: Time,
            from: NodeId,
            msg: SyncMsg<u64>,
            out: &mut Vec<Effect<SyncMsg<u64>, u64>>,
        ) {
            self.log.borrow_mut().push(self.key);
            self.inner.on_message_into(now, from, msg, out);
        }

        fn on_timer(&mut self, now: Time, tag: u64) -> Vec<Effect<SyncMsg<u64>, u64>> {
            self.inner.on_timer(now, tag)
        }

        fn on_read(&mut self, now: Time, op: OpId) -> Vec<Effect<SyncMsg<u64>, u64>> {
            self.inner.on_read(now, op)
        }

        fn on_write(&mut self, now: Time, op: OpId, value: u64) -> Vec<Effect<SyncMsg<u64>, u64>> {
            self.inner.on_write(now, op, value)
        }
    }

    #[test]
    fn beyond_64_keys_a_dirty_key_resteps_the_keys_sharing_its_bit() {
        let log = Rc::new(std::cell::RefCell::new(Vec::new()));
        let regs = (0..130).map(|k| Logged {
            key: k,
            log: Rc::clone(&log),
            inner: SyncRegister::new_bootstrap(nid(0), cfg(), u64::from(k)),
        });
        let mut s = RegisterSpace::new_bootstrap(regs.collect());
        let first = batch_to(
            &s.on_message(Time::at(1), nid(9), sync_inquiry(false)),
            nid(9),
        );
        assert_eq!(first.len(), 130);
        drop(first);
        // Debug builds re-step the whole stripe to check each answer handed
        // out; the steps counted here are the ones before that check.
        let stepped = |s: &mut RegisterSpace<Logged>, at: u64| {
            log.borrow_mut().clear();
            let got = s.on_message(Time::at(at), nid(9), sync_inquiry(false));
            let checked = if cfg!(debug_assertions) { 130 } else { 0 };
            let mut steps = log.borrow().clone();
            steps.truncate(steps.len() - checked);
            (steps, batch_to(&got, nid(9)))
        };
        assert_eq!(stepped(&mut s, 2).0, [0u32; 0], "clean: a pointer copy");
        s.on_message_into(
            Time::at(3),
            nid(1),
            remote_write(3, 500, 9),
            &mut Vec::new(),
        );
        let (steps, batch) = stepped(&mut s, 4);
        assert_eq!(steps, [3, 67]);
        let fresh = SyncMsg::Reply {
            value: Some(500),
            sn: 9,
        };
        assert_eq!(batch[3], (key(3), fresh));
        assert_eq!(stepped(&mut s, 5).0, [0u32; 0]);
    }

    /// What the standing-answer properties need of a protocol: how the
    /// rest of the system talks to one of its active instances.
    trait Wire: RegisterProcess<Val = u64> + Clone {
        fn bootstrap(initial: u64) -> Self;
        fn inquiry(r_sn: u64) -> Self::Msg;
        /// A remote writer's `WRITE`.
        fn write(from: u64, sn: u64) -> Self::Msg;
        /// An unsolicited (late, duplicate) join reply.
        fn reply(from: u64, sn: u64) -> Self::Msg;
        /// What node `from` answers to this process's broadcast, if anything.
        fn answer(broadcast: &Self::Msg, from: u64) -> Option<Self::Msg>;
    }

    impl Wire for SyncRegister<u64> {
        fn bootstrap(initial: u64) -> Self {
            SyncRegister::new_bootstrap(nid(0), cfg(), initial)
        }

        fn inquiry(_r_sn: u64) -> SyncMsg<u64> {
            SyncMsg::Inquiry
        }

        fn write(from: u64, sn: u64) -> SyncMsg<u64> {
            SyncMsg::Write {
                value: 10 * sn + from,
                sn: sn as i64,
            }
        }

        fn reply(from: u64, sn: u64) -> SyncMsg<u64> {
            SyncMsg::Reply {
                value: Some(from),
                sn: sn as i64,
            }
        }

        fn answer(_broadcast: &SyncMsg<u64>, _from: u64) -> Option<SyncMsg<u64>> {
            None
        }
    }

    impl Wire for EsRegister<u64> {
        fn bootstrap(initial: u64) -> Self {
            EsRegister::new_bootstrap(nid(0), EsConfig::new(3), initial)
        }

        fn inquiry(r_sn: u64) -> EsMsg<u64> {
            EsMsg::Inquiry { r_sn }
        }

        fn write(from: u64, sn: u64) -> EsMsg<u64> {
            let ts = Timestamp {
                sn: sn as i64,
                writer: from,
            };
            EsMsg::Write {
                value: 10 * sn + from,
                ts,
            }
        }

        fn reply(from: u64, sn: u64) -> EsMsg<u64> {
            EsMsg::Reply {
                value: Some(from),
                ts: Timestamp::INITIAL,
                r_sn: sn % 3,
            }
        }

        fn answer(broadcast: &EsMsg<u64>, from: u64) -> Option<EsMsg<u64>> {
            match broadcast {
                EsMsg::Read { r_sn } => Some(EsMsg::Reply {
                    value: Some(from),
                    ts: Timestamp {
                        sn: from as i64,
                        writer: from,
                    },
                    r_sn: *r_sn,
                }),
                EsMsg::Write { ts, .. } => Some(EsMsg::Ack { ts: *ts }),
                _ => None,
            }
        }
    }

    /// What the rest of the system still owes the space under test.
    enum Owed<M> {
        Timer(u64),
        Msg(u64, RegisterId, M),
    }

    /// A join-done space driven the way a runtime drives it: one client
    /// operation at a time, its broadcasts answered by nodes 1 and 2, its
    /// timers and those answers delivered when the schedule says so.
    struct Rig<P: Wire> {
        space: RegisterSpace<P>,
        owed: std::collections::VecDeque<Owed<P::Msg>>,
        busy: bool,
        now: u64,
    }

    /// One generated step: `(kind, key, node, x, flag)`.
    type RigStep = (u32, u32, u64, u64, bool);

    fn rig_steps() -> impl Strategy<Value = Vec<RigStep>> {
        let step = (0u32..8, 0u32..130, 0u64..4, 0u64..6, prop::bool::ANY);
        prop::collection::vec(step, 1..48)
    }

    impl<P: Wire> Rig<P> {
        fn new(keys: u32, groups: u32) -> Rig<P> {
            let regs = (0..keys).map(|k| P::bootstrap(u64::from(100 + k)));
            let space =
                RegisterSpace::new_bootstrap(regs.collect()).with_shards(ShardConfig::new(groups));
            Rig {
                space,
                owed: std::collections::VecDeque::new(),
                busy: false,
                now: 0,
            }
        }

        fn absorb(&mut self, effects: Vec<SpaceEffect<SpaceMsg<P::Msg>, u64>>) {
            for effect in effects {
                match effect {
                    SpaceEffect::SetTimer { tag, .. } => self.owed.push_back(Owed::Timer(tag)),
                    SpaceEffect::OpComplete { .. } => self.busy = false,
                    SpaceEffect::Broadcast {
                        msg: SpaceMsg::Keyed { key, inner },
                    } => {
                        let answers = [1, 2].map(|from| (from, P::answer(&inner, from)));
                        for (from, answer) in answers {
                            self.owed.extend(answer.map(|m| Owed::Msg(from, key, m)));
                        }
                    }
                    _ => {}
                }
            }
        }

        /// Runs every step but an inquiry; an inquiry (kinds 6–7) is left
        /// to the caller, as `(from, msg)`.
        fn step(
            &mut self,
            (kind, k, node, x, flag): RigStep,
        ) -> Option<(NodeId, SpaceMsg<P::Msg>)> {
            self.now += 1;
            let (now, k) = (Time::at(self.now), key(k % self.space.key_count()));
            let op = oid(self.now);
            let effects = match kind {
                0 | 1 => {
                    let inner = P::write(node, x);
                    self.space
                        .on_message(now, nid(node), SpaceMsg::Keyed { key: k, inner })
                }
                2 if !self.busy => {
                    self.busy = true;
                    self.space.on_read(now, k, op)
                }
                3 if !self.busy => {
                    self.busy = true;
                    self.space.on_write(now, k, op, 1000 + self.now)
                }
                2..=5 => match self.owed.pop_front() {
                    None => Vec::new(),
                    Some(Owed::Timer(tag)) => self.space.on_timer(now, tag),
                    Some(Owed::Msg(from, key, inner)) if kind == 5 => {
                        // Inside a Batch, beside a stray reply on key `k`.
                        let replies = vec![(key, inner), (k, P::reply(node, x))];
                        let msg = SpaceMsg::Batch {
                            replies: replies.into(),
                        };
                        self.space.on_message(now, nid(from), msg)
                    }
                    Some(Owed::Msg(from, key, inner)) => {
                        self.space
                            .on_message(now, nid(from), SpaceMsg::Keyed { key, inner })
                    }
                },
                _ => {
                    let inner = P::inquiry(x % 2);
                    return Some((nid(10 + node), SpaceMsg::JoinAll { inner, full: flag }));
                }
            };
            self.absorb(effects);
            None
        }
    }

    fn standing_matches_fresh<P: Wire>(
        keys: u32,
        groups: u32,
        steps: &[RigStep],
    ) -> Result<(), TestCaseError> {
        let mut rig = Rig::<P>::new(keys, groups);
        let mut handed_out = Vec::new();
        for &step in steps {
            let Some((from, inquiry)) = rig.step(step) else {
                continue;
            };
            // The oracle: the same instances in a space that never kept an
            // answer.
            let mut fresh = RegisterSpace::new_bootstrap(rig.space.regs.to_vec())
                .with_shards(ShardConfig::new(groups));
            let now = Time::at(rig.now);
            let got = rig.space.on_message(now, from, inquiry.clone());
            prop_assert_eq!(&got, &fresh.on_message(now, from, inquiry));
            prop_assert_eq!(
                format!("{:?}", &*rig.space.regs),
                format!("{:?}", &*fresh.regs)
            );
            // Some replies stay in flight (here: forever), some are dropped.
            if !rig.now.is_multiple_of(3) {
                handed_out.push(got.clone());
            }
            rig.absorb(got);
        }
        Ok(())
    }

    fn answering_is_pure<P: Wire>(steps: &[RigStep]) -> Result<(), TestCaseError> {
        let mut rig = Rig::<P>::new(3, 1);
        for &step in steps {
            let Some((from, SpaceMsg::JoinAll { inner, .. })) = rig.step(step) else {
                continue;
            };
            for reg in rig.space.regs.iter() {
                let (before, mut reg) = (format!("{reg:?}"), reg.clone());
                let answer = reg.on_message(Time::at(rig.now), from, inner.clone());
                if before.contains("reading: true") {
                    // An ES reader adds `DL_PREV`: never a standing entry.
                    prop_assert_eq!(answer.len(), 2);
                } else {
                    let one_send = matches!(answer.as_slice(),
                        [Effect::Send { to, .. }] if *to == from);
                    prop_assert!(one_send, "an active instance answers {answer:?}");
                    prop_assert_eq!(format!("{reg:?}"), before);
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever happened since an answer was kept — remote writes,
        /// client operations in any phase, timers, late replies inside
        /// batches, replies still in flight — an inquiry is answered as a
        /// space that never kept one answers it, and leaves the same state.
        #[test]
        fn standing_answer_matches_a_fresh_space(
            shape in prop::sample::select(vec![(2u32, 1u32), (5, 1), (5, 4), (64, 1), (64, 4), (130, 1), (130, 4)]),
            es in prop::bool::ANY,
            steps in rig_steps(),
        ) {
            let (keys, groups) = shape;
            if es {
                standing_matches_fresh::<EsRegister<u64>>(keys, groups, &steps)?;
            } else {
                standing_matches_fresh::<SyncRegister<u64>>(keys, groups, &steps)?;
            }
        }

        /// Handshake contract 3, both protocols: an active instance that
        /// answers an inquiry with its one `Send` changes no state, and an
        /// ES instance in a read — which must not become a standing entry —
        /// answers with two.
        #[test]
        fn answering_an_inquiry_while_active_changes_no_state(
            es in prop::bool::ANY,
            steps in rig_steps(),
        ) {
            if es {
                answering_is_pure::<EsRegister<u64>>(&steps)?;
            } else {
                answering_is_pure::<SyncRegister<u64>>(&steps)?;
            }
        }
    }
}
