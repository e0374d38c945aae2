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
//! * The wire format is the space's second type parameter
//!   ([`WireFormat`]); only it differs between key counts. [`KeyTags`],
//!   the default, puts [`SpaceMsg`]s on the network. [`OneKey`] puts the
//!   protocol's own messages there, which holds for one key only: a 1-key
//!   space never batches and its inquiry is never `full`, so every message
//!   is key 0's. The paper's one-register system is a
//!   `RegisterSpace<P, OneKey>`, which the factory picks from the key count,
//!   and every key count runs the same handshake and the same re-fire machine.
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
//! A joined space is just its registers and needs no contract: a read,
//! write, key-tagged timer or [`SpaceMsg::Keyed`] delivery steps one key's
//! instance, whose effects go straight out tagged with that key. Only the
//! join's inputs (`on_enter`, `JoinAll`, `Batch`, shared timers, deliveries
//! to a space still joining) take the handshake router, and its re-fire
//! state lives in one box, held only under a retransmit policy or a
//! sharded handshake, that a joining space drops with its `JoinComplete`.
//!
//! Both ends of the handshake stream: a responder builds its
//! [`SpaceMsg::Batch`] in one pass over its instances (one reply vector,
//! sized once), and a joiner hands each received entry to its instance in
//! place, by reference — the sync protocol folds it into a running
//! maximum, cloning only a new best, so a join holds O(1) state per key
//! however many processes answer.
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
//! Memory: register 0 lives inline and keys 1 … K−1 in one vector, so a
//! joined 1-key space over sync `u64` is 128 B with no heap block of its
//! own; beside its instances (72 B sync, 256 B ES) a `K`-key space holds
//! one boxed standing answer of `K/G` entries.
//!
//! # Key-sharded join replies
//!
//! A full-state reply costs `K` entries per responder, `K·n` per join.
//! [`ShardConfig`] stripes the reply side over `G` groups: a responder in
//! shard [`shard_of_node`] answers a non-`full` [`SpaceMsg::JoinAll`] only
//! for its own keys (`key mod G`), and the joiner's shared join timer
//! activates only the keys of shards it heard from. A starved shard
//! re-fires the inquiry as `full`, which every active process answers for
//! all keys, so it degrades to the full-state transfer instead of
//! wedging. Protocols that set no join timers (ES) re-inquire every
//! [`ShardConfig::reinquire_every`] instead, with the join quorum sized to
//! the shard (`EsConfig::join_quorum`). `G = 1`, the default, is the
//! full-reply handshake: every gate below is conditioned on `groups > 1`.
//!
//! # Loss-tolerant join retransmission
//!
//! The paper assumes reliable channels: a sync joiner whose handshake is
//! lost blind-activates at `⊥`, and an ES joiner wedges **forever**.
//! [`RetransmitConfig`] bounds that for unsharded handshakes. A sync
//! join's post-inquiry wait that expires with *zero* replies
//! ([`RegisterProcess::join_replies`]) re-fires the inquiry and re-arms
//! instead of dispatching, up to [`RetransmitConfig::budget`] times; an ES
//! join gets the space's own silence timer ([`RETRANSMIT_TAG`]), which
//! re-fires on every silent beat and doubles its window up to the budget.
//! Each re-fire is marked by a digest-invisible [`SpaceEffect::Retransmit`],
//! and responders are idempotent: a re-received inquiry is answered from
//! current state, and a duplicate `Batch` only re-marks a shard already
//! heard from.
//!
//! `docs/PROTOCOL.md` at the repository root specifies the wire-level
//! lifecycle: the message grammar, shard striping and the retransmit
//! machine.

use std::fmt;
use std::marker::PhantomData;
use std::rc::Rc;

use dynareg_sim::{NodeId, OpId, RegisterId, Span, Time};

use crate::actor::{Effect, EffectSink, OpOutcome, RegisterProcess, Value};

/// Wire messages of a register space over inner protocol messages `M`
/// (the [`KeyTags`] wire).
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

/// A received wire message as a [`RegisterSpace`] reads it.
#[derive(Debug)]
pub enum View<'a, M> {
    /// One key's protocol message.
    Keyed(RegisterId, &'a M),
    /// The shared join inquiry, and whether it is `full`.
    JoinAll(&'a M, bool),
    /// A responder's batched per-key answers.
    Batch(&'a Rc<[(RegisterId, M)]>),
}

/// How a [`RegisterSpace`] puts its instances' messages `M` on the network
/// (module docs). The handshake, re-fire, shard and standing-answer code
/// is written once against these four functions.
pub trait WireFormat<M>: fmt::Debug {
    /// The message type on the network.
    type Msg: Clone + fmt::Debug;

    /// Key `key`'s own message.
    fn keyed(key: RegisterId, inner: M) -> Self::Msg;

    /// The shared join inquiry.
    fn join_all(inner: M, full: bool) -> Self::Msg;

    /// A responder's batched per-key answers.
    fn batch(replies: Rc<[(RegisterId, M)]>) -> Self::Msg;

    /// What a received message asks of the space.
    fn view(msg: &Self::Msg) -> View<'_, M>;
}

/// The keyed wire, and the default: every message is a [`SpaceMsg`].
#[derive(Debug, Clone, Copy)]
pub struct KeyTags;

impl<M: Clone + fmt::Debug> WireFormat<M> for KeyTags {
    type Msg = SpaceMsg<M>;

    fn keyed(key: RegisterId, inner: M) -> SpaceMsg<M> {
        SpaceMsg::Keyed { key, inner }
    }

    fn join_all(inner: M, full: bool) -> SpaceMsg<M> {
        SpaceMsg::JoinAll { inner, full }
    }

    fn batch(replies: Rc<[(RegisterId, M)]>) -> SpaceMsg<M> {
        SpaceMsg::Batch { replies }
    }

    fn view(msg: &SpaceMsg<M>) -> View<'_, M> {
        match msg {
            SpaceMsg::Keyed { key, inner } => View::Keyed(*key, inner),
            SpaceMsg::JoinAll { inner, full } => View::JoinAll(inner, *full),
            SpaceMsg::Batch { replies } => View::Batch(replies),
        }
    }
}

/// The protocol's own wire, for a space of one key: its message *is* the
/// protocol message. A 1-key space never batches (one instance answers
/// with one `Send`) and its inquiry is never `full` (groups clamp to the
/// key count), so a keyed message, the shared inquiry and a plain
/// delivery all mean "key 0's message".
#[derive(Debug, Clone, Copy)]
pub struct OneKey;

impl<M: Clone + fmt::Debug> WireFormat<M> for OneKey {
    type Msg = M;

    fn keyed(_key: RegisterId, inner: M) -> M {
        inner
    }

    fn join_all(inner: M, _full: bool) -> M {
        inner
    }

    fn batch(_replies: Rc<[(RegisterId, M)]>) -> M {
        unreachable!("a one-key space never batches")
    }

    fn view(msg: &M) -> View<'_, M> {
        View::Keyed(RegisterId::ZERO, msg)
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
    ///
    /// The delivery contract is [`RegisterProcess::on_message_ref`]'s: the
    /// handler reads the message, which every copy of a broadcast borrows
    /// from the runtime, and clones only what it keeps.
    fn on_message_ref(
        &mut self,
        now: Time,
        from: NodeId,
        msg: &Self::Msg,
        out: &mut Vec<SpaceEffect<Self::Msg, Self::Val>>,
    );

    /// By-value form of
    /// [`on_message_ref`](RegisterSpaceProcess::on_message_ref), for
    /// callers that own the message.
    fn on_message_into(
        &mut self,
        now: Time,
        from: NodeId,
        msg: Self::Msg,
        out: &mut Vec<SpaceEffect<Self::Msg, Self::Val>>,
    ) {
        self.on_message_ref(now, from, &msg, out);
    }

    /// Allocating convenience form of
    /// [`on_message_ref`](RegisterSpaceProcess::on_message_ref).
    fn on_message(
        &mut self,
        now: Time,
        from: NodeId,
        msg: Self::Msg,
    ) -> Vec<SpaceEffect<Self::Msg, Self::Val>> {
        let mut out = Vec::new();
        self.on_message_ref(now, from, &msg, &mut out);
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
/// [`RegisterSpace::with_retransmit`]; absent (the default of every raw
/// constructor), nothing re-fires — on a lossless network the effect
/// stream is the same either way.
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

/// The join handshake's re-fire machine: "the inquiry went unanswered,
/// send it again", once. A joining space holds one, boxed, only under a
/// retransmit policy or a sharded handshake, records into it the inquiry
/// (already wrapped for its wire) and the join waits (under their outer
/// tags) it observes, and asks it the three decisions —
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
    /// Per shard, whether any responder's batch covered that shard's keys
    /// (empty unless sharded).
    shards: Vec<bool>,
}

impl<W: Clone> JoinRefire<W> {
    fn new(policy: Option<RetransmitConfig>) -> JoinRefire<W> {
        JoinRefire {
            policy,
            reinquire: None,
            inquiry: None,
            waits: Vec::new(),
            armed: false,
            attempts: 0,
            used: 0,
            seen: 0,
            shards: Vec::new(),
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
    fn beat<V>(&mut self, heard: usize, out: &mut Vec<SpaceEffect<W, V>>) {
        self.armed = false;
        if self.silence().is_none() {
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
        tag: u64,
        heard: impl FnOnce() -> Option<usize>,
        out: &mut Vec<SpaceEffect<W, V>>,
    ) -> bool {
        let wait = self.wait(tag);
        let spent = self.used >= self.budget();
        if spent || self.inquiry.is_none() || wait.is_none() || heard() != Some(0) {
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
    /// Re-inquiry period for protocols that set no join timers (ES): while
    /// the shared join is incomplete the space re-broadcasts a full
    /// inquiry at this interval.
    pub reinquire_every: Span,
}

impl ShardConfig {
    /// Sharded replies over `groups` groups, re-inquiry every 8 ticks.
    ///
    /// # Panics
    /// Panics if `groups` is zero.
    pub fn new(groups: u32) -> ShardConfig {
        assert!(groups > 0, "shard groups must be positive");
        ShardConfig {
            groups,
            reinquire_every: Span::ticks(8),
        }
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
/// behind a single shared join handshake, on wire `W`. See the module
/// docs for the coalescing rules and their contract.
#[derive(Debug)]
pub struct RegisterSpace<P: RegisterProcess, W: WireFormat<P::Msg> = KeyTags> {
    regs: Regs<P>,
    /// Join-reply shard groups (`1` = full replies), clamped to the key
    /// count.
    groups: u32,
    /// Whether the shared join is in flight: set until every key is
    /// active and `JoinComplete` went out.
    joining: bool,
    /// The join's re-fire state (on the sharded pace while `groups > 1`):
    /// held only by a joining space under a retransmit policy or a
    /// sharded handshake, and dropped with `JoinComplete`.
    join: Option<Box<JoinRefire<W::Msg>>>,
    wire: PhantomData<W>,
}

/// The joined-space effect rule: an instance's effect as its space emits
/// it — payloads wrapped for wire `W` under `key`, timer tags partitioned
/// by `key`, completions and notes attributed to `key`. A joined space has
/// no join left to complete, so `JoinComplete` maps to nothing.
fn keyed_effect<W: WireFormat<M>, M, V>(
    key: RegisterId,
    e: Effect<M, V>,
) -> Option<SpaceEffect<W::Msg, V>> {
    Some(match e {
        Effect::Send { to, msg } => SpaceEffect::Send {
            to,
            msg: W::keyed(key, msg),
        },
        Effect::Broadcast { msg } => SpaceEffect::Broadcast {
            msg: W::keyed(key, msg),
        },
        Effect::SetTimer { delay, tag } => {
            debug_assert!(tag <= INNER_TAG_MASK, "inner timer tags must fit 32 bits");
            let tag = (u64::from(key.as_raw()) << KEY_TAG_SHIFT) | tag;
            SpaceEffect::SetTimer { delay, tag }
        }
        Effect::JoinComplete => return None,
        Effect::OpComplete { op, outcome } => SpaceEffect::OpComplete { key, op, outcome },
        Effect::Note(text) => SpaceEffect::Note { key, text },
    })
}

/// One key's effect list under [`keyed_effect`]: a joined space's step.
fn keyed_all<W: WireFormat<M>, M, V>(
    key: RegisterId,
    fx: Vec<Effect<M, V>>,
) -> Vec<SpaceEffect<W::Msg, V>> {
    // Collected in place where the two effect types share a layout (ES).
    fx.into_iter()
        .filter_map(|e| keyed_effect::<W, M, V>(key, e))
        .collect()
}

/// A sink applying [`keyed_effect`] as the instance pushes, so a joined
/// space's delivery writes its effects once.
struct Tagged<'a, W: WireFormat<M>, M, V>(RegisterId, &'a mut Vec<SpaceEffect<W::Msg, V>>);

impl<W: WireFormat<M>, M, V> EffectSink<M, V> for Tagged<'_, W, M, V> {
    #[inline]
    fn push(&mut self, effect: Effect<M, V>) {
        if let Some(effect) = keyed_effect::<W, M, V>(self.0, effect) {
            self.1.push(effect);
        }
    }
}

/// A short list whose first entry lies inline: one instance's effects
/// from a handshake delivery, or one step's join waits — typically one or
/// none, and holding one allocates nothing.
struct Held<E> {
    first: Option<E>,
    more: Vec<E>,
}

impl<E> Held<E> {
    fn new() -> Held<E> {
        Held {
            first: None,
            more: Vec::new(),
        }
    }

    fn push(&mut self, entry: E) {
        match self.first {
            None => self.first = Some(entry),
            Some(_) => self.more.push(entry),
        }
    }

    /// Takes every entry out, in order, keeping the spill's capacity.
    fn drain(&mut self) -> impl Iterator<Item = E> + '_ {
        self.first.take().into_iter().chain(self.more.drain(..))
    }
}

impl<M, V> EffectSink<M, V> for Held<Effect<M, V>> {
    fn push(&mut self, effect: Effect<M, V>) {
        Held::push(self, effect);
    }
}

use regs::Regs;

/// A stripe's `(key, payload)` replies: what a [`SpaceMsg::Batch`] carries.
type Entries<M> = Rc<[(RegisterId, M)]>;

/// One target's pending fan-in replies: `(target, per-key payloads)`.
type FanGroup<M> = (NodeId, Vec<(RegisterId, M)>);

/// Per-call routing context: collects the joins' coalescable effects
/// (shared broadcast, shared timers) and — during multi-instance fan-in —
/// the per-target reply batches, flushed in deterministic order after the
/// step's direct effects.
struct StepCtx<M> {
    /// First join-phase broadcast payload of this step, if any.
    join_broadcast: Option<M>,
    /// Distinct `(delay, tag)` join-phase timer requests of this step (by
    /// contract 2, one).
    join_timers: Held<(Span, u64)>,
    /// The shared wait whose expiry a starved shard withheld this step:
    /// the flush re-fires the (full) inquiry and re-arms it.
    withheld: Option<u64>,
    /// Per-target send groups (fan-in batching); insertion-ordered.
    fan_sends: Option<Vec<FanGroup<M>>>,
    /// Emit single-entry fan-in groups as `Batch` anyway (sharded joins:
    /// the joiner marks shards heard from by batch content, so join
    /// replies must be identifiable on the wire even when a shard owns
    /// one key). Never set when `groups == 1`.
    force_batch: bool,
}

impl<M> StepCtx<M> {
    fn new(batch_fan_in: bool, force_batch: bool) -> StepCtx<M> {
        StepCtx {
            join_broadcast: None,
            join_timers: Held::new(),
            withheld: None,
            fan_sends: batch_fan_in.then(Vec::new),
            force_batch: batch_fan_in && force_batch,
        }
    }

    /// Records a join-phase wait once per step.
    fn join_wait(&mut self, wait: (Span, u64)) {
        let timers = &self.join_timers;
        if timers.first != Some(wait) && !timers.more.contains(&wait) {
            self.join_timers.push(wait);
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
        let space = RegisterSpace::new_joiner(regs);
        assert!(space.is_active(), "bootstrap instances must be active");
        space
    }

    /// A space about to enter the system: every instance still joining
    /// runs its join through the shared handshake.
    ///
    /// # Panics
    /// Panics if `regs` is empty or the instances disagree on identity.
    pub fn new_joiner(regs: Vec<P>) -> RegisterSpace<P> {
        let mut regs = regs.into_iter();
        let first = regs
            .next()
            .expect("a register space needs at least one key");
        RegisterSpace::assemble(first, regs.collect())
    }
}

impl<P: RegisterProcess, W: WireFormat<P::Msg>> RegisterSpace<P, W> {
    /// A one-key space over `reg`: joined if `reg` is active (a bootstrap
    /// member, which runs no handshake), joining otherwise.
    pub fn single(reg: P) -> RegisterSpace<P, W> {
        RegisterSpace::assemble(reg, Vec::new())
    }

    /// A space over its instances, joining unless every one is active.
    fn assemble(first: P, rest: Vec<P>) -> RegisterSpace<P, W> {
        let id = first.id();
        let one_process = rest.iter().all(|r| r.id() == id);
        assert!(
            one_process,
            "all instances of a space belong to one process"
        );
        let regs = Regs::new(first, rest);
        let joining = !regs.iter().all(|r| r.is_active());
        RegisterSpace {
            joining,
            regs,
            groups: 1,
            join: None,
            wire: PhantomData,
        }
    }

    /// The join's re-fire state, created on first use.
    fn refire_state(&mut self) -> &mut JoinRefire<W::Msg> {
        self.join
            .get_or_insert_with(|| Box::new(JoinRefire::new(None)))
    }

    /// Installs a join-reply shard configuration. `groups` is clamped to
    /// the key count (a shard owning no keys answers nothing and gates
    /// nothing); a clamped-to-1 (or explicit `G = 1`) config leaves the
    /// space on the full-reply path.
    pub fn with_shards(mut self, config: ShardConfig) -> RegisterSpace<P, W> {
        self.groups = config.groups.min(self.regs.len() as u32).max(1);
        let sharded = self.groups > 1;
        if self.joining && (sharded || self.join.is_some()) {
            let groups = self.groups as usize;
            let join = self.refire_state();
            join.reinquire = sharded.then_some(config.reinquire_every);
            join.shards = vec![false; if sharded { groups } else { 0 }];
        }
        self
    }

    /// Installs (or clears) the bounded join-retransmit policy. Only an
    /// unsharded (`G = 1`) handshake uses it; see [`RetransmitConfig`].
    pub fn with_retransmit(mut self, config: Option<RetransmitConfig>) -> RegisterSpace<P, W> {
        if self.joining && (config.is_some() || self.join.is_some()) {
            self.refire_state().policy = config;
        }
        self
    }

    /// The effective number of shard groups (clamped to the key count).
    pub fn shard_groups(&self) -> u32 {
        self.groups
    }

    /// This process's responder shard.
    pub fn responder_shard(&self) -> u32 {
        shard_of_node(self.id(), self.groups)
    }

    /// The instance backing `key`.
    pub fn register(&self, key: RegisterId) -> &P {
        self.regs.get(key)
    }

    /// Total join replies gathered by still-joining instances, if any
    /// instance reports a count ([`RegisterProcess::join_replies`]).
    fn joining_replies(regs: &Regs<P>) -> Option<usize> {
        let joining = regs.iter().filter(|r| !r.is_active());
        joining.filter_map(P::join_replies).reduce(|a, b| a + b)
    }

    /// Routes one instance's effects: fan-in sends group per target; a
    /// joining space coalesces its instances' inquiries and waits, and
    /// completes once every key is active; every other effect takes
    /// [`keyed_effect`] into `out`.
    fn route(
        &mut self,
        key: RegisterId,
        ctx: &mut StepCtx<P::Msg>,
        out: &mut Vec<SpaceEffect<W::Msg, P::Val>>,
        effects: impl IntoIterator<Item = Effect<P::Msg, P::Val>>,
    ) {
        let effects = effects.into_iter();
        out.reserve(effects.size_hint().0);
        for effect in effects {
            match effect {
                Effect::Send { to, msg } if ctx.fan_sends.is_some() => {
                    let groups = ctx.fan_sends.as_mut().expect("batching");
                    match groups.iter_mut().find(|(t, _)| *t == to) {
                        Some((_, entries)) => entries.push((key, msg)),
                        None => groups.push((to, vec![(key, msg)])),
                    }
                }
                Effect::Broadcast { msg } if self.joining => {
                    if ctx.join_broadcast.is_none() {
                        // Shared handshake: one inquiry covers every key
                        // (join-phase broadcasts are key-agnostic; module
                        // docs, contract 1). The first sharded inquiry asks
                        // each responder only for its shard; its re-fires
                        // ask any responder for every key, so a starved
                        // shard falls back to the full-state transfer
                        // instead of wedging the join.
                        let full = self.groups > 1;
                        if let Some(join) = self.join.as_deref_mut() {
                            let inquiry = || W::join_all(msg.clone(), full);
                            join.inquiry.get_or_insert_with(inquiry);
                        }
                        ctx.join_broadcast = Some(msg);
                    }
                }
                Effect::SetTimer { delay, tag } if self.joining => {
                    debug_assert!(tag <= INNER_TAG_MASK, "inner timer tags must fit 32 bits");
                    // Shared handshake: still-joining instances request
                    // uniform waits (contract 2) — arm each once.
                    ctx.join_wait((delay, tag));
                }
                Effect::JoinComplete if self.joining => {
                    if self.regs.iter().all(|r| r.is_active()) {
                        self.joining = false;
                        self.join = None;
                        out.push(SpaceEffect::JoinComplete);
                    }
                }
                effect => out.extend(keyed_effect::<W, _, _>(key, effect)),
            }
        }
    }

    /// Flushes the step context after the step's direct effects in `out`
    /// (their order is the instances' own): the coalesced join broadcast,
    /// shared timers (recorded, so an expiry can re-arm itself), the
    /// re-fire for a withheld expiry, the silence timer for protocols that
    /// arm no join timer themselves, and batched fan-in replies.
    #[inline]
    fn flush(&mut self, ctx: &mut StepCtx<P::Msg>, out: &mut Vec<SpaceEffect<W::Msg, P::Val>>) {
        if let Some(inner) = ctx.join_broadcast.take() {
            let msg = W::join_all(inner, false);
            out.push(SpaceEffect::Broadcast { msg });
        }
        for (delay, tag) in ctx.join_timers.drain() {
            let tag = SHARED_TAG | tag;
            if let Some(join) = self.join.as_deref_mut() {
                join.record_wait(tag, delay);
            }
            out.push(SpaceEffect::SetTimer { delay, tag });
        }
        if let Some(join) = self.join.as_deref_mut() {
            if let Some(tag) = ctx.withheld {
                join.refire(out, join.wait(tag));
            }
            let regs = &self.regs;
            join.arm(|| Self::joining_replies(regs).unwrap_or(0), out);
        }
        for (to, mut entries) in ctx.fan_sends.take().into_iter().flatten() {
            debug_assert!(!entries.is_empty());
            let msg = if entries.len() == 1 && !ctx.force_batch {
                let (key, inner) = entries.pop().expect("checked non-empty");
                W::keyed(key, inner)
            } else {
                W::batch(entries.into())
            };
            out.push(SpaceEffect::Send { to, msg });
        }
    }

    /// Delivers a fan-in message's per-key payloads in one pass. An
    /// instance answering with exactly one `Send` back to `from` (any
    /// active responder) appends to `from`'s reply group, allocated once
    /// at exact capacity and returned for the caller to close; every other
    /// effect list takes the generic [`route`](Self::route) — so the
    /// effects, and their order, are those of stepping the keys one by one.
    ///
    /// With `patch` — a standing answer's entries, one per entry of
    /// `entries` — only dirty keys are stepped, their one `Send` overwriting
    /// their entry. The first to answer anything else takes `patch` away: the
    /// entries before it open the reply group and the pass goes on without.
    fn fan_in<'m>(
        &mut self,
        now: Time,
        from: NodeId,
        entries: impl ExactSizeIterator<Item = (RegisterId, &'m P::Msg)>,
        ctx: &mut StepCtx<P::Msg>,
        out: &mut Vec<SpaceEffect<W::Msg, P::Val>>,
        patch: &mut Option<&mut [(RegisterId, P::Msg)]>,
    ) -> Vec<(RegisterId, P::Msg)>
    where
        P::Msg: 'm,
    {
        let mut held = Held::new();
        let capacity = entries.len();
        let batching = ctx.fan_sends.is_some();
        // `from`'s reply group, local to the loop until something routes.
        let mut replies = Vec::new();
        for (at, (key, inner)) in entries.enumerate() {
            if patch.is_some() && !self.regs.is_dirty(key) {
                continue;
            }
            let reg = self.regs.step(key);
            reg.on_message_ref(now, from, inner, &mut held);
            // Peek before taking: moving a whole `Effect` out right after
            // the instance wrote it stalls on store forwarding.
            match (&held.first, held.more.is_empty()) {
                (None, _) if patch.is_none() => {}
                (Some(Effect::Send { to, .. }), true) if batching && *to == from => {
                    if replies.capacity() == 0 && patch.is_none() {
                        replies.reserve_exact(capacity);
                    }
                    if let Some(Effect::Send { msg, .. }) = held.first.take() {
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
                    self.route(key, ctx, out, held.drain());
                }
            }
        }
        replies
    }

    /// Routes the effects a keyed delivery to a joining space emitted.
    /// Kept out of line, like [`fan_in_message`](Self::fan_in_message), so
    /// the delivery itself inlines into the runtime's loop.
    #[inline(never)]
    fn joining_delivery(
        &mut self,
        key: RegisterId,
        mut held: Held<Effect<P::Msg, P::Val>>,
        out: &mut Vec<SpaceEffect<W::Msg, P::Val>>,
    ) {
        let mut ctx = StepCtx::new(false, false);
        self.route(key, &mut ctx, out, held.drain());
        self.flush(&mut ctx, out);
    }

    /// A fan-in message (`JoinAll`, `Batch`): per-target sends batch.
    #[inline(never)]
    fn fan_in_message(
        &mut self,
        now: Time,
        from: NodeId,
        view: View<'_, P::Msg>,
        out: &mut Vec<SpaceEffect<W::Msg, P::Val>>,
    ) {
        let mut ctx = StepCtx::new(self.regs.len() > 1, self.groups > 1);
        match view {
            View::Keyed(..) => unreachable!("a keyed message is no fan-in"),
            View::JoinAll(inner, full) => {
                // Fan the shared inquiry into every instance — or, on a
                // sharded space answering a non-full inquiry, into this
                // responder's stripe (`shard_of_key` is `key mod G`) only.
                // Each key's answers to one target coalesce into a single
                // Batch (the "all keys' states in one reply" half of the
                // handshake; `K/G` of them when sharded). A 1-key space
                // batches nothing.
                let stripe = match self.groups {
                    g if g > 1 && !full => (self.responder_shard(), g as usize),
                    _ => (0, 1),
                };
                let keys = (stripe.0..self.regs.len() as u32).step_by(stripe.1);
                // A standing answer (module docs) serves the inquiry as it is
                // or after its dirty keys answered again; without one, or once
                // a key answers more than its `Send`, every key is stepped.
                let mut kept = self.regs.take_answer(inner, stripe);
                if kept.is_none() || self.regs.any_dirty() {
                    let width = keys.len();
                    let entries = keys.map(|raw| (RegisterId::from_raw(raw), inner));
                    let mut patch = kept.as_mut().map(Rc::make_mut);
                    let mut replies = self.fan_in(now, from, entries, &mut ctx, out, &mut patch);
                    let stepped = patch.is_none();
                    if stepped && !self.joining && replies.len() == width {
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
                    let msg = W::batch(replies);
                    out.push(SpaceEffect::Send { to: from, msg });
                }
            }
            View::Batch(replies) => {
                // Joiner-side shard bookkeeping: a batch from `from`
                // covers the shards of the keys it carries (its own shard
                // for a sharded reply, every shard for a full-fallback
                // one).
                let groups = self.groups;
                if let Some(join) = self.join.as_deref_mut().filter(|_| groups > 1) {
                    for (key, _) in replies.iter() {
                        join.shards[shard_of_key(*key, groups) as usize] = true;
                    }
                }
                // One pass over the entries as they lie in the message: an
                // instance that keeps nothing of its entry copies nothing,
                // and one that emits nothing never reaches `route`.
                let entries = replies.iter().map(|(key, inner)| (*key, inner));
                let mut replies = self.fan_in(now, from, entries, &mut ctx, out, &mut None);
                ctx.fan_to(from, &mut replies);
            }
        }
        self.flush(&mut ctx, out);
    }
}

impl<P: RegisterProcess, W: WireFormat<P::Msg>> RegisterSpaceProcess for RegisterSpace<P, W> {
    type Msg = W::Msg;
    type Val = P::Val;

    fn id(&self) -> NodeId {
        self.regs.get(RegisterId::ZERO).id()
    }

    fn is_active(&self) -> bool {
        !self.joining
    }

    fn key_count(&self) -> u32 {
        self.regs.len() as u32
    }

    fn on_enter(&mut self, now: Time) -> Vec<SpaceEffect<Self::Msg, Self::Val>> {
        if !self.joining {
            // Bootstrap member: already active (mirrors the single-register
            // protocols' bootstrap `on_enter`).
            return vec![SpaceEffect::JoinComplete];
        }
        // A multi-instance step: per-target sends batch (keys > 1), so the
        // handshake costs one physical message per counterpart however
        // many keys the space owns.
        let mut ctx = StepCtx::new(self.regs.len() > 1, self.groups > 1);
        let mut out = Vec::new();
        for key in (0..self.regs.len() as u32).map(RegisterId::from_raw) {
            let effects = self.regs.step(key).on_enter(now);
            self.route(key, &mut ctx, &mut out, effects);
        }
        self.flush(&mut ctx, &mut out);
        out
    }

    #[inline]
    fn on_message_ref(
        &mut self,
        now: Time,
        from: NodeId,
        msg: &Self::Msg,
        out: &mut Vec<SpaceEffect<Self::Msg, Self::Val>>,
    ) {
        match W::view(msg) {
            // A joined space is just its registers: the instance's effects
            // go straight into the runtime's buffer.
            View::Keyed(key, inner) if !self.joining => {
                let tagged = &mut Tagged::<W, P::Msg, P::Val>(key, out);
                self.regs.step(key).on_message_ref(now, from, inner, tagged);
            }
            View::Keyed(key, inner) => {
                let mut held = Held::new();
                self.regs
                    .step(key)
                    .on_message_ref(now, from, inner, &mut held);
                // A joining instance's delivery that emits nothing has
                // nothing to route, and the flush adds nothing of its own.
                if held.first.is_some() {
                    self.joining_delivery(key, held, out);
                }
            }
            view => self.fan_in_message(now, from, view, out),
        }
    }

    fn on_timer(&mut self, now: Time, tag: u64) -> Vec<SpaceEffect<Self::Msg, Self::Val>> {
        if tag & SHARED_TAG == 0 {
            // A key-tagged timer, which only a joined space sets.
            let key = RegisterId::from_raw((tag >> KEY_TAG_SHIFT) as u32);
            let effects = self.regs.step(key).on_timer(now, tag & INNER_TAG_MASK);
            return keyed_all::<W, _, _>(key, effects);
        }
        let mut out = Vec::new();
        // The space's own timers serve the join; one outliving it is inert.
        if !self.joining {
            return out;
        }
        let regs = &self.regs;
        if tag == RETRANSMIT_TAG || tag == REINQUIRE_TAG {
            // The silence timer — never forwarded to instances.
            if let Some(join) = self.join.as_deref_mut() {
                join.beat(Self::joining_replies(regs).unwrap_or(0), &mut out);
            }
            return out;
        }
        // A shared join-phase timer: dispatch to every still-joining
        // instance (exactly the requesters; module docs, contract 2) —
        // except, once the sharded inquiry is out, instances of shards no
        // responder has answered yet: those stay joining and the timer
        // re-fires the inquiry (full fallback) and re-arms. Multi-instance
        // step → per-target sends batch, so postponed replies flushed at
        // activation stay one message per inquirer.
        if let Some(join) = self.join.as_deref_mut() {
            if join.intercept(tag, || Self::joining_replies(regs), &mut out) {
                // An unsharded zero-reply expiry: dispatching it would
                // blind-activate every key at ⊥.
                return out;
            }
        }
        // Snapshot the gate before stepping: the first dispatched instance
        // may broadcast the inquiry mid-step, and pre-inquiry waits must
        // dispatch to every key.
        let gate = self
            .join
            .as_ref()
            .is_some_and(|join| join.inquiry.is_some());
        let groups = self.groups;
        let mut ctx = StepCtx::new(self.regs.len() > 1, groups > 1);
        let mut withheld = false;
        for key in (0..self.regs.len() as u32).map(RegisterId::from_raw) {
            if self.regs.get(key).is_active() {
                continue;
            }
            let shard = shard_of_key(key, groups) as usize;
            let unheard = |join: &JoinRefire<_>| join.shards.get(shard) == Some(&false);
            if gate && self.join.as_deref().is_some_and(unheard) {
                withheld = true;
                continue;
            }
            let effects = self.regs.step(key).on_timer(now, tag & !SHARED_TAG);
            self.route(key, &mut ctx, &mut out, effects);
        }
        ctx.withheld = withheld.then_some(tag);
        self.flush(&mut ctx, &mut out);
        out
    }

    fn on_read(
        &mut self,
        now: Time,
        key: RegisterId,
        op: OpId,
    ) -> Vec<SpaceEffect<Self::Msg, Self::Val>> {
        keyed_all::<W, _, _>(key, self.regs.step(key).on_read(now, op))
    }

    fn on_write(
        &mut self,
        now: Time,
        key: RegisterId,
        op: OpId,
        value: Self::Val,
    ) -> Vec<SpaceEffect<Self::Msg, Self::Val>> {
        keyed_all::<W, _, _>(key, self.regs.step(key).on_write(now, op, value))
    }
}

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
        /// Out (`None`) while an inquiry patches or replaces them.
        entries: Option<Entries<M>>,
    }

    #[derive(Debug)]
    pub(super) struct Regs<P: RegisterProcess> {
        /// Register 0, inline: a 1-key space holds no block of its own.
        first: P,
        /// Registers 1 … K−1 (empty, and unallocated, for one key).
        rest: Vec<P>,
        /// Bit `key % 64`: `key` was stepped since `answer` was kept (exact
        /// to 64 keys). Inline: the `Keyed` exit touches no new cache line.
        dirty: u64,
        answer: Option<Box<Standing<P::Msg>>>,
    }

    impl<P: RegisterProcess> Regs<P> {
        pub fn new(first: P, rest: Vec<P>) -> Regs<P> {
            Regs {
                first,
                rest,
                dirty: 0,
                answer: None,
            }
        }

        pub fn len(&self) -> usize {
            1 + self.rest.len()
        }

        pub fn iter(&self) -> impl Iterator<Item = &P> {
            std::iter::once(&self.first).chain(&self.rest)
        }

        pub fn get(&self, key: RegisterId) -> &P {
            match key.as_raw() {
                0 => &self.first,
                k => &self.rest[k as usize - 1],
            }
        }

        /// Whether the space holds a heap block for its instances or its
        /// standing answer.
        #[cfg(test)]
        pub fn holds_heap(&self) -> bool {
            self.rest.capacity() > 0 || self.answer.is_some()
        }

        fn bit(key: RegisterId) -> u64 {
            1 << (key.as_raw() % 64)
        }

        /// The only `&mut P` there is. Marks matter only while an answer
        /// stands (`keep` clears them), so none is made without one.
        pub fn step(&mut self, key: RegisterId) -> &mut P {
            if self.answer.is_some() {
                self.dirty |= Self::bit(key);
            }
            self.slot(key)
        }

        fn slot(&mut self, key: RegisterId) -> &mut P {
            match key.as_raw() {
                0 => &mut self.first,
                k => &mut self.rest[k as usize - 1],
            }
        }

        /// Whether `key` (or one sharing its bit) was stepped since `keep`.
        pub fn is_dirty(&self, key: RegisterId) -> bool {
            self.dirty & Self::bit(key) != 0
        }

        pub fn any_dirty(&self) -> bool {
            self.dirty != 0
        }

        /// Takes the standing answer's entries out if it answers `inquiry`
        /// over `stripe`, leaving the inquiry in place; drops an answer
        /// that does not.
        pub fn take_answer(
            &mut self,
            inquiry: &P::Msg,
            stripe: (u32, usize),
        ) -> Option<Entries<P::Msg>> {
            match &mut self.answer {
                Some(a) if a.stripe == stripe && a.inquiry == *inquiry => a.entries.take(),
                _ => {
                    self.answer = None;
                    None
                }
            }
        }

        /// Keeps `entries`, just built or patched, as the answer to `inquiry`
        /// over `stripe` — the inquiry is cloned only when no answer to it
        /// stands. Debug builds first ask every key again (contract 3).
        pub fn keep(
            &mut self,
            now: Time,
            from: NodeId,
            inquiry: &P::Msg,
            stripe: (u32, usize),
            entries: &Entries<P::Msg>,
        ) {
            if cfg!(debug_assertions) {
                for (key, kept) in entries.iter() {
                    let mut fresh = Vec::new();
                    self.slot(*key)
                        .on_message_ref(now, from, inquiry, &mut fresh);
                    let same = matches!(fresh.as_slice(),
                        [Effect::Send { to, msg }] if *to == from && msg == kept);
                    assert!(same, "stale answer for {key:?}: {kept:?}, now {fresh:?}");
                }
            }
            self.dirty = 0;
            let entries = Some(Rc::clone(entries));
            match &mut self.answer {
                // `take_answer` let only an answer to this inquiry stand.
                Some(a) => {
                    debug_assert!(a.stripe == stripe && a.inquiry == *inquiry);
                    a.entries = entries;
                }
                None => {
                    self.answer = Some(Box::new(Standing {
                        inquiry: inquiry.clone(),
                        stripe,
                        entries,
                    }));
                }
            }
        }
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
        // A shared wait expiring again after the join emits nothing.
        for tag in [t2, tag] {
            assert_eq!(s.on_timer(Time::at(10), tag), vec![]);
        }
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
        // A single reply stays a Keyed unicast: one key never batches.
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

    /// Delivers `deliveries` to a one-key space over `make()`, all into one
    /// buffer that starts non-empty, and to a bare `make()` through
    /// `on_message`: every step appends exactly the bare step's effects,
    /// keyed to key 0 on the protocol's own wire, and leaves what the
    /// buffer held before it alone — joined, and joining (the handshake's
    /// router), where the instance's `JoinComplete` is the space's.
    fn solo_delivery_lifts_on_message<P: RegisterProcess>(
        make: impl Fn() -> P,
        deliveries: Vec<(u64, P::Msg)>,
    ) {
        let (mut solo, mut bare) = (RegisterSpace::<P, OneKey>::single(make()), make());
        let sentinel = SpaceEffect::Note {
            key: RegisterId::ZERO,
            text: "sentinel".into(),
        };
        let mut out = vec![sentinel.clone()];
        let mut before = out.clone();
        for (t, (from, msg)) in deliveries.into_iter().enumerate() {
            let now = Time::at(t as u64);
            let expected = bare.on_message(now, nid(from), msg.clone());
            solo.on_message_into(now, nid(from), msg, &mut out);
            for effect in expected {
                match effect {
                    Effect::JoinComplete => before.push(SpaceEffect::JoinComplete),
                    e => before.extend(keyed_effect::<OneKey, _, _>(RegisterId::ZERO, e)),
                }
            }
            assert_eq!(out, before, "delivery {t}");
            assert_eq!(solo.is_active(), bare.is_active());
        }
        assert!(out.len() > 1, "the sequence emits something");
    }

    #[test]
    fn solo_delivery_appends_the_lifted_effects_sync() {
        let write = |sn| SyncMsg::Write {
            value: 40 + sn as u64,
            sn,
        };
        solo_delivery_lifts_on_message(
            || SyncRegister::<u64>::new_bootstrap(nid(0), cfg(), 5),
            vec![
                (7, SyncMsg::Inquiry),
                (1, write(1)),
                (8, SyncMsg::Inquiry),
                (1, write(1)),
                (
                    2,
                    SyncMsg::Reply {
                        value: Some(3),
                        sn: 9,
                    },
                ),
                (9, SyncMsg::Inquiry),
            ],
        );
    }

    #[test]
    fn solo_delivery_appends_the_lifted_effects_es() {
        let reply = |sn, r_sn| EsMsg::Reply {
            value: Some(10 * sn as u64),
            ts: Timestamp { sn, writer: 0 },
            r_sn,
        };
        let ts = Timestamp { sn: 2, writer: 0 };
        // An atomic reader: replies, a write-back broadcast, noted acks and
        // the read's completion.
        solo_delivery_lifts_on_message(
            || {
                let mut p = EsRegister::new_bootstrap(nid(0), EsConfig::atomic(5).with_notes(), 0);
                p.on_read(Time::ZERO, oid(1));
                p
            },
            vec![
                (9, EsMsg::Inquiry { r_sn: 0 }),
                (1, reply(2, 1)),
                (2, reply(0, 1)),
                (
                    2,
                    EsMsg::Write {
                        value: 7,
                        ts: Timestamp { sn: 1, writer: 2 },
                    },
                ),
                (3, reply(1, 1)),
                (1, EsMsg::Ack { ts }),
                (2, EsMsg::Ack { ts }),
                (3, EsMsg::Ack { ts }),
                (4, EsMsg::Read { r_sn: 6 }),
            ],
        );
        // A joiner: DL_PREV promises, then activation answers them.
        solo_delivery_lifts_on_message(
            || EsRegister::new_joiner(nid(9), EsConfig::new(5).with_notes(), oid(2)),
            vec![
                (50, EsMsg::Inquiry { r_sn: 0 }),
                (60, EsMsg::DlPrev { r_sn: 4 }),
                (0, reply(1, 0)),
                (1, reply(3, 0)),
                (2, reply(2, 0)),
                (50, EsMsg::Read { r_sn: 1 }),
            ],
        );
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
        assert_eq!(s.shard_groups(), 4);
        let s1 = sharded_bootstrap(0, 1, 8);
        assert_eq!(s1.shard_groups(), 1, "a 1-key space cannot shard");
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

    /// A one-key sync joiner on the protocol's own wire.
    fn solo_sync_joiner(
        retransmit: Option<RetransmitConfig>,
    ) -> RegisterSpace<SyncRegister<u64>, OneKey> {
        RegisterSpace::single(SyncRegister::new_joiner(nid(9), cfg(), oid(900)))
            .with_retransmit(retransmit)
    }

    /// Drives a one-key sync joiner to its post-inquiry wait, returning
    /// the 2δ timer tag.
    fn inquire_solo_sync(s: &mut RegisterSpace<SyncRegister<u64>, OneKey>) -> u64 {
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
    fn one_key_space_holds_only_its_register() {
        type OneSync = RegisterSpace<SyncRegister<u64>, OneKey>;
        let size = std::mem::size_of::<OneSync>();
        assert!(size <= 128, "a joined 1-key sync space is {size} B");
        // Register 0 is inline, and a bootstrap member runs no handshake:
        // no join box, no block of its own.
        let b = OneSync::single(SyncRegister::new_bootstrap(nid(0), cfg(), 5));
        assert!(b.is_active() && b.join.is_none() && !b.regs.holds_heap());
        // A joiner holds a join box only under a retransmit policy, and
        // drops it with its `JoinComplete`; the space keeps no effect
        // scratch of its own at all.
        let mut plain = solo_sync_joiner(None);
        let mut refiring = solo_sync_joiner(Some(RetransmitConfig::after(Span::ticks(6))));
        assert!(plain.join.is_none() && refiring.join.is_some());
        for s in [&mut plain, &mut refiring] {
            let t2 = inquire_solo_sync(s);
            let reply = SyncMsg::Reply {
                value: Some(41),
                sn: 2,
            };
            s.on_message_into(Time::at(5), nid(1), reply, &mut Vec::new());
            assert!(s
                .on_timer(Time::at(9), t2)
                .contains(&SpaceEffect::JoinComplete));
            assert!(s.is_active() && s.join.is_none() && !s.regs.holds_heap());
        }
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
        assert_eq!(
            s.register(key(0)).local_value(),
            None,
            "blind activation is at ⊥"
        );
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
        assert_eq!(s.register(key(0)).local_value(), Some(&41));
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
        let joiner = EsRegister::<u64>::new_joiner(nid(9), ecfg, oid(900));
        let mut s = RegisterSpace::<_, OneKey>::single(joiner).with_retransmit(Some(rc));
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
        // timer rides right behind it — the one-key sequence, keyed.
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
    /// step and `route` (group `find`) per entry.
    fn per_key_fan_in<P: RegisterProcess>(
        space: &mut RegisterSpace<P>,
        from: NodeId,
        entries: Vec<(RegisterId, P::Msg)>,
    ) -> Vec<SpaceEffect<SpaceMsg<P::Msg>, P::Val>> {
        let mut ctx = StepCtx::new(space.regs.len() > 1, space.groups > 1);
        let mut out = Vec::new();
        for (key, inner) in entries {
            let effects = space.regs.step(key).on_message(Time::at(7), from, inner);
            space.route(key, &mut ctx, &mut out, effects);
        }
        space.flush(&mut ctx, &mut out);
        out
    }

    /// The keys a responder answers a `JoinAll` for, by `shard_of_key`.
    fn answered_keys<P: RegisterProcess>(space: &RegisterSpace<P>, full: bool) -> Vec<RegisterId> {
        let groups = space.groups;
        (0..space.key_count())
            .map(key)
            .filter(|k| groups == 1 || full || shard_of_key(*k, groups) == space.responder_shard())
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
        // `on_read` waits for the space's join; the instance reads now.
        s.regs.step(key(1)).on_read(Time::at(3), oid(5));
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
                        let heard = single.join.as_ref().map(|j| j.shards.clone());
                        if let (Some(join), Some(heard)) = (per_key.join.as_mut(), heard) {
                            join.shards = heard;
                        }
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
        /// The silence timer fired (decision 2) with this many replies in.
        Beat(usize),
        /// Join wait 2 expired (decision 3) with this reply count.
        Expire(Option<usize>),
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
                    (Expire(Some(0)), refired(timer(6, 2))),
                    (Expire(Some(0)), refired(timer(6, 2))),
                    (Expire(Some(0)), vec![]),
                ],
            ),
            (
                "a gathered reply, or no reply count at all, stands down",
                Timed,
                vec![(Expire(Some(1)), vec![]), (Expire(None), vec![])],
            ),
            (
                "the window plateaus at base << budget",
                Quorum,
                vec![
                    (Arm(0), vec![silence(8)]),
                    (Arm(0), vec![]),
                    (Beat(0), refired(silence(16))),
                    (Beat(0), refired(silence(32))),
                    (Beat(0), refired(silence(32))),
                ],
            ),
            (
                "progress resets the exponent; a duplicate reply is not progress",
                Quorum,
                vec![
                    (Arm(0), vec![silence(8)]),
                    (Beat(0), refired(silence(16))),
                    (Beat(1), vec![silence(8)]),
                    (Beat(1), refired(silence(16))),
                ],
            ),
            (
                "the sharded pace beats unconditionally, uncounted, at one period",
                Sharded,
                vec![
                    (Arm(0), vec![timer(12, REINQUIRE_TAG)]),
                    (Beat(0), reinquiry()),
                    (Beat(5), reinquiry()),
                ],
            ),
            (
                "a sharded space never intercepts",
                ShardedTimed,
                vec![(Expire(Some(0)), vec![])],
            ),
        ];
        for (case, join, steps) in table {
            let mut m =
                JoinRefire::new(Some(RetransmitConfig::after(Span::ticks(8)).with_budget(2)));
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
                    Beat(heard) => m.beat(heard, &mut out),
                    Expire(heard) => {
                        let consumed = m.intercept(2, || heard, &mut out);
                        assert_eq!(consumed, !out.is_empty(), "{case}: step {i}");
                    }
                }
                assert_eq!(out, want, "{case}: step {i}");
            }
        }
    }

    #[test]
    fn late_join_timers_after_join_complete_emit_nothing() {
        // Quorum completes each ES join with the space's silence timer out.
        let reply = <EsRegister<u64> as Wire>::reply(7, 0);
        let joiner = EsRegister::new_joiner(nid(9), EsConfig::new(3), oid(900));
        let rc = Some(RetransmitConfig::after(Span::ticks(8)));
        let mut solo = RegisterSpace::<_, OneKey>::single(joiner).with_retransmit(rc);
        solo.on_enter(Time::ZERO);
        for from in [1, 2] {
            solo.on_message(Time::at(2), nid(from), reply.clone());
        }
        assert_eq!(solo.on_timer(Time::at(8), RETRANSMIT_TAG), vec![]);
        assert!(solo.is_active() && solo.join.is_none());
        for (groups, silence) in [(1, RETRANSMIT_TAG), (2, REINQUIRE_TAG)] {
            let mut s = spaced_es_joiner(2).with_shards(ShardConfig::new(groups));
            s.on_enter(Time::ZERO);
            for from in [1, 2] {
                let replies = vec![(key(0), reply.clone()), (key(1), reply.clone())].into();
                s.on_message(Time::at(2), nid(from), SpaceMsg::Batch { replies });
            }
            assert!(s.join.is_none(), "G={groups}: dropped with JoinComplete");
            assert_eq!(s.on_timer(Time::at(8), silence), vec![], "G={groups}");
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

        fn on_message_ref(
            &mut self,
            now: Time,
            from: NodeId,
            msg: &SyncMsg<u64>,
            out: &mut impl EffectSink<SyncMsg<u64>, u64>,
        ) {
            self.log.borrow_mut().push(self.key);
            self.inner.on_message_ref(now, from, msg, out);
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
    struct Rig<P: Wire, W: WireFormat<P::Msg> = KeyTags> {
        space: RegisterSpace<P, W>,
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

    impl<P: Wire, W: WireFormat<P::Msg>> Rig<P, W> {
        fn over(space: RegisterSpace<P, W>) -> Rig<P, W> {
            Rig {
                space,
                owed: std::collections::VecDeque::new(),
                busy: false,
                now: 0,
            }
        }

        fn absorb(&mut self, effects: Vec<SpaceEffect<W::Msg, u64>>) {
            for effect in effects {
                match effect {
                    SpaceEffect::SetTimer { tag, .. } => self.owed.push_back(Owed::Timer(tag)),
                    SpaceEffect::OpComplete { .. } => self.busy = false,
                    SpaceEffect::Broadcast { msg } => {
                        let View::Keyed(key, inner) = W::view(&msg) else {
                            continue;
                        };
                        for from in [1, 2] {
                            let answer = P::answer(inner, from);
                            self.owed.extend(answer.map(|m| Owed::Msg(from, key, m)));
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    impl<P: Wire> Rig<P> {
        fn new(keys: u32, groups: u32) -> Rig<P> {
            let regs = (0..keys).map(|k| P::bootstrap(u64::from(100 + k)));
            Rig::over(
                RegisterSpace::new_bootstrap(regs.collect()).with_shards(ShardConfig::new(groups)),
            )
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
            let regs = rig.space.regs.iter().cloned().collect();
            let mut fresh =
                RegisterSpace::new_bootstrap(regs).with_shards(ShardConfig::new(groups));
            let now = Time::at(rig.now);
            let got = rig.space.on_message(now, from, inquiry.clone());
            prop_assert_eq!(&got, &fresh.on_message(now, from, inquiry));
            prop_assert_eq!(instances(&rig.space), instances(&fresh));
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

    /// Every instance's `Debug` state, key by key.
    fn instances<P: RegisterProcess, W: WireFormat<P::Msg>>(space: &RegisterSpace<P, W>) -> String {
        format!("{:?}", space.regs.iter().collect::<Vec<_>>())
    }

    /// A joined space and its bare instances stepped in lockstep — keyed
    /// deliveries (remote writes, stray replies, inquiries, answers to the
    /// space's broadcasts), reads and writes on an idle process, expiries
    /// of the timers the space set: the space appends exactly the
    /// addressed instance's effects under [`keyed_effect`], and every
    /// message it puts on wire `W` is that key's own — never a `JoinAll`
    /// or a `Batch`.
    fn joined_space_matches_bare<P: Wire, W: WireFormat<P::Msg>>(
        space: RegisterSpace<P, W>,
        steps: &[RigStep],
    ) -> Result<(), TestCaseError>
    where
        W::Msg: PartialEq,
    {
        let mut rig = Rig::over(space);
        let keys = rig.space.key_count();
        let mut bare: Vec<P> = rig.space.regs.iter().cloned().collect();
        let at = |k: RegisterId| k.as_raw() as usize;
        for &(kind, k, node, x, _) in steps {
            rig.now += 1;
            let (now, op, k) = (Time::at(rig.now), oid(rig.now), key(k % keys));
            let invoke = matches!(kind, 2 | 3) && !rig.busy;
            let input = match kind {
                _ if invoke => None,
                0 => Some(Owed::Msg(node, k, P::write(node, x))),
                1 => Some(Owed::Msg(node, k, P::reply(node, x))),
                6 => Some(Owed::Msg(node, k, P::inquiry(x % 2))),
                _ => match rig.owed.pop_front() {
                    None => continue,
                    owed => owed,
                },
            };
            let (k, got, want) = match input {
                None => {
                    let reg = &mut bare[at(k)];
                    match kind {
                        2 => (k, rig.space.on_read(now, k, op), reg.on_read(now, op)),
                        _ => (
                            k,
                            rig.space.on_write(now, k, op, 7),
                            reg.on_write(now, op, 7),
                        ),
                    }
                }
                Some(Owed::Timer(tag)) => {
                    let k = key((tag >> KEY_TAG_SHIFT) as u32);
                    let want = bare[at(k)].on_timer(now, tag & INNER_TAG_MASK);
                    (k, rig.space.on_timer(now, tag), want)
                }
                Some(Owed::Msg(from, k, inner)) => {
                    let want = bare[at(k)].on_message(now, nid(from), inner.clone());
                    let mut got = vec![SpaceEffect::Retransmit];
                    let msg = W::keyed(k, inner);
                    rig.space.on_message_into(now, nid(from), msg, &mut got);
                    prop_assert_eq!(got.remove(0), SpaceEffect::Retransmit);
                    (k, got, want)
                }
            };
            prop_assert_eq!(&got, &keyed_all::<W, _, _>(k, want));
            for effect in &got {
                if let SpaceEffect::Send { msg, .. } | SpaceEffect::Broadcast { msg } = effect {
                    let own = matches!(W::view(msg), View::Keyed(at, _) if at == k);
                    prop_assert!(own, "not {:?}'s own message: {:?}", k, msg);
                }
            }
            rig.busy |= invoke;
            rig.absorb(got);
        }
        Ok(())
    }

    /// What the batch-fold property needs of a protocol: a joiner, a join
    /// reply carrying `(sn, value)`, and the `(sn, value)` it adopted.
    trait Joiner: RegisterProcess<Val = u64> {
        fn joiner() -> Self;
        fn reply(value: Option<u64>, sn: i64) -> Self::Msg;
        fn adopted(&self) -> (i64, Option<u64>);
    }

    impl Joiner for SyncRegister<u64> {
        fn joiner() -> Self {
            SyncRegister::new_joiner(nid(9), cfg(), oid(900))
        }

        fn reply(value: Option<u64>, sn: i64) -> SyncMsg<u64> {
            SyncMsg::Reply { value, sn }
        }

        fn adopted(&self) -> (i64, Option<u64>) {
            (self.local_sn(), self.local_value().copied())
        }
    }

    impl Joiner for EsRegister<u64> {
        fn joiner() -> Self {
            EsRegister::new_joiner(nid(9), EsConfig::new(3), oid(900))
        }

        fn reply(value: Option<u64>, sn: i64) -> EsMsg<u64> {
            // One writer id, so equal `sn`s from different senders tie.
            let ts = Timestamp { sn, writer: 1 };
            EsMsg::Reply { value, ts, r_sn: 0 }
        }

        fn adopted(&self) -> (i64, Option<u64>) {
            (self.local_ts().sn, self.local_value().copied())
        }
    }

    /// One generated handshake input, `(kind, from, keys, sn, value)`:
    /// kind 0 fires the oldest shared timer the space set, any other kind
    /// delivers a `Batch` from `from` over the keys whose bit is set in
    /// `keys` (key 0 alone when none is; key 0's value `⊥` when `value` is
    /// 0). Small ranges on
    /// purpose: duplicate senders and equal `(sn, sender)` keys carrying
    /// different values are likely.
    type FoldStep = (u32, u64, u32, u64, u64);

    fn fold_steps() -> impl Strategy<Value = Vec<FoldStep>> {
        let step = (0u32..4, 0u64..3, 1u32..8, 0u64..3, 0u64..4);
        prop::collection::vec(step, 1..24)
    }

    /// A joining `keys`-key space absorbing `Batch`es in one pass, against
    /// (a) a twin space fed every entry by value, one `route` each, and
    /// (b) `keys` bare instances fed every entry by value, entry by entry,
    /// and the shared timers the space dispatched to their key: the same
    /// effects in the same order, and the same instance state — the
    /// adopted `(sn, value)` included — after every input, through
    /// activation and the late replies after it.
    fn batch_fold_matches_entry_by_entry<P: Joiner>(
        keys: u32,
        groups: u32,
        steps: &[FoldStep],
    ) -> Result<(), TestCaseError> {
        let space = || {
            let regs = (0..keys).map(|_| P::joiner()).collect();
            RegisterSpace::new_joiner(regs).with_shards(ShardConfig::new(groups))
        };
        let (mut space, mut twin) = (space(), space());
        let mut bare: Vec<P> = (0..keys).map(|_| P::joiner()).collect();
        let enter = space.on_enter(Time::ZERO);
        prop_assert_eq!(&enter, &twin.on_enter(Time::ZERO));
        bare.iter_mut().for_each(|p| drop(p.on_enter(Time::ZERO)));
        let mut timers = std::collections::VecDeque::new();
        let owe = |timers: &mut std::collections::VecDeque<u64>, effects: &[SpaceEffect<_, _>]| {
            for effect in effects {
                if let SpaceEffect::SetTimer { tag, .. } = effect {
                    timers.push_back(*tag);
                }
            }
        };
        owe(&mut timers, &enter);
        for (at, &(kind, from, mask, sn, value)) in steps.iter().enumerate() {
            let now = Time::at(at as u64 + 1);
            let got = if kind == 0 {
                let Some(tag) = timers.pop_front() else {
                    continue;
                };
                // The keys a shared join wait reaches: those still joining,
                // less those of shards unheard once the inquiry is out.
                let waits = tag != RETRANSMIT_TAG && tag != REINQUIRE_TAG;
                let reached: Vec<bool> = (0..keys)
                    .map(|k| {
                        let shard = shard_of_key(key(k), space.groups) as usize;
                        let withheld = space.join.as_deref().is_some_and(|join| {
                            join.inquiry.is_some() && join.shards.get(shard) == Some(&false)
                        });
                        waits && space.joining && !space.register(key(k)).is_active() && !withheld
                    })
                    .collect();
                let got = space.on_timer(now, tag);
                prop_assert_eq!(&got, &twin.on_timer(now, tag));
                for (p, _) in bare.iter_mut().zip(&reached).filter(|(_, r)| **r) {
                    drop(p.on_timer(now, tag & !SHARED_TAG));
                }
                got
            } else {
                let mask = (mask % (1 << keys)).max(1);
                let entries: Vec<(RegisterId, P::Msg)> = (0..keys)
                    .filter(|k| mask & (1 << k) != 0)
                    .map(|k| {
                        let v = (value > 0 || k > 0).then_some(value * 10 + u64::from(k));
                        (key(k), P::reply(v, sn as i64))
                    })
                    .collect();
                let batch = SpaceMsg::Batch {
                    replies: entries.clone().into(),
                };
                let got = space.on_message(now, nid(from), batch);
                // The twin takes the batch entry by entry, by value; the
                // shard marks are the Batch arm's, which it bypasses.
                if let (Some(a), Some(b)) = (space.join.as_deref(), twin.join.as_deref_mut()) {
                    b.shards.clone_from(&a.shards);
                }
                prop_assert_eq!(&got, &per_key_fan_in(&mut twin, nid(from), entries.clone()));
                for (k, msg) in entries {
                    drop(bare[k.as_raw() as usize].on_message(now, nid(from), msg));
                }
                got
            };
            owe(&mut timers, &got);
            prop_assert_eq!(space.is_active(), twin.is_active());
            for (k, p) in bare.iter().enumerate() {
                let reg = space.register(key(k as u32));
                prop_assert_eq!(reg.adopted(), p.adopted(), "key {}", k);
                prop_assert_eq!(format!("{reg:?}"), format!("{p:?}"));
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

        /// A joined space is just its registers: under any mix of keyed
        /// deliveries, client operations and timer expiries it emits what
        /// its instances emit, tagged, in the same order — on the keyed
        /// wire at one and three keys, and on the one-key wire.
        #[test]
        fn joined_space_steps_like_its_bare_instances(
            shape in prop::sample::select(vec![(1u32, false), (3, false), (1, true)]),
            es in prop::bool::ANY,
            steps in rig_steps(),
        ) {
            let (keys, one_key) = shape;
            fn run<P: Wire>(keys: u32, one_key: bool, steps: &[RigStep]) -> Result<(), TestCaseError> {
                let regs = (0..keys).map(|k| P::bootstrap(u64::from(100 + k)));
                if one_key {
                    let space = RegisterSpace::<P, OneKey>::single(P::bootstrap(100));
                    joined_space_matches_bare(space, steps)
                } else {
                    joined_space_matches_bare(RegisterSpace::new_bootstrap(regs.collect()), steps)
                }
            }
            if es {
                run::<EsRegister<u64>>(keys, one_key, &steps)?;
            } else {
                run::<SyncRegister<u64>>(keys, one_key, &steps)?;
            }
        }

        /// A `Batch` folds in one pass over its entries as they lie in
        /// the message, and that is invisible: effects, their order and
        /// every instance's state equal those of feeding each entry by
        /// value, including duplicate senders, ties, `⊥` and late replies.
        #[test]
        fn batch_fold_matches_entries_fed_one_by_one(
            keys in prop::sample::select(vec![1u32, 3]),
            groups in prop::sample::select(vec![1u32, 2]),
            es in prop::bool::ANY,
            steps in fold_steps(),
        ) {
            if es {
                batch_fold_matches_entry_by_entry::<EsRegister<u64>>(keys, groups, &steps)?;
            } else {
                batch_fold_matches_entry_by_entry::<SyncRegister<u64>>(keys, groups, &steps)?;
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
