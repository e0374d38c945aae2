//! The eventually synchronous protocol — Figures 4, 5 and 6 of the paper.
//!
//! In an eventually synchronous system the delay bound `δ` exists but is
//! unknown and holds only after an unknown global stabilization time (GST),
//! so no `wait(δ)` can be trusted. The protocol replaces the synchronous
//! protocol's waits with **acknowledged quorums** under two assumptions
//! (§5.2):
//!
//! * **Majority of active processes**: `∀τ: |A(τ)| ≥ ⌊n/2⌋ + 1` — the
//!   dynamic-system analogue of the classical "majority of non-faulty
//!   processes";
//! * **churn bound** `c ≤ 1/(3δn)` — note it involves the system size `n`,
//!   unlike the synchronous bound `1/(3δ)`.
//!
//! Message flow:
//!
//! * **join** (Figure 4): broadcast `INQUIRY(i, 0)`, gather `⌊n/2⌋+1`
//!   `REPLY`s, adopt the freshest, become active, then answer everyone in
//!   `reply_to ∪ dl_prev`. `DL_PREV` is the mutual-help channel between
//!   concurrent joiners that Lemma 5's termination argument leans on: a
//!   not-yet-active process that receives your inquiry promises you a reply
//!   for when it activates.
//! * **read** (Figure 5): a simplified join — broadcast `READ(i, r_sn)`,
//!   await a majority of `REPLY`s tagged `r_sn`, adopt, return.
//! * **write** (Figure 6): *read first* to learn the highest sequence
//!   number, then broadcast `WRITE(v, sn+1)` and await a majority of
//!   `ACK`s. Acks also flow back through join replies (a joiner acks the
//!   value a replier handed it), which is how an in-flight write keeps
//!   making progress while the membership churns underneath it — Lemma 7.
//!
//! ## Resolved pseudo-code ambiguities
//!
//! The report's figure text has mangled subscripts; the disambiguations
//! below follow the prose and the proofs (the resulting wire protocol is
//! specified in `docs/PROTOCOL.md`):
//!
//! 1. the `ACK` sent when a `REPLY` is received (Fig. 4 line 20) carries
//!    the *register* timestamp from the reply, so it counts toward the
//!    originating writer's `write_ack` (required by Lemma 7);
//! 2. `DL_PREV` carries the *sender's* pending request number (its
//!    `read_sn`, 0 while joining), so the eventual reply passes the
//!    receiver's `r_sn = read_sn` filter (Fig. 4 line 19);
//! 3. the write's ack filter (Fig. 6 line 10) is timestamp equality with
//!    the in-flight write.
//!
//! ## Extensions
//!
//! * **Timestamps, not bare sequence numbers.** The paper assumes writes
//!   are never concurrent (§5.3) and leaves "any process writes at any
//!   time" to future work (§7). We order values by [`Timestamp`] `(sn,
//!   writer)`; with a single writer this degenerates to the paper's `sn`,
//!   and with concurrent writers values still serialize deterministically.
//! * **Atomic upgrade** ([`EsConfig::atomic`]): before returning, a read
//!   writes its value back to a majority (`WRITE_BACK`/`ACK`), the
//!   classical ABD phase-2; this eliminates new/old inversions, lifting the
//!   register from regular to atomic at one extra round-trip per read.

use std::fmt;

use dynareg_sim::{NodeId, OpId, Time};

use crate::actor::{Effect, EffectSink, OpOutcome, RegisterProcess, Value};

/// A logical timestamp ordering written values: lexicographic on
/// `(sn, writer)`.
///
/// With the paper's single-writer assumption the `writer` component never
/// discriminates; it exists so the multi-writer extension serializes
/// concurrent writes instead of corrupting replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp {
    /// Sequence number (−1 = ⊥, 0 = initial value).
    pub sn: i64,
    /// Id of the writing process (0 for the initial value).
    pub writer: u64,
}

impl Timestamp {
    /// The ⊥ timestamp of a process that never obtained a value.
    pub const BOTTOM: Timestamp = Timestamp { sn: -1, writer: 0 };

    /// The timestamp of the register's initial value.
    pub const INITIAL: Timestamp = Timestamp { sn: 0, writer: 0 };

    /// The timestamp a write by `writer` produces after observing `self`.
    pub fn next_for(self, writer: NodeId) -> Timestamp {
        Timestamp {
            sn: self.sn + 1,
            writer: writer.as_raw(),
        }
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{},{}⟩", self.sn, self.writer)
    }
}

/// Wire messages of the eventually synchronous protocol (Figures 4–6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EsMsg<V> {
    /// `INQUIRY(i, r_sn)` — Figure 4 line 03 (`r_sn = 0` identifies the
    /// join; the paper treats the join as "the read identified 0").
    Inquiry {
        /// The inquirer's pending request number (0 for joins).
        r_sn: u64,
    },
    /// `READ(i, r_sn)` — Figure 5 line 03.
    Read {
        /// The reader's request number for matching replies.
        r_sn: u64,
    },
    /// `REPLY(⟨i, register, ts⟩, r_sn)` — Figures 4/5.
    Reply {
        /// The replier's register copy (`None` = ⊥).
        value: Option<V>,
        /// Its timestamp.
        ts: Timestamp,
        /// Echo of the request number this answers.
        r_sn: u64,
    },
    /// `WRITE(⟨i, v, ts⟩)` — Figure 6 line 04.
    Write {
        /// The value being written.
        value: V,
        /// Its timestamp.
        ts: Timestamp,
    },
    /// Read write-back (atomic extension): semantically a `WRITE` of an
    /// already-written value; distinct label for accounting.
    WriteBack {
        /// The value being propagated.
        value: V,
        /// Its (existing) timestamp.
        ts: Timestamp,
    },
    /// `ACK(i, ts)` — Figure 6 lines 08–10 and Figure 4 line 20.
    Ack {
        /// The acknowledged timestamp.
        ts: Timestamp,
    },
    /// `DL_PREV(i, r_sn)` — Figure 4 lines 14, 16, 22.
    DlPrev {
        /// The *sender's* pending request number (see module docs).
        r_sn: u64,
    },
}

impl<V> EsMsg<V> {
    /// Message label for traces and statistics.
    pub fn label(&self) -> &'static str {
        match self {
            EsMsg::Inquiry { .. } => "INQUIRY",
            EsMsg::Read { .. } => "READ",
            EsMsg::Reply { .. } => "REPLY",
            EsMsg::Write { .. } => "WRITE",
            EsMsg::WriteBack { .. } => "WRITE_BACK",
            EsMsg::Ack { .. } => "ACK",
            EsMsg::DlPrev { .. } => "DL_PREV",
        }
    }
}

/// Configuration of the eventually synchronous protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EsConfig {
    /// Nominal system size `n` (known to every process, §3.1).
    pub n: usize,
    /// Whether reads perform the ABD write-back phase (atomic semantics).
    pub read_write_back: bool,
    /// Whether the protocol emits [`Effect::Note`] annotations ("quorum
    /// reached", …). Off by default: notes build `String`s on the delivery
    /// hot path, so runtimes enable them only when a trace is actually
    /// recorded (the scenario harness ties this to its `trace` flag).
    pub notes: bool,
    /// Reply quorum of the **join** phase only (`None` = the majority
    /// [`EsConfig::quorum`], the paper's protocol). Key-sharded register
    /// spaces answer a join inquiry only from the `≈ n/G` responders of
    /// one shard, so the sharded factory sizes the join quorum to the
    /// shard (`⌊(n/G)/2⌋ + 1`) — the quorum-per-shard liveness trade.
    /// Steady-state reads and write acks always use the full majority.
    pub join_quorum: Option<usize>,
}

impl EsConfig {
    /// The paper's protocol (regular semantics) for a system of size `n`.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> EsConfig {
        assert!(n > 0, "system size must be positive");
        EsConfig {
            n,
            read_write_back: false,
            notes: false,
            join_quorum: None,
        }
    }

    /// The atomic extension: reads write back before returning.
    pub fn atomic(n: usize) -> EsConfig {
        EsConfig {
            read_write_back: true,
            ..EsConfig::new(n)
        }
    }

    /// Enables trace annotations ([`Effect::Note`]); see the `notes` field.
    pub fn with_notes(mut self) -> EsConfig {
        self.notes = true;
        self
    }

    /// Overrides the join-phase reply quorum (key-sharded joins; see the
    /// `join_quorum` field).
    ///
    /// # Panics
    /// Panics if `quorum` is zero.
    pub fn with_join_quorum(mut self, quorum: usize) -> EsConfig {
        assert!(quorum > 0, "a join quorum must be positive");
        self.join_quorum = Some(quorum);
        self
    }

    /// The reply quorum the join phase waits for: the shard-sized override
    /// if one is set, the full majority otherwise.
    pub fn effective_join_quorum(&self) -> usize {
        self.join_quorum.unwrap_or_else(|| self.quorum())
    }

    /// The quorum size `⌊n/2⌋ + 1` (majority).
    pub fn quorum(&self) -> usize {
        self.n / 2 + 1
    }

    /// The paper's churn threshold `1/(3δn)` for this system size (§5.2).
    pub fn churn_threshold(&self, delta: dynareg_sim::Span) -> f64 {
        1.0 / (3.0 * delta.as_ticks() as f64 * self.n as f64)
    }
}

/// Why a quorum-read phase is running.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ReadPurpose<V> {
    /// A client read: complete the op with the value.
    Client,
    /// Phase one of a client write (Figure 6 line 01): learn the highest
    /// timestamp, then disseminate `value`.
    WritePhase {
        /// The value the client is writing.
        value: V,
    },
}

/// An in-flight quorum read (client read or write phase 1).
#[derive(Debug, Clone, PartialEq, Eq)]
struct ReadCtx<V> {
    op: OpId,
    purpose: ReadPurpose<V>,
}

/// An in-flight write dissemination awaiting acks (Figure 6 line 05).
#[derive(Debug, Clone, PartialEq, Eq)]
struct AckWait {
    op: OpId,
    ts: Timestamp,
    /// The distinct processes that acked `ts`, sorted.
    acks: Vec<NodeId>,
    /// Whether completing delivers `WriteOk` (client write) or the read
    /// value (atomic read write-back).
    is_write: bool,
}

/// One process running the eventually synchronous protocol of Figures 4–6.
///
/// # Example
///
/// ```
/// use dynareg_core::es::{EsConfig, EsRegister, EsMsg, Timestamp};
/// use dynareg_core::{RegisterProcess, Effect};
/// use dynareg_sim::{NodeId, OpId, Time};
///
/// // A joiner broadcasts INQUIRY(i, 0) on entry.
/// let cfg = EsConfig::new(5);
/// let mut p: EsRegister<u64> =
///     EsRegister::new_joiner(NodeId::from_raw(9), cfg, OpId::from_raw(0));
/// let effects = p.on_enter(Time::ZERO);
/// assert_eq!(effects, vec![Effect::Broadcast { msg: EsMsg::Inquiry { r_sn: 0 } }]);
/// ```
#[derive(Debug, Clone)]
pub struct EsRegister<V> {
    id: NodeId,
    config: EsConfig,
    /// `registerᵢ` (`None` = ⊥).
    register: Option<V>,
    /// The copy's timestamp (the paper's `snᵢ`, extended).
    ts: Timestamp,
    /// `activeᵢ`.
    active: bool,
    /// `readingᵢ`.
    reading: bool,
    /// `read_snᵢ` — 0 identifies the join; incremented per read request.
    read_sn: u64,
    /// `repliesᵢ` — one `(sender, value, ts)` entry per distinct sender,
    /// sorted by sender, so a quorum counts distinct processes. Sized to
    /// the quorum on the round's first reply and released when the round
    /// completes: nothing reads a finished round.
    replies: Vec<(NodeId, Option<V>, Timestamp)>,
    /// `reply_toᵢ` — (requester, its r_sn) pairs to answer upon activation.
    reply_to: Vec<(NodeId, u64)>,
    /// `dl_prevᵢ` — (promiser → requester, r_sn) pairs gathered from
    /// `DL_PREV` messages, answered upon activation.
    dl_prev: Vec<(NodeId, u64)>,
    /// The join op id (for the recorded history).
    pending_join: Option<OpId>,
    /// In-flight quorum read.
    pending_read: Option<ReadCtx<V>>,
    /// In-flight ack collection (write dissemination or read write-back).
    pending_ack: Option<AckWait>,
}

impl<V: Value> EsRegister<V> {
    /// A process of the initial population: active, holding `initial` at
    /// [`Timestamp::INITIAL`].
    pub fn new_bootstrap(id: NodeId, config: EsConfig, initial: V) -> EsRegister<V> {
        EsRegister {
            id,
            config,
            register: Some(initial),
            ts: Timestamp::INITIAL,
            active: true,
            reading: false,
            read_sn: 0,
            replies: Vec::new(),
            reply_to: Vec::new(),
            dl_prev: Vec::new(),
            pending_join: None,
            pending_read: None,
            pending_ack: None,
        }
    }

    /// A process about to enter the system; `join_op` identifies its join
    /// in the recorded history.
    pub fn new_joiner(id: NodeId, config: EsConfig, join_op: OpId) -> EsRegister<V> {
        EsRegister {
            id,
            config,
            register: None,
            ts: Timestamp::BOTTOM,
            active: false,
            reading: false,
            read_sn: 0,
            replies: Vec::new(),
            reply_to: Vec::new(),
            dl_prev: Vec::new(),
            pending_join: Some(join_op),
            pending_read: None,
            pending_ack: None,
        }
    }

    /// The join operation this process is executing, if any.
    pub fn pending_join(&self) -> Option<OpId> {
        self.pending_join
    }

    /// The local register copy (`None` = ⊥).
    pub fn local_value(&self) -> Option<&V> {
        self.register.as_ref()
    }

    /// The local timestamp.
    pub fn local_ts(&self) -> Timestamp {
        self.ts
    }

    /// Current reply to an inquiry/read: the local copy.
    fn reply_msg(&self, r_sn: u64) -> EsMsg<V> {
        EsMsg::Reply {
            value: self.register.clone(),
            ts: self.ts,
            r_sn,
        }
    }

    /// Records a `REPLY` in `repliesᵢ`. A second reply from one sender
    /// replaces its first, even when it is the older of the two
    /// (`docs/PROTOCOL.md`, *Idempotent responders*).
    fn record_reply(&mut self, from: NodeId, value: Option<V>, ts: Timestamp) {
        match self.replies.binary_search_by_key(&from, |r| r.0) {
            Ok(at) => self.replies[at] = (from, value, ts),
            Err(at) => {
                if self.replies.capacity() == 0 {
                    self.replies.reserve_exact(self.reply_quorum());
                }
                self.replies.insert(at, (from, value, ts));
            }
        }
    }

    /// Figure 4/5 lines 05–06: adopt the freshest gathered reply (among
    /// equal timestamps, the highest sender's), and release the round.
    fn adopt_best_reply(&mut self) {
        let replies = std::mem::take(&mut self.replies);
        if let Some((_, value, ts)) = replies.into_iter().max_by_key(|r| r.2) {
            if ts > self.ts {
                self.ts = ts;
                self.register = value;
            }
        }
    }

    /// Figure 4 lines 07–11: become active and answer `reply_to ∪ dl_prev`.
    fn finish_join(&mut self, out: &mut impl EffectSink<EsMsg<V>, V>) {
        debug_assert!(!self.active);
        let heard = self.replies.len();
        self.adopt_best_reply();
        self.active = true; // line 07
        if self.config.notes {
            out.push(Effect::Note(format!(
                "join quorum reached with {heard} replies, adopted ts {}",
                self.ts
            )));
        }
        // Lines 08–10: one REPLY per distinct (requester, r_sn). The join's
        // state is released: nothing reads it once the process is active.
        self.pending_join = None;
        let mut targets = std::mem::take(&mut self.reply_to);
        targets.append(&mut std::mem::take(&mut self.dl_prev));
        targets.sort_unstable();
        targets.dedup();
        for (j, r_sn) in targets {
            out.push(Effect::Send {
                to: j,
                msg: self.reply_msg(r_sn),
            });
        }
        out.push(Effect::JoinComplete); // line 11
    }

    /// Starts a quorum read (join-style collection with a fresh `r_sn`):
    /// Figure 5 lines 01–03.
    fn start_quorum_read(&mut self, op: OpId, purpose: ReadPurpose<V>) -> Vec<Effect<EsMsg<V>, V>> {
        self.read_sn += 1; // line 01
        self.replies.clear(); // line 02
        self.reading = true;
        self.pending_read = Some(ReadCtx { op, purpose });
        vec![Effect::Broadcast {
            msg: EsMsg::Read { r_sn: self.read_sn },
        }] // line 03
    }

    /// Figure 5 lines 05–07 (+ write phase 2 / write-back dispatch).
    fn finish_quorum_read(&mut self, out: &mut impl EffectSink<EsMsg<V>, V>) {
        self.adopt_best_reply(); // lines 05–06
        self.reading = false; // line 07
        let ctx = self.pending_read.take().expect("read context");
        match ctx.purpose {
            ReadPurpose::Client => {
                if self.config.read_write_back {
                    // Atomic extension: propagate before returning.
                    match self.register.clone() {
                        Some(value) => {
                            self.pending_ack = Some(AckWait {
                                op: ctx.op,
                                ts: self.ts,
                                acks: Vec::with_capacity(self.config.quorum()),
                                is_write: false,
                            });
                            out.push(Effect::Broadcast {
                                msg: EsMsg::WriteBack { value, ts: self.ts },
                            });
                        }
                        // ⊥ cannot be usefully written back; return it and
                        // let the checker flag the anomaly.
                        None => out.push(Effect::OpComplete {
                            op: ctx.op,
                            outcome: OpOutcome::Read(None),
                        }),
                    }
                } else {
                    out.push(Effect::OpComplete {
                        op: ctx.op,
                        outcome: OpOutcome::Read(self.register.clone()),
                    });
                }
            }
            ReadPurpose::WritePhase { value } => {
                // Figure 6 lines 02–04: stamp past the freshest timestamp
                // and disseminate.
                self.ts = self.ts.next_for(self.id);
                self.register = Some(value.clone());
                self.pending_ack = Some(AckWait {
                    op: ctx.op,
                    ts: self.ts,
                    acks: Vec::with_capacity(self.config.quorum()),
                    is_write: true,
                });
                out.push(Effect::Broadcast {
                    msg: EsMsg::Write { value, ts: self.ts },
                });
            }
        }
    }

    /// The reply quorum of the round in flight. A joining process waits for
    /// the (possibly shard-sized) join quorum; an active reader always
    /// waits for the full majority.
    fn reply_quorum(&self) -> usize {
        if self.active {
            self.config.quorum()
        } else {
            self.config.effective_join_quorum()
        }
    }

    /// Handles an `ACK(ts)`: Figure 6 lines 09–10 (plus write-back acks).
    fn on_ack(&mut self, from: NodeId, ts: Timestamp, out: &mut impl EffectSink<EsMsg<V>, V>) {
        let Some(wait) = self.pending_ack.as_mut() else {
            return;
        };
        if wait.ts != ts {
            return; // ack for an older write
        }
        if let Err(at) = wait.acks.binary_search(&from) {
            wait.acks.insert(at, from);
        }
        if wait.acks.len() >= self.config.quorum() {
            let wait = self.pending_ack.take().expect("checked above");
            let outcome = if wait.is_write {
                OpOutcome::WriteOk // Figure 6 line 05: return ok
            } else {
                OpOutcome::Read(self.register.clone())
            };
            if self.config.notes {
                out.push(Effect::Note(format!("ack quorum for {ts}")));
            }
            out.push(Effect::OpComplete {
                op: wait.op,
                outcome,
            });
        }
    }
}

impl<V: Value> RegisterProcess for EsRegister<V> {
    type Msg = EsMsg<V>;
    type Val = V;

    fn id(&self) -> NodeId {
        self.id
    }

    fn is_active(&self) -> bool {
        self.active
    }

    fn join_replies(&self) -> Option<usize> {
        // `repliesᵢ` holds one entry per sender, so duplicates from a
        // retransmitted inquiry overwrite rather than inflate the count.
        // After activation the same list serves quorum reads and must not
        // be interpreted as join progress.
        (!self.active).then_some(self.replies.len())
    }

    /// `operation join(i)` — Figure 4 lines 01–04.
    fn on_enter(&mut self, _now: Time) -> Vec<Effect<EsMsg<V>, V>> {
        if self.active {
            return vec![Effect::JoinComplete];
        }
        // Lines 01–02 happened at construction; read_snᵢ = 0 identifies the
        // join. Line 03: broadcast INQUIRY(i, 0). Line 04 (the wait) is
        // event-driven: completion fires in `on_message` when the quorum is
        // reached.
        vec![Effect::Broadcast {
            msg: EsMsg::Inquiry { r_sn: 0 },
        }]
    }

    fn on_timer(&mut self, _now: Time, tag: u64) -> Vec<Effect<EsMsg<V>, V>> {
        panic!("the eventually synchronous protocol sets no timers (got tag {tag})");
    }

    // Message delivery is the simulator's hottest edge (every INQUIRY/READ
    // broadcast lands here once per process, and an ES-heavy sweep delivers
    // tens of millions of them); the sink form makes the common cases —
    // replying to a request, recording a reply, acking a write — push
    // into the runtime's buffer with zero allocations, and a value is
    // cloned only when it is kept: a reply recorded, a `WRITE` adopted.
    fn on_message_ref(
        &mut self,
        _now: Time,
        from: NodeId,
        msg: &EsMsg<V>,
        out: &mut impl EffectSink<EsMsg<V>, V>,
    ) {
        match *msg {
            // Figure 4 lines 12–17.
            EsMsg::Inquiry { r_sn } => {
                if self.active {
                    // Line 13.
                    out.push(Effect::Send {
                        to: from,
                        msg: self.reply_msg(r_sn),
                    });
                    // Line 14: a reader asks the joiner to report back the
                    // value it will obtain, tagged with *our* pending read.
                    if self.reading {
                        out.push(Effect::Send {
                            to: from,
                            msg: EsMsg::DlPrev { r_sn: self.read_sn },
                        });
                    }
                } else {
                    // Line 15.
                    if !self.reply_to.contains(&(from, r_sn)) {
                        self.reply_to.push((from, r_sn));
                    }
                    // Line 16: mutual help between concurrent joiners — our
                    // pending request is the join itself (read_sn = 0).
                    out.push(Effect::Send {
                        to: from,
                        msg: EsMsg::DlPrev { r_sn: self.read_sn },
                    });
                }
            }
            // Figure 5 lines 08–11.
            EsMsg::Read { r_sn } => {
                if self.active {
                    out.push(Effect::Send {
                        to: from,
                        msg: self.reply_msg(r_sn),
                    });
                } else if !self.reply_to.contains(&(from, r_sn)) {
                    self.reply_to.push((from, r_sn));
                }
            }
            // Figure 4 lines 18–21.
            EsMsg::Reply {
                ref value,
                ts,
                r_sn,
            } => {
                if r_sn != self.read_sn {
                    return; // stale reply for a finished request
                }
                let collecting = !self.active || self.reading;
                if !collecting {
                    return;
                }
                self.record_reply(from, value.clone(), ts);
                // Line 20: acknowledge the carried value — this is what
                // lets an in-flight write count us (Lemma 7).
                out.push(Effect::Send {
                    to: from,
                    msg: EsMsg::Ack { ts },
                });
                if self.replies.len() >= self.reply_quorum() {
                    if !self.active {
                        self.finish_join(out);
                    } else if self.reading {
                        self.finish_quorum_read(out);
                    }
                }
            }
            // Figure 6 lines 06–08 (shared by the write-back extension).
            EsMsg::Write { ref value, ts } | EsMsg::WriteBack { ref value, ts } => {
                if ts > self.ts {
                    self.register = Some(value.clone());
                    self.ts = ts;
                }
                // Line 08: always ack the received timestamp.
                out.push(Effect::Send {
                    to: from,
                    msg: EsMsg::Ack { ts },
                });
            }
            // Figure 6 lines 09–10 / write-back acks.
            EsMsg::Ack { ts } => self.on_ack(from, ts, out),
            // Figure 4 line 22.
            EsMsg::DlPrev { r_sn } => {
                if !self.active && !self.dl_prev.contains(&(from, r_sn)) {
                    self.dl_prev.push((from, r_sn));
                }
            }
        }
    }

    /// `operation read(i)` — Figure 5.
    fn on_read(&mut self, _now: Time, op: OpId) -> Vec<Effect<EsMsg<V>, V>> {
        assert!(self.active, "reads are invoked only after join returns");
        assert!(
            self.pending_read.is_none() && self.pending_ack.is_none(),
            "operations on one process are sequential"
        );
        self.start_quorum_read(op, ReadPurpose::Client)
    }

    /// `operation write(v)` — Figure 6.
    fn on_write(&mut self, _now: Time, op: OpId, value: V) -> Vec<Effect<EsMsg<V>, V>> {
        assert!(self.active, "writes are invoked only after join returns");
        assert!(
            self.pending_read.is_none() && self.pending_ack.is_none(),
            "operations on one process are sequential"
        );
        // Line 01: read() — to obtain the highest timestamp.
        self.start_quorum_read(op, ReadPurpose::WritePhase { value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::completions;

    fn nid(i: u64) -> NodeId {
        NodeId::from_raw(i)
    }

    fn oid(i: u64) -> OpId {
        OpId::from_raw(i)
    }

    fn cfg() -> EsConfig {
        EsConfig::new(5) // quorum = 3
    }

    fn bootstrap(i: u64) -> EsRegister<u64> {
        EsRegister::new_bootstrap(nid(i), cfg(), 0)
    }

    fn joiner(i: u64) -> EsRegister<u64> {
        EsRegister::new_joiner(nid(i), cfg(), oid(900 + i))
    }

    fn reply(value: u64, sn: i64, r_sn: u64) -> EsMsg<u64> {
        EsMsg::Reply {
            value: Some(value),
            ts: Timestamp { sn, writer: 0 },
            r_sn,
        }
    }

    #[test]
    fn an_active_process_holds_no_join_state() {
        let released = |p: &EsRegister<u64>| {
            p.is_active()
                && p.pending_join().is_none()
                && p.reply_to.capacity() == 0
                && p.dl_prev.capacity() == 0
        };
        assert!(released(&bootstrap(0)));
        // A quorum-joined process that promised answers to a concurrent
        // joiner (`reply_to`) and was asked to relay (`dl_prev`).
        let mut p = joiner(9);
        p.on_enter(Time::ZERO);
        assert_eq!(p.pending_join(), Some(oid(909)));
        p.on_message(Time::at(1), nid(8), EsMsg::Inquiry { r_sn: 0 });
        p.on_message(Time::at(1), nid(7), EsMsg::DlPrev { r_sn: 2 });
        assert!(p.reply_to.capacity() > 0 && p.dl_prev.capacity() > 0);
        let mut answered = Vec::new();
        for from in 1..=3 {
            answered.extend(p.on_message(Time::at(2), nid(from), reply(4, 1, 0)));
        }
        assert!(answered.contains(&Effect::JoinComplete));
        let to = |j| {
            answered.iter().any(
                |e| matches!(e, Effect::Send { to, msg: EsMsg::Reply { .. } } if *to == nid(j)),
            )
        };
        assert!(to(8) && to(7), "both promises answered: {answered:?}");
        assert!(released(&p));
    }

    #[test]
    fn quorum_is_majority() {
        assert_eq!(EsConfig::new(5).quorum(), 3);
        assert_eq!(EsConfig::new(6).quorum(), 4);
        assert_eq!(EsConfig::new(1).quorum(), 1);
    }

    #[test]
    fn timestamps_order_lexicographically() {
        let a = Timestamp { sn: 1, writer: 5 };
        let b = Timestamp { sn: 2, writer: 1 };
        let c = Timestamp { sn: 2, writer: 3 };
        assert!(a < b && b < c);
        assert!(Timestamp::BOTTOM < Timestamp::INITIAL);
        assert_eq!(a.next_for(nid(9)), Timestamp { sn: 2, writer: 9 });
    }

    #[test]
    fn join_broadcasts_inquiry_zero() {
        let mut p = joiner(9);
        assert_eq!(
            p.on_enter(Time::ZERO),
            vec![Effect::Broadcast {
                msg: EsMsg::Inquiry { r_sn: 0 }
            }]
        );
        assert!(!p.is_active());
    }

    #[test]
    fn join_completes_on_quorum_and_adopts_freshest() {
        let mut p = joiner(9);
        p.on_enter(Time::ZERO);
        assert!(p
            .on_message(Time::at(1), nid(0), reply(10, 1, 0))
            .iter()
            .any(|e| matches!(
                e,
                Effect::Send {
                    msg: EsMsg::Ack { .. },
                    ..
                }
            )));
        p.on_message(Time::at(2), nid(1), reply(20, 2, 0));
        assert!(!p.is_active(), "two replies < quorum of three");
        let effects = p.on_message(Time::at(3), nid(2), reply(10, 1, 0));
        assert!(effects.contains(&Effect::JoinComplete));
        assert!(p.is_active());
        assert_eq!(p.local_value(), Some(&20));
        assert_eq!(p.local_ts().sn, 2);
    }

    #[test]
    fn duplicate_replies_do_not_fake_a_quorum() {
        let mut p = joiner(9);
        p.on_enter(Time::ZERO);
        for t in 1..=5 {
            p.on_message(Time::at(t), nid(0), reply(10, 1, 0));
        }
        assert!(!p.is_active(), "one replier, however chatty, is one vote");
    }

    #[test]
    fn duplicate_acks_do_not_fake_a_quorum() {
        // A write's acks, then an atomic read's write-back acks.
        let mut writer = bootstrap(0);
        writer.on_write(Time::ZERO, oid(1), 42);
        let mut reader = EsRegister::new_bootstrap(nid(0), EsConfig::atomic(5), 0u64);
        reader.on_read(Time::ZERO, oid(1));
        for (mut p, outcome) in [
            (writer, OpOutcome::WriteOk),
            (reader, OpOutcome::Read(Some(9))),
        ] {
            for i in 1..=3 {
                p.on_message(Time::at(1), nid(i), reply(9, 2, 1));
            }
            let ts = p.local_ts();
            for t in 2..=6 {
                let effects = p.on_message(Time::at(t), nid(1), EsMsg::Ack { ts });
                assert!(completions(&effects).is_empty(), "one acker is one vote");
            }
            p.on_message(Time::at(7), nid(2), EsMsg::Ack { ts });
            let done = p.on_message(Time::at(8), nid(3), EsMsg::Ack { ts });
            assert_eq!(completions(&done), vec![(oid(1), outcome)]);
        }
    }

    #[test]
    fn a_later_reply_from_one_sender_replaces_its_first_even_when_older() {
        // Two replies from one sender for one `r_sn` can arrive newest
        // first: one promised by `DL_PREV` and sent at activation, then a
        // direct one to a late `READ` (or one per retransmitted inquiry).
        // The later-arriving entry stands, so this read adopts sn 3, where
        // a running maximum over all replies would adopt sn 5.
        let mut p = bootstrap(0);
        p.on_read(Time::ZERO, oid(1));
        p.on_message(Time::at(1), nid(1), reply(50, 5, 1));
        p.on_message(Time::at(2), nid(1), reply(30, 3, 1));
        p.on_message(Time::at(3), nid(2), reply(0, 0, 1));
        let done = p.on_message(Time::at(4), nid(3), reply(0, 0, 1));
        assert_eq!(
            completions(&done),
            vec![(oid(1), OpOutcome::Read(Some(30)))]
        );
        assert_eq!(p.local_ts().sn, 3);
    }

    #[test]
    fn equal_timestamps_adopt_the_highest_senders_value() {
        let mut p = bootstrap(0);
        p.on_read(Time::ZERO, oid(1));
        p.on_message(Time::at(1), nid(3), reply(33, 4, 1));
        p.on_message(Time::at(1), nid(1), reply(11, 4, 1));
        let done = p.on_message(Time::at(1), nid(2), reply(22, 4, 1));
        assert_eq!(
            completions(&done),
            vec![(oid(1), OpOutcome::Read(Some(33)))]
        );
    }

    #[test]
    fn a_round_releases_its_replies_when_it_completes() {
        let mut p = joiner(9);
        p.on_enter(Time::ZERO);
        for i in 0..3 {
            p.on_message(Time::at(1), nid(i), reply(10, 1, 0));
        }
        assert!(p.is_active());
        assert_eq!(p.replies.capacity(), 0, "the join's replies are released");
        p.on_read(Time::at(2), oid(1));
        p.on_message(Time::at(3), nid(0), reply(10, 1, 1));
        assert_eq!(
            p.replies.capacity(),
            cfg().quorum(),
            "sized to the quorum once"
        );
        p.on_message(Time::at(3), nid(1), reply(10, 1, 1));
        p.on_message(Time::at(3), nid(2), reply(10, 1, 1));
        assert!(!p.reading);
        assert_eq!(p.replies.capacity(), 0, "the read's replies are released");
        // A late reply to the finished read is not stored.
        p.on_message(Time::at(4), nid(3), reply(10, 1, 1));
        assert_eq!(p.replies.capacity(), 0);
    }

    #[test]
    fn join_answers_postponed_and_dlprev_requesters_on_activation() {
        let mut p = joiner(9);
        p.on_enter(Time::ZERO);
        // A fellow joiner inquires: postponed + we promise DL_PREV.
        let effects = p.on_message(Time::at(1), nid(50), EsMsg::Inquiry { r_sn: 0 });
        assert_eq!(
            effects,
            vec![Effect::Send {
                to: nid(50),
                msg: EsMsg::DlPrev { r_sn: 0 }
            }]
        );
        // A reader's DL_PREV promise lands on us.
        p.on_message(Time::at(2), nid(60), EsMsg::DlPrev { r_sn: 4 });
        // Reach quorum.
        p.on_message(Time::at(3), nid(0), reply(10, 1, 0));
        p.on_message(Time::at(4), nid(1), reply(10, 1, 0));
        let effects = p.on_message(Time::at(5), nid(2), reply(10, 1, 0));
        let sends: Vec<(NodeId, u64)> = effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send {
                    to,
                    msg: EsMsg::Reply { r_sn, .. },
                } => Some((*to, *r_sn)),
                _ => None,
            })
            .collect();
        assert!(sends.contains(&(nid(50), 0)), "postponed inquiry answered");
        assert!(
            sends.contains(&(nid(60), 4)),
            "DL_PREV promise honoured with the requester's r_sn"
        );
    }

    #[test]
    fn read_is_a_quorum_round() {
        let mut p = bootstrap(0);
        let effects = p.on_read(Time::ZERO, oid(1));
        assert_eq!(
            effects,
            vec![Effect::Broadcast {
                msg: EsMsg::Read { r_sn: 1 }
            }]
        );
        p.on_message(Time::at(1), nid(1), reply(0, 0, 1));
        p.on_message(Time::at(1), nid(2), reply(7, 3, 1));
        let done = p.on_message(Time::at(2), nid(3), reply(0, 0, 1));
        assert_eq!(completions(&done), vec![(oid(1), OpOutcome::Read(Some(7)))]);
        assert_eq!(p.local_ts().sn, 3, "read adopts the freshest copy");
    }

    #[test]
    fn stale_replies_are_ignored_across_requests() {
        let mut p = bootstrap(0);
        p.on_read(Time::ZERO, oid(1)); // r_sn = 1
        p.on_message(Time::at(1), nid(1), reply(0, 0, 1));
        p.on_message(Time::at(1), nid(2), reply(0, 0, 1));
        p.on_message(Time::at(1), nid(3), reply(0, 0, 1)); // completes
        p.on_read(Time::at(2), oid(2)); // r_sn = 2
                                        // Replies tagged with the old request change nothing.
        let effects = p.on_message(Time::at(3), nid(1), reply(0, 0, 1));
        assert!(effects.is_empty());
        assert!(p.reading);
    }

    #[test]
    fn active_process_replies_to_read_and_inquiry() {
        let mut p = bootstrap(0);
        let e1 = p.on_message(Time::at(1), nid(9), EsMsg::Read { r_sn: 3 });
        assert_eq!(
            e1,
            vec![Effect::Send {
                to: nid(9),
                msg: EsMsg::Reply {
                    value: Some(0),
                    ts: Timestamp::INITIAL,
                    r_sn: 3
                }
            }]
        );
        let e2 = p.on_message(Time::at(1), nid(9), EsMsg::Inquiry { r_sn: 0 });
        assert_eq!(e2.len(), 1, "not reading → no DL_PREV");
    }

    #[test]
    fn reading_process_adds_dlprev_to_inquiry_reply() {
        let mut p = bootstrap(0);
        p.on_read(Time::ZERO, oid(1));
        let effects = p.on_message(Time::at(1), nid(9), EsMsg::Inquiry { r_sn: 0 });
        assert_eq!(effects.len(), 2);
        assert!(matches!(
            effects[1],
            Effect::Send {
                to,
                msg: EsMsg::DlPrev { r_sn: 1 }
            } if to == nid(9)
        ));
    }

    #[test]
    fn write_reads_first_then_disseminates_and_acks_to_quorum() {
        let mut p = bootstrap(0);
        // Phase 1: the internal read (Figure 6 line 01).
        let effects = p.on_write(Time::ZERO, oid(1), 42);
        assert_eq!(
            effects,
            vec![Effect::Broadcast {
                msg: EsMsg::Read { r_sn: 1 }
            }]
        );
        p.on_message(Time::at(1), nid(1), reply(9, 4, 1));
        p.on_message(Time::at(1), nid(2), reply(0, 0, 1));
        let phase2 = p.on_message(Time::at(2), nid(3), reply(0, 0, 1));
        // Phase 2: WRITE with sn = max_seen + 1, stamped with our id.
        let expected_ts = Timestamp { sn: 5, writer: 0 };
        assert!(phase2.contains(&Effect::Broadcast {
            msg: EsMsg::Write {
                value: 42,
                ts: expected_ts
            }
        }));
        assert_eq!(p.local_value(), Some(&42));
        // Acks: two are not enough…
        p.on_message(Time::at(3), nid(1), EsMsg::Ack { ts: expected_ts });
        assert!(
            completions(&p.on_message(Time::at(3), nid(2), EsMsg::Ack { ts: expected_ts }))
                .is_empty()
        );
        // …the third completes the write.
        let done = p.on_message(Time::at(4), nid(3), EsMsg::Ack { ts: expected_ts });
        assert_eq!(completions(&done), vec![(oid(1), OpOutcome::WriteOk)]);
    }

    #[test]
    fn acks_for_old_timestamps_are_ignored() {
        let mut p = bootstrap(0);
        p.on_write(Time::ZERO, oid(1), 42);
        for i in 1..=3 {
            p.on_message(Time::at(1), nid(i), reply(0, 0, 1));
        }
        let old = Timestamp { sn: 0, writer: 0 };
        for i in 1..=3 {
            assert!(
                completions(&p.on_message(Time::at(2), nid(i), EsMsg::Ack { ts: old })).is_empty()
            );
        }
    }

    #[test]
    fn write_delivery_updates_and_always_acks() {
        let mut p = joiner(9); // even non-active processes handle WRITE
        p.on_enter(Time::ZERO);
        let ts = Timestamp { sn: 3, writer: 0 };
        let effects = p.on_message(Time::at(1), nid(0), EsMsg::Write { value: 7, ts });
        assert_eq!(
            effects,
            vec![Effect::Send {
                to: nid(0),
                msg: EsMsg::Ack { ts }
            }]
        );
        assert_eq!(p.local_value(), Some(&7));
        // An older write still acks but does not regress the copy.
        let old = Timestamp { sn: 1, writer: 0 };
        let effects = p.on_message(Time::at(2), nid(0), EsMsg::Write { value: 5, ts: old });
        assert_eq!(
            effects,
            vec![Effect::Send {
                to: nid(0),
                msg: EsMsg::Ack { ts: old }
            }]
        );
        assert_eq!(p.local_value(), Some(&7));
    }

    #[test]
    fn joiner_ack_counts_toward_inflight_write() {
        // Lemma 7's chain: writer replies to a joiner's inquiry with the
        // in-flight value; the joiner's reply-ack carries that timestamp and
        // fills write_ack.
        let mut writer = bootstrap(0);
        writer.on_write(Time::ZERO, oid(1), 42);
        for i in 1..=3 {
            writer.on_message(Time::at(1), nid(i), reply(0, 0, 1));
        }
        let ts = Timestamp { sn: 1, writer: 0 };
        // The writer answers a joiner's INQUIRY (it is active).
        let effects = writer.on_message(Time::at(2), nid(9), EsMsg::Inquiry { r_sn: 0 });
        assert!(matches!(
            &effects[0],
            Effect::Send { msg: EsMsg::Reply { ts: t, .. }, .. } if *t == ts
        ));
        // The joiner acks the replied timestamp (line 20) — simulate it.
        writer.on_message(Time::at(3), nid(9), EsMsg::Ack { ts });
        writer.on_message(Time::at(3), nid(1), EsMsg::Ack { ts });
        let done = writer.on_message(Time::at(3), nid(2), EsMsg::Ack { ts });
        assert_eq!(completions(&done), vec![(oid(1), OpOutcome::WriteOk)]);
    }

    #[test]
    fn atomic_mode_write_back_delays_read_completion() {
        let mut p = EsRegister::new_bootstrap(nid(0), EsConfig::atomic(5), 0u64);
        p.on_read(Time::ZERO, oid(1));
        p.on_message(Time::at(1), nid(1), reply(9, 2, 1));
        p.on_message(Time::at(1), nid(2), reply(0, 0, 1));
        let effects = p.on_message(Time::at(1), nid(3), reply(0, 0, 1));
        // Quorum reached, but instead of completing we broadcast WRITE_BACK.
        assert!(completions(&effects).is_empty());
        let ts = Timestamp { sn: 2, writer: 0 };
        assert!(effects.contains(&Effect::Broadcast {
            msg: EsMsg::WriteBack { value: 9, ts }
        }));
        // Read returns only after a majority acks the write-back.
        p.on_message(Time::at(2), nid(1), EsMsg::Ack { ts });
        p.on_message(Time::at(2), nid(2), EsMsg::Ack { ts });
        let done = p.on_message(Time::at(2), nid(3), EsMsg::Ack { ts });
        assert_eq!(completions(&done), vec![(oid(1), OpOutcome::Read(Some(9)))]);
    }

    #[test]
    fn concurrent_writers_serialize_by_writer_id() {
        // Multi-writer extension: both observe sn=0 and produce ⟨1,id⟩;
        // the higher id wins everywhere, deterministically.
        let ts_a = Timestamp { sn: 1, writer: 3 };
        let ts_b = Timestamp { sn: 1, writer: 7 };
        let mut p = bootstrap(0);
        p.on_message(
            Time::at(1),
            nid(3),
            EsMsg::Write {
                value: 100,
                ts: ts_a,
            },
        );
        p.on_message(
            Time::at(2),
            nid(7),
            EsMsg::Write {
                value: 200,
                ts: ts_b,
            },
        );
        assert_eq!(p.local_value(), Some(&200));
        // Reverse arrival order on another replica converges identically.
        let mut q = bootstrap(1);
        q.on_message(
            Time::at(1),
            nid(7),
            EsMsg::Write {
                value: 200,
                ts: ts_b,
            },
        );
        q.on_message(
            Time::at(2),
            nid(3),
            EsMsg::Write {
                value: 100,
                ts: ts_a,
            },
        );
        assert_eq!(q.local_value(), Some(&200));
    }

    #[test]
    #[should_panic(expected = "sequential")]
    fn overlapping_client_ops_panic() {
        let mut p = bootstrap(0);
        p.on_read(Time::ZERO, oid(1));
        p.on_read(Time::at(1), oid(2));
    }

    #[test]
    #[should_panic(expected = "sets no timers")]
    fn es_protocol_rejects_timers() {
        let mut p = bootstrap(0);
        p.on_timer(Time::ZERO, 1);
    }

    #[test]
    fn labels_cover_all_variants() {
        let ts = Timestamp::INITIAL;
        assert_eq!(EsMsg::<u64>::Inquiry { r_sn: 0 }.label(), "INQUIRY");
        assert_eq!(EsMsg::<u64>::Read { r_sn: 1 }.label(), "READ");
        assert_eq!(
            EsMsg::Reply {
                value: Some(1u64),
                ts,
                r_sn: 0
            }
            .label(),
            "REPLY"
        );
        assert_eq!(EsMsg::Write { value: 1u64, ts }.label(), "WRITE");
        assert_eq!(EsMsg::WriteBack { value: 1u64, ts }.label(), "WRITE_BACK");
        assert_eq!(EsMsg::<u64>::Ack { ts }.label(), "ACK");
        assert_eq!(EsMsg::<u64>::DlPrev { r_sn: 0 }.label(), "DL_PREV");
    }

    #[test]
    fn on_message_into_appends_and_converges_with_on_message() {
        // `on_message` and `on_message_into` both forward to
        // `on_message_ref`, so the exact effect sequences are pinned by
        // the per-message unit tests above (which go through
        // `on_message`). What this test guards is the buffered entry
        // point's *contract with the runtime*:
        // it must **append** to the reused buffer — never clobber it —
        // and driving a process through either entry point must leave
        // identical protocol state.
        let deliveries: Vec<(u64, EsMsg<u64>)> = vec![
            (1, reply(10, 1, 0)),
            (2, reply(20, 2, 0)),
            (3, reply(20, 2, 0)), // completes the join
            (
                1,
                EsMsg::Write {
                    value: 7,
                    ts: Timestamp { sn: 9, writer: 1 },
                },
            ),
            (4, EsMsg::Inquiry { r_sn: 0 }),
            (5, EsMsg::DlPrev { r_sn: 2 }),
        ];
        let mut via_vec = joiner(9);
        via_vec.on_enter(Time::ZERO);
        let mut via_buf = joiner(9);
        via_buf.on_enter(Time::ZERO);
        let mut buf = Vec::new();
        for (t, (from, msg)) in deliveries.into_iter().enumerate() {
            let expected = via_vec.on_message(Time::at(t as u64), nid(from), msg.clone());
            buf.push(Effect::Note("sentinel".into()));
            via_buf.on_message_into(Time::at(t as u64), nid(from), msg, &mut buf);
            assert_eq!(
                buf[0],
                Effect::Note("sentinel".into()),
                "append, not overwrite"
            );
            assert_eq!(&buf[1..], &expected[..]);
            buf.clear();
        }
        assert_eq!(via_vec.is_active(), via_buf.is_active());
        assert_eq!(via_vec.local_value(), via_buf.local_value());
        assert_eq!(via_vec.local_ts(), via_buf.local_ts());
    }

    #[test]
    fn join_quorum_override_applies_to_joins_only() {
        let cfg = EsConfig::new(9).with_join_quorum(2); // majority would be 5
        assert_eq!(cfg.effective_join_quorum(), 2);
        assert_eq!(cfg.quorum(), 5);
        let mut p: EsRegister<u64> = EsRegister::new_joiner(nid(9), cfg, oid(1));
        p.on_enter(Time::ZERO);
        p.on_message(Time::at(1), nid(0), reply(10, 1, 0));
        assert!(!p.is_active(), "one reply < join quorum of two");
        let effects = p.on_message(Time::at(2), nid(1), reply(20, 2, 0));
        assert!(
            effects.contains(&Effect::JoinComplete),
            "shard-sized quorum joins"
        );
        assert_eq!(p.local_value(), Some(&20));
        // A subsequent read still needs the full majority of five.
        p.on_read(Time::at(3), oid(2));
        for i in 0..4 {
            p.on_message(Time::at(4), nid(i), reply(20, 2, 1));
        }
        assert!(p.reading, "four replies < read quorum of five");
        let done = p.on_message(Time::at(5), nid(4), reply(20, 2, 1));
        assert_eq!(
            completions(&done),
            vec![(oid(2), OpOutcome::Read(Some(20)))]
        );
    }

    #[test]
    fn churn_threshold_involves_n() {
        let c = cfg().churn_threshold(dynareg_sim::Span::ticks(4));
        assert!((c - 1.0 / 60.0).abs() < 1e-12);
    }
}
