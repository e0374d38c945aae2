//! The deterministic simulation world.
//!
//! [`World`] owns everything a run needs — protocol actors, the network,
//! the churn driver, the workload, the history, the trace — and advances
//! them on a single event queue. Every actor is a
//! [`RegisterSpaceProcess`] — a keyed register space; single-register
//! protocols run as transparent 1-key spaces via the
//! [`crate::SpaceFactory`] blanket impl, byte-identical to driving them
//! directly. The world is the interpreter for the spaces'
//! [`SpaceEffect`] language:
//!
//! | effect | interpretation |
//! |---|---|
//! | `Send` | sample latency, queue the copy — at the tail of its instant's unicast run when there is one (dropped if the target leaves first) |
//! | `Broadcast` | one *run* per distinct delivery instant over the processes present *now* (the timely broadcast snapshot), all sharing a single payload |
//! | `SetTimer` | schedule a timer callback |
//! | `JoinComplete` | flip presence to active, complete the join (every key) in the history |
//! | `OpComplete` | complete the read/write in its key's history, free the process |
//!
//! A delivery run drains in two phases (see `Pending`): **phase A** only
//! steps each copy's recipient into one run-wide effect buffer, so the
//! copies' cache misses on slots and per-key state overlap; **phase B**
//! then gives each copy, in order, its hooks, trace entry and effects.
//!
//! Per time unit the world (1) applies churn decisions — departures first,
//! then fresh joiners, matching the paper's "replaced within the time unit"
//! accounting — and (2) asks the workload for client operations on idle
//! active processes. The client side (histories, ops in flight, the
//! workload) is `Clients`, called once per lifecycle event.
//!
//! # Node storage
//!
//! Live actors sit in a dense **slab** (`Vec<Option<Slot>>` plus a free
//! list): every queued delivery and timer carries its target's slot index,
//! so the per-event path is one bounds-checked vector access and a
//! `NodeId` identity check (catching slots recycled to later joiners) —
//! no tree walk. A `NodeId → slot` interning map (with a cheap
//! multiply-xor hasher; node ids are already well-distributed small
//! integers) is consulted only when new work is scheduled.

use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

use dynareg_churn::ChurnDriver;
use dynareg_core::space::{RegisterSpaceProcess, SpaceEffect};
use dynareg_net::{Fanout, Network, Presence};
use dynareg_sim::metrics::Metrics;
use dynareg_sim::obs::{TickPhase, TickProfile};
use dynareg_sim::trace::{TraceEvent, TraceLog};
use dynareg_sim::{DetRng, EventQueue, LookupMap, NodeId, RegisterId, Span, Time};
use dynareg_verify::{History, SpaceHistory};

use crate::clients::{Clients, WriterPolicy};
use crate::factory::SpaceFactory;
use crate::obs::{Cause, ObsConfig, ObsReport, WorldObs};
use crate::workload::{KeyedAction, OpAction, Workload};

/// The register value type used by scenarios; histories wrap it in
/// `Option` so the protocol's ⊥ is representable (and flagged as fabricated
/// by the checkers if it ever reaches a client).
pub type Val = u64;

/// World construction parameters.
pub struct WorldConfig {
    /// Initial (and nominal) population size `n`.
    pub n: usize,
    /// The register's initial value (held by all bootstrap members).
    pub initial: Val,
    /// Message latency model (fixes the synchrony class).
    pub delay: Box<dyn dynareg_net::DelayModel>,
    /// Churn decisions.
    pub churn: ChurnDriver,
    /// Client operation source.
    pub workload: Box<dyn Workload>,
    /// Master seed (forked per subsystem).
    pub seed: u64,
    /// Record a full trace (memory-heavy; scenarios default to off).
    pub trace: bool,
    /// Who issues writes.
    pub writer_policy: WriterPolicy,
    /// Writer roster size, and per-key concurrent-write cap: up to this
    /// many writes may race on one key while writes to *other* keys
    /// pipeline freely. `1` is the paper's single-writer model.
    pub writers: usize,
}

impl std::fmt::Debug for WorldConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorldConfig")
            .field("n", &self.n)
            .field("initial", &self.initial)
            .field("seed", &self.seed)
            .field("trace", &self.trace)
            .field("writers", &self.writers)
            .finish_non_exhaustive()
    }
}

/// Event ordering classes within one instant: deliveries fire before
/// timers (so a `wait(2δ)` observes worst-case-latency replies landing at
/// exactly the deadline, as the paper's round-trip bound intends), and the
/// churn/workload tick runs last.
const CLASS_DELIVER: u8 = 0;
const CLASS_TIMER: u8 = 1;
const CLASS_TICK: u8 = 2;

/// What delivery needs of a queued copy besides its payload (the instant
/// lives in the queue key; keeping the full [`Envelope`] here would move
/// two redundant timestamps through every wheel bucket).
///
/// [`Envelope`]: dynareg_net::Envelope
#[derive(Clone, Copy)]
struct Head {
    from: NodeId,
    to: NodeId,
    /// The recipient's slab slot; `to` doubles as a generation check
    /// against slot reuse.
    slot: u32,
    label: &'static str,
    /// The network's sequence id for this copy (links the delivery to its
    /// send in the observability layer; inert otherwise).
    seq: u64,
}

/// A queued unicast copy's [`Head`] without its label: the payload
/// determines the label ([`SpaceFactory::space_msg_label`]), so phase A
/// rebuilds the full head and the queue holds 16 B less per copy.
#[derive(Clone, Copy)]
struct Route {
    from: NodeId,
    to: NodeId,
    slot: u32,
    seq: u64,
}

/// The effects a space step emits, in the world's value type.
type Effects<F> = Vec<SpaceEffect<<<F as SpaceFactory>::Proc as RegisterSpaceProcess>::Msg, Val>>;

/// Events on the world's queue. Messages travel in **delivery runs**: one
/// queue entry holds every copy that would otherwise sit in consecutive
/// entries of one `(instant, CLASS_DELIVER)` lane, and is drained as a
/// whole when it fires. Every *count* stays per copy (see
/// [`World::events_processed`]).
///
/// Runs keep the delivery order bit for bit, for one reason: the queue is
/// FIFO within a lane, and a run only ever gathers copies that would have
/// been **neighbours** there. A broadcast's copies are scheduled back to
/// back with nothing in between, so those landing at one instant are
/// already contiguous, in recipient-id order; a unicast joins a run only
/// when that run is the lane's last entry, i.e. its immediate predecessor.
/// Whatever a handler schedules while a run drains lands behind the run's
/// remaining copies, exactly as it landed behind their separate entries —
/// they were all queued before it.
///
/// A run drains in two phases, and that keeps the order too: phase B does
/// per copy all a copy-at-a-time drain did (trace entries, sequence ids,
/// latency draws, queue appends, completions, in the same order); only
/// the steps move ahead of the run's first effect, and no step can tell:
/// - phase A reaches nothing but one slot's `proc_` and the buffer (the
///   signature of `on_message_ref`);
/// - liveness cannot change inside a run: membership changes only in
///   `CLASS_TICK`;
/// - `apply_effects` never touches a `proc_`;
/// - same-slot repeats (the `n` `REPLY`s to one joiner) stay sequential in
///   phase A.
enum Pending<M> {
    /// A unicast run: consecutive sends landing at one instant, in send
    /// order. A lone unicast is a run of one.
    UnicastRun(Vec<(Route, M)>),
    /// A broadcast run: the copies of one broadcast landing at one
    /// instant, as `(index into fan.recipients, recipient slot)` in
    /// recipient-id order. The payload lives once inside the shared
    /// [`Fanout`]; under a synchronous model a broadcast is at most `δ`
    /// of these, whatever `n` is.
    FanRun {
        fan: Rc<Fanout<M>>,
        copies: Vec<(u32, u32)>,
    },
    /// A timer callback; carries the target's slab slot like a delivery.
    Timer {
        node: NodeId,
        slot: u32,
        tag: u64,
    },
    Tick,
}

/// Told by the main loop which phase each piece of work belongs to. The
/// loop is generic over it: with [`NoClock`] the calls compile to nothing,
/// so an unprofiled run reads no clock and keeps no account.
trait PhaseClock {
    /// The loop enters `phase` for `events` events: once per delivery run
    /// (one event per copy) or timer, once per sub-phase of a tick.
    fn enter(&mut self, phase: TickPhase, events: u64);
}

/// The unprofiled run's clock.
struct NoClock;

impl PhaseClock for NoClock {
    #[inline(always)]
    fn enter(&mut self, _phase: TickPhase, _events: u64) {}
}

/// The tick profiler: reads the wall-clock only where the phase *changes*.
/// The queue drains an instant's deliveries, then its timers, then the
/// tick, so a whole lane shares one stamp — five reads per tick, however
/// many events it holds — and each stamp both closes one phase and opens
/// the next, so the phases sum to the loop's wall-clock.
struct WallClock {
    profile: TickProfile,
    phase: TickPhase,
    since: std::time::Instant,
    /// Events entered since the last stamp.
    events: u64,
}

impl WallClock {
    #[expect(
        clippy::disallowed_methods,
        reason = "TickProfile wall timing, reported out-of-band, never in digests"
    )]
    fn start(profile: TickProfile) -> WallClock {
        WallClock {
            profile,
            phase: TickPhase::Deliver,
            since: std::time::Instant::now(),
            events: 0,
        }
    }

    /// Closes the open phase's account and opens `next`'s.
    #[expect(
        clippy::disallowed_methods,
        reason = "TickProfile wall timing, reported out-of-band, never in digests"
    )]
    fn stamp(&mut self, next: TickPhase) {
        let now = std::time::Instant::now();
        self.profile.add(self.phase, now - self.since, self.events);
        (self.phase, self.since, self.events) = (next, now, 0);
    }
}

impl PhaseClock for WallClock {
    fn enter(&mut self, phase: TickPhase, events: u64) {
        if phase != self.phase {
            self.stamp(phase);
            if phase == TickPhase::Churn {
                // A tick opens with its churn phase.
                self.profile.ticks += 1;
            }
        }
        self.events += events;
    }
}

/// One live process in the slab.
struct Slot<P> {
    /// Identity; checked against queued events to detect slot reuse.
    node: NodeId,
    proc_: P,
}

/// Multiply-xor hasher for `NodeId`-keyed maps: node ids are small
/// sequential integers, so a single odd-multiplier mix beats SipHash on
/// the interning path without clustering.
#[derive(Debug, Default, Clone, Copy)]
struct NodeIdHasher(u64);

impl Hasher for NodeIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 writes (unused by NodeId's derived Hash).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let mut h = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        self.0 = h;
    }
}

/// The `NodeId → slot` interning map on the per-event hot path: probed by
/// node id, and — being a [`LookupMap`] — impossible to iterate.
type NodeMap<V> = LookupMap<NodeId, V, BuildHasherDefault<NodeIdHasher>>;

/// The deterministic simulation world for the spaces `F` builds.
///
/// Most users go through [`crate::ScenarioSpec`]; `World` is public for tests
/// and experiments needing fine-grained control (scripted fault injection,
/// mid-run probes). `World<SyncFactory>` / `World<EsFactory>` drive the
/// paper's single-register protocols unchanged (1-key spaces);
/// `World<SpaceOf<…>>` drives a keyed register space.
///
/// [`SpaceOf`]: crate::SpaceOf
pub struct World<F: SpaceFactory> {
    factory: F,
    queue: EventQueue<Pending<<F::Proc as RegisterSpaceProcess>::Msg>>,
    /// Copies queued beyond the first of each delivery run: what
    /// `queue.len()` misses of the messages in flight.
    surplus_queued: usize,
    /// Copies delivered (or dropped at delivery) beyond the first of each
    /// run: what `queue.delivered()` misses of the events processed.
    surplus_done: u64,
    /// Drained runs' buffers, reused last in, first out, so a lone unicast
    /// or a one-instant broadcast costs no allocation.
    free_unicasts: Vec<Vec<(Route, <F::Proc as RegisterSpaceProcess>::Msg)>>,
    free_copies: Vec<Vec<(u32, u32)>>,
    /// Scratch for bucketing one broadcast's copies by delivery instant,
    /// sorted by instant; empty between broadcasts.
    fan_runs: Vec<(Time, Vec<(u32, u32)>)>,
    /// Dense live-node storage; see the module docs.
    slots: Vec<Option<Slot<F::Proc>>>,
    free_slots: Vec<u32>,
    /// NodeId → slot interning for scheduling-time lookups. Doubles as the
    /// O(1) "is present" set (its keys are exactly the live nodes).
    slot_of: NodeMap<u32>,
    /// The present set with slots, in id order — the same set (and order)
    /// as a broadcast snapshot, so fan-out scheduling zips against it
    /// instead of hashing once per recipient.
    present_slots: Vec<(NodeId, u32)>,
    presence: Presence,
    network: Network,
    churn: ChurnDriver,
    /// The client side: histories, in-flight ops, the workload.
    clients: Clients,
    /// Cached key count (== `factory.key_count()`).
    keys: u32,
    trace: TraceLog,
    metrics: Metrics,
    /// Deliveries counted outside [`Metrics`] (a per-event map update is
    /// measurable at 40M+ events); folded into `net.delivered` on
    /// [`World::into_space_outputs`].
    delivered_msgs: u64,
    /// Reused scratch between a run's two phases, empty between runs:
    /// every copy's effects back to back, and each copy with where its
    /// effects end in that buffer (`None`: the recipient left in flight).
    effects_buf: Effects<F>,
    stepped: Vec<(Head, Option<u32>)>,
    rng_churn: DetRng,
    /// The observability collector, absent unless installed via
    /// [`World::set_obs`] — every hook sits behind this `Option`, so an
    /// uninstrumented world pays one predictable branch per hook site and
    /// its event stream (and digest) is untouched.
    obs: Option<Box<WorldObs>>,
    /// Figure-exact membership script: joins at given instants.
    scripted_joins: Vec<Time>,
    /// Figure-exact membership script: named departures.
    scripted_leaves: Vec<(Time, NodeId)>,
    now: Time,
    end: Time,
    /// The next tick's instant while it is *not* on the queue: the chain
    /// stopped at the previous `end` and the next `run_until` re-arms it.
    parked_tick: Option<Time>,
}

impl<F: SpaceFactory> World<F>
where
    F::Proc: RegisterSpaceProcess<Val = Val>,
{
    /// Builds a world with `config.n` active bootstrap members, every key
    /// of every space holding `config.initial`, and schedules the first
    /// churn/workload tick.
    pub fn new(factory: F, config: WorldConfig) -> World<F> {
        assert!(config.n > 0, "population must be positive");
        assert!(
            (1..=config.n).contains(&config.writers),
            "writer roster must have between 1 and n members"
        );
        let keys = factory.key_count();
        let mut seed_rng = DetRng::seed(config.seed);
        let rng_net = seed_rng.fork(1);
        let rng_churn = seed_rng.fork(2);
        let rng_workload = seed_rng.fork(3);

        let mut presence = Presence::new();
        let mut slots = Vec::with_capacity(config.n);
        let mut slot_of = NodeMap::default();
        let mut present_slots = Vec::with_capacity(config.n);
        for raw in 0..config.n as u64 {
            let id = NodeId::from_raw(raw);
            presence.enter(id, Time::ZERO);
            presence.activate(id, Time::ZERO);
            slot_of.insert(id, slots.len() as u32);
            present_slots.push((id, slots.len() as u32));
            slots.push(Some(Slot {
                node: id,
                proc_: factory.space_bootstrap(id, config.initial),
            }));
        }

        let mut queue = EventQueue::new();
        queue.schedule_class(Time::ZERO, CLASS_TICK, Pending::Tick);

        World {
            factory,
            queue,
            surplus_queued: 0,
            surplus_done: 0,
            free_unicasts: Vec::new(),
            free_copies: Vec::new(),
            fan_runs: Vec::new(),
            slots,
            free_slots: Vec::new(),
            slot_of,
            present_slots,
            presence,
            network: Network::new(config.delay, rng_net),
            churn: config.churn,
            clients: Clients::new(
                config.n,
                keys,
                config.initial,
                config.writer_policy,
                config.writers,
                config.workload,
                rng_workload,
            ),
            keys,
            trace: if config.trace {
                TraceLog::enabled()
            } else {
                TraceLog::disabled()
            },
            metrics: Metrics::new(),
            delivered_msgs: 0,
            effects_buf: Vec::new(),
            stepped: Vec::new(),
            rng_churn,
            obs: None,
            scripted_joins: Vec::new(),
            scripted_leaves: Vec::new(),
            now: Time::ZERO,
            end: Time::MAX,
            parked_tick: None,
        }
    }

    /// Scripts a fresh process to enter (and start joining) at `t`,
    /// independent of the churn model. Scripted arrivals are addressable
    /// from a [`crate::ScriptedWorkload`] via their arrival index.
    pub fn schedule_join(&mut self, t: Time) {
        self.scripted_joins.push(t);
    }

    /// Scripts `node` to leave the system at `t` (processed at the start
    /// of that time unit, after deliveries and timers of instant `t` —
    /// so an operation completing locally at `t` still completes).
    pub fn schedule_leave(&mut self, t: Time, node: NodeId) {
        self.scripted_leaves.push((t, node));
    }

    /// Installs a network fault plan (delay adversary).
    pub fn set_faults(&mut self, faults: dynareg_net::FaultPlan) {
        self.network.set_faults(faults);
    }

    /// Installs the observability layer. A fully-off config installs
    /// nothing, leaving the run bit-for-bit what it was without the call;
    /// otherwise spans turn on the network's send log, a flight-recorder
    /// capacity turns the trace into a bounded ring (unless full tracing
    /// was already requested), and the collector starts listening.
    pub fn set_obs(&mut self, cfg: ObsConfig) {
        if cfg.is_off() {
            return;
        }
        if cfg.spans {
            self.network.enable_msg_log();
        }
        if let Some(cap) = cfg.flight_recorder {
            if !self.trace.is_enabled() {
                self.trace = TraceLog::with_capacity_limit(cap);
            }
        }
        self.obs = Some(Box::new(WorldObs::new(cfg)));
    }

    /// Extracts the observability report (spans with resolved message
    /// fates, timeseries, tick profile), detaching the collector. Call
    /// before [`World::into_space_outputs`]; returns `None` if no
    /// observability was installed.
    pub fn take_obs_report(&mut self) -> Option<ObsReport> {
        let obs = self.obs.take()?;
        let log = self.network.take_msg_log();
        Some(obs.into_report(log))
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total events (deliveries, timers, ticks) processed so far — the
    /// denominator of the engine's events/sec throughput. A delivery is
    /// one message copy reaching (or missing) its recipient, however many
    /// copies shared a queue entry.
    pub fn events_processed(&self) -> u64 {
        self.queue.delivered() + self.surplus_done
    }

    /// Events pending on the queue, counted like
    /// [`World::events_processed`]: per message copy.
    fn inflight(&self) -> usize {
        self.queue.len() + self.surplus_queued
    }

    /// The live slot for `node`, with the identity check against reuse.
    #[inline]
    fn live_slot(&mut self, node: NodeId, slot: u32) -> Option<&mut Slot<F::Proc>> {
        match self.slots.get_mut(slot as usize) {
            Some(Some(s)) if s.node == node => Some(s),
            _ => None,
        }
    }

    /// Runs the world until (and including) `end`. Resumable: a later call
    /// with a later `end` continues the same run, tick chain included. An
    /// `end` before [`World::now`] is a no-op: clock, tick and queue stay put.
    pub fn run_until(&mut self, end: Time) {
        if end < self.now {
            return;
        }
        self.end = end;
        if let Some(tick) = self.parked_tick.take_if(|t| *t <= end) {
            self.queue.schedule_class(tick, CLASS_TICK, Pending::Tick);
        }
        let profiled = self.obs.as_deref().filter(|o| o.cfg.tick_profile);
        match profiled.map(|o| o.profile) {
            Some(profile) => {
                let mut clock = WallClock::start(profile);
                self.run_loop(end, &mut clock);
                clock.stamp(TickPhase::Deliver);
                if let Some(obs) = self.obs.as_deref_mut() {
                    obs.profile = clock.profile;
                }
            }
            None => self.run_loop(end, &mut NoClock),
        }
    }

    fn run_loop<C: PhaseClock>(&mut self, end: Time, clock: &mut C) {
        while let Some(t) = self.queue.peek_time() {
            if t > end {
                break;
            }
            let ev = self.queue.pop().expect("peeked");
            self.now = ev.time;
            match ev.payload {
                Pending::UnicastRun(mut run) => {
                    clock.enter(TickPhase::Deliver, run.len() as u64);
                    self.drain_run(|w, stepped, buf| {
                        for (route, msg) in run.drain(..) {
                            let head = Head {
                                from: route.from,
                                to: route.to,
                                slot: route.slot,
                                label: F::space_msg_label(&msg),
                                seq: route.seq,
                            };
                            stepped.push((head, w.step(head, &msg, buf)));
                        }
                    });
                    self.free_unicasts.push(run);
                }
                Pending::FanRun { fan, mut copies } => {
                    clock.enter(TickPhase::Deliver, copies.len() as u64);
                    self.drain_run(|w, stepped, buf| {
                        let (from, label) = (fan.from, fan.label);
                        for &(idx, slot) in &copies {
                            let (to, _, seq) = fan.recipients[idx as usize];
                            let head = Head {
                                from,
                                to,
                                slot,
                                label,
                                seq,
                            };
                            // Every copy reads the one payload: a recipient
                            // clones only what it keeps of it.
                            stepped.push((head, w.step(head, &fan.msg, buf)));
                        }
                    });
                    copies.clear();
                    self.free_copies.push(copies);
                }
                Pending::Timer { node, slot, tag } => {
                    clock.enter(TickPhase::Timer, 1);
                    self.handle_timer(node, slot, tag);
                }
                Pending::Tick => self.handle_tick(clock),
            }
        }
        self.now = end;
    }

    /// Drains one delivery run (see `Pending`): `phase_a` steps its copies
    /// via [`World::step`], then phase B applies them one by one, in order.
    fn drain_run(
        &mut self,
        phase_a: impl FnOnce(&mut Self, &mut Vec<(Head, Option<u32>)>, &mut Effects<F>),
    ) {
        let mut stepped = std::mem::take(&mut self.stepped);
        let mut buf = std::mem::take(&mut self.effects_buf);
        phase_a(self, &mut stepped, &mut buf);
        // The queue counted the run as one event; count its other copies.
        let copies = stepped.len();
        let surplus = copies - 1;
        self.surplus_queued -= surplus;
        self.surplus_done += surplus as u64;
        let now = self.now;
        let mut effects = buf.drain(..);
        let mut start = 0;
        let mut dropped = 0;
        for (head, effects_end) in stepped.drain(..) {
            let (from, to, slot, label, seq) =
                (head.from, head.to, head.slot, head.label, head.seq);
            let Some(end) = effects_end else {
                dropped += 1;
                self.network.note_dropped_departed();
                if let Some(obs) = self.obs.as_deref_mut() {
                    obs.note_drop_departed(seq, now);
                }
                self.trace.record(now, TraceEvent::Drop { to, label });
                continue;
            };
            // Sends the handler emits inherit this delivery's attribution.
            let cause = match self.obs.as_deref_mut() {
                Some(obs) => {
                    obs.note_delivered(seq, to, label, now);
                    Cause::Deliver(seq, obs.op_of_seq(seq))
                }
                None => Cause::None,
            };
            self.trace
                .record(now, TraceEvent::Deliver { to, from, label });
            // A copy that emitted nothing has nothing to apply.
            if end > start {
                let count = (end - start) as usize;
                self.dispatch(to, slot, cause, effects.by_ref().take(count));
                start = end;
            }
        }
        drop(effects);
        self.delivered_msgs += (copies - dropped) as u64;
        (self.stepped, self.effects_buf) = (stepped, buf);
    }

    /// Phase A for one copy: steps its recipient, if still in its slot, on
    /// `msg` into `buf`, and returns where the copy's effects end.
    fn step(
        &mut self,
        head: Head,
        msg: &<F::Proc as RegisterSpaceProcess>::Msg,
        buf: &mut Effects<F>,
    ) -> Option<u32> {
        let now = self.now;
        let s = self.live_slot(head.to, head.slot)?;
        s.proc_.on_message_ref(now, head.from, msg, buf);
        Some(buf.len() as u32)
    }

    fn handle_timer(&mut self, node: NodeId, slot: u32, tag: u64) {
        let now = self.now;
        // The node may have left since setting the timer.
        let Some(s) = self.live_slot(node, slot) else {
            return;
        };
        let effects = s.proc_.on_timer(now, tag);
        // Attribute the timer to the node's sole in-flight operation when
        // that is unambiguous; re-sends it triggers become Refire phases.
        let track = self.obs.as_deref().is_some_and(|o| o.cfg.spans);
        let anchor = track.then(|| self.clients.anchor(slot)).flatten();
        self.dispatch(node, slot, Cause::Timer(anchor), effects.into_iter());
    }

    fn handle_tick<C: PhaseClock>(&mut self, clock: &mut C) {
        clock.enter(TickPhase::Churn, 1);
        self.apply_scripted_membership();
        if self.now > Time::ZERO {
            self.apply_churn();
        }
        clock.enter(TickPhase::Workload, 1);
        self.apply_workload();
        clock.enter(TickPhase::Sample, 1);
        self.sample_gauges();
        self.obs_tick_row();
        self.chain_tick();
    }

    /// Schedules the next churn/workload tick, or — past the current `end`
    /// — parks it for a later [`World::run_until`] to resume the chain.
    fn chain_tick(&mut self) {
        let next = self.now + Span::UNIT;
        if next <= self.end {
            self.queue.schedule_class(next, CLASS_TICK, Pending::Tick);
        } else {
            self.parked_tick = Some(next);
        }
    }

    /// Appends one timeseries row if the recorder is on and the cadence
    /// says this tick is due. Gauges are read-only views of state the run
    /// maintains anyway, so a row costs a handful of loads.
    fn obs_tick_row(&mut self) {
        let inflight = self.inflight() as u64;
        let Some(obs) = self.obs.as_deref_mut() else {
            return;
        };
        let Some(ts) = obs.timeseries.as_mut() else {
            return;
        };
        let tick = self.now.ticks();
        if !ts.due(tick) {
            return;
        }
        let active = self.presence.active_count() as u64;
        let present = self.presence.present_count() as u64;
        ts.push_row(
            tick,
            &[
                ("active", active),
                ("present", present),
                ("joining", present - active),
                ("inflight", inflight),
                ("busy_writers", self.clients.writes_in_flight()),
                ("delivered", self.delivered_msgs),
                ("fault_drops", self.network.dropped_to_faults()),
                ("inquiry_full", self.network.sent_of("INQUIRY_FULL")),
                ("delta_overruns", self.network.delta_overruns()),
                ("retransmits", self.metrics.counter("join.retransmits")),
            ],
        );
    }

    fn apply_scripted_membership(&mut self) {
        let now = self.now;
        let leaves: Vec<NodeId> = {
            let mut due = Vec::new();
            self.scripted_leaves.retain(|&(t, node)| {
                if t == now {
                    due.push(node);
                    false
                } else {
                    t > now
                }
            });
            due
        };
        for node in leaves {
            if self.presence.is_present(node) {
                self.remove_node(node);
            }
        }
        let joins = {
            let mut count = 0;
            self.scripted_joins.retain(|&t| {
                if t == now {
                    count += 1;
                    false
                } else {
                    t > now
                }
            });
            count
        };
        for _ in 0..joins {
            let id = NodeId::from_raw(1_000_000 + self.clients.arrival_count() as u64);
            self.spawn_joiner(id);
        }
    }

    fn apply_churn(&mut self) {
        let step = self
            .churn
            .step(&self.presence, self.now, &mut self.rng_churn);
        for victim in step.leaves {
            self.remove_node(victim);
        }
        for id in step.joins {
            self.spawn_joiner(id);
        }
    }

    fn remove_node(&mut self, victim: NodeId) {
        self.presence.leave(victim, self.now);
        let slot_idx = self
            .slot_of
            .remove(&victim)
            .expect("present node has a slot");
        let i = self
            .present_slots
            .binary_search_by_key(&victim, |&(n, _)| n)
            .expect("present node is in the slot roster");
        self.present_slots.remove(i);
        let slot = self.slots[slot_idx as usize]
            .take()
            .expect("interned slot is occupied");
        debug_assert_eq!(slot.node, victim);
        self.free_slots.push(slot_idx);
        self.clients
            .departed(victim, slot_idx, self.now, &mut self.churn);
        self.trace
            .record(self.now, TraceEvent::Leave { node: victim });
        self.metrics.incr("churn.leaves");
    }

    fn spawn_joiner(&mut self, id: NodeId) {
        let slot_idx = self.free_slots.pop().unwrap_or(self.slots.len() as u32);
        let join_op = self.clients.join_started(id, slot_idx, self.now);
        self.presence.enter(id, self.now);
        let mut proc_ = self.factory.space_joiner(id, join_op);
        self.trace.record(self.now, TraceEvent::Enter { node: id });
        self.trace.record(
            self.now,
            TraceEvent::Invoke {
                node: id,
                op: join_op,
                label: "join",
            },
        );
        self.metrics.incr("churn.joins");
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.op_invoked(RegisterId::ZERO, join_op, id, "join", self.now);
        }
        let effects = proc_.on_enter(self.now);
        let slot = Some(Slot { node: id, proc_ });
        match self.slots.get_mut(slot_idx as usize) {
            Some(free) => {
                debug_assert!(free.is_none());
                *free = slot;
            }
            None => self.slots.push(slot),
        }
        self.slot_of.insert(id, slot_idx);
        let i = self
            .present_slots
            .binary_search_by_key(&id, |&(n, _)| n)
            .expect_err("fresh id cannot already hold a slot");
        self.present_slots.insert(i, (id, slot_idx));
        let cause = Cause::Op(RegisterId::ZERO, join_op);
        self.dispatch(id, slot_idx, cause, effects.into_iter());
    }

    fn apply_workload(&mut self) {
        let slot_of = &self.slot_of;
        let ops = self.clients.tick(
            self.now,
            &self.presence,
            |node| slot_of.get(&node).copied(),
            &mut self.metrics,
        );
        for (node, action) in ops {
            self.invoke(node, action);
        }
    }

    /// Invokes a client operation on a `(register, action)` address. Every
    /// request that cannot start is counted, never silently dropped:
    /// absent or still-joining targets under `workload.skipped`, requests
    /// colliding with an op already in flight on the same `(node, key)` —
    /// or a write finding the key at writer capacity — under
    /// `ops.skipped_busy`. A bare [`OpAction`] addresses the anchor key
    /// `r0`, so single-register call sites read unchanged.
    ///
    /// # Panics
    /// Panics if the addressed key is outside the world's key space.
    pub fn invoke(&mut self, node: NodeId, action: impl Into<KeyedAction>) {
        let action = action.into();
        let key = action.key;
        assert!(
            key.as_raw() < self.keys,
            "{key} is outside this world's {}-key space",
            self.keys
        );
        let Some(&slot_idx) = self.slot_of.get(&node) else {
            self.metrics.incr("workload.skipped");
            return;
        };
        let Some(op) = self.clients.op_started(
            node,
            slot_idx,
            &action,
            self.now,
            &mut self.churn,
            &mut self.metrics,
        ) else {
            return;
        };
        let label = match action.action {
            OpAction::Read => "read",
            OpAction::Write(_) => "write",
        };
        self.trace
            .record(self.now, TraceEvent::Invoke { node, op, label });
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.op_invoked(key, op, node, label, self.now);
        }
        let now = self.now;
        let proc_ = &mut self.slots[slot_idx as usize]
            .as_mut()
            .expect("interned slot")
            .proc_;
        let effects = match action.action {
            OpAction::Read => proc_.on_read(now, key, op),
            OpAction::Write(value) => proc_.on_write(now, key, op, value),
        };
        self.dispatch(node, slot_idx, Cause::Op(key, op), effects.into_iter());
    }

    /// Applies the effects of one handler run, attributing the messages it
    /// sends to `cause` in the observability layer.
    fn dispatch(
        &mut self,
        node: NodeId,
        slot_idx: u32,
        cause: Cause,
        effects: impl Iterator<Item = SpaceEffect<<F::Proc as RegisterSpaceProcess>::Msg, Val>>,
    ) {
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.cause = cause;
        }
        self.apply_effects(node, slot_idx, effects);
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.cause = Cause::None;
        }
    }

    fn apply_effects(
        &mut self,
        node: NodeId,
        slot_idx: u32,
        effects: impl Iterator<Item = SpaceEffect<<F::Proc as RegisterSpaceProcess>::Msg, Val>>,
    ) {
        for effect in effects {
            match effect {
                SpaceEffect::Send { to, msg } => {
                    let label = F::space_msg_label(&msg);
                    // The slab mirrors the present set: an absent key means
                    // the channel carries nothing (counted as dropped; see
                    // *Message accounting* on `Network`).
                    let Some(&rslot) = self.slot_of.get(&to) else {
                        self.network.note_dropped_departed();
                        continue;
                    };
                    let Some(env) = self.network.send_present(self.now, node, to, label, msg)
                    else {
                        // The fault layer swallowed it (partition or drop
                        // rule) — counted inside the network; a send event
                        // with no delivery instant marks it in the trace.
                        // The attempt consumed a sequence id, so the span
                        // layer still attributes the lost copy.
                        if self.obs.is_some() {
                            if let Some(seq) = self.network.last_seq() {
                                if let Some(obs) = self.obs.as_deref_mut() {
                                    obs.note_send(seq, 1, label, self.now);
                                }
                            }
                        }
                        self.trace.record(
                            self.now,
                            TraceEvent::Send {
                                from: node,
                                to: Some(to),
                                label,
                                deliver_at: None,
                            },
                        );
                        continue;
                    };
                    if let Some(obs) = self.obs.as_deref_mut() {
                        obs.note_send(env.seq, 1, label, self.now);
                    }
                    self.trace.record(
                        self.now,
                        TraceEvent::Send {
                            from: node,
                            to: Some(to),
                            label,
                            deliver_at: Some(env.deliver_at),
                        },
                    );
                    let route = Route {
                        from: env.from,
                        to: env.to,
                        slot: rslot,
                        seq: env.seq,
                    };
                    let copy = (route, env.msg);
                    // Join the run at the tail of this instant's lane, or
                    // open one (see `Pending` for why that keeps the order).
                    match self.queue.back_mut(env.deliver_at, CLASS_DELIVER) {
                        Some(Pending::UnicastRun(run)) => {
                            run.push(copy);
                            self.surplus_queued += 1;
                        }
                        _ => {
                            let mut run = self.free_unicasts.pop().unwrap_or_default();
                            run.push(copy);
                            self.queue.schedule_class(
                                env.deliver_at,
                                CLASS_DELIVER,
                                Pending::UnicastRun(run),
                            );
                        }
                    }
                }
                SpaceEffect::Broadcast { msg } => {
                    let label = F::space_msg_label(&msg);
                    // A full re-inquiry wave marks one shard-starvation
                    // round; the counter is outside the digest, so it is
                    // always on (see `RunReport::reinquiry_rounds`).
                    if label == "INQUIRY_FULL" {
                        self.metrics.incr("join.reinquiry_rounds");
                    }
                    self.trace.record(
                        self.now,
                        TraceEvent::Send {
                            from: node,
                            to: None,
                            label,
                            deliver_at: None,
                        },
                    );
                    let obs_first = if self.obs.is_some() {
                        Some(self.network.next_seq())
                    } else {
                        None
                    };
                    let fan =
                        Rc::new(
                            self.network
                                .broadcast(&self.presence, self.now, node, label, msg),
                        );
                    if let Some(first) = obs_first {
                        // Every copy in the snapshot burned a sequence id,
                        // including the ones the fault layer swallowed —
                        // attribute the whole range so lost copies stay
                        // visible to `why_stuck`.
                        let count = self.network.next_seq() - first;
                        if let Some(obs) = self.obs.as_deref_mut() {
                            obs.note_send(first, count, label, self.now);
                        }
                    }
                    // The snapshot is an (id-ordered) subset of the slot
                    // roster — equal when no fault drops thinned it — so a
                    // single merge walk resolves every recipient's slot
                    // without hashing once per recipient, and files the
                    // copy under its delivery instant on the way.
                    debug_assert!(fan.recipients.len() <= self.present_slots.len());
                    let mut runs = std::mem::take(&mut self.fan_runs);
                    let mut roster = self.present_slots.iter();
                    for (idx, &(to, deliver_at, _seq)) in fan.recipients.iter().enumerate() {
                        let slot = loop {
                            let &(rnode, slot) =
                                roster.next().expect("every fan recipient holds a slot");
                            if rnode == to {
                                break slot;
                            }
                        };
                        let run = match runs.binary_search_by_key(&deliver_at, |r| r.0) {
                            Ok(i) => i,
                            Err(i) => {
                                let copies = self.free_copies.pop().unwrap_or_default();
                                runs.insert(i, (deliver_at, copies));
                                i
                            }
                        };
                        runs[run].1.push((idx as u32, slot));
                    }
                    for (deliver_at, copies) in runs.drain(..) {
                        self.surplus_queued += copies.len() - 1;
                        let fan = Rc::clone(&fan);
                        self.queue.schedule_class(
                            deliver_at,
                            CLASS_DELIVER,
                            Pending::FanRun { fan, copies },
                        );
                    }
                    self.fan_runs = runs;
                }
                SpaceEffect::SetTimer { delay, tag } => {
                    self.queue.schedule_class(
                        self.now + delay,
                        CLASS_TIMER,
                        Pending::Timer {
                            node,
                            slot: slot_idx,
                            tag,
                        },
                    );
                }
                SpaceEffect::JoinComplete => {
                    // Bootstrap members are active from construction and
                    // complete no join op. A space emits one JoinComplete
                    // when its last key activates; the join completes in
                    // every key's history at once.
                    let joined =
                        self.clients
                            .join_completed(node, slot_idx, self.now, &mut self.metrics);
                    if let Some(op) = joined {
                        self.presence.activate(node, self.now);
                        if let Some(obs) = self.obs.as_deref_mut() {
                            obs.op_completed(RegisterId::ZERO, op, self.now);
                        }
                        self.trace.record(self.now, TraceEvent::Activate { node });
                        self.trace
                            .record(self.now, TraceEvent::Complete { node, op });
                    }
                }
                SpaceEffect::OpComplete { key, op, outcome } => {
                    self.clients.op_completed(
                        node,
                        slot_idx,
                        key,
                        op,
                        outcome,
                        self.now,
                        &mut self.churn,
                        &mut self.metrics,
                    );
                    if let Some(obs) = self.obs.as_deref_mut() {
                        obs.op_completed(key, op, self.now);
                    }
                    self.trace
                        .record(self.now, TraceEvent::Complete { node, op });
                }
                SpaceEffect::Retransmit => {
                    // Digest-invisible marker: the re-broadcast itself is
                    // the preceding `Broadcast` effect; this arm only
                    // attributes it (always-on counter + obs phase event).
                    self.metrics.incr("join.retransmits");
                    // Only a joining space retransmits, so the anchor is its join.
                    let join = self.clients.anchor(slot_idx);
                    if let (Some((key, op)), Some(obs)) = (join, self.obs.as_deref_mut()) {
                        obs.op_retransmit(key, op, self.now);
                    }
                }
                SpaceEffect::Note { key, text } => {
                    // Keyed spaces attribute notes to their register; the
                    // 1-key text stays exactly the legacy rendering.
                    let text = if self.keys > 1 && self.trace.is_enabled() {
                        format!("[{key}] {text}")
                    } else {
                        text
                    };
                    self.trace.record(self.now, TraceEvent::Note { node, text });
                }
            }
        }
    }

    fn sample_gauges(&mut self) {
        let active = self.presence.active_count() as u64;
        let present = self.presence.present_count() as u64;
        self.metrics.sample("gauge.active", active);
        self.metrics.sample("gauge.present", present);
    }

    /// Protects `node` from churn eviction.
    pub fn protect(&mut self, node: NodeId) {
        self.churn.protect(node);
    }

    /// Number of registers in this world's key space.
    pub fn key_count(&self) -> u32 {
        self.keys
    }

    /// The anchor key's recorded history (read-only) — *the* history of a
    /// single-register world. Keyed worlds expose every key via
    /// [`World::space_history`].
    pub fn history(&self) -> &History<Option<Val>> {
        self.clients.histories().key(RegisterId::ZERO)
    }

    /// One key's recorded history (read-only).
    pub fn key_history(&self, key: RegisterId) -> &History<Option<Val>> {
        self.clients.histories().key(key)
    }

    /// The full per-key history space (read-only).
    pub fn space_history(&self) -> &SpaceHistory<Option<Val>> {
        self.clients.histories()
    }

    /// The presence table (read-only).
    pub fn presence(&self) -> &Presence {
        &self.presence
    }

    /// The network (read-only; message statistics).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Run metrics (read-only). The hot-path delivery counter
    /// (`net.delivered`) is folded in when the world is decomposed via
    /// [`World::into_space_outputs`].
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The trace log (empty unless tracing was enabled).
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Decomposes the world into its observable outputs
    /// `(histories, presence, metrics, trace, network)`, one history per
    /// key.
    pub fn into_space_outputs(
        mut self,
    ) -> (
        SpaceHistory<Option<Val>>,
        Presence,
        Metrics,
        TraceLog,
        Network,
    ) {
        self.metrics.add("net.delivered", self.delivered_msgs);
        // Fault-induced losses are never silent: the total and the
        // per-rule attribution both land in the metrics (precedent:
        // `ops.skipped_busy`).
        let fault_drops = self.network.dropped_to_faults();
        if fault_drops > 0 {
            self.metrics.add("net.dropped.fault", fault_drops);
        }
        let by_rule: Vec<(&'static str, usize, u64)> = self.network.fault_drops_by_rule().collect();
        for (kind, rule, count) in by_rule {
            if count > 0 {
                let name = match kind {
                    "partition" => "net.dropped.fault.partition",
                    _ => "net.dropped.fault.drop",
                };
                self.metrics.add_keyed(name, rule as u32, count);
            }
        }
        (
            self.clients.into_histories(),
            self.presence,
            self.metrics,
            self.trace,
            self.network,
        )
    }
}

impl<F: SpaceFactory> std::fmt::Debug for World<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now)
            .field("nodes", &self.slot_of.len())
            .field("active", &self.presence.active_count())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::{EsFactory, SyncFactory};
    use crate::workload::RateWorkload;
    use dynareg_churn::{ConstantRate, LeaveSelector, NoChurn};
    use dynareg_core::es::EsConfig;
    use dynareg_core::sync::SyncConfig;
    use dynareg_net::delay::Synchronous;
    use dynareg_sim::trace::TraceEntry;
    use dynareg_sim::IdSource;
    use dynareg_verify::{LivenessChecker, RegularityChecker};

    /// A queued sync unicast copy carries no label (its payload names it),
    /// so a churned run's pooled unicast buffers hold 56 B per copy, not 72.
    #[test]
    fn a_queued_sync_unicast_copy_is_at_most_56_bytes() {
        type Msg = <<SyncFactory as SpaceFactory>::Proc as RegisterSpaceProcess>::Msg;
        let size = std::mem::size_of::<(Route, Msg)>();
        assert!(size <= 56, "{size} B");
    }

    fn sync_world(n: usize, delta: u64, c: f64, seed: u64) -> World<SyncFactory> {
        let churn: Box<dyn dynareg_churn::ChurnModel> = if c == 0.0 {
            Box::new(NoChurn)
        } else {
            Box::new(ConstantRate::new(c))
        };
        let mut world = World::new(
            SyncFactory::new(SyncConfig::new(Span::ticks(delta))),
            WorldConfig {
                n,
                initial: 0,
                delay: Box::new(Synchronous::new(Span::ticks(delta))),
                churn: ChurnDriver::new(
                    churn,
                    LeaveSelector::Random,
                    IdSource::starting_at(n as u64),
                ),
                workload: Box::new(
                    RateWorkload::new(Span::ticks(3 * delta), 1.0).stopping_at(Time::at(180)),
                ),
                seed,
                trace: false,
                writer_policy: WriterPolicy::FixedProtected,
                writers: 1,
            },
        );
        world.protect(NodeId::from_raw(0)); // the writer
        world
    }

    #[test]
    fn static_sync_run_is_regular_and_live() {
        let mut w = sync_world(10, 3, 0.0, 1);
        w.run_until(Time::at(200));
        let report = RegularityChecker::check(w.history());
        assert!(report.is_ok(), "{report}");
        assert!(report.checked_reads > 50, "workload actually ran");
        let live = LivenessChecker::check(w.history());
        assert!(live.is_ok(), "{live}");
        assert_eq!(live.read_latency.max(), Some(0), "sync reads are local");
    }

    #[test]
    fn churning_sync_run_within_bound_is_regular() {
        // δ=3 → threshold 1/9; use c ≈ half of it.
        let mut w = sync_world(20, 3, 0.05, 2);
        w.run_until(Time::at(300));
        assert!(w.presence().total_arrivals() > 20, "churn actually ran");
        let report = RegularityChecker::check(w.history());
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn population_stays_constant_under_churn() {
        let mut w = sync_world(20, 3, 0.05, 3);
        w.run_until(Time::at(200));
        assert_eq!(w.presence().present_count(), 20);
        let gauge = w.metrics().histogram("gauge.present").unwrap();
        assert_eq!(gauge.min(), Some(20));
        assert_eq!(gauge.max(), Some(20));
    }

    #[test]
    fn slab_reuses_slots_without_confusing_identities() {
        let mut w = sync_world(20, 3, 0.05, 7);
        w.run_until(Time::at(250));
        // Sustained churn forces slot recycling: the live-slot count stays
        // bounded by the population while arrivals keep growing.
        assert!(w.presence().total_arrivals() > 40, "slots were recycled");
        assert!(
            w.slots.len() <= 20 + w.presence().present_count(),
            "slab stays dense (len {})",
            w.slots.len()
        );
        assert_eq!(
            w.slot_of.len(),
            w.presence().present_count(),
            "interning map mirrors the present set"
        );
        // Every present node is interned at the slot the sorted roster
        // names, and that slot holds the node it claims to.
        assert_eq!(w.present_slots.len(), w.slot_of.len());
        for &(node, idx) in &w.present_slots {
            assert_eq!(w.slot_of.get(&node), Some(&idx));
            assert_eq!(w.slots[idx as usize].as_ref().unwrap().node, node);
        }
        assert!(RegularityChecker::check(w.history()).is_ok());
    }

    #[test]
    fn node_map_answers_every_lookup_under_the_node_id_hasher() {
        let id = NodeId::from_raw;
        let mut m: NodeMap<u32> = NodeMap::default();
        assert!(m.is_empty() && m.get(&id(1)).is_none() && !m.contains_key(&id(1)));
        // Sequential ids, the population the hasher is tuned for.
        for i in 0..5000 {
            assert_eq!(m.insert(id(i), i as u32), None);
        }
        assert_eq!(m.insert(id(7), 70), Some(7), "insert replaces");
        m.insert_if_absent(id(5000), 1);
        m.insert_if_absent(id(5000), 2);
        assert_eq!(m.get(&id(5000)), Some(&1), "first wins");
        assert_eq!(m.len(), 5001);
        assert!((0..5000).all(|i| m.contains_key(&id(i))));
        assert_eq!((m.remove(&id(7)), m.remove(&id(7))), (Some(70), None));
        assert_eq!(m.len(), 5000);
        assert_eq!(m.clone().get(&id(4999)), Some(&4999));
    }

    #[test]
    fn idle_active_roster_matches_presence() {
        let mut w = sync_world(15, 3, 0.05, 9);
        w.run_until(Time::at(120));
        // The incremental roster must equal "active and not busy", sorted:
        // an active process is busy exactly while it has a pending op.
        let busy: Vec<NodeId> = w
            .history()
            .ops()
            .iter()
            .filter(|rec| !rec.is_complete())
            .map(|rec| rec.node)
            .collect();
        assert!(!busy.is_empty(), "some op is in flight at the probe");
        let mut expect: Vec<NodeId> = w
            .presence()
            .active_nodes()
            .into_iter()
            .filter(|id| !busy.contains(id))
            .collect();
        expect.sort_unstable();
        assert_eq!(w.clients.idle_active(), expect);
    }

    #[test]
    fn same_seed_reproduces_identical_history() {
        let run = |seed| {
            let mut w = sync_world(15, 3, 0.05, seed);
            w.run_until(Time::at(150));
            format!("{:?}", w.history().ops())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    fn es_world(n: usize, delta: u64, seed: u64) -> World<EsFactory> {
        let mut world = World::new(
            EsFactory::new(EsConfig::new(n)),
            WorldConfig {
                n,
                initial: 0,
                delay: Box::new(Synchronous::new(Span::ticks(delta))),
                churn: ChurnDriver::new(
                    Box::new(ConstantRate::new(0.002)),
                    LeaveSelector::Random,
                    IdSource::starting_at(n as u64),
                ),
                workload: Box::new(
                    RateWorkload::new(Span::ticks(6 * delta), 0.5).stopping_at(Time::at(350)),
                ),
                seed,
                trace: false,
                writer_policy: WriterPolicy::FixedProtected,
                writers: 1,
            },
        );
        world.protect(NodeId::from_raw(0));
        world
    }

    /// Everything a run's digest folds: the op stream, membership totals,
    /// the message count — plus the raw event count.
    fn fingerprint<F: SpaceFactory>(w: &World<F>) -> (String, usize, usize, u64, u64)
    where
        F::Proc: RegisterSpaceProcess<Val = Val>,
    {
        (
            format!("{:?}", w.history().ops()),
            w.presence().total_arrivals(),
            w.presence().total_departures(),
            w.network().total_sent(),
            w.events_processed(),
        )
    }

    #[test]
    fn run_until_is_resumable() {
        // Stopping at `a` and resuming to `b` is the same run as going
        // straight to `b`: churn and workload ticks keep firing after `a`.
        let (a, b) = (Time::at(90), Time::at(300));
        let mut whole = sync_world(20, 3, 0.05, 2);
        whole.run_until(b);
        let mut split = sync_world(20, 3, 0.05, 2);
        split.run_until(a);
        let (events_at_a, arrivals_at_a) =
            (split.events_processed(), split.presence().total_arrivals());
        split.run_until(a); // re-running to the same instant is a no-op
        assert_eq!(split.events_processed(), events_at_a);
        // `a` is a write beat (every 3δ = 9 ticks): its broadcast lands
        // over a+1..=a+δ, so these stops fall between the delivery runs of
        // one broadcast, with copies of it still queued.
        for inside in [a + Span::ticks(1), a + Span::ticks(2)] {
            split.run_until(inside);
            assert!(split.surplus_queued > 0, "stopped inside the window");
        }
        split.run_until(b);
        assert!(
            split.presence().total_arrivals() > arrivals_at_a,
            "churn kept running"
        );
        assert_eq!(fingerprint(&split), fingerprint(&whole));

        // Stopping at `b`, then asking for the earlier `a`, leaves the
        // world at `b`: a write invoked next completes exactly as in a
        // world that never asked (the workload stopped at 180, so the
        // writer is idle).
        let write_then_run = |w: &mut World<SyncFactory>| {
            w.invoke(NodeId::from_raw(0), OpAction::Write(1_000_000));
            w.run_until(b + Span::ticks(20));
        };
        let mut forward = sync_world(20, 3, 0.05, 2);
        forward.run_until(b);
        write_then_run(&mut forward);
        let mut back = sync_world(20, 3, 0.05, 2);
        back.run_until(b);
        let at_b = (back.now(), back.parked_tick, back.inflight());
        back.run_until(a);
        assert_eq!((back.now(), back.parked_tick, back.inflight()), at_b);
        write_then_run(&mut back);
        let last_write = back.history().writes().last().expect("a write");
        assert_eq!(
            (last_write.invoked_at, last_write.node),
            (b, NodeId::from_raw(0))
        );
        assert!(last_write.completed_at.is_some(), "the write completed");
        assert_eq!(fingerprint(&back), fingerprint(&forward));

        let mut whole = es_world(10, 3, 5);
        whole.run_until(b);
        let mut split = es_world(10, 3, 5);
        for stop in [Time::at(1), a, Time::at(91), b] {
            split.run_until(stop);
        }
        assert_eq!(fingerprint(&split), fingerprint(&whole));
    }

    #[test]
    fn es_run_is_regular_and_reads_cost_a_round_trip() {
        let mut w = es_world(10, 3, 5);
        w.run_until(Time::at(400));
        let report = RegularityChecker::check(w.history());
        assert!(report.is_ok(), "{report}");
        let live = LivenessChecker::check(w.history());
        let min_read = live.read_latency.min().unwrap_or(0);
        assert!(
            min_read >= 1,
            "quorum reads cannot be local (min {min_read})"
        );
        assert!(report.checked_reads > 10);
    }

    #[test]
    fn trace_records_when_enabled() {
        let mut w = World::new(
            SyncFactory::new(SyncConfig::new(Span::ticks(2))),
            WorldConfig {
                n: 3,
                initial: 0,
                delay: Box::new(Synchronous::new(Span::ticks(2))),
                churn: ChurnDriver::new(
                    Box::new(NoChurn),
                    LeaveSelector::Random,
                    IdSource::starting_at(3),
                ),
                workload: Box::new(RateWorkload::new(Span::ticks(4), 1.0)),
                seed: 9,
                trace: true,
                writer_policy: WriterPolicy::FixedProtected,
                writers: 1,
            },
        );
        w.run_until(Time::at(30));
        assert!(!w.trace().is_empty());
        assert!(w.trace().render().contains("broadcast WRITE"));
    }

    #[test]
    fn invoke_on_busy_target_is_counted_skipped_busy() {
        let mut w = sync_world(5, 3, 0.0, 11);
        w.run_until(Time::at(2)); // before the first workload write (t=9)
        w.invoke(NodeId::from_raw(1), OpAction::Write(100));
        // Same (node, key) while the write is in flight (sync writes hold
        // the key for δ): busy, counted, not dropped.
        w.invoke(NodeId::from_raw(1), OpAction::Read);
        // Different node, same key: the key is at writer capacity (1).
        w.invoke(NodeId::from_raw(2), OpAction::Write(101));
        assert_eq!(w.metrics().counter("ops.skipped_busy"), 2);
        assert_eq!(
            w.metrics().counter("workload.skipped"),
            0,
            "busy skips are not conflated with absent/inactive skips"
        );
        w.run_until(Time::at(30));
        assert!(w.metrics().counter("ops.write_completed") >= 1);
    }

    /// A churn-free sync world driven by `script` alone.
    fn scripted_world(
        n: usize,
        delta: u64,
        script: crate::workload::ScriptedWorkload,
        trace: bool,
    ) -> World<SyncFactory> {
        World::new(
            SyncFactory::new(SyncConfig::new(Span::ticks(delta))),
            WorldConfig {
                n,
                initial: 0,
                delay: Box::new(Synchronous::new(Span::ticks(delta))),
                churn: ChurnDriver::new(
                    Box::new(NoChurn),
                    LeaveSelector::Random,
                    IdSource::starting_at(n as u64),
                ),
                workload: Box::new(script),
                seed: 17,
                trace,
                writer_policy: WriterPolicy::FixedProtected,
                writers: 1,
            },
        )
    }

    /// One write by node 0 at t = 2 — a single `n`-wide broadcast.
    fn one_write() -> crate::workload::ScriptedWorkload {
        crate::workload::ScriptedWorkload::new().at(
            Time::at(2),
            NodeId::from_raw(0),
            OpAction::Write(100),
        )
    }

    /// `(instant, recipient, delivered?)` of every delivery attempt, in
    /// trace order.
    fn delivery_attempts<F: SpaceFactory>(w: &World<F>) -> Vec<(Time, NodeId, bool)>
    where
        F::Proc: RegisterSpaceProcess<Val = Val>,
    {
        w.trace()
            .entries()
            .filter_map(|e| match e.event {
                TraceEvent::Deliver { to, .. } => Some((e.time, to, true)),
                TraceEvent::Drop { to, .. } => Some((e.time, to, false)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn one_write_is_n_copies_and_a_timer_in_at_most_delta_runs() {
        let (n, delta) = (40, 4);
        let mut w = scripted_world(n, delta, one_write(), true);
        w.run_until(Time::at(1));
        let (events, entries) = (w.events_processed(), w.queue.delivered());
        w.run_until(Time::at(10));
        let ticks = 9;
        // Counts are per copy …
        assert_eq!(w.events_processed() - events, n as u64 + 1 + ticks);
        assert_eq!(w.metrics().counter("ops.write_completed"), 1);
        // … while the queue carried one entry per delivery instant.
        let runs = w.queue.delivered() - entries - 1 - ticks;
        assert!((2..=delta).contains(&runs), "{runs} runs");
        assert_eq!((w.surplus_queued, w.inflight()), (0, 0), "tick parked");
        // Within an instant, copies land in recipient-id order.
        let attempts = delivery_attempts(&w);
        assert_eq!(attempts.len(), n);
        assert!(attempts.iter().all(|&(_, _, delivered)| delivered));
        assert!(
            attempts
                .windows(2)
                .all(|p| (p[0].0, p[0].1) < (p[1].0, p[1].1)),
            "deliveries sorted by (instant, id): {attempts:?}"
        );
    }

    #[test]
    fn a_recipient_leaving_in_flight_is_dropped_and_the_rest_of_its_run_delivered() {
        let n = 12;
        let mut w = scripted_world(n, 3, one_write(), true);
        // Copies land over t = 3..=5. A leave at t = 3 takes effect after
        // that instant's deliveries, so a leaver's copy is lost exactly
        // when it was due at 4 or 5.
        let leavers: Vec<NodeId> = (1..=6).map(NodeId::from_raw).collect();
        for &node in &leavers {
            w.schedule_leave(Time::at(3), node);
        }
        w.run_until(Time::at(1));
        let events = w.events_processed();
        w.run_until(Time::at(10));
        let attempts = delivery_attempts(&w);
        let dropped: Vec<_> = attempts.iter().filter(|a| !a.2).collect();
        assert!(!dropped.is_empty() && dropped.len() < leavers.len());
        assert!(dropped
            .iter()
            .all(|&&(at, to, _)| at > Time::at(3) && leavers.contains(&to)));
        assert_eq!(w.network().dropped_to_departed(), dropped.len() as u64);
        // Every copy is accounted for, delivered or dropped, and a dropped
        // one still counts as a processed event.
        assert_eq!(attempts.len(), n);
        assert_eq!(w.events_processed() - events, n as u64 + 1 + 9);
        // A run goes on past a drop: some stayer with a higher id got its
        // copy at the same instant, after the lost one.
        let resumed = attempts.iter().enumerate().any(|(i, &(at, to, ok))| {
            !ok && attempts[i + 1..]
                .iter()
                .any(|&(t, node, ok)| t == at && node > to && ok)
        });
        assert!(resumed, "{attempts:?}");
    }

    #[test]
    fn a_runs_copies_are_applied_one_by_one() {
        // δ = 1: one read's READ broadcast lands as one fan run, and the
        // `n` REPLYs it provokes as one unicast run at the next instant.
        let (n, majority) = (9, 5);
        let reader = NodeId::from_raw(4);
        let script =
            crate::workload::ScriptedWorkload::new().at(Time::at(2), reader, OpAction::Read);
        let mut w = World::new(
            EsFactory::new(EsConfig::new(n)),
            WorldConfig {
                n,
                initial: 0,
                delay: Box::new(Synchronous::new(Span::ticks(1))),
                churn: ChurnDriver::new(
                    Box::new(NoChurn),
                    LeaveSelector::Random,
                    IdSource::starting_at(n as u64),
                ),
                workload: Box::new(script),
                seed: 3,
                trace: true,
                writer_policy: WriterPolicy::FixedProtected,
                writers: 1,
            },
        );
        w.set_obs(ObsConfig {
            spans: true,
            tick_profile: true,
            ..ObsConfig::off()
        });
        w.run_until(Time::at(3));
        assert_eq!((w.queue.len(), w.inflight()), (1, n), "one REPLY run");
        w.run_until(Time::at(10));
        let trace: Vec<&TraceEntry> = w.trace().entries().collect();
        let deliver = |e: &TraceEntry, want: &str| match e.event {
            TraceEvent::Deliver { to, from, label } if label == want => Some((e.time, to, from)),
            _ => None,
        };
        let sent = |e: &TraceEntry| match e.event {
            TraceEvent::Send {
                from, to, label, ..
            } => Some((from, to, label)),
            _ => None,
        };
        // Each READ copy is followed by its own REPLY before the next copy.
        let reads: Vec<usize> = (0..trace.len())
            .filter(|&i| deliver(trace[i], "READ").is_some())
            .collect();
        assert_eq!(reads.len(), n);
        for &i in &reads {
            let (_, to, _) = deliver(trace[i], "READ").expect("a READ");
            assert_eq!(sent(trace[i + 1]), Some((to, Some(reader), "REPLY")));
        }
        // The REPLY run: the first `majority` copies are each followed by
        // their own ACK, the read completes right after the last of them —
        // between two deliveries of the run — and later copies apply
        // nothing.
        let replies: Vec<usize> = (0..trace.len())
            .filter(|&i| deliver(trace[i], "REPLY").is_some())
            .collect();
        assert_eq!(replies.len(), n);
        let run_at = trace[replies[0]].time;
        for (k, &i) in replies.iter().enumerate() {
            let (at, to, from) = deliver(trace[i], "REPLY").expect("a REPLY");
            assert_eq!((at, to), (run_at, reader));
            let next = trace.get(i + 1).copied().and_then(sent);
            if k < majority {
                assert_eq!(next, Some((reader, Some(from), "ACK")));
            } else {
                assert_eq!(next, None, "a copy past the quorum sends nothing");
            }
        }
        let completed = replies[majority - 1] + 2;
        assert!(
            matches!(trace[completed].event, TraceEvent::Complete { node, .. } if node == reader)
        );
        assert_eq!(completed + 1, replies[majority]);
        // Counts stay per copy: READs, REPLYs, then the ACKs.
        let attempts = 2 * n + majority;
        let ticks = 11;
        assert_eq!(w.events_processed(), (attempts + ticks) as u64);
        let profile = w
            .take_obs_report()
            .and_then(|r| r.tick_profile)
            .expect("profiled");
        assert_eq!(
            (profile.deliver_events, profile.ticks),
            (attempts as u64, ticks as u64)
        );
        let (_h, _p, metrics, _t, _n) = w.into_space_outputs();
        assert_eq!(metrics.counter("net.delivered"), attempts as u64);
    }

    /// Every delivery count on a churning world where copies land on
    /// departed recipients: the network's, the obs layer's message fates,
    /// span deliveries, the `delivered` gauge and the tick profile's
    /// events. A run counts its deliveries once, as copies less drops, and
    /// a copy that emitted nothing skips its dispatch; the figures were
    /// recorded when every copy was counted and dispatched one by one.
    #[test]
    fn delivery_counts_are_per_copy_with_drops_in_flight() {
        use crate::obs::MsgFate;
        let mut w = sync_world(20, 3, 0.05, 2);
        w.set_obs(ObsConfig {
            spans: true,
            timeseries_every: Some(1),
            tick_profile: true,
            ..ObsConfig::off()
        });
        w.run_until(Time::at(200));
        let report = w.take_obs_report().expect("obs installed");
        let fates = |want: fn(&MsgFate) -> bool| {
            report.msgs.iter().filter(|m| want(&m.fate)).count() as u64
        };
        let delivered = fates(|f| matches!(f, MsgFate::Delivered { .. }));
        let dropped = fates(|f| matches!(f, MsgFate::DroppedDeparted { .. }));
        let spans: u64 = report.spans.iter().map(|s| s.deliveries).sum();
        let gauge = report.timeseries.as_ref().expect("recorder on");
        let gauge = *gauge
            .column("delivered")
            .expect("gauge")
            .last()
            .expect("rows");
        let events = report
            .tick_profile
            .as_ref()
            .expect("profiled")
            .deliver_events;
        let (_h, _p, metrics, _t, net) = w.into_space_outputs();
        let counted = metrics.counter("net.delivered");
        assert!(dropped > 0, "copies must land on departed recipients");
        assert_eq!(counted, delivered);
        assert_eq!(events, delivered + dropped);
        assert_eq!(
            (
                counted,
                net.dropped_to_departed(),
                delivered,
                dropped,
                spans,
                gauge,
                events
            ),
            (4818, 898, 4818, 585, 1720, 4818, 5403)
        );
    }

    #[test]
    fn timeseries_inflight_counts_copies_not_queue_entries() {
        let (n, delta) = (30, 4);
        let mut w = scripted_world(n, delta, one_write(), true);
        w.set_obs(ObsConfig {
            timeseries_every: Some(1),
            ..ObsConfig::off()
        });
        w.run_until(Time::at(10));
        let attempts = delivery_attempts(&w);
        let landed_by = |t| attempts.iter().filter(|a| a.0 <= Time::at(t)).count() as u64;
        let (at_3, at_4) = (landed_by(3), landed_by(4));
        assert!(0 < at_3 && at_3 < at_4 && at_4 < n as u64);
        let report = w.take_obs_report().expect("obs installed");
        let inflight = report.timeseries.expect("recorder on");
        let inflight = inflight.column("inflight").expect("gauge exists");
        // Rows are sampled inside the tick, before the next one is
        // chained: the broadcast's copies still in flight plus the
        // writer's wait(δ) timer.
        assert_eq!(inflight[1], 0);
        assert_eq!(inflight[2], n as u64 + 1);
        assert_eq!(inflight[3], n as u64 - at_3 + 1);
        assert_eq!(inflight[4], n as u64 - at_4 + 1);
        assert_eq!(inflight[2 + delta as usize + 1], 0);
    }

    #[test]
    fn departing_writer_frees_its_key_slot_and_shield() {
        use crate::workload::ScriptedWorkload;
        let leaver = NodeId::from_raw(1);
        let script = ScriptedWorkload::new()
            // In flight t=2..5; the leave at t=3 abandons it mid-write.
            .at(Time::at(2), leaver, OpAction::Write(100))
            // A later writer must find the key slot free again.
            .at(Time::at(10), NodeId::from_raw(2), OpAction::Write(101));
        let mut w = scripted_world(5, 3, script, false);
        w.schedule_leave(Time::at(3), leaver);
        w.run_until(Time::at(40));
        // The abandoned write freed the key's writer slot and the
        // write-completion shield — the t=10 write went through, and its
        // own shield lifted when it returned.
        assert_eq!(w.clients.key_writes(), [0]);
        assert_eq!(w.churn.protected(), []);
        assert_eq!(w.metrics().counter("ops.skipped_busy"), 0);
        assert_eq!(w.metrics().counter("ops.write_completed"), 1);
        let abandoned = w
            .history()
            .writes()
            .find(|rec| rec.node == leaver)
            .expect("the abandoned write was invoked");
        assert!(abandoned.completed_at.is_none());
    }

    #[test]
    fn churned_migrating_writers_never_wedge_key_occupancy() {
        // Unprotected migrating writers under sustained churn: every
        // departure path (random eviction and the scripted leave above)
        // must free per-key write slots, or writes stop for good.
        let mut w = World::new(
            SyncFactory::new(SyncConfig::new(Span::ticks(3))),
            WorldConfig {
                n: 20,
                initial: 0,
                delay: Box::new(Synchronous::new(Span::ticks(3))),
                churn: ChurnDriver::new(
                    Box::new(ConstantRate::new(0.03)),
                    LeaveSelector::Random,
                    IdSource::starting_at(20),
                ),
                workload: Box::new(
                    RateWorkload::new(Span::ticks(6), 0.5).stopping_at(Time::at(300)),
                ),
                seed: 23,
                trace: false,
                writer_policy: WriterPolicy::OldestActive,
                writers: 2,
            },
        );
        w.run_until(Time::at(400));
        assert!(w.presence().total_arrivals() > 40, "churn actually ran");
        let writes = w.metrics().counter("ops.write_completed");
        assert!(
            writes > 40,
            "writes keep flowing across evictions ({writes})"
        );
        assert!(
            w.clients.key_writes().iter().all(|&c| c == 0),
            "no key slot stays occupied at quiescence: {:?}",
            w.clients.key_writes()
        );
        assert_eq!(w.churn.protected(), [], "no shield outlives its writes");
    }

    #[test]
    fn a_writer_pipelining_across_keys_stays_shielded_until_its_last_write() {
        use crate::workload::ScriptedWorkload;
        use crate::SpaceOf;
        let (a, b) = (NodeId::from_raw(1), NodeId::from_raw(2));
        let (r0, r1) = (RegisterId::ZERO, RegisterId::from_raw(1));
        // Sync writes take δ = 3: `a` writes r0 over t=2..5 and r1 over
        // t=4..7; `b`, protected by the run, writes r0 over t=6..9.
        let script = ScriptedWorkload::new()
            .at(Time::at(2), a, OpAction::Write(100).on_key(r0))
            .at(Time::at(4), a, OpAction::Write(101).on_key(r1))
            .at(Time::at(6), b, OpAction::Write(102).on_key(r0));
        let mut w = World::new(
            SpaceOf::new(SyncFactory::new(SyncConfig::new(Span::ticks(3))), 2),
            WorldConfig {
                n: 5,
                initial: 0,
                delay: Box::new(Synchronous::new(Span::ticks(3))),
                churn: ChurnDriver::new(
                    Box::new(NoChurn),
                    LeaveSelector::Random,
                    IdSource::starting_at(5),
                ),
                workload: Box::new(script),
                seed: 29,
                trace: false,
                writer_policy: WriterPolicy::FixedProtected,
                writers: 1,
            },
        );
        w.protect(b);
        let mut seen = Vec::new();
        for t in [3, 5, 6, 7, 9] {
            w.run_until(Time::at(t));
            seen.push((
                t,
                w.churn.protected().to_vec(),
                w.clients.key_writes().to_vec(),
            ));
        }
        assert_eq!(
            seen,
            [
                (3, vec![b, a], vec![1, 0]),
                // r0's write returned; r1's still holds the shield.
                (5, vec![b, a], vec![0, 1]),
                (6, vec![b, a], vec![1, 1]),
                // `a`'s last write returned; the run's own protection of
                // `b` outlives `b`'s write.
                (7, vec![b], vec![1, 0]),
                (9, vec![b], vec![0, 0]),
            ]
        );
        assert_eq!(w.metrics().counter("ops.write_completed"), 3);
    }

    #[test]
    fn two_es_writers_race_one_key_and_stay_regular() {
        let mut w = World::new(
            EsFactory::new(EsConfig::new(10)),
            WorldConfig {
                n: 10,
                initial: 0,
                delay: Box::new(Synchronous::new(Span::ticks(3))),
                churn: ChurnDriver::new(
                    Box::new(NoChurn),
                    LeaveSelector::Random,
                    IdSource::starting_at(10),
                ),
                workload: Box::new(
                    RateWorkload::new(Span::ticks(6), 1.0).stopping_at(Time::at(300)),
                ),
                seed: 31,
                trace: false,
                writer_policy: WriterPolicy::FixedProtected,
                writers: 2,
            },
        );
        w.run_until(Time::at(360));
        let h = w.history();
        let writes: Vec<_> = h.writes().collect();
        let overlapping = writes.iter().enumerate().any(|(i, a)| {
            writes[i + 1..]
                .iter()
                .any(|b| a.node != b.node && a.overlaps(b))
        });
        assert!(overlapping, "both writers actually raced the key");
        let report = RegularityChecker::check(h);
        assert!(report.is_ok(), "{report}");
        assert!(report.checked_reads > 20);
    }

    #[test]
    fn delivered_counter_folds_into_outputs() {
        let mut w = sync_world(5, 3, 0.0, 13);
        w.run_until(Time::at(60));
        let events = w.events_processed();
        assert!(events > 60, "ticks plus messages were processed");
        let (_h, _p, metrics, _t, _n) = w.into_space_outputs();
        assert!(metrics.counter("net.delivered") > 0);
    }
}
