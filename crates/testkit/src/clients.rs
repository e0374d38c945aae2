//! The client side of a run. The paper's processes are sequential clients
//! (one invocation per `(process, register)` at a time, each seen to
//! return), and its liveness argument assumes a writer stays until its
//! write returns. [`Clients`] owns that bookkeeping — histories, in-flight
//! ops, write occupancy, the write shield, the idle roster, the workload —
//! with one method per lifecycle event. Per-process state is indexed by
//! the process's slab slot, so each event costs one vector access.

use dynareg_churn::ChurnDriver;
use dynareg_core::OpOutcome;
use dynareg_net::Presence;
use dynareg_sim::metrics::Metrics;
use dynareg_sim::{DetRng, NodeId, OpId, RegisterId, Time};
use dynareg_verify::SpaceHistory;

use crate::workload::{KeyedAction, OpAction, Workload, WriteAccess};
use crate::world::Val;

/// Who issues writes: the roster handed to the workload each tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WriterPolicy {
    /// The first `writers` bootstrap members — the paper's single-writer
    /// reading of §3 at `writers = 1`; scenarios shield them from churn
    /// unless `writer_churns` is set.
    #[default]
    FixedProtected,
    /// The `writers` *oldest active* processes: when churn evicts one the
    /// role migrates to the next-oldest, so no process is immortal — the
    /// configuration the churn-threshold experiments need.
    OldestActive,
}

/// A client op in flight (at most one per `(process, key)`).
#[derive(Debug, Clone, Copy)]
struct Busy {
    key: RegisterId,
    op: OpId,
    write: bool,
}

/// One process's client state; a process is active exactly when it is
/// not joining (bootstrap members never join).
#[derive(Debug, Default)]
struct Client {
    /// A joiner's per-key join ops, in key order.
    joining: Option<Vec<OpId>>,
    /// Ops in flight; most processes run zero or one at a time.
    busy: Vec<Busy>,
    /// Whether the process's churn protection was set by its own writes,
    /// and so lifts when its last write returns or it departs.
    shielded: bool,
}

impl Client {
    fn is_idle_active(&self) -> bool {
        self.joining.is_none() && self.busy.is_empty()
    }

    fn is_busy_on(&self, key: RegisterId) -> bool {
        self.busy.iter().any(|b| b.key == key)
    }
}

/// The client side of a run; see the module docs.
pub(crate) struct Clients {
    histories: SpaceHistory<Option<Val>>,
    /// Per-slot state, parallel to the world's slab; a free slot holds the
    /// default.
    clients: Vec<Client>,
    /// Active processes with nothing in flight, in id order — kept
    /// incrementally so the per-tick workload never rescans the population.
    idle_active: Vec<NodeId>,
    /// In-flight writes per key, each at most `writer_cap`.
    key_writes: Vec<u32>,
    /// `WorldConfig::writers`: the per-key write cap and the roster size.
    writer_cap: u32,
    writer_policy: WriterPolicy,
    workload: Box<dyn Workload>,
    rng: DetRng,
    /// Churn arrivals in join order (for scripted workload targets).
    arrivals: Vec<NodeId>,
}

impl Clients {
    /// `n` active, idle bootstrap members in slots `0..n`, every key of a
    /// `keys`-key space holding `initial`.
    pub(crate) fn new(
        n: usize,
        keys: u32,
        initial: Val,
        writer_policy: WriterPolicy,
        writers: usize,
        workload: Box<dyn Workload>,
        rng: DetRng,
    ) -> Clients {
        Clients {
            histories: SpaceHistory::new(keys, Some(initial)),
            clients: (0..n).map(|_| Client::default()).collect(),
            idle_active: (0..n as u64).map(NodeId::from_raw).collect(),
            key_writes: vec![0; keys as usize],
            writer_cap: writers as u32,
            writer_policy,
            workload,
            rng,
            arrivals: Vec::new(),
        }
    }

    pub(crate) fn histories(&self) -> &SpaceHistory<Option<Val>> {
        &self.histories
    }

    pub(crate) fn into_histories(self) -> SpaceHistory<Option<Val>> {
        self.histories
    }

    pub(crate) fn arrival_count(&self) -> usize {
        self.arrivals.len()
    }

    /// Writes in flight, over every key.
    pub(crate) fn writes_in_flight(&self) -> u64 {
        self.key_writes.iter().map(|&w| u64::from(w)).sum()
    }

    fn idle_insert(&mut self, node: NodeId) {
        if let Err(i) = self.idle_active.binary_search(&node) {
            self.idle_active.insert(i, node);
        }
    }

    fn idle_remove(&mut self, node: NodeId) {
        if let Ok(i) = self.idle_active.binary_search(&node) {
            self.idle_active.remove(i);
        }
    }

    /// `node` entered at `slot` and starts joining. The join is recorded
    /// in every key's history (each is self-contained for the liveness
    /// checker); returns the anchor key's join op, the one the trace and
    /// the protocol see.
    pub(crate) fn join_started(&mut self, node: NodeId, slot: u32, now: Time) -> OpId {
        let join_ops = self.histories.invoke_join_all(node, now);
        let anchor = join_ops[0];
        self.arrivals.push(node);
        if slot as usize == self.clients.len() {
            self.clients.push(Client::default());
        }
        self.clients[slot as usize].joining = Some(join_ops);
        anchor
    }

    /// The process at `slot` completed its join, in every key at once.
    /// Returns the anchor join op, or `None` if it was not joining.
    pub(crate) fn join_completed(
        &mut self,
        node: NodeId,
        slot: u32,
        now: Time,
        metrics: &mut Metrics,
    ) -> Option<OpId> {
        let join_ops = self.clients[slot as usize].joining.take()?;
        self.histories.complete_join_all(&join_ops, now);
        self.idle_insert(node);
        metrics.incr("ops.join_completed");
        Some(join_ops[0])
    }

    /// The op a timer or retransmission of the process at `slot` belongs
    /// to, when that is unambiguous: its join (on the anchor key), or its
    /// single op in flight.
    pub(crate) fn anchor(&self, slot: u32) -> Option<(RegisterId, OpId)> {
        let client = &self.clients[slot as usize];
        match (&client.joining, &client.busy[..]) {
            (Some(join_ops), _) => Some((RegisterId::ZERO, join_ops[0])),
            (None, &[Busy { key, op, .. }]) => Some((key, op)),
            _ => None,
        }
    }

    /// Starts `action` for the process at `slot`, returning the op's id,
    /// or counts why it cannot start: a joining process under
    /// `workload.skipped`; an op already in flight on the key, or the key
    /// at writer capacity, under `ops.skipped_busy`.
    pub(crate) fn op_started(
        &mut self,
        node: NodeId,
        slot: u32,
        &KeyedAction { key, ref action }: &KeyedAction,
        now: Time,
        churn: &mut ChurnDriver,
        metrics: &mut Metrics,
    ) -> Option<OpId> {
        let client = &mut self.clients[slot as usize];
        if client.joining.is_some() {
            metrics.incr("workload.skipped");
            return None;
        }
        let writes = &mut self.key_writes[key.as_raw() as usize];
        let write = matches!(action, OpAction::Write(_));
        if client.is_busy_on(key) || write && *writes >= self.writer_cap {
            metrics.incr("ops.skipped_busy");
            return None;
        }
        let history = self.histories.key_mut(key);
        let op = match *action {
            OpAction::Read => history.invoke_read(node, now),
            OpAction::Write(value) => {
                *writes += 1;
                // The paper's liveness statements assume a writer stays
                // until its write returns: shield it for exactly that long,
                // across every key it pipelines writes on.
                if !client.shielded && !churn.protected().contains(&node) {
                    churn.protect(node);
                    client.shielded = true;
                }
                history.invoke_write(node, now, Some(value))
            }
        };
        let was_idle = client.busy.is_empty();
        client.busy.push(Busy { key, op, write });
        if was_idle {
            self.idle_remove(node);
        }
        Some(op)
    }

    /// The process at `slot` returned `op` on `key`: the op completes in
    /// the history (counted, with its latency, space-wide and per key) and
    /// frees the key — for a write, the key's writer slot too, and the
    /// shield once it was the process's last write.
    #[expect(
        clippy::too_many_arguments,
        reason = "one completion effect, its process, the instant and the two sinks it updates"
    )]
    pub(crate) fn op_completed(
        &mut self,
        node: NodeId,
        slot: u32,
        key: RegisterId,
        op: OpId,
        outcome: OpOutcome<Val>,
        now: Time,
        churn: &mut ChurnDriver,
        metrics: &mut Metrics,
    ) {
        let history = self.histories.key_mut(key);
        let latency = history.get(op).map(|rec| (now - rec.invoked_at).as_ticks());
        let (completed, latencies) = match outcome {
            OpOutcome::Read(value) => {
                history.complete_read(op, now, value);
                ("ops.read_completed", "latency.read")
            }
            OpOutcome::WriteOk => {
                history.complete_write(op, now);
                ("ops.write_completed", "latency.write")
            }
        };
        metrics.incr(completed);
        metrics.incr_keyed(completed, key.as_raw());
        if let Some(latency) = latency {
            metrics.sample_keyed(latencies, key.as_raw(), latency);
        }
        let client = &mut self.clients[slot as usize];
        let i = client.busy.iter().position(|b| b.key == key);
        if let Some(freed) = i.map(|i| client.busy.swap_remove(i)) {
            debug_assert_eq!(freed.op, op, "a key completes the op it runs");
            if freed.write {
                self.key_writes[key.as_raw() as usize] -= 1;
                if client.shielded && !client.busy.iter().any(|b| b.write) {
                    client.shielded = false;
                    churn.unprotect(node);
                }
            }
        }
        if client.is_idle_active() {
            self.idle_insert(node);
        }
    }

    /// The process at `slot` left, abandoning every op in flight (they
    /// stay incomplete-but-excused): its writes free their keys' writer
    /// slots, so no departure wedges a key, and its shield lifts.
    pub(crate) fn departed(&mut self, node: NodeId, slot: u32, now: Time, churn: &mut ChurnDriver) {
        self.histories.note_left(node, now);
        let client = std::mem::take(&mut self.clients[slot as usize]);
        if client.is_idle_active() {
            self.idle_remove(node);
        }
        for b in client.busy.iter().filter(|b| b.write) {
            self.key_writes[b.key.as_raw() as usize] -= 1;
        }
        if client.shielded {
            churn.unprotect(node);
        }
    }

    /// This tick's writers, in roster order: the first `writer_cap`
    /// bootstrap ids under `FixedProtected`; the `writer_cap` oldest
    /// active processes under `OldestActive` (or the first bootstrap id
    /// when none is active, so the roster is never empty).
    fn writer_roster(&self, presence: &Presence) -> Vec<NodeId> {
        let cap = self.writer_cap;
        match self.writer_policy {
            WriterPolicy::FixedProtected => (0..u64::from(cap)).map(NodeId::from_raw).collect(),
            WriterPolicy::OldestActive => match presence.oldest_active(cap as usize) {
                roster if roster.is_empty() => vec![NodeId::from_raw(0)],
                roster => roster,
            },
        }
    }

    /// Asks the workload for this tick's operations; `slot_of` resolves a
    /// present process to its slot.
    pub(crate) fn tick(
        &mut self,
        now: Time,
        presence: &Presence,
        slot_of: impl Fn(NodeId) -> Option<u32>,
        metrics: &mut Metrics,
    ) -> Vec<(NodeId, KeyedAction)> {
        let roster = self.writer_roster(presence);
        // Denied queries are the workload-level contention signal
        // (`workload.write_gated`): the workload declines to emit the
        // write, so `ops.skipped_busy` never sees it.
        let gated = std::cell::Cell::new(0u64);
        let (clients, key_writes, cap) = (&self.clients, &self.key_writes, self.writer_cap);
        let can_write = |node: NodeId, key: RegisterId| -> bool {
            let free = key_writes
                .get(key.as_raw() as usize)
                .is_some_and(|&w| w < cap)
                && slot_of(node).is_some_and(|i| {
                    let client = &clients[i as usize];
                    client.joining.is_none() && !client.is_busy_on(key)
                });
            gated.set(gated.get() + u64::from(!free));
            free
        };
        let access = WriteAccess::new(&roster, &can_write);
        let ops = self.workload.tick(
            now,
            &self.idle_active,
            &self.arrivals,
            &access,
            &mut self.rng,
        );
        if gated.get() > 0 {
            metrics.add("workload.write_gated", gated.get());
        }
        ops
    }
}

#[cfg(test)]
impl Clients {
    /// The idle-active roster, for the world's consistency checks.
    pub(crate) fn idle_active(&self) -> &[NodeId] {
        &self.idle_active
    }

    /// In-flight writes per key.
    pub(crate) fn key_writes(&self) -> &[u32] {
        &self.key_writes
    }
}
