//! The sans-I/O protocol interface.
//!
//! A register protocol is a deterministic state machine: inputs are entering
//! the system, message deliveries, timer expiries and client invocations;
//! outputs are [`Effect`]s the runtime interprets. This keeps every paper
//! line unit-testable without a simulator, and makes the protocols reusable
//! over any transport that can honour the effects.

use std::fmt;

use dynareg_sim::{NodeId, OpId, Span, Time};

/// Marker for types storable in the register.
///
/// Blanket-implemented; the bound collects what the protocols and checkers
/// need (cloning into messages, equality for verification, hashing for
/// reads-from maps, debug printing for reports).
pub trait Value: Clone + Eq + std::hash::Hash + fmt::Debug + 'static {}

impl<T: Clone + Eq + std::hash::Hash + fmt::Debug + 'static> Value for T {}

/// Result delivered to the client when an operation completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutcome<V> {
    /// A read returned. `None` is the register's `⊥`: the process never
    /// obtained a value — under the paper's assumptions this cannot reach a
    /// client, and the harness records it as a safety violation when it
    /// does (e.g. beyond the churn bound).
    Read(Option<V>),
    /// A write returned `ok`.
    WriteOk,
}

/// An output of a protocol state machine, interpreted by the runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect<M, V> {
    /// Send `msg` point-to-point to `to`.
    Send {
        /// Recipient process.
        to: NodeId,
        /// Payload.
        msg: M,
    },
    /// Broadcast `msg` to every process in the system (the paper's timely
    /// broadcast primitive).
    Broadcast {
        /// Payload.
        msg: M,
    },
    /// Request a timer callback after `delay`, tagged with `tag` (the
    /// protocol's `wait(…)` statements).
    SetTimer {
        /// How long to wait.
        delay: Span,
        /// Protocol-chosen discriminator handed back on expiry.
        tag: u64,
    },
    /// The `join` operation returned `ok`: the process is now *active*
    /// (Definition 1). The runtime flips the presence table.
    JoinComplete,
    /// A client operation returned.
    OpComplete {
        /// The operation.
        op: OpId,
        /// Its result.
        outcome: OpOutcome<V>,
    },
    /// Free-form annotation for traces ("quorum reached", …).
    Note(String),
}

/// A register protocol instance bound to one process.
///
/// # Contract
///
/// * [`on_enter`](RegisterProcess::on_enter) is called exactly once, when
///   the process enters the system; for bootstrap members it returns
///   [`Effect::JoinComplete`] immediately.
/// * The runtime only calls [`on_read`](RegisterProcess::on_read) /
///   [`on_write`](RegisterProcess::on_write) after `JoinComplete`, and never
///   overlaps two operations on the same process — the paper's processes
///   are sequential (§2.1).
/// * Message deliveries may arrive at any moment from entry onward
///   (listening mode).
pub trait RegisterProcess: fmt::Debug {
    /// The protocol's wire message type (compared by the space layer to
    /// tell whether a kept join answer answers the inquiry at hand).
    type Msg: Clone + PartialEq + fmt::Debug;
    /// The register's value type.
    type Val: Value;

    /// This process's identity.
    fn id(&self) -> NodeId;

    /// Whether the join operation has returned.
    fn is_active(&self) -> bool;

    /// Join-phase replies gathered so far, while the join is in flight;
    /// `None` once it returned. The space layer's bounded join
    /// retransmission (`RetransmitConfig` in the `space` module) is the
    /// consumer, and what it relies on depends on how the join completes:
    ///
    /// * **timer-driven joins** (sync) — only *zero vs non-zero*: a wait
    ///   expiring at `Some(0)` is intercepted. Any O(1) counter will do;
    ///   duplicates may inflate it.
    /// * **quorum-driven joins** (ES) — a count of *distinct senders*,
    ///   compared beat to beat as progress, so a duplicate reply elicited
    ///   by a retransmitted inquiry must not raise it.
    ///
    /// `None` (the default) also means the protocol exposes no count — the
    /// space layer then never intercepts a join timer on its behalf and
    /// treats every silence beat as silent.
    fn join_replies(&self) -> Option<usize> {
        None
    }

    /// The process enters the system and starts its `join` operation.
    fn on_enter(&mut self, now: Time) -> Vec<Effect<Self::Msg, Self::Val>>;

    /// A message from `from` is delivered; its effects append to `out`.
    /// The runtime calls this with a reused buffer (message delivery is
    /// the simulator's hottest edge — tens of millions of calls in a
    /// large-population run), so a delivery costs no allocation.
    fn on_message_into(
        &mut self,
        now: Time,
        from: NodeId,
        msg: Self::Msg,
        out: &mut Vec<Effect<Self::Msg, Self::Val>>,
    );

    /// Allocating convenience form of
    /// [`on_message_into`](RegisterProcess::on_message_into).
    fn on_message(
        &mut self,
        now: Time,
        from: NodeId,
        msg: Self::Msg,
    ) -> Vec<Effect<Self::Msg, Self::Val>> {
        let mut out = Vec::new();
        self.on_message_into(now, from, msg, &mut out);
        out
    }

    /// A timer set via [`Effect::SetTimer`] with this `tag` expired.
    fn on_timer(&mut self, now: Time, tag: u64) -> Vec<Effect<Self::Msg, Self::Val>>;

    /// The client invokes `read`, identified by `op`.
    fn on_read(&mut self, now: Time, op: OpId) -> Vec<Effect<Self::Msg, Self::Val>>;

    /// The client invokes `write(value)`, identified by `op`.
    fn on_write(
        &mut self,
        now: Time,
        op: OpId,
        value: Self::Val,
    ) -> Vec<Effect<Self::Msg, Self::Val>>;
}

/// Test helper: extracts the completed-operation outcomes from an effect
/// list (used across protocol unit tests).
pub fn completions<M, V: Clone>(effects: &[Effect<M, V>]) -> Vec<(OpId, OpOutcome<V>)> {
    effects
        .iter()
        .filter_map(|e| match e {
            Effect::OpComplete { op, outcome } => Some((*op, outcome.clone())),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completions_extracts_only_op_completes() {
        let effects: Vec<Effect<(), u64>> = vec![
            Effect::Note("x".into()),
            Effect::OpComplete {
                op: OpId::from_raw(3),
                outcome: OpOutcome::Read(Some(7)),
            },
            Effect::SetTimer {
                delay: Span::UNIT,
                tag: 1,
            },
        ];
        let got = completions(&effects);
        assert_eq!(got, vec![(OpId::from_raw(3), OpOutcome::Read(Some(7)))]);
    }

    #[test]
    fn effects_compare_structurally() {
        let a: Effect<u8, u64> = Effect::Broadcast { msg: 1 };
        let b: Effect<u8, u64> = Effect::Broadcast { msg: 1 };
        assert_eq!(a, b);
    }
}
