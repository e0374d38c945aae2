//! # dynareg-core — regular register protocols for churning systems
//!
//! The primary contribution of Baldoni, Bonomi, Kermarrec & Raynal,
//! *"Implementing a Register in a Dynamic Distributed System"* (ICDCS 2009):
//! two protocols building a **regular register** — Lamport's middle rung
//! between *safe* and *atomic* — in a message-passing system whose
//! membership is refreshed at a constant churn rate `c`.
//!
//! | protocol | module | synchrony | churn assumption | read cost |
//! |---|---|---|---|---|
//! | Figures 1–2 | [`sync`] | synchronous (known `δ`) | `c ≤ 1/(3δ)` | **local, zero latency** |
//! | Figures 4–6 | [`es`] | eventually synchronous | majority active & `c ≤ 1/(3δn)` | one quorum round-trip |
//!
//! Between the two sits the paper's Theorem 2: in a *fully asynchronous*
//! dynamic system no protocol implements a regular register at all — the
//! experiments exercise both protocols under unbounded delays to exhibit the
//! two failure faces (safety loss for timeout-based, liveness loss for
//! quorum-based).
//!
//! ## Architecture: sans-I/O state machines
//!
//! Protocols are implemented as pure state machines behind the
//! [`RegisterProcess`] trait: every input (entering the system, a message, a
//! timer, a client invocation) returns a list of [`Effect`]s (send,
//! broadcast, set timer, complete operation). The simulation runtime in
//! `dynareg-testkit` interprets effects against the network substrate; unit
//! tests interpret them directly. No protocol line touches a clock or a
//! socket.
//!
//! ## Extensions beyond the paper
//!
//! * **Atomic upgrade** ([`es::EsConfig::atomic`]): an ABD-style write-back
//!   phase on reads removes new/old inversions, upgrading the eventually
//!   synchronous register from regular to atomic at the cost of one extra
//!   round-trip per read (§7 asks how to strengthen the abstraction; this is
//!   the classical answer).
//! * **Multi-writer timestamps** ([`es::Timestamp`]): values are ordered by
//!   `(sn, writer-id)` pairs, so *concurrent* writers — which the paper
//!   excludes by assumption (§5.3) and defers to quorum future work (§7) —
//!   serialize deterministically instead of corrupting the register.
//! * **Register spaces** ([`space`]): a keyed multi-register service over
//!   one churn substrate — `k` protocol instances per process behind a
//!   single shared join handshake, every operation addressing a
//!   `(RegisterId, op)` pair (§7 asks for richer objects; this is the
//!   many-registers answer).

#![warn(missing_docs)]

mod actor;
pub mod es;
pub mod space;
pub mod sync;

pub use actor::{completions, Effect, EffectSink, OpOutcome, RegisterProcess, Value};
pub use space::{
    shard_of_key, shard_of_node, KeyTags, OneKey, RegisterSpace, RegisterSpaceProcess, ShardConfig,
    SpaceEffect, SpaceMsg, WireFormat,
};
