//! # dynareg-net — timed network substrate
//!
//! Models the communication layer assumed by Baldoni et al. (ICDCS 2009):
//!
//! * **Presence** (§2.1, Definition 1): every process is *listening* from the
//!   instant its `join` begins, *active* from the instant `join` returns, and
//!   gone forever once it leaves. [`Presence`] tracks the lifecycle and
//!   answers the paper's `A(τ)` / `A(τ₁, τ₂)` active-set queries, which the
//!   Lemma 2 experiment measures directly.
//! * **Point-to-point channels** (§3.2): reliable — no loss, duplication or
//!   corruption — with latency drawn from a [`DelayModel`]. A process may
//!   send to any process it knows has entered the system.
//! * **Timely broadcast** (§3.2, after Hadzilacos–Toueg \[15\] and Friedman
//!   et al. \[10\]): a message broadcast at `τ` is delivered by `τ + δ` to every
//!   process in the system during `[τ, τ+δ]`. Processes that enter *after*
//!   `τ` have **no delivery guarantee** — exactly the hazard of the paper's
//!   Figure 3(a) — which [`Network::broadcast`] models by snapshotting the
//!   present set at send time.
//! * **Synchrony classes**: [`delay::Synchronous`] (§3), [`delay::Asynchronous`]
//!   (§4, unbounded delays), and [`delay::EventuallySynchronous`] (§5, bounded
//!   only after an unknown GST).
//!
//! The network is *sans-queue*: `send` returns an [`Envelope`] and
//! `broadcast` a zero-copy [`Fanout`], each carrying computed delivery
//! instants that the simulation runtime schedules. This keeps the substrate
//! unit-testable in isolation.

#![warn(missing_docs)]

pub mod delay;
mod fault;
mod network;
mod presence;

pub use delay::DelayModel;
pub use fault::{
    DelayFault, DropKind, DropRule, FaultAction, FaultPlan, FaultVerdict, NodeSet, Partition,
    RegionMatrix,
};
pub use network::{Envelope, Fanout, MsgRecord, Network, SendFate};
pub use presence::{LifeRecord, NodeStatus, Presence};
