//! # dynareg-sim — deterministic discrete-event simulation substrate
//!
//! This crate provides the timing substrate on which the register protocols
//! of Baldoni, Bonomi, Kermarrec and Raynal ("Implementing a Register in a
//! Dynamic Distributed System", ICDCS 2009) are executed and measured.
//!
//! The paper's time model is the set of positive integers (§2.1, "Time
//! model"); this crate mirrors it exactly:
//!
//! * [`Time`] and [`Span`] are integer tick newtypes,
//! * the [`EventQueue`] delivers events in non-decreasing time order with
//!   FIFO tie-breaking, so a run is a *deterministic* function of its inputs,
//! * all randomness flows through [`DetRng`], a small seeded PRNG, so the
//!   same seed always reproduces the same run — a correctness requirement
//!   for reproducing the paper's lemma-level bounds,
//! * [`LookupMap`] is the workspace's only hash map — probed by key, never
//!   iterated, so hash order cannot reach a report or a digest,
//! * [`trace`] and [`metrics`] record what happened for the checkers and the
//!   experiment harness.
//!
//! # Example
//!
//! ```
//! use dynareg_sim::{EventQueue, Time, Span};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(Time::ZERO + Span::ticks(3), "later");
//! q.schedule(Time::ZERO, "now");
//! assert_eq!(q.pop().map(|e| e.payload), Some("now"));
//! assert_eq!(q.pop().map(|e| e.payload), Some("later"));
//! ```

#![warn(missing_docs)]

mod event;
mod ids;
mod lookup;
pub mod metrics;
pub mod obs;
mod rng;
mod time;
pub mod trace;

pub use event::{EventQueue, ScheduledEvent};
pub use ids::{IdSource, NodeId, OpId, RegisterId};
pub use lookup::LookupMap;
pub use rng::DetRng;
pub use time::{Span, Time};
