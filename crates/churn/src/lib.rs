//! # dynareg-churn — dynamicity models
//!
//! The paper (§2.1) captures dynamicity with a single parameter, the **churn
//! rate** `c`: *"while the number of processes remains constant (equal to n),
//! in every time unit `c·n` processes leave the system and the same number of
//! processes join the system."* This crate provides:
//!
//! * [`ConstantRate`] — the paper's model, with exact fractional accounting
//!   (at `c·n = 2.5`, ticks alternate between 2 and 3 refreshes so the
//!   long-run rate is exact);
//! * extension models after the tractable-churn catalogue of Ko, Hoque &
//!   Gupta \[19\]: [`PoissonChurn`], [`BurstChurn`], [`DiurnalChurn`],
//!   heavy-tailed [`SessionChurn`], and population-growing [`FlashCrowd`];
//! * [`LeaveSelector`] policies — who gets evicted matters: the paper's
//!   Lemma 2 worst case is "the `nc` processes that left … were present at
//!   time τ" (i.e. the adversary removes *active* processes, never joiners),
//!   which [`LeaveSelector::ActiveFirst`] reproduces;
//! * [`ChurnDriver`] — turns a model + selector into concrete join/leave
//!   decisions against a [`dynareg_net::Presence`] view;
//! * [`analysis`] — measures realized churn and the Lemma 2 quantity
//!   `min_τ |A(τ, τ+w)|` from a finished run.

#![warn(missing_docs)]

pub mod analysis;
mod driver;
mod model;
mod selector;

pub use driver::{ChurnDriver, ChurnStep};
pub use model::{
    BurstChurn, ChurnModel, ConstantRate, DiurnalChurn, FlashCrowd, NoChurn, PoissonChurn,
    SessionChurn,
};
pub use selector::LeaveSelector;
