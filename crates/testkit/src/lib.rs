//! # dynareg-testkit — simulation world, scenarios and result tables
//!
//! Glues the substrates together into runnable systems:
//!
//! * [`World`] — the deterministic runtime: interprets register-space
//!   [`SpaceEffect`]s against the network, applies churn, records the
//!   per-key operation histories and the trace. Every client invocation
//!   addresses a `(RegisterId, action)` pair ([`KeyedAction`]); bare
//!   [`OpAction`]s target the anchor key `r0`;
//! * [`ProtocolFactory`] — how the world spawns bootstrap members and
//!   joiners for a given protocol ([`SyncFactory`], [`EsFactory`]). Every
//!   protocol factory is a 1-key [`SpaceFactory`]; [`SpaceOf`] lifts one
//!   to a keyed [`RegisterSpace`] multiplexer;
//! * [`Workload`] — who reads/writes which key when ([`RateWorkload`] for
//!   steady single-register load, [`ZipfWorkload`] for Zipf-keyed space
//!   traffic, [`ScriptedWorkload`] for figure-exact reproductions);
//! * [`ScenarioSpec`] — the one scenario type: paper parameters
//!   `(n, δ, c, GST, seed, …)` as plain `Send + Clone` data, run into a
//!   [`RunReport`] with safety, atomicity and liveness verdicts. It is the
//!   unit of work `dynareg-fleet` fans out across threads, and what a
//!   scenario file ([`parse_scenario`] / [`write_scenario`]) holds;
//! * [`table`] — markdown/CSV tables for the paper ledger, the phase
//!   report and the examples. Multi-seed runs and their reduction live in
//!   `dynareg-fleet` (`run_cells`, `Cell`).
//!
//! # Example
//!
//! ```
//! use dynareg_sim::Span;
//! use dynareg_testkit::ScenarioSpec;
//!
//! let report = ScenarioSpec {
//!     duration: Span::ticks(300),
//!     seed: 7,
//!     // c = 0.5 · 1/(3δ)
//!     ..ScenarioSpec::synchronous(20, Span::ticks(4)).churn_fraction_of_bound(0.5)
//! }
//! .run();
//! assert!(report.safety.is_ok());
//! assert!(report.liveness.is_ok());
//! ```

#![warn(missing_docs)]

mod clients;
mod factory;
pub mod obs;
mod scenario;
mod scenfile;
pub mod table;
mod workload;
mod world;

pub use clients::WriterPolicy;
pub use dynareg_core::space::{
    shard_of_key, shard_of_node, KeyTags, OneKey, RegisterSpace, RegisterSpaceProcess, ShardConfig,
    SpaceEffect, SpaceMsg, WireFormat,
};
pub use factory::{EsFactory, ProtocolFactory, SpaceFactory, SpaceOf, SyncFactory};
pub use obs::{
    MsgFate, MsgInfo, ObsConfig, ObsReport, OpPhase, OpSpan, PhaseEvent, WhyStuck, FLIGHT_SCHEMA,
};
pub use scenario::{
    ChurnChoice, KeyReport, NetClass, ProtocolChoice, RunReport, ScenarioSpec, SpecError,
};
pub use scenfile::{parse_scenario, scenario_hash, write_scenario, ScenError, FORMAT_LINE};
pub use workload::{
    KeyedAction, OpAction, RateWorkload, ScriptTarget, ScriptedWorkload, Workload, ZipfKeys,
    ZipfWorkload,
};
pub use world::{World, WorldConfig};
