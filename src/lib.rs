//! # dynareg — regular registers for dynamic distributed systems
//!
//! Facade crate re-exporting the full `dynareg` workspace: a reproduction of
//! *"Implementing a Register in a Dynamic Distributed System"* (R. Baldoni,
//! S. Bonomi, A.-M. Kermarrec, M. Raynal — ICDCS 2009 / IRISA PI 1913).
//!
//! The paper builds a **regular read/write register** — the middle rung of
//! Lamport's safe/regular/atomic ladder — in a message-passing system whose
//! membership *churns*: at every time unit a fraction `c` of the `n`
//! processes leaves and is replaced by fresh arrivals. It gives:
//!
//! * a protocol for **synchronous** systems with purely local reads, correct
//!   when `c ≤ 1/(3δ)` ([`core::sync`]),
//! * an **impossibility** result for fully asynchronous dynamic systems,
//! * a quorum-based protocol for **eventually synchronous** systems
//!   requiring a majority of active processes ([`core::es`]).
//!
//! # Quickstart
//!
//! ```
//! use dynareg::sim::Span;
//! use dynareg::testkit::{ProtocolChoice, ScenarioSpec};
//!
//! // A small synchronous system: n = 20, δ = 4 ticks, churn at half the
//! // paper's bound c = 1/(3δ), one writer, readers everywhere. Every field
//! // not named here keeps its `ScenarioSpec::new` default.
//! let spec = ScenarioSpec {
//!     duration: Span::ticks(400),
//!     seed: 1,
//!     ..ScenarioSpec::synchronous(20, Span::ticks(4)).churn_fraction_of_bound(0.5)
//! };
//! assert_eq!(spec.protocol, ProtocolChoice::Synchronous);
//! let report = spec.run();
//!
//! assert!(report.safety.is_ok(), "regularity must hold under the bound");
//! assert_eq!(report.liveness.incomplete_stayer_count(), 0);
//! ```
//!
//! # Building & testing
//!
//! The repository is a single cargo workspace; the tier-1 verify is
//!
//! ```sh
//! cargo build --release && cargo test -q
//! ```
//!
//! run from the repo root — it builds all crates and runs every unit,
//! integration, property and doc test. `cargo clippy --workspace
//! --all-targets -- -D warnings` is the lint gate, `cargo run --release
//! --example quickstart` runs the example above, and `cargo run --release
//! --bin exp_paper_tables` (in `dynareg-bench`) regenerates the paper
//! ledger `docs/REPRODUCTION.md`: every claim measured, with a verdict.
//! External dependencies (`rand`, `proptest`) resolve to
//! offline shims under `crates/shims` — the build never touches a
//! registry. Property-test case counts are pinned per suite; set
//! `PROPTEST_CASES` to deepen a local run.
//!
//! # Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `dynareg-sim` | deterministic discrete-event engine |
//! | [`net`] | `dynareg-net` | timed network, timely broadcast, presence |
//! | [`churn`] | `dynareg-churn` | churn models and membership analytics |
//! | [`verify`] | `dynareg-verify` | histories + regular/atomic/safe/liveness checkers |
//! | [`core`] | `dynareg-core` | the paper's protocols and extensions |
//! | [`testkit`] | `dynareg-testkit` | world runtime, scenarios, scenario files, result tables |
//! | [`fleet`] | `dynareg-fleet` | multi-threaded run pool and cells: phase diagrams, the paper ledger |

pub use dynareg_churn as churn;
pub use dynareg_core as core;
pub use dynareg_fleet as fleet;
pub use dynareg_net as net;
pub use dynareg_sim as sim;
pub use dynareg_testkit as testkit;
pub use dynareg_verify as verify;
