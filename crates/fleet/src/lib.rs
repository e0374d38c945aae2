//! # dynareg-fleet — multi-threaded sweep orchestrator
//!
//! The execution tier *above* the tick-level engine: where `dynareg-sim`
//! advances one deterministic world event by event, this crate runs
//! **thousands of worlds** — a grid or deterministic random sample over
//! the paper's parameter space — across a work-stealing `std::thread`
//! pool, and reduces them into empirical churn/synchrony **phase
//! diagrams** mapped against the analytic bounds (Theorem 1's
//! `c ≤ 1/(3δ)`, the ES `1/(3δn)`, Lemma 2's active-set floor).
//!
//! Pipeline:
//!
//! 1. [`SweepSpec`] (plain data) expands into indexed [`RunPoint`]s, each
//!    a [`dynareg_testkit::ScenarioSpec`] seeded from
//!    `(master_seed, run_index)` ([`run_seed`]);
//! 2. [`run_points`] executes them on up to `threads` workers — every
//!    world is internally deterministic, outcomes are stored by run index,
//!    and workers summarize ([`PointOutcome`]) before dropping the heavy
//!    history, so memory stays O(points);
//! 3. [`PhaseReport::from_outcomes`] reduces outcomes with commutative,
//!    associative accumulators only, so **any thread count yields a
//!    byte-identical report** — JSON ([`PhaseReport::json`]), rendered
//!    tables and the compact phase grid included.
//!
//! The paper ledger (`dynareg-bench`) and the examples run on the same
//! pool through [`run_cells`]: each cell is one scenario at a list of
//! seeds, reduced into the same [`Cell`] a phase-diagram point is.
//!
//! # Example
//!
//! ```
//! use dynareg_fleet::{run_sweep, SweepDomain, SweepSpec};
//! use dynareg_sim::Span;
//!
//! let spec = SweepSpec {
//!     domain: SweepDomain::Grid {
//!         deltas: vec![2, 3],
//!         fractions: vec![0.5, 2.0],
//!     },
//!     populations: vec![8],
//!     duration: Span::ticks(120),
//!     ..SweepSpec::theorem1_default()
//! };
//! let report = run_sweep(&spec, 2);
//! assert_eq!(report.total_runs, 4);
//! assert_eq!(report.json(), run_sweep(&spec, 1).json(), "thread count is unobservable");
//! ```

#![warn(missing_docs)]

use std::ops::Range;

use dynareg_testkit::{RunReport, ScenarioSpec};

mod aggregate;
mod pool;
mod report;
mod spec;

pub use aggregate::{cell_key, reduce_cells, run_digest, Cell, PointOutcome};
pub use pool::{default_threads, run_points, run_points_with};
pub use report::{Frontier, PhaseReport, BRACKET_TOL, PHASE_SCHEMA};
pub use spec::{run_seed, RunPoint, SweepDomain, SweepSpec};

/// Expands `spec`, runs every point on up to `threads` workers, and
/// reduces the outcomes into a [`PhaseReport`] — the one-call entry point.
///
/// # Panics
/// Panics if `threads` is zero or the spec expands to an empty sweep.
pub fn run_sweep(spec: &SweepSpec, threads: usize) -> PhaseReport {
    let points = spec.points();
    let outcomes = run_points(&points, threads);
    PhaseReport::from_outcomes(spec, &outcomes)
}

/// Runs each `(scenario, seeds)` cell at every one of its seeds — all
/// cells' runs in one pool, so no cell waits for the slowest run of the
/// one before — and reduces each cell's runs into a [`Cell`], next to what
/// `fact` read off each of them, in seed order.
///
/// # Panics
/// Panics if `threads` is zero or a cell has no seed.
pub fn run_cells<X, F>(
    cells: &[(ScenarioSpec, Range<u64>)],
    threads: usize,
    fact: F,
) -> Vec<(Cell, Vec<X>)>
where
    X: Send,
    F: Fn(&RunReport) -> X + Sync,
{
    let points: Vec<RunPoint> = cells
        .iter()
        .flat_map(|(spec, seeds)| {
            seeds.clone().map(|seed| ScenarioSpec {
                seed,
                ..spec.clone()
            })
        })
        .enumerate()
        .map(|(index, spec)| RunPoint::of_spec(index as u64, spec))
        .collect();
    let summarise = |p: &RunPoint, r: &RunReport| (PointOutcome::from_run(p, r), fact(r));
    let (outcomes, facts): (Vec<PointOutcome>, Vec<X>) =
        run_points_with(&points, threads, summarise)
            .into_iter()
            .unzip();
    let (mut facts, mut at) = (facts.into_iter(), 0);
    cells
        .iter()
        .map(|(_, seeds)| {
            let runs = seeds.clone().count();
            let [cell] = <[Cell; 1]>::try_from(reduce_cells(&outcomes[at..at + runs]))
                .expect("a cell runs one scenario at one or more seeds");
            at += runs;
            (cell, facts.by_ref().take(runs).collect())
        })
        .collect()
}
