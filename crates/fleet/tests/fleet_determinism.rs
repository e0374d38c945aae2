//! Fleet determinism suite: the acceptance contract of the sweep tier.
//!
//! 1. A sweep run at 1 thread and at N threads produces **byte-identical**
//!    aggregate reports (JSON, tables, phase grid, fleet digest);
//! 2. every run inside a fleet matches a standalone [`ScenarioSpec`] run
//!    of the same parameter point, event stream for event stream.

use dynareg_fleet::{run_digest, run_points, run_sweep, PhaseReport, SweepDomain, SweepSpec};
use dynareg_sim::Span;
use dynareg_testkit::{NetClass, ScenarioSpec};
use proptest::prelude::*;

/// A sweep small enough to run many times in a test, large enough to put
/// several runs on each worker and cross the Theorem 1 boundary.
fn small_spec(master_seed: u64) -> SweepSpec {
    SweepSpec {
        domain: SweepDomain::Grid {
            deltas: vec![2, 3],
            fractions: vec![0.3, 0.6, 0.9, 1.8],
        },
        populations: vec![9],
        duration: Span::ticks(140),
        reads_per_tick: 1.0,
        master_seed,
        ..SweepSpec::theorem1_default()
    }
}

#[test]
fn one_thread_and_many_threads_render_byte_identical_reports() {
    let spec = small_spec(0xFEE7);
    let one = run_sweep(&spec, 1);
    let many = run_sweep(&spec, 5);
    assert_eq!(one.fleet_digest, many.fleet_digest);
    assert_eq!(one.json(), many.json());
    assert_eq!(one.cell_table().markdown(), many.cell_table().markdown());
    assert_eq!(
        one.frontier_table().markdown(),
        many.frontier_table().markdown()
    );
    assert_eq!(one.phase_grid(), many.phase_grid());
}

#[test]
fn fleet_runs_match_standalone_scenario_runs() {
    let spec = small_spec(0xBEEF);
    let points = spec.points();
    let outcomes = run_points(&points, 4);
    assert_eq!(outcomes.len(), points.len());
    for (point, outcome) in points.iter().zip(&outcomes) {
        // Rebuild the very same point as a spec of its own and run it
        // inline, single-threaded.
        let standalone = ScenarioSpec {
            net: NetClass::SynchronousWorstCase,
            migrating_writer: true,
            writer_churns: true,
            selector: spec.selector,
            duration: spec.duration,
            reads_per_tick: spec.reads_per_tick,
            seed: point.seed,
            ..ScenarioSpec::synchronous(point.n, Span::ticks(point.delta))
                .churn_fraction_of_bound(point.fraction)
        }
        .run();
        assert_eq!(
            outcome.digest,
            run_digest(&standalone),
            "fleet run {} diverged from its standalone replay",
            point.index
        );
        assert_eq!(outcome.messages, standalone.total_messages);
        assert_eq!(
            outcome.reads_checked,
            standalone.total_reads_checked() as u64
        );
        assert_eq!(
            outcome.joins_completed,
            standalone.metrics.counter("ops.join_completed")
        );
    }
}

#[test]
fn es_sweep_is_thread_count_invariant_too() {
    let spec = SweepSpec {
        domain: SweepDomain::Grid {
            deltas: vec![2],
            fractions: vec![0.5, 1.0],
        },
        populations: vec![7],
        duration: Span::ticks(200),
        seeds_per_point: 2,
        ..SweepSpec::es_default(0)
    };
    let one = run_sweep(&spec, 1);
    let three = run_sweep(&spec, 3);
    assert_eq!(one.protocol, "es");
    assert_eq!(one.total_runs, 4, "1 δ × 2 fractions × 2 seeds");
    assert_eq!(one.json(), three.json());
}

#[test]
fn sharded_keyed_sweep_is_thread_count_invariant_and_renders_shards() {
    // The shards axis crosses the domain like any other: a (keys=8,
    // G ∈ {1, 4}) sweep reduces deterministically at any thread count,
    // separates its cells per G, and the sharded rows surface in every
    // render.
    let spec = SweepSpec {
        domain: SweepDomain::Grid {
            deltas: vec![3],
            fractions: vec![0.4, 0.8],
        },
        populations: vec![12],
        duration: Span::ticks(150),
        keys: vec![8],
        shards: vec![1, 4],
        ..SweepSpec::theorem1_default()
    };
    let one = run_sweep(&spec, 1);
    let four = run_sweep(&spec, 4);
    assert_eq!(one.total_runs, 4, "1 δ × 2 fractions × 2 shard counts");
    assert_eq!(one.json(), four.json());
    assert_eq!(one.phase_grid(), four.phase_grid());
    assert_eq!(one.cells.len(), 4);
    assert!(one.cells.iter().filter(|c| c.shards == 4).count() == 2);
    assert_eq!(one.frontiers.len(), 2, "one frontier row per (keys, G, δ)");
    assert!(one.json().contains("\"shards\": 4"), "{}", one.json());
    assert!(one.phase_grid().contains("g=4"), "{}", one.phase_grid());
    // Every fleet run still replays standalone, sharded or not.
    let points = spec.points();
    let outcomes = run_points(&points, 3);
    for (point, outcome) in points.iter().zip(&outcomes) {
        let standalone = ScenarioSpec {
            net: NetClass::SynchronousWorstCase,
            migrating_writer: true,
            writer_churns: true,
            selector: spec.selector,
            duration: spec.duration,
            reads_per_tick: spec.reads_per_tick,
            keys: point.keys,
            zipf_exponent: spec.zipf_exponent,
            shards: point.shards,
            seed: point.seed,
            ..ScenarioSpec::synchronous(point.n, Span::ticks(point.delta))
                .churn_fraction_of_bound(point.fraction)
        }
        .run();
        assert_eq!(
            standalone.shards, point.shards,
            "RunPoint records the effective G"
        );
        assert_eq!(
            outcome.digest,
            run_digest(&standalone),
            "sharded fleet run {} diverged from its standalone replay",
            point.index
        );
    }
}

#[test]
fn sampled_domain_sweeps_are_reproducible_across_thread_counts() {
    let spec = SweepSpec {
        domain: SweepDomain::Sample {
            count: 6,
            delta_lo: 2,
            delta_hi: 4,
            fraction_lo: 0.3,
            fraction_hi: 2.5,
        },
        populations: vec![8],
        duration: Span::ticks(120),
        ..SweepSpec::theorem1_default()
    };
    let a = run_sweep(&spec, 1);
    let b = run_sweep(&spec, 4);
    assert_eq!(a.total_runs, 6);
    assert_eq!(a.json(), b.json());
}

#[test]
fn default_sweep_expands_to_at_least_200_points_across_the_boundary() {
    // The exp_phase_diagram acceptance floor, checked without running the
    // full fleet: ≥ 200 (c, δ) points, straddling c = 1/(3δ) at every δ.
    let spec = SweepSpec::theorem1_default();
    let points = spec.points();
    assert!(points.len() >= 200, "{} points", points.len());
    let mut deltas: Vec<u64> = points.iter().map(|p| p.delta).collect();
    deltas.sort_unstable();
    deltas.dedup();
    assert!(deltas.len() >= 3, "several δ values");
    for d in deltas {
        let below = points.iter().any(|p| p.delta == d && p.fraction < 1.0);
        let above = points.iter().any(|p| p.delta == d && p.fraction > 1.0);
        assert!(below && above, "δ={d} does not straddle the boundary");
    }
}

fn digest_of(report: &PhaseReport) -> u64 {
    report.fleet_digest
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any (master seed, thread count) pair: the report digest only
    /// depends on the seed.
    #[test]
    fn report_digest_depends_on_seed_not_threads(
        master_seed in 0u64..1000,
        threads in 1usize..6,
    ) {
        let spec = SweepSpec {
            domain: SweepDomain::Grid {
                deltas: vec![2],
                fractions: vec![0.5, 1.5],
            },
            populations: vec![7],
            duration: Span::ticks(100),
            master_seed,
            ..SweepSpec::theorem1_default()
        };
        let reference = run_sweep(&spec, 1);
        let parallel = run_sweep(&spec, threads);
        prop_assert_eq!(digest_of(&reference), digest_of(&parallel));
        prop_assert_eq!(reference.json(), parallel.json());
    }
}
