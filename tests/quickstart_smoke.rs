//! Smoke test for the facade's documented quickstart path: the
//! `ScenarioSpec { …, ..ScenarioSpec::synchronous(…) }.run()` example from `dynareg`'s crate docs
//! must succeed, and — because every stochastic choice flows through the
//! seeded [`dynareg::sim::DetRng`] — two runs with the same seed must be
//! bit-identical in every reported quantity.

use dynareg::sim::Span;
use dynareg::testkit::ScenarioSpec;

fn quickstart() -> dynareg::testkit::RunReport {
    // Keep in lockstep with the doc example in src/lib.rs.
    ScenarioSpec {
        duration: Span::ticks(400),
        seed: 1,
        ..ScenarioSpec::synchronous(20, Span::ticks(4)).churn_fraction_of_bound(0.5)
    }
    .run()
}

/// The crate-docs example holds: regular and live under half the bound.
#[test]
fn quickstart_report_is_clean() {
    let report = quickstart();
    assert!(report.safety.is_ok(), "{}", report.safety);
    assert_eq!(report.liveness.incomplete_stayer_count(), 0);
    assert!(
        report.total_reads_checked() > 0,
        "the workload issued reads"
    );
}

/// Same seed, same everything: the quickstart run replays identically.
#[test]
fn quickstart_is_deterministic_across_runs() {
    let (a, b) = (quickstart(), quickstart());
    assert_eq!(a.total_messages, b.total_messages);
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.total_reads_checked(), b.total_reads_checked());
    assert_eq!(a.safety.violation_count(), b.safety.violation_count());
    assert_eq!(a.liveness.completed, b.liveness.completed);
    assert_eq!(
        a.presence.total_arrivals(),
        b.presence.total_arrivals(),
        "churn schedule replays identically"
    );
    assert_eq!(a.summary(), b.summary());
}

/// And a different seed actually changes the run (the seed is not inert).
#[test]
fn quickstart_seed_matters() {
    let a = quickstart();
    let c = ScenarioSpec {
        duration: Span::ticks(400),
        seed: 2,
        ..ScenarioSpec::synchronous(20, Span::ticks(4)).churn_fraction_of_bound(0.5)
    }
    .run();
    assert_ne!(
        (a.total_messages, a.liveness.completed),
        (c.total_messages, c.liveness.completed),
        "different seeds should produce observably different runs"
    );
}
