//! End-to-end tests of the synchronous protocol (Figures 1–2, Theorem 1).

use dynareg::churn::LeaveSelector;
use dynareg::sim::Span;
use dynareg::testkit::{NetClass, ScenarioSpec};

/// Theorem 1: under `c ≤ 1/(3δ)` the protocol implements a regular
/// register — across deltas, sizes and seeds.
#[test]
fn regular_and_live_under_the_bound() {
    for &(n, delta) in &[(10usize, 2u64), (25, 4), (40, 6)] {
        for seed in 0..3 {
            let report = ScenarioSpec {
                duration: Span::ticks(300),
                reads_per_tick: 1.5,
                seed,
                ..ScenarioSpec::synchronous(n, Span::ticks(delta)).churn_fraction_of_bound(0.5)
            }
            .run();
            assert!(
                report.safety.is_ok(),
                "n={n} δ={delta} seed={seed}: {}",
                report.safety
            );
            assert!(
                report.liveness.is_ok(),
                "n={n} δ={delta} seed={seed}: {}",
                report.liveness
            );
        }
    }
}

/// §3.3's design goal: reads are purely local — zero latency, and the READ
/// label never appears on the wire.
#[test]
fn reads_are_free() {
    let report = ScenarioSpec {
        duration: Span::ticks(300),
        reads_per_tick: 3.0,
        seed: 7,
        ..ScenarioSpec::synchronous(20, Span::ticks(4)).churn_fraction_of_bound(0.5)
    }
    .run();
    assert!(report.total_reads_checked() > 100);
    assert_eq!(report.liveness.read_latency.max(), Some(0));
    assert!(report.messages.iter().all(|(label, _)| *label != "READ"));
}

/// Write latency is exactly δ (Figure 2 line 02's `wait(δ)`), and join
/// latency is δ (fast path: a WRITE arrived during the initial wait) or 3δ
/// (inquiry path) — nothing else.
#[test]
fn operation_latencies_match_figure_1_and_2() {
    let delta = 5u64;
    let report = ScenarioSpec {
        duration: Span::ticks(400),
        seed: 3,
        ..ScenarioSpec::synchronous(20, Span::ticks(delta)).churn_fraction_of_bound(0.5)
    }
    .run();
    let w = &report.liveness.write_latency;
    assert_eq!((w.min(), w.max()), (Some(delta), Some(delta)));
    let joins = &report.liveness.join_latency;
    assert!(joins.count() > 10, "churn produced joins");
    assert_eq!(joins.min(), Some(delta), "fast path takes exactly δ");
    assert_eq!(
        joins.max(),
        Some(3 * delta),
        "inquiry path takes exactly 3δ"
    );
    // Either plateau is allowed, nothing in between except the two values.
    for q in [0.1, 0.5, 0.9] {
        let v = joins.quantile(q).unwrap();
        assert!(
            v == delta || v == 3 * delta,
            "join latency {v} is neither δ nor 3δ"
        );
    }
}

/// Churn keeps the population constant (the paper's model) while turning
/// over a substantial fraction of it.
#[test]
fn population_is_constant_with_real_turnover() {
    let n = 24;
    let report = ScenarioSpec {
        duration: Span::ticks(500),
        seed: 5,
        ..ScenarioSpec::synchronous(n, Span::ticks(3)).churn_fraction_of_bound(0.8)
    }
    .run();
    let present = report.metrics.histogram("gauge.present").unwrap();
    assert_eq!(present.min(), Some(n as u64));
    assert_eq!(present.max(), Some(n as u64));
    assert!(
        report.presence.total_departures() > n,
        "the initial population churned through at least once"
    );
}

/// Adversarial victim selection below the bound is still safe (Theorem 1
/// holds for any adversary within the churn constraint).
#[test]
fn adversarial_selectors_below_bound_are_safe() {
    for selector in [
        LeaveSelector::OldestFirst,
        LeaveSelector::NewestFirst,
        LeaveSelector::ActiveFirst,
    ] {
        let report = ScenarioSpec {
            net: NetClass::SynchronousWorstCase,
            migrating_writer: true,
            writer_churns: true,
            selector,
            duration: Span::ticks(400),
            seed: 11,
            ..ScenarioSpec::synchronous(20, Span::ticks(4)).churn_fraction_of_bound(0.75)
        }
        .run();
        assert!(
            report.safety.is_ok(),
            "selector {selector:?}: {}",
            report.safety
        );
    }
}

/// Beyond the bound under the worst-case adversary, the active population
/// collapses (Lemma 2's floor hits zero): the failure is availability, and
/// the join pipeline swallows the system.
#[test]
fn beyond_bound_availability_collapses() {
    let below = ScenarioSpec {
        net: NetClass::SynchronousWorstCase,
        migrating_writer: true,
        writer_churns: true,
        selector: LeaveSelector::ActiveFirst,
        duration: Span::ticks(400),
        seed: 1,
        ..ScenarioSpec::synchronous(30, Span::ticks(4)).churn_fraction_of_bound(0.5)
    }
    .run();
    let above = ScenarioSpec {
        net: NetClass::SynchronousWorstCase,
        migrating_writer: true,
        writer_churns: true,
        selector: LeaveSelector::ActiveFirst,
        duration: Span::ticks(400),
        seed: 1,
        ..ScenarioSpec::synchronous(30, Span::ticks(4)).churn_fraction_of_bound(2.0)
    }
    .run();
    let mean = |r: &dynareg::testkit::RunReport| {
        r.metrics.histogram("gauge.active").unwrap().mean().unwrap()
    };
    assert!(mean(&below) > 10.0, "below bound the active set is healthy");
    assert!(mean(&above) < 5.0, "above bound it collapses");
    assert_eq!(
        above.metrics.histogram("gauge.active").unwrap().min(),
        Some(0),
        "the active set empties entirely"
    );
    assert!(above.total_reads_checked() < below.total_reads_checked() / 5);
}

/// Determinism across the whole stack: same scenario + seed ⇒ identical
/// message counts, identical verdicts, identical latencies.
#[test]
fn same_seed_same_everything() {
    let run = |seed| {
        ScenarioSpec {
            duration: Span::ticks(250),
            seed,
            ..ScenarioSpec::synchronous(15, Span::ticks(3)).churn_fraction_of_bound(0.6)
        }
        .run()
    };
    let (a, b) = (run(99), run(99));
    assert_eq!(a.total_messages, b.total_messages);
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.total_reads_checked(), b.total_reads_checked());
    assert_eq!(
        a.liveness.join_latency.mean(),
        b.liveness.join_latency.mean()
    );
    let c = run(100);
    assert_ne!(
        a.total_messages, c.total_messages,
        "different seed, different run"
    );
}
