//! Lemma 2: under constant churn `c`, every window of length `3δ` retains
//! at least `n(1 − 3δc)` processes active throughout — and that quantity is
//! positive exactly when `c ≤ 1/(3δ)` (up to integer effects).

use dynareg::churn::{analysis, LeaveSelector};
use dynareg::sim::{Span, Time};
use dynareg::testkit::{NetClass, ScenarioSpec};

fn measured_window_min(
    c_fraction: f64,
    selector: LeaveSelector,
    n: usize,
    delta: u64,
    seed: u64,
) -> (usize, f64) {
    let delta = Span::ticks(delta);
    let report = ScenarioSpec {
        net: NetClass::SynchronousWorstCase,
        migrating_writer: true,
        writer_churns: true,
        selector,
        duration: Span::ticks(400),
        seed,
        ..ScenarioSpec::synchronous(n, delta).churn_fraction_of_bound(c_fraction)
    }
    .run();
    let window = delta.times(3);
    // Skip the warmup (bootstrap is all-active) and the drain (churn quiet):
    // measure the steady interval.
    let min =
        analysis::window_active_minimum(&report.presence, Time::at(50), Time::at(300), window)
            .expect("interval long enough");
    let bound = analysis::lemma2_steady_bound(n, delta, report.churn_rate);
    (min, bound)
}

/// The *pipeline-corrected* floor `n(1−6δc)` holds for every selector,
/// across churn levels. (The paper's `n(1−3δc)` assumes all `n` processes
/// are active at window start — exact at τ = 0, optimistic in steady
/// state; see `docs/REPRODUCTION.md#e4`.)
#[test]
fn measured_minimum_dominates_the_steady_bound() {
    for selector in [
        LeaveSelector::Random,
        LeaveSelector::OldestFirst,
        LeaveSelector::ActiveFirst,
    ] {
        for fraction in [0.25, 0.5, 0.75, 1.0] {
            for seed in 0..3 {
                let (min, bound) = measured_window_min(fraction, selector, 30, 4, seed);
                assert!(
                    min as f64 >= bound.floor(),
                    "{selector:?} f={fraction} seed={seed}: measured {min} < bound {bound:.2}"
                );
            }
        }
    }
}

/// The paper's original bound *is* exact at τ = 0, where the whole
/// population is active: the window starting at the origin satisfies
/// `|A(0, 3δ)| ≥ n(1−3δc)`.
#[test]
fn paper_bound_holds_at_the_origin() {
    for fraction in [0.25, 0.5, 0.75] {
        for seed in 0..3 {
            let delta = Span::ticks(4);
            let report = ScenarioSpec {
                net: NetClass::SynchronousWorstCase,
                migrating_writer: true,
                writer_churns: true,
                selector: LeaveSelector::ActiveFirst,
                duration: Span::ticks(100),
                seed,
                ..ScenarioSpec::synchronous(30, delta).churn_fraction_of_bound(fraction)
            }
            .run();
            let at_origin = report
                .presence
                .active_count_throughout(Time::ZERO, Time::ZERO + delta.times(3));
            let bound = analysis::lemma2_bound(30, delta, report.churn_rate);
            assert!(
                at_origin as f64 >= bound.floor(),
                "f={fraction} seed={seed}: |A(0,3δ)| = {at_origin} < {bound:.2}"
            );
        }
    }
}

/// The corrected bound is *tight* under the adversarial selector: the
/// measured minimum hugs the floor, while random churn sits well above it.
#[test]
fn adversarial_selector_approaches_the_floor() {
    let (adversarial, bound) = measured_window_min(0.5, LeaveSelector::ActiveFirst, 30, 4, 1);
    let (random, _) = measured_window_min(0.5, LeaveSelector::Random, 30, 4, 1);
    assert!(
        (adversarial as f64) <= bound + 6.0,
        "adversarial minimum {adversarial} should hug the floor {bound:.1}"
    );
    assert!(
        random >= adversarial,
        "random churn ({random}) is no worse than the adversary ({adversarial})"
    );
}

/// At `c` above the threshold the floor is vacuous (zero) and the
/// adversary can indeed empty every window.
#[test]
fn beyond_threshold_windows_can_empty() {
    let (min, bound) = measured_window_min(2.0, LeaveSelector::ActiveFirst, 30, 4, 1);
    assert_eq!(bound, 0.0);
    assert_eq!(min, 0, "the adversary empties some 3δ window entirely");
}

/// The threshold formulas match the paper's expressions.
#[test]
fn threshold_formulas() {
    assert!((analysis::sync_churn_threshold(Span::ticks(4)) - 1.0 / 12.0).abs() < 1e-12);
    assert!((analysis::es_churn_threshold(Span::ticks(4), 30) - 1.0 / 360.0).abs() < 1e-12);
    // And the bound interpolates linearly in c.
    let half = analysis::lemma2_bound(30, Span::ticks(4), 0.5 / 12.0);
    assert!((half - 15.0).abs() < 1e-9);
}

/// Realized churn matches nominal churn (the constant-rate driver is
/// exact, fractional accumulation included).
#[test]
fn realized_churn_matches_nominal() {
    let report = ScenarioSpec {
        duration: Span::ticks(400),
        seed: 9,
        ..ScenarioSpec::synchronous(30, Span::ticks(4)).churn_fraction_of_bound(0.7)
    }
    .run();
    let realized = analysis::realized_churn_rate(&report.presence, 30, Time::at(1), Time::at(300));
    let nominal = report.churn_rate;
    assert!(
        (realized - nominal).abs() / nominal < 0.05,
        "realized {realized:.5} vs nominal {nominal:.5}"
    );
}
