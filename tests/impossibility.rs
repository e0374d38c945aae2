//! Theorem 2: no protocol implements a regular register in a *fully
//! asynchronous* dynamic system.
//!
//! An impossibility theorem cannot be "run", but its two constructive
//! faces can: any protocol must either trust time (and lose safety when
//! delays exceed whatever it assumed) or wait for evidence (and lose
//! liveness when evidence never arrives). We exercise both protocols of
//! the paper under unbounded delays and watch each fail on its own side.

use dynareg::sim::{Span, Time};
use dynareg::testkit::ScenarioSpec;

/// Safety face: the synchronous protocol configured for bound `δ̂` but run
/// over heavy-tailed delays (up to 8·δ̂) serves stale or ⊥ values — its
/// waits expire before the traffic arrives.
#[test]
fn timeout_protocol_loses_safety_under_async_delays() {
    let mut total_violations = 0;
    for seed in 0..10 {
        let report = ScenarioSpec {
            duration: Span::ticks(400),
            reads_per_tick: 2.0,
            seed,
            ..ScenarioSpec::synchronous_over_async(15, Span::ticks(3), 8)
                .churn_fraction_of_bound(0.8)
        }
        .run();
        total_violations += report.safety.violation_count();
    }
    assert!(
        total_violations > 0,
        "heavy-tailed delays must produce stale/⊥ reads across 10 seeds"
    );
}

/// The same protocol on the same parameters but a *synchronous* network is
/// clean — pinpointing asynchrony (not churn, not load) as the killer.
#[test]
fn control_run_on_synchronous_network_is_clean() {
    for seed in 0..10 {
        let report = ScenarioSpec {
            duration: Span::ticks(400),
            reads_per_tick: 2.0,
            seed,
            ..ScenarioSpec::synchronous(15, Span::ticks(3)).churn_fraction_of_bound(0.8)
        }
        .run();
        assert!(report.safety.is_ok(), "seed={seed}: {}", report.safety);
    }
}

/// Liveness face: the quorum protocol never lies, but an asynchronous
/// adversary may starve one process's incoming traffic indefinitely —
/// legal when no delay bound exists — and that process's operations then
/// never return although it stays in the system.
#[test]
fn quorum_protocol_loses_liveness_under_async_starvation() {
    use dynareg::net::{DelayFault, FaultPlan};
    use dynareg::sim::NodeId;

    let victim = NodeId::from_raw(0); // churn-protected: stays forever
    let report = ScenarioSpec {
        duration: Span::ticks(600),
        drain: Some(Span::ticks(200)),
        faults: Some(FaultPlan::none().with(DelayFault::starve_recipient(
            victim,
            Time::ZERO,
            Time::MAX,
            Span::ticks(1_000_000),
        ))),
        seed: 3,
        ..ScenarioSpec::es_over_async(15, Span::ticks(3), 10).churn_fraction_of_bound(1.0)
    }
    .run();
    // Safety still holds — quorums cannot be wrong, only late…
    assert!(report.safety.is_ok(), "{}", report.safety);
    // …but the starved victim's operation never completes.
    assert!(
        !report.liveness.is_ok(),
        "expected stuck operations, got {}",
        report.liveness
    );
    assert!(report
        .liveness
        .stuck_ops
        .iter()
        .all(|&op| report.history.get(op).unwrap().node == victim));
}

/// Without the worst-case adversary, stochastic asynchrony alone does not
/// starve the quorums — Lemma 5's mutual-help keeps joins and reads
/// terminating (slowly). The impossibility needs the adversary.
#[test]
fn stochastic_asynchrony_alone_is_survivable() {
    let report = ScenarioSpec {
        duration: Span::ticks(600),
        drain: Some(Span::ticks(200)),
        seed: 3,
        ..ScenarioSpec::es_over_async(15, Span::ticks(3), 10).churn_fraction_of_bound(1.0)
    }
    .run();
    assert!(report.safety.is_ok(), "{}", report.safety);
    assert!(report.liveness.is_ok(), "{}", report.liveness);
}

/// The ES protocol's control run: same churn, synchronous network ⇒ live.
#[test]
fn quorum_control_run_is_live() {
    let report = ScenarioSpec {
        duration: Span::ticks(500),
        reads_per_tick: 1.0,
        seed: 3,
        ..ScenarioSpec::eventually_synchronous(15, Span::ticks(3), Time::ZERO)
            .churn_fraction_of_bound(0.5)
    }
    .run();
    assert!(report.liveness.is_ok(), "{}", report.liveness);
}

/// The asymmetry the theorem's proof leans on: stretching the assumed
/// bound helps but can never suffice — for any configured δ̂ there is a
/// delay distribution that defeats it. (We show monotonicity, not a
/// proof: the bigger the tail cap relative to δ̂, the more violations.)
#[test]
fn no_finite_bound_is_enough() {
    let violations_at = |cap: u64| -> usize {
        (0..8)
            .map(|seed| {
                ScenarioSpec {
                    duration: Span::ticks(400),
                    reads_per_tick: 2.0,
                    seed,
                    ..ScenarioSpec::synchronous_over_async(15, Span::ticks(3), cap)
                        .churn_fraction_of_bound(0.8)
                }
                .run()
                .safety
                .violation_count()
            })
            .sum()
    };
    let mild = violations_at(2);
    let wild = violations_at(16);
    assert!(
        wild > mild,
        "fatter tails must hurt more (mild={mild}, wild={wild})"
    );
}
