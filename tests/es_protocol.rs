//! End-to-end tests of the eventually synchronous protocol (Figures 4–6,
//! Theorems 3 & 4).

use dynareg::sim::{Span, Time};
use dynareg::testkit::ScenarioSpec;

/// Theorems 3 + 4 with GST = 0 (synchronous from the start): safe and live.
#[test]
fn regular_and_live_when_synchronous_from_start() {
    for &n in &[9usize, 15, 21] {
        let report = ScenarioSpec {
            duration: Span::ticks(400),
            seed: n as u64,
            ..ScenarioSpec::eventually_synchronous(n, Span::ticks(3), Time::ZERO)
                .churn_fraction_of_bound(0.5)
        }
        .run();
        assert!(report.safety.is_ok(), "n={n}: {}", report.safety);
        assert!(report.liveness.is_ok(), "n={n}: {}", report.liveness);
    }
}

/// Theorem 4's essence: safety holds *regardless* of synchrony — even with
/// a late GST, no read is ever stale (operations may be slow, never wrong).
#[test]
fn safety_never_depends_on_gst() {
    for gst in [0u64, 100, 300] {
        let report = ScenarioSpec {
            duration: Span::ticks(700),
            drain: Some(Span::ticks(250)),
            seed: 2,
            ..ScenarioSpec::eventually_synchronous(15, Span::ticks(3), Time::at(gst))
                .churn_fraction_of_bound(0.5)
        }
        .run();
        assert!(report.safety.is_ok(), "gst={gst}: {}", report.safety);
    }
}

/// Theorem 3: operations invoked before GST terminate once the system
/// stabilizes (given a generous post-GST drain).
#[test]
fn liveness_resumes_after_gst() {
    let report = ScenarioSpec {
        duration: Span::ticks(700),
        drain: Some(Span::ticks(300)),
        seed: 4,
        ..ScenarioSpec::eventually_synchronous(15, Span::ticks(3), Time::at(200))
            .churn_fraction_of_bound(0.5)
    }
    .run();
    assert!(report.liveness.is_ok(), "{}", report.liveness);
    assert!(report.liveness.completed > 50);
}

/// Reads pay a quorum round-trip: strictly positive latency, READ and
/// REPLY messages on the wire (contrast with the synchronous protocol).
#[test]
fn reads_cost_a_quorum_round() {
    let report = ScenarioSpec {
        duration: Span::ticks(300),
        reads_per_tick: 1.0,
        seed: 5,
        ..ScenarioSpec::eventually_synchronous(11, Span::ticks(3), Time::ZERO)
    }
    .run();
    assert!(report.liveness.read_latency.min().unwrap() >= 1);
    let labels: Vec<&str> = report.messages.iter().map(|(l, _)| *l).collect();
    assert!(labels.contains(&"READ"));
    assert!(labels.contains(&"REPLY"));
    assert!(labels.contains(&"ACK"));
}

/// The DL_PREV mutual-help machinery exists on the wire whenever joins
/// overlap (Lemma 5's termination channel).
#[test]
fn dl_prev_flows_between_concurrent_joiners() {
    let report = ScenarioSpec {
        duration: Span::ticks(500),
        seed: 6,
        // More concurrent joins.
        ..ScenarioSpec::eventually_synchronous(15, Span::ticks(3), Time::ZERO)
            .churn_fraction_of_bound(1.0)
    }
    .run();
    let dl_prev = report
        .messages
        .iter()
        .find(|(l, _)| *l == "DL_PREV")
        .map(|(_, c)| *c)
        .unwrap_or(0);
    assert!(dl_prev > 0, "concurrent joins must exchange DL_PREV");
}

/// The write's phase-1 read (Figure 6 line 01) means every write costs two
/// quorum rounds: write latency is at least twice the read latency floor.
#[test]
fn writes_cost_two_quorum_rounds() {
    let report = ScenarioSpec {
        duration: Span::ticks(400),
        seed: 7,
        ..ScenarioSpec::eventually_synchronous(11, Span::ticks(3), Time::ZERO)
    }
    .run();
    let read_min = report.liveness.read_latency.min().unwrap();
    let write_min = report.liveness.write_latency.min().unwrap();
    assert!(
        write_min >= 2 * read_min,
        "write {write_min} should cost at least two rounds of {read_min}"
    );
}

/// The atomic extension eliminates new/old inversions entirely and makes
/// reads cost two rounds (ABD shape).
#[test]
fn atomic_extension_kills_inversions() {
    let atomic = ScenarioSpec {
        duration: Span::ticks(400),
        reads_per_tick: 3.0,
        write_every: Some(Span::ticks(4)),
        seed: 8,
        ..ScenarioSpec::es_atomic(9, Span::ticks(2), Time::ZERO)
    }
    .run();
    assert!(atomic.atomicity.is_ok(), "{}", atomic.atomicity);
    assert_eq!(atomic.total_inversions(), 0);
    assert!(
        atomic.messages.iter().any(|(l, _)| *l == "WRITE_BACK"),
        "write-backs must appear on the wire"
    );
}

/// The paper's §1 inversion figure is a real behaviour of regular
/// registers, not a theoretical curiosity: the synchronous protocol's
/// local reads invert readily while a write's broadcast wave is in flight
/// (two replicas see the WRITE at different instants). The same load on
/// the atomic ES variant has zero inversions — that is exactly the
/// regular/atomic gap.
#[test]
fn regular_registers_admit_inversions_where_atomic_does_not() {
    let mut sync_inversions = 0;
    for seed in 0..10 {
        let report = ScenarioSpec {
            duration: Span::ticks(300),
            reads_per_tick: 5.0,
            write_every: Some(Span::ticks(12)),
            seed,
            ..ScenarioSpec::synchronous(10, Span::ticks(6))
        }
        .run();
        // Regular semantics must still hold even when inversions occur.
        assert!(report.safety.is_ok(), "seed={seed}: {}", report.safety);
        sync_inversions += report.total_inversions();
    }
    assert!(
        sync_inversions > 0,
        "read-heavy synchronous load should exhibit inversions"
    );

    let mut atomic_inversions = 0;
    for seed in 0..5 {
        let report = ScenarioSpec {
            duration: Span::ticks(300),
            reads_per_tick: 5.0,
            write_every: Some(Span::ticks(12)),
            seed,
            ..ScenarioSpec::es_atomic(10, Span::ticks(6), Time::ZERO)
        }
        .run();
        atomic_inversions += report.total_inversions();
    }
    assert_eq!(
        atomic_inversions, 0,
        "the ABD write-back forbids inversions"
    );
}

/// Deterministic reproduction for the ES protocol too.
#[test]
fn es_same_seed_same_run() {
    let run = |seed| {
        ScenarioSpec {
            duration: Span::ticks(400),
            seed,
            ..ScenarioSpec::eventually_synchronous(11, Span::ticks(3), Time::at(50))
                .churn_fraction_of_bound(0.5)
        }
        .run()
    };
    let (a, b) = (run(12), run(12));
    assert_eq!(a.total_messages, b.total_messages);
    assert_eq!(a.messages, b.messages);
}
