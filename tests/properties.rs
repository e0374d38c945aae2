//! Cross-crate property-based tests (proptest): invariants that must hold
//! for *any* parameters within the paper's assumptions, not just the
//! hand-picked ones.

use dynareg::churn::LeaveSelector;
use dynareg::sim::{NodeId, OpId, Span, Time};
use dynareg::testkit::{ChurnChoice, ScenarioSpec};
use dynareg::verify::{History, RegularityChecker, SafeChecker};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 1 as a property: any (n, δ, c ≤ ½·bound, seed) synchronous
    /// run is regular and live.
    #[test]
    fn sync_protocol_is_regular_for_any_params(
        n in 5usize..30,
        delta in 2u64..8,
        frac in 0.1f64..0.8,
        seed in 0u64..1_000_000,
    ) {
        let report = ScenarioSpec {
            duration: Span::ticks(200),
            seed,
            ..ScenarioSpec::synchronous(n, Span::ticks(delta)).churn_fraction_of_bound(frac)
        }
        .run();
        prop_assert!(report.safety.is_ok(), "{}", report.safety);
        prop_assert!(report.liveness.is_ok(), "{}", report.liveness);
    }

    /// Theorem 4 as a property: the ES protocol is *safe* regardless of
    /// GST (liveness needs the drain to outlast GST, so only safety is
    /// asserted here).
    #[test]
    fn es_protocol_is_safe_for_any_gst(
        n in 5usize..16,
        gst in 0u64..300,
        seed in 0u64..1_000_000,
    ) {
        let base = ScenarioSpec::eventually_synchronous(n, Span::ticks(3), Time::at(gst));
        let report = ScenarioSpec {
            duration: Span::ticks(350),
            seed,
            ..base.churn_fraction_of_bound(0.5)
        }
        .run();
        prop_assert!(report.safety.is_ok(), "{}", report.safety);
    }

    /// Population invariance: the paper's churn model keeps |present| = n
    /// at every tick, for any rate and selector.
    #[test]
    fn population_is_invariant_under_any_churn(
        n in 5usize..40,
        c in 0.0f64..0.2,
        sel in prop::sample::select(vec![
            LeaveSelector::Random,
            LeaveSelector::OldestFirst,
            LeaveSelector::NewestFirst,
            LeaveSelector::ActiveFirst,
        ]),
        seed in 0u64..1_000_000,
    ) {
        let report = ScenarioSpec {
            churn: ChurnChoice::Constant(c),
            selector: sel,
            duration: Span::ticks(150),
            seed,
            ..ScenarioSpec::synchronous(n, Span::ticks(3))
        }
        .run();
        let gauge = report.metrics.histogram("gauge.present").unwrap();
        prop_assert_eq!(gauge.min(), Some(n as u64));
        prop_assert_eq!(gauge.max(), Some(n as u64));
    }

    /// Determinism as a property: any scenario replayed with its own seed
    /// yields the identical message trace footprint.
    #[test]
    fn any_run_is_reproducible(
        n in 5usize..20,
        frac in 0.0f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        let go = || ScenarioSpec {
            duration: Span::ticks(120),
            seed,
            ..ScenarioSpec::synchronous(n, Span::ticks(3)).churn_fraction_of_bound(frac)
        }
        .run();
        let (a, b) = (go(), go());
        prop_assert_eq!(a.total_messages, b.total_messages);
        prop_assert_eq!(a.messages, b.messages);
        prop_assert_eq!(a.safety.violation_count(), b.safety.violation_count());
    }

    /// Checker soundness: histories generated by a *sequential* register
    /// oracle (every read returns the last completed write, operations
    /// non-overlapping) always satisfy safe, regular and atomic semantics.
    #[test]
    fn sequential_histories_pass_all_checkers(
        ops in prop::collection::vec(0u8..3, 1..60),
    ) {
        let mut h: History<u64> = History::new(0);
        let mut t = 1u64;
        let mut value = 0u64;
        let mut next = 1u64;
        for op in ops {
            match op {
                0 => {
                    let w = h.invoke_write(NodeId::from_raw(0), Time::at(t), next);
                    h.complete_write(w, Time::at(t + 1));
                    value = next;
                    next += 1;
                }
                _ => {
                    let r = h.invoke_read(NodeId::from_raw(u64::from(op)), Time::at(t));
                    h.complete_read(r, Time::at(t + 1), value);
                }
            }
            t += 2;
        }
        prop_assert!(SafeChecker::check(&h).is_ok());
        prop_assert!(RegularityChecker::check(&h).is_ok());
        prop_assert!(dynareg::verify::AtomicityChecker::check(&h).is_ok());
    }

    /// Checker completeness: mutate one read of a sequential history to a
    /// strictly older (non-concurrent) value and the regularity checker
    /// must flag it.
    #[test]
    fn stale_mutations_are_always_caught(
        writes in 2usize..10,
        seed in 0u64..1000,
    ) {
        let mut h: History<u64> = History::new(0);
        let mut t = 1u64;
        for v in 1..=writes as u64 {
            let w = h.invoke_write(NodeId::from_raw(0), Time::at(t), v * 10);
            h.complete_write(w, Time::at(t + 1));
            t += 3;
        }
        // A read after all writes, returning a value `k` writes old.
        let stale_index = seed as usize % (writes - 1); // any but the last
        let stale_value = (stale_index as u64 + 1) * 10;
        let r = h.invoke_read(NodeId::from_raw(1), Time::at(t));
        h.complete_read(r, Time::at(t + 1), stale_value);
        let report = RegularityChecker::check(&h);
        prop_assert_eq!(report.violation_count(), 1);
    }
}

/// Non-proptest sanity: OpId/NodeId generated in worlds never collide with
/// scripted-arrival ids (documented contract of `World::schedule_join`).
#[test]
fn scripted_arrival_ids_are_distinct_from_churn_ids() {
    let report = ScenarioSpec {
        duration: Span::ticks(500),
        seed: 0,
        ..ScenarioSpec::synchronous(20, Span::ticks(3)).churn_fraction_of_bound(1.0)
    }
    .run();
    // Churn arrivals stay far below the 1_000_000 scripted-id base.
    let max_id = report
        .presence
        .records()
        .map(|(id, _)| id.as_raw())
        .max()
        .unwrap();
    assert!(max_id < 1_000_000);
    let _ = OpId::from_raw(0); // silence unused-import lint paths
}
