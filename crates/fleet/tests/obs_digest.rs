//! The observability layer's zero-cost contract, at digest level.
//!
//! `ObsConfig::off()` is the default every `run()` uses; turning the full
//! layer on — spans, per-message fate log, flight-recorder ring, per-tick
//! timeseries, tick profiler — must not perturb the event stream by one
//! bit. The hooks never consume simulation randomness and never reorder
//! events, so the fleet digest (history ops + message/churn/verdict
//! totals) is the proof: identical with observability absent and with it
//! fully on, across protocols, churn, and fault chaos.

use dynareg_fleet::run_digest;
use dynareg_net::{DelayFault, DropRule, FaultAction, FaultPlan, NodeSet, Partition};
use dynareg_sim::obs::ObsConfig;
use dynareg_sim::{DetRng, NodeId, Span, Time};
use dynareg_testkit::{ChurnChoice, ScenarioSpec};
use proptest::prelude::*;

/// One randomized chaos plan (same shape as `chaos_digest.rs`): additive
/// delays, probabilistic drops, and modulo partitions inside the run's
/// lifetime so every fault path the obs layer instruments actually fires.
fn arb_plan(rng: &mut DetRng) -> FaultPlan {
    let window = |rng: &mut DetRng| {
        let from = rng.pick(100);
        let until = from + 20 + rng.pick(60);
        (Time::at(from), Time::at(until))
    };
    let node = |rng: &mut DetRng| rng.chance(0.5).then(|| NodeId::from_raw(rng.pick(10)));
    let mut plan = FaultPlan::default();
    for _ in 0..2 + rng.pick(3) {
        let (from_time, until_time) = window(rng);
        plan.push(DelayFault {
            from: node(rng),
            to: node(rng),
            from_time,
            until_time,
            action: FaultAction::AddDelay(Span::ticks(1 + rng.pick(4))),
        });
    }
    for _ in 0..2 + rng.pick(3) {
        let (from_time, until_time) = window(rng);
        plan.push_drop(DropRule {
            from: node(rng),
            to: node(rng),
            from_time,
            until_time,
            probability: 0.05 + rng.unit() * 0.2,
        });
    }
    for _ in 0..1 + rng.pick(2) {
        let (from_time, until_time) = window(rng);
        plan.push_partition(Partition::new(
            NodeSet::Modulo {
                modulo: 2 + rng.pick(3),
                residue: 0,
            },
            from_time,
            until_time,
        ));
    }
    plan
}

/// The scenario under test: protocol family and churn chosen by the
/// seed so the property covers synchronous, eventually-synchronous, and
/// the ES atomic variant, quiet and churning.
fn scenario(seed: u64, faults: FaultPlan) -> ScenarioSpec {
    let base = match seed % 3 {
        0 => ScenarioSpec::synchronous(10, Span::ticks(3)),
        1 => ScenarioSpec::eventually_synchronous(10, Span::ticks(3), Time::at(40)),
        _ => ScenarioSpec::es_atomic(10, Span::ticks(3), Time::at(40)),
    };
    ScenarioSpec {
        churn: if seed.is_multiple_of(2) {
            ChurnChoice::Constant(0.01)
        } else {
            ChurnChoice::None
        },
        duration: Span::ticks(150),
        seed,
        faults: Some(faults),
        ..base
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `run()` (obs absent) and `run_observed(ObsConfig::full())` (every
    /// obs feature on) produce the same event-stream digest under chaos.
    #[test]
    fn full_observability_never_changes_the_run_digest(seed in 0u64..1_000_000) {
        let mut rng = DetRng::seed(seed ^ 0x0B5E_0000);

        let spec = scenario(seed, arb_plan(&mut rng));
        let plain = spec.run();
        let observed = spec.run_observed(ObsConfig::full());

        prop_assert!(observed.obs.is_some(), "observed run carries its report");
        prop_assert_eq!(
            run_digest(&plain),
            run_digest(&observed),
            "turning the observability layer fully on changed the event stream"
        );
    }
}
