//! Digest-level chaos guarantees.
//!
//! Two invariants the chaos layer promises:
//!
//! 1. **Zero cost when unused** — a chaos-free scenario *file* replays
//!    digest-identical to the equivalent programmatic [`ScenarioSpec`];
//!    the fault machinery must not perturb the event stream merely by
//!    existing.
//! 2. **Order independence** — the *insertion order* of additive delay
//!    rules, drop rules, and partitions in a [`FaultPlan`] never changes
//!    the run's event-stream digest. Partitions and drops each consume
//!    randomness in an order-independent way (one coin per message,
//!    commutative survival product), and `AddDelay` contributions are
//!    summed, so any permutation of the same rules is the same plan.

use dynareg_fleet::run_digest;
use dynareg_net::{DelayFault, DropRule, FaultAction, FaultPlan, NodeSet, Partition};
use dynareg_sim::{DetRng, NodeId, Span, Time};
use dynareg_testkit::{parse_scenario, ChurnChoice, ScenarioSpec};
use proptest::prelude::*;

#[test]
fn chaos_free_scenario_file_matches_programmatic_spec() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/paper_baseline.dyn"
    );
    let text = std::fs::read_to_string(path).expect("paper_baseline.dyn is committed");
    let from_file = parse_scenario(&text).expect("baseline corpus file parses");
    let programmatic = ScenarioSpec {
        churn: ChurnChoice::Constant(0.02),
        duration: Span::ticks(400),
        seed: 12,
        ..ScenarioSpec::synchronous(20, Span::ticks(3))
    };
    assert_eq!(
        from_file, programmatic,
        "the baseline corpus file must pin the paper's programmatic spec"
    );
    let file_report = from_file.run();
    let prog_report = programmatic.run();
    assert_eq!(file_report.fault_drops, 0, "the control run is chaos-free");
    assert_eq!(
        run_digest(&file_report),
        run_digest(&prog_report),
        "a chaos-free scenario file must replay digest-identical to its programmatic twin"
    );
}

/// One randomized plan: overlapping additive delays, overlapping drop
/// rules, and overlapping partitions, all inside the run's lifetime so
/// each category actually fires.
fn arb_rules(rng: &mut DetRng) -> (Vec<DelayFault>, Vec<DropRule>, Vec<Partition>) {
    let window = |rng: &mut DetRng| {
        let from = rng.pick(100);
        let until = from + 20 + rng.pick(60);
        (Time::at(from), Time::at(until))
    };
    let node = |rng: &mut DetRng| rng.chance(0.5).then(|| NodeId::from_raw(rng.pick(10)));
    let delays = (0..2 + rng.pick(3))
        .map(|_| {
            let (from_time, until_time) = window(rng);
            DelayFault {
                from: node(rng),
                to: node(rng),
                from_time,
                until_time,
                action: FaultAction::AddDelay(Span::ticks(1 + rng.pick(4))),
            }
        })
        .collect();
    let drops = (0..2 + rng.pick(3))
        .map(|_| {
            let (from_time, until_time) = window(rng);
            DropRule {
                from: node(rng),
                to: node(rng),
                from_time,
                until_time,
                probability: 0.05 + rng.unit() * 0.2,
            }
        })
        .collect();
    let partitions = (0..1 + rng.pick(2))
        .map(|_| {
            let (from_time, until_time) = window(rng);
            Partition::new(
                NodeSet::Modulo {
                    modulo: 2 + rng.pick(3),
                    residue: 0,
                },
                from_time,
                until_time,
            )
        })
        .collect();
    (delays, drops, partitions)
}

fn plan_from(delays: &[DelayFault], drops: &[DropRule], partitions: &[Partition]) -> FaultPlan {
    let mut plan = FaultPlan::default();
    for d in delays {
        plan.push(*d);
    }
    for d in drops {
        plan.push_drop(d.clone());
    }
    for p in partitions {
        plan.push_partition(p.clone());
    }
    plan
}

fn digest_with(plan: FaultPlan, seed: u64) -> u64 {
    let report = ScenarioSpec {
        churn: ChurnChoice::Constant(0.01),
        duration: Span::ticks(150),
        seed,
        faults: Some(plan),
        ..ScenarioSpec::synchronous(10, Span::ticks(3))
    }
    .run();
    run_digest(&report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Shuffling the insertion order of every rule category yields the
    /// exact same event stream.
    #[test]
    fn rule_order_never_changes_the_run_digest(seed in 0u64..1_000_000) {
        let mut rng = DetRng::seed(seed ^ 0xC4A0_5000);
        let (mut delays, mut drops, mut partitions) = arb_rules(&mut rng);
        let baseline = digest_with(plan_from(&delays, &drops, &partitions), seed);

        let mut shuffler = rng.fork(0x5F);
        shuffler.shuffle(&mut delays);
        shuffler.shuffle(&mut drops);
        shuffler.shuffle(&mut partitions);
        let shuffled = digest_with(plan_from(&delays, &drops, &partitions), seed);

        prop_assert_eq!(
            baseline, shuffled,
            "permuting fault-rule insertion order changed the event stream"
        );
    }
}
