//! Mobile swarm: wireless nodes drifting through a coverage zone.
//!
//! §2.1 of the paper motivates the join semantics with mobile nodes in a
//! wireless network: a node starts *listening* the moment it enters the
//! geographical zone and becomes active only when its join completes. This
//! example models a swarm with bursty arrivals/departures (vehicles
//! platooning through an intersection, after the burst churn of the
//! tractable-churn literature) and inspects the join pipeline itself:
//! how long joins take, how many in-flight joins get cut short by nodes
//! leaving the zone, and whether the register stays regular throughout.
//!
//! Run with: `cargo run --example mobile_swarm`

use dynareg::churn::LeaveSelector;
use dynareg::sim::Span;
use dynareg::testkit::table::Table;
use dynareg::testkit::{ChurnChoice, ScenarioSpec};
use dynareg::verify::OpKind;

fn main() {
    let n = 40;
    let delta = Span::ticks(3);

    println!("== mobile swarm: joins under bursty membership ==");
    println!("n = {n}, δ = {delta}; Poisson churn (bursty at fine grain), NewestFirst");
    println!("departures (nodes that just entered the zone are likeliest to drift out)\n");

    let mut table = Table::new([
        "seed",
        "arrivals",
        "joins done",
        "join cut short",
        "join lat p50/max",
        "safety",
    ]);
    for seed in 0..6 {
        let report = ScenarioSpec {
            churn: ChurnChoice::Poisson(0.04), // mean c·n = 1.6 refreshes/tick, bursty
            selector: LeaveSelector::NewestFirst,
            duration: Span::ticks(500),
            reads_per_tick: 1.5,
            seed,
            ..ScenarioSpec::synchronous(n, delta)
        }
        .run();

        // Joins cut short: the node left the zone before its join returned.
        let cut_short = report
            .history
            .ops()
            .iter()
            .filter(|op| {
                matches!(op.kind, OpKind::Join)
                    && !op.is_complete()
                    && report.history.left_at(op.node).is_some()
            })
            .count();
        let joins = &report.liveness.join_latency;
        table.row([
            seed.to_string(),
            (report.presence.total_arrivals() - n).to_string(),
            joins.count().to_string(),
            cut_short.to_string(),
            format!(
                "{}/{}",
                joins.median().unwrap_or(0),
                joins.max().unwrap_or(0)
            ),
            if report.safety.is_ok() {
                "OK".into()
            } else {
                format!("{} viol.", report.safety.violation_count())
            },
        ]);
        assert!(report.safety.is_ok(), "regularity must survive the swarm");
    }
    println!("{table}");
    println!(
        "Join latency is δ = {} when a write races the join (fast path) and 3δ = {}",
        delta.as_ticks(),
        3 * delta.as_ticks()
    );
    println!("otherwise (wait δ + inquiry round trip 2δ) — the two plateaus the");
    println!("protocol of Figure 1 predicts. Nodes that drift out mid-join are");
    println!("excused by the spec: liveness only covers processes that stay.");
}
