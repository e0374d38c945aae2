//! Quickstart: a regular register surviving constant churn.
//!
//! Builds the paper's synchronous system (n processes, delay bound δ,
//! constant churn at half the proven threshold `1/(3δ)`), runs a steady
//! read/write workload, and checks the two properties of §2.2:
//! Safety (regularity) and Liveness.
//!
//! Run with: `cargo run --example quickstart`

use dynareg::sim::Span;
use dynareg::testkit::ScenarioSpec;

fn main() {
    let n = 50;
    let delta = Span::ticks(5);

    println!("== dynareg quickstart ==");
    println!("system: n = {n}, δ = {delta}, churn c = ½ · 1/(3δ)");
    println!();

    let report = ScenarioSpec {
        duration: Span::ticks(600),
        reads_per_tick: 2.0,
        seed: 2009, // ICDCS 2009 — any seed reproduces its exact run
        // c = 0.5 · 1/(3δ): inside Theorem 1
        ..ScenarioSpec::synchronous(n, delta).churn_fraction_of_bound(0.5)
    }
    .run();

    println!(
        "churn: {} processes joined, {} left, population constant",
        report.presence.total_arrivals() - n,
        report.presence.total_departures()
    );
    println!(
        "operations: {} reads checked, {} messages sent",
        report.total_reads_checked(),
        report.total_messages
    );
    println!();
    println!(
        "safety   (read returns last or concurrent write): {}",
        report.safety
    );
    println!("{}", report.liveness);
    println!();
    println!("read latency is zero — the synchronous protocol's whole point is");
    println!("purely local reads; joins and writes pay the δ waits instead.");

    assert!(
        report.safety.is_ok(),
        "regularity must hold under the churn bound"
    );
    assert!(
        report.liveness.is_ok(),
        "every operation by a staying process returns"
    );
    println!("\nOK — the register is regular and live under churn.");
}
