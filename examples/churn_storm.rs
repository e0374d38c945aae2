//! Churn storm: a P2P-style membership stress test.
//!
//! The paper's motivation (§1) is P2P-like systems whose membership is
//! "self-defined at run time". This example pushes the synchronous protocol
//! through increasingly violent churn — across and beyond the Theorem 1
//! threshold `c* = 1/(3δ)` — under worst-case message delays (every message
//! takes exactly δ, the adversary the paper's bounds are computed against)
//! with no immortal writer.
//!
//! What failing looks like here is instructive: beyond the bound the
//! register does not first serve stale values — it *disappears*. The join
//! pipeline is `3δ` ticks long, so at churn `c` it permanently holds
//! `3δ·c·n` processes; at `c = c*` that is the whole population and the
//! active set `|A(τ)| ≈ n(1 − 3δc)` (Lemma 2) hits zero: nobody is left to
//! answer inquiries or accept reads. Stale reads additionally require the
//! Figure 3 race (ledger row E3, `docs/REPRODUCTION.md`).
//!
//! Run with: `cargo run --example churn_storm`

use dynareg::churn::LeaveSelector;
use dynareg::sim::Span;
use dynareg::testkit::experiment::run_seeds;
use dynareg::testkit::table::{fnum, Table};
use dynareg::testkit::Scenario;

fn main() {
    let n = 30;
    let delta = Span::ticks(4);
    let threshold = 1.0 / (3.0 * delta.as_ticks() as f64);

    println!("== churn storm: availability vs churn intensity ==");
    println!("n = {n}, δ = {delta}, worst-case delays, migrating writer");
    println!("Theorem 1 threshold c* = 1/(3δ) = {threshold:.4}; 6 seeds per row\n");

    let mut table = Table::new([
        "c / c*",
        "Lemma2 n(1-3δc)",
        "mean |A|",
        "min |A|",
        "joins done",
        "reads done",
        "safety",
    ]);
    for fraction in [0.25, 0.5, 0.75, 1.0, 1.5, 2.0] {
        let reports = run_seeds(0..6, |seed| {
            Scenario::synchronous(n, delta)
                .worst_case_delays()
                .migrating_writer()
                .churn_fraction_of_bound(fraction)
                .leave_selector(LeaveSelector::ActiveFirst)
                .duration(Span::ticks(400))
                .reads_per_tick(2.0)
                .seed(seed)
                .run()
        });
        let mean_active: f64 = reports
            .iter()
            .filter_map(|r| r.metrics.histogram("gauge.active").and_then(|h| h.mean()))
            .sum::<f64>()
            / reports.len() as f64;
        let min_active = reports
            .iter()
            .filter_map(|r| r.metrics.histogram("gauge.active").and_then(|h| h.min()))
            .min()
            .unwrap_or(0);
        let joins: u64 = reports
            .iter()
            .map(|r| r.metrics.counter("ops.join_completed"))
            .sum();
        let reads: usize = reports.iter().map(|r| r.reads_checked()).sum();
        let violations: usize = reports.iter().map(|r| r.safety.violation_count()).sum();
        let bound =
            (n as f64 * (1.0 - 3.0 * delta.as_ticks() as f64 * fraction * threshold)).max(0.0);
        table.row([
            fnum(fraction),
            fnum(bound),
            fnum(mean_active),
            min_active.to_string(),
            joins.to_string(),
            reads.to_string(),
            if violations == 0 {
                "OK".to_string()
            } else {
                format!("{violations} viol.")
            },
        ]);
    }
    println!("{table}");
    println!("Expected shape (paper): the active population tracks the Lemma 2");
    println!("floor n(1−3δc) and collapses to zero exactly at c = c*; with it go");
    println!("completed joins and read availability. Below the bound everything");
    println!("is clean — Theorem 1's regime.");
}
