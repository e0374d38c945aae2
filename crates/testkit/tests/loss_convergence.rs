//! Loss-convergence properties of the bounded join-retransmit handshake
//! (`docs/PROTOCOL.md`, "Join retransmission"): any seeded drop pattern
//! that eventually stops dropping lets every staying joiner reach LIVE
//! within a bounded number of retransmit rounds — under both the
//! timer-driven synchronous join and the quorum-driven ES join — and the
//! committed lossy-ES corpus scenario (the wedge that motivated the
//! mechanism) now converges.

use std::fs;

use dynareg_net::{DropRule, FaultPlan};
use dynareg_sim::{Span, Time};
use dynareg_testkit::{parse_scenario, ChurnChoice, RunReport, ScenarioSpec};
use dynareg_verify::OpKind;

/// The stuck operations of a run that are *joins* — the ops the
/// retransmit mechanism owns. Quorum reads and writes that lose too many
/// replies have no retransmission layer (deliberately out of scope; see
/// ROADMAP.md) and may legitimately wedge under heavy loss, so the
/// convergence property quantifies over joins only.
fn stuck_joins(report: &RunReport) -> Vec<String> {
    report
        .liveness
        .stuck_ops
        .iter()
        .filter_map(|&op| report.history.get(op))
        .filter(|rec| matches!(rec.kind, OpKind::Join))
        .map(|rec| format!("{} by {}", rec.op, rec.node))
        .collect()
}

/// Seeded drop patterns: probability and window end are derived from the
/// case index, so the matrix sweeps light (20%) to heavy (50%) loss over
/// staggered windows. Every window closes by tick 325; with δ = 4 and the
/// harness policy (base 2δ, budget 4) the silence window plateaus at
/// `8 << 4 = 128` ticks, so the last pre-heal beat re-fires at most 128
/// ticks after the loss stops and the handshake completes one round-trip
/// later — comfortably inside the 325 + 250 tick run plus drain. A run
/// that stays wedged past that bound means a joiner's retransmission
/// never resumed, which is exactly the regression this property pins.
///
/// Loss is capped at 50% because convergence is only promised while the
/// system *survives* the window: under heavier sustained loss, enough
/// joins stall that constant churn drains the active set below the join
/// quorum, after which no join — lossless or not — can ever gather
/// enough distinct repliers (the paper's churn-threshold breach, §5.2;
/// retransmission cannot resurrect a dead quorum).
fn drop_cases() -> Vec<(u64, f64, u64)> {
    (0..8)
        .map(|case: u64| {
            let probability = 0.2 + 0.1 * (case % 4) as f64;
            let window_end = 150 + 25 * case;
            (case, probability, window_end)
        })
        .collect()
}

#[test]
fn es_joiners_converge_after_any_seeded_loss_window_ends() {
    let delta = Span::ticks(4);
    let mut total_retransmits = 0;
    for (seed, probability, window_end) in drop_cases() {
        let report = ScenarioSpec {
            churn: ChurnChoice::Constant(0.005),
            duration: Span::ticks(window_end + 250),
            drain: Some(Span::ticks(150)),
            seed,
            faults: Some(FaultPlan::default().with_drop(DropRule::lossy_everything(
                Time::ZERO,
                Time::at(window_end),
                probability,
            ))),
            ..ScenarioSpec::eventually_synchronous(15, delta, Time::ZERO)
        }
        .run();
        let stuck = stuck_joins(&report);
        assert!(
            stuck.is_empty(),
            "seed {seed}: {probability} loss until {window_end} left \
             staying joiner(s) stuck past the bounded-retransmit horizon: {stuck:?}"
        );
        total_retransmits += report.join_retransmits();
    }
    // The property is vacuous if no handshake ever needed a re-fire: the
    // heavier windows must actually exercise the silence timer.
    assert!(
        total_retransmits > 0,
        "the loss matrix never triggered a join retransmission"
    );
}

#[test]
fn sync_joiners_converge_after_any_seeded_loss_window_ends() {
    // The timer-driven join can always fall back to blind ⊥ activation,
    // so liveness here additionally checks that the zero-reply
    // interception (which *delays* that fallback to retry the inquiry)
    // never delays it past the retry budget.
    let delta = Span::ticks(4);
    for (seed, probability, window_end) in drop_cases() {
        let report = ScenarioSpec {
            churn: ChurnChoice::Constant(0.005),
            duration: Span::ticks(window_end + 250),
            drain: Some(Span::ticks(150)),
            seed,
            faults: Some(FaultPlan::default().with_drop(DropRule::lossy_everything(
                Time::ZERO,
                Time::at(window_end),
                probability,
            ))),
            ..ScenarioSpec::synchronous(15, delta)
        }
        .run();
        assert!(
            report.liveness.is_ok(),
            "seed {seed}: {probability} loss until {window_end} left \
             {} staying joiner(s) stuck",
            report.liveness.incomplete_stayer_count()
        );
    }
}

/// The committed corpus scenario `drop_lossy_es.dyn` — the lossy-ES join
/// wedge that motivated the retransmit mechanism — converges: its loss
/// windows close at tick 550, every staying joiner reaches LIVE, and the
/// recovery is attributable (`join.retransmits > 0`). The opposite
/// direction (total permanent loss still wedges, and `why_stuck` names
/// the dropped messages) is pinned in `obs.rs`.
#[test]
fn committed_lossy_es_corpus_scenario_converges_with_retransmits() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/drop_lossy_es.dyn"
    );
    let text = fs::read_to_string(path).expect("drop_lossy_es.dyn is committed");
    let spec = parse_scenario(&text).expect("corpus file parses");
    let report = spec.run();
    assert!(
        report.liveness.is_ok(),
        "the corpus scenario must converge once its loss windows end; \
         {} stayer(s) stuck",
        report.liveness.incomplete_stayer_count()
    );
    assert!(
        report.join_retransmits() > 0,
        "recovery must be attributable to the retransmit mechanism"
    );
}
