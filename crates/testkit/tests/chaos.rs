//! Chaos-harness integration tests: violations must be *attributable*
//! to their fault window, not just counted, and the committed scenario
//! corpus must stay parseable and canonical.

use std::fs;
use std::path::PathBuf;

use dynareg_net::{FaultPlan, Partition};
use dynareg_sim::{Span, Time};
use dynareg_testkit::{parse_scenario, write_scenario, ChurnChoice, ScenarioSpec};

/// Mirror of `scenarios/partition_heal.dyn`: an even/odd partition cuts
/// a synchronous system in half for ticks [150, 250). Regularity breaks
/// *inside* the window — and only there. Every violating read must have
/// completed between the cut and shortly after the heal (stale replies
/// in flight can land up to a few δ later), and reads that complete
/// after heal + margin must all be clean again.
#[test]
fn partition_and_heal_confines_violations_to_the_window() {
    let window_start = Time::at(150);
    let window_end = Time::at(250);
    let report = ScenarioSpec {
        churn: ChurnChoice::Constant(0.01),
        duration: Span::ticks(500),
        drain: Some(Span::ticks(60)),
        seed: 7,
        faults: Some(
            FaultPlan::default().with_partition(Partition::even_odd(window_start, window_end)),
        ),
        ..ScenarioSpec::synchronous(20, Span::ticks(3))
    }
    .run();

    assert!(
        report.fault_drops > 0,
        "the partition should actually cut messages"
    );
    assert!(
        !report.safety.is_ok(),
        "a partitioned synchronous system is only locally synchronous; \
         this seed is known to produce split-brain reads"
    );

    // A read that starts just before the heal can return a stale value
    // and still take a full round-trip to complete; allow 4δ of slack
    // past the heal before demanding clean reads again.
    let margin = Span::ticks(4 * 3);
    let horizon = Time::at(window_end.ticks() + margin.as_ticks());
    let total = report.safety.violation_count();
    let in_window = report
        .safety
        .violations_completed_in(&report.history, window_start, horizon);
    assert_eq!(
        in_window,
        total,
        "all {total} violations must complete inside [{window_start}, {horizon}); \
         completion times: {:?}",
        report.safety.violation_completion_times(&report.history)
    );
    assert_eq!(
        report
            .safety
            .violations_completed_in(&report.history, Time::ZERO, window_start),
        0,
        "no violations before the cut"
    );
    assert_eq!(
        report
            .safety
            .violations_completed_in(&report.history, horizon, Time::MAX),
        0,
        "reads completing after heal + drain margin must be clean again"
    );
}

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// A keyed corpus run carries the space-level join check into its report:
/// every join of `migrating_writers_churn.dyn` completes in all four keys
/// at once, and a report whose joins were not consistent is not live,
/// however each key's own verdict reads.
#[test]
fn keyed_corpus_run_reports_consistent_joins() {
    let path = corpus_dir().join("migrating_writers_churn.dyn");
    let text = fs::read_to_string(&path).expect("corpus file is readable");
    let mut report = parse_scenario(&text).expect("corpus file parses").run();
    assert_eq!(report.keys, 4);
    assert!(report.joins_consistent, "{}", report.summary());
    assert!(report.all_keys_live(), "{}", report.summary());
    report.joins_consistent = false;
    assert!(!report.all_keys_live());
    assert!(report.summary().contains("liveness=STUCK"));
}

/// Every committed corpus file parses, and its parsed spec survives the
/// canonical write → parse cycle unchanged. (Exact byte canonicity is
/// not asserted: corpus files carry `#` commentary the canonical writer
/// deliberately does not emit.)
#[test]
fn corpus_files_parse_and_survive_canonicalization() {
    let mut checked = 0;
    let mut names: Vec<String> = Vec::new();
    for entry in fs::read_dir(corpus_dir()).expect("scenarios/ corpus directory") {
        let path = entry.expect("corpus dir entry").path();
        if path.extension().map(|e| e != "dyn").unwrap_or(true) {
            continue;
        }
        let text = fs::read_to_string(&path).expect("corpus file is readable");
        let spec = parse_scenario(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let canon = write_scenario(&spec)
            .unwrap_or_else(|e| panic!("{}: canonical write failed: {e}", path.display()));
        let reparsed = parse_scenario(&canon)
            .unwrap_or_else(|e| panic!("{}: canonical text re-parse failed: {e}", path.display()));
        assert_eq!(
            reparsed,
            spec,
            "{}: spec changed across write → parse",
            path.display()
        );
        checked += 1;
        names.push(path.file_name().unwrap().to_string_lossy().into_owned());
    }
    assert!(
        checked >= 8,
        "the corpus must hold at least 8 scenarios, found {checked}: {names:?}"
    );
}
