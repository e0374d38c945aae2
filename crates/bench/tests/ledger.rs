//! The paper ledger's two contracts: the committed `docs/REPRODUCTION.md`
//! is exactly what the code generates (and no row `FAILS`), and every
//! row's predicate can fail — a fabricated bad measurement turns the
//! verdict to `FAILS`, which the binary turns into exit code 1.

use dynareg_bench::ledger::{self, Claim, Evidence, Verdict, CLAIMS};
use dynareg_fleet::Cell;
use dynareg_sim::metrics::Histogram;
use Verdict::{Deviates, Fails, Holds};

/// A histogram of the given samples.
fn samples(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    values.iter().for_each(|&v| h.record(v));
    h
}

/// Ten samples whose mean is `mean`, given to one decimal.
fn with_mean(mean: f64) -> Histogram {
    let tenths = (mean * 10.0).round() as u64;
    let values: Vec<u64> = (0..10)
        .map(|i| tenths / 10 + u64::from(i < tenths % 10))
        .collect();
    samples(&values)
}

/// A cell of `runs` clean runs: nothing unsafe, stuck or inverted.
fn clean(runs: u64, read: f64, write: f64, join: f64) -> Cell {
    Cell {
        runs,
        reads_checked: 1000,
        messages: 5000 * runs,
        read_latency: with_mean(read),
        write_latency: with_mean(write),
        join_latency: with_mean(join),
        ..Cell::new(1, 1, 1, 4, 0.5)
    }
}

/// `c` with `k` unsafe runs.
fn lying(c: &Cell, k: u64) -> Cell {
    Cell {
        unsafe_runs: k,
        safety_violations: 3 * k,
        ..c.clone()
    }
}

/// `c` with `k` stuck runs of one stuck operation each.
fn stuck(c: &Cell, k: u64) -> Cell {
    Cell {
        stuck_runs: k,
        stuck_ops: k,
        ..c.clone()
    }
}

fn inverting(c: &Cell, inversions: u64) -> Cell {
    Cell {
        inversions,
        ..c.clone()
    }
}

/// `c` whose per-tick active-set samples are `active`.
fn active(c: &Cell, active: &[u64]) -> Cell {
    Cell {
        active: samples(active),
        ..c.clone()
    }
}

fn all_fail(cases: &[Verdict]) {
    for (i, verdict) in cases.iter().enumerate() {
        assert_eq!(*verdict, Fails, "fabricated case {i} must FAIL");
    }
}

#[test]
fn committed_ledger_is_what_the_code_generates() {
    let (text, worst) = ledger::render(&CLAIMS, &[]);
    assert!(!text.contains("FAILS** |"), "a row FAILS:\n{text}");
    assert_eq!(worst, Deviates, "Lemma 2's pinned deviation is the worst");
    assert_eq!(worst.exit_code(), 0);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/REPRODUCTION.md");
    let committed = std::fs::read_to_string(path).expect("docs/REPRODUCTION.md is committed");
    assert!(
        text == committed,
        "docs/REPRODUCTION.md is stale; regenerate it with \
         `cargo run --release --bin exp_paper_tables > docs/REPRODUCTION.md`"
    );
}

#[test]
fn row_ids_select_rows_case_insensitively() {
    let (text, worst) = ledger::render(&CLAIMS, &["e2".to_string()]);
    assert_eq!(worst, Holds);
    assert!(text.contains("\n## E2\n") && !text.contains("\n## E1\n"));
}

#[test]
fn a_failing_row_fails_the_ledger() {
    let failing = Claim {
        id: "E0",
        paper: "nowhere",
        claim: "a fabricated claim",
        claimed: "1",
        seeds: "none",
        notes: "",
        measure: || Evidence {
            measured: "2".to_string(),
            verdict: Fails,
            scenario: "none".to_string(),
            tables: Vec::new(),
        },
    };
    let (text, worst) = ledger::render(&[failing], &[]);
    assert!(text.contains("| **FAILS** |") && text.contains("* verdict: **FAILS**"));
    assert_eq!(
        worst.exit_code(),
        1,
        "exp_paper_tables exits with this code"
    );
}

#[test]
fn e1_inversions_separate_can_fail() {
    let (es, atomic) = (clean(8, 7.3, 14.1, 0.0), clean(8, 13.4, 14.5, 0.0));
    let sync = inverting(&clean(8, 0.0, 6.0, 0.0), 40);
    assert_eq!(ledger::inversions_separate(&sync, &es, &atomic), Holds);
    all_fail(&[
        ledger::inversions_separate(&sync, &es, &inverting(&atomic, 1)),
        ledger::inversions_separate(&es, &es, &atomic), // no inversion seen
        ledger::inversions_separate(&sync, &lying(&es, 1), &atomic),
    ]);
}

#[test]
fn e2_sync_costs_can_fail() {
    let good = clean(6, 0.0, 5.0, 12.9);
    assert_eq!(ledger::sync_costs(&good, 5), Holds);
    all_fail(&[
        ledger::sync_costs(&lying(&good, 1), 5),
        ledger::sync_costs(&stuck(&good, 1), 5),
        ledger::sync_costs(&clean(6, 0.0, 6.0, 12.9), 5), // write latency δ+1
        ledger::sync_costs(&clean(6, 0.5, 5.0, 12.9), 5), // a read left the process
        ledger::sync_costs(&clean(6, 0.0, 5.0, 15.5), 5), // join beyond 3δ
    ]);
}

#[test]
fn e3_wait_is_needed_is_its_own_negative_control() {
    let (stale, fresh) = ((Some(Some(0)), 1, 8), (Some(Some(1)), 0, 12));
    let random = clean(8, 0.0, 4.0, 7.9);
    assert_eq!(ledger::wait_is_needed(stale, fresh, 4, &random), Holds);
    let unflagged = (Some(Some(0)), 0, 8); // the checker stopped flagging the ablation
    all_fail(&[
        ledger::wait_is_needed(unflagged, fresh, 4, &random),
        ledger::wait_is_needed(fresh, fresh, 4, &random),
        ledger::wait_is_needed(stale, stale, 4, &random),
        ledger::wait_is_needed(stale, fresh, 4, &lying(&random, 1)),
    ]);
}

#[test]
fn e4_lemma2_window_pins_the_deviation_between_the_two_floors() {
    let c = Cell {
        lemma2_steady_bound: 15.0,
        ..Cell::new(1, 1, 1, 2, 0.25)
    };
    assert_eq!(ledger::lemma2_window(&c, 22.5, 23, 23), Holds);
    assert_eq!(ledger::lemma2_window(&c, 22.5, 23, 15), Deviates);
    all_fail(&[
        ledger::lemma2_window(&c, 22.5, 23, 14), // below n(1−6δc)
        ledger::lemma2_window(&c, 22.5, 22, 23), // τ = 0 window below n(1−3δc)
    ]);
}

#[test]
fn e5_threshold_cell_can_fail() {
    let live = active(&clean(6, 0.0, 4.0, 11.0), &[15, 21]); // min 15, mean 18
    let gone = Cell {
        reads_checked: 30,
        ..active(&live, &[0, 7])
    };
    assert_eq!(ledger::threshold_cell(0.5, 15.0, &live, 1000), Holds);
    assert_eq!(ledger::threshold_cell(1.0, 0.0, &gone, 1000), Holds);
    all_fail(&[
        ledger::threshold_cell(0.5, 15.0, &active(&live, &[14, 22]), 1000),
        ledger::threshold_cell(0.5, 15.0, &stuck(&live, 1), 1000),
        ledger::threshold_cell(1.0, 0.0, &active(&gone, &[1, 6]), 1000), // somebody still active
        ledger::threshold_cell(1.0, 0.0, &active(&live, &[0, 7]), 1000), // reads held up
        ledger::threshold_cell(1.5, 0.0, &active(&lying(&gone, 1), &[0, 2]), 1000),
    ]);
}

#[test]
fn e6_both_impossibility_horns_can_fail() {
    let timely = clean(8, 0.0, 3.0, 6.7);
    assert_eq!(ledger::timeout_horn(1, &timely), Holds);
    assert_eq!(ledger::timeout_horn(2, &lying(&timely, 8)), Holds);
    all_fail(&[
        ledger::timeout_horn(1, &lying(&timely, 1)),
        ledger::timeout_horn(2, &timely), // safe beyond the bound
        ledger::timeout_horn(4, &lying(&timely, 7)), // one run got away
    ]);
    let live = clean(6, 4.5, 8.9, 4.8);
    assert_eq!(ledger::quorum_horn(false, &live, 0), Holds);
    assert_eq!(ledger::quorum_horn(true, &stuck(&live, 6), 6), Holds);
    all_fail(&[
        ledger::quorum_horn(true, &stuck(&live, 6), 5), // a bystander is stuck
        ledger::quorum_horn(true, &live, 0),            // the victim got through
        ledger::quorum_horn(false, &stuck(&live, 1), 0),
        ledger::quorum_horn(false, &lying(&live, 1), 0),
    ]);
}

#[test]
fn e7_es_costs_can_fail() {
    let good = clean(6, 5.0, 10.0, 5.2);
    assert_eq!(ledger::es_costs(&good, 4), Holds);
    all_fail(&[
        ledger::es_costs(&lying(&good, 1), 4),
        ledger::es_costs(&stuck(&good, 1), 4),
        ledger::es_costs(&clean(6, 9.0, 18.0, 5.2), 4), // read beyond 2δ
        ledger::es_costs(&clean(6, 5.0, 5.0, 5.2), 4),  // a one-trip write
        ledger::es_costs(&clean(6, 5.0, 10.0, 1.0), 4), // a local join
    ]);
}

#[test]
fn e8_blocks_never_lies_can_fail() {
    let live = clean(6, 4.0, 8.0, 4.1);
    assert_eq!(ledger::blocks_never_lies(&live, true, true), Holds);
    assert_eq!(
        ledger::blocks_never_lies(&stuck(&live, 1), false, false),
        Holds
    );
    all_fail(&[
        ledger::blocks_never_lies(&stuck(&live, 1), true, false), // stuck with the majority held
        ledger::blocks_never_lies(&live, false, true),            // majority lost within the bound
        ledger::blocks_never_lies(&lying(&live, 1), false, false),
    ]);
}

#[test]
fn e9_read_costs_can_fail() {
    let (local, quorum) = (clean(4, 0.0, 4.0, 10.0), clean(4, 5.0, 10.0, 5.1));
    assert_eq!(ledger::read_costs(true, &local, 0.0, 50), Holds);
    assert_eq!(ledger::read_costs(false, &quorum, 108.2, 50), Holds);
    all_fail(&[
        ledger::read_costs(true, &local, 1.0, 50), // a local read sent a message
        ledger::read_costs(true, &quorum, 0.0, 50),
        ledger::read_costs(false, &quorum, 200.0, 50), // 4n messages per read
        ledger::read_costs(false, &local, 108.2, 50),  // a quorum for free
    ]);
}

#[test]
fn e10_write_back_costs_can_fail() {
    let (es, atomic) = (clean(8, 7.3, 14.1, 0.0), clean(8, 13.4, 14.5, 0.0));
    assert_eq!(ledger::write_back_costs(&es, &atomic, 8), Holds);
    all_fail(&[
        ledger::write_back_costs(&es, &atomic, 7), // one run not atomic
        ledger::write_back_costs(&es, &inverting(&atomic, 1), 8),
        ledger::write_back_costs(&es, &clean(8, 22.0, 14.5, 0.0), 8), // three times the latency
        ledger::write_back_costs(&es, &es, 8),                        // write-back for free
    ]);
}
