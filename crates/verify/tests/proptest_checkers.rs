//! Property tests for the consistency checkers: soundness (legal histories
//! pass) and completeness (specific illegal mutations are caught), over
//! randomly generated schedules. (The sweep-vs-naive-oracle equivalence
//! property lives in `src/lib.rs`'s unit tests, next to the test-only
//! `check_naive` oracles.)

use dynareg_sim::{NodeId, Time};
use dynareg_verify::{AtomicityChecker, History, RegularityChecker, SafeChecker};
use proptest::prelude::*;

/// Builds a history with serialized writes at random instants and reads
/// that each return a *legal* regular value chosen by `pick`: given
/// (index of last write completed before invocation or None, indices of
/// concurrent writes), return the reads-from index.
fn legal_history(
    write_gaps: &[u64],
    reads: &[(u64, u64, usize)], // (invoke offset, duration, choice)
) -> History<u64> {
    let mut h: History<u64> = History::new(0);
    let writer = NodeId::from_raw(0);
    let mut t = 1u64;
    let mut write_spans: Vec<(u64, u64, u64)> = Vec::new(); // (inv, comp, value)
    for (i, gap) in write_gaps.iter().enumerate() {
        t += gap + 1;
        let inv = t;
        let comp = t + 2;
        let value = (i as u64 + 1) * 10;
        let w = h.invoke_write(writer, Time::at(inv), value);
        h.complete_write(w, Time::at(comp));
        write_spans.push((inv, comp, value));
        t = comp;
    }
    let horizon = t + 10;
    for &(off, dur, choice) in reads {
        let inv = off % horizon;
        let comp = inv + dur % 5;
        // Legal values for [inv, comp]: last write completed strictly
        // before inv, plus all overlapping writes.
        let last_before = write_spans
            .iter()
            .filter(|(_, c, _)| *c < inv)
            .max_by_key(|(_, c, _)| *c)
            .map(|&(_, _, v)| v)
            .unwrap_or(0);
        let mut legal: Vec<u64> = vec![last_before];
        for &(wi, wc, v) in &write_spans {
            if wc >= inv && wi <= comp {
                legal.push(v);
            }
        }
        let value = legal[choice % legal.len()];
        let r = h.invoke_read(NodeId::from_raw(1 + (off % 5)), Time::at(inv));
        h.complete_read(r, Time::at(comp), value);
    }
    h
}

proptest! {
    // Bounded case count so CI runtime stays predictable; override with
    // the PROPTEST_CASES environment variable for deeper local runs.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Soundness: histories constructed to be regular always pass the
    /// regularity checker (and the safe checker, which is weaker).
    #[test]
    fn regular_constructions_pass(
        gaps in prop::collection::vec(0u64..6, 0..8),
        reads in prop::collection::vec((0u64..200, 0u64..5, 0usize..8), 0..40),
    ) {
        let h = legal_history(&gaps, &reads);
        let report = RegularityChecker::check(&h);
        prop_assert!(report.is_ok(), "{report}");
        prop_assert!(SafeChecker::check(&h).is_ok());
    }

    /// Completeness: a read returning a value that was never written is
    /// always caught by regularity; quiescent-fabricated is caught by the
    /// safe checker too.
    #[test]
    fn fabricated_values_are_caught(
        gaps in prop::collection::vec(0u64..6, 1..8),
        offset in 0u64..100,
    ) {
        let mut h = legal_history(&gaps, &[]);
        let far = 1000 + offset; // after all writes: quiescent
        let r = h.invoke_read(NodeId::from_raw(9), Time::at(far));
        h.complete_read(r, Time::at(far + 1), 424_242);
        prop_assert_eq!(RegularityChecker::check(&h).violation_count(), 1);
        prop_assert_eq!(SafeChecker::check(&h).violation_count(), 1);
    }

    /// Atomicity implies regularity: any history passing the atomicity
    /// checker passes the regularity checker.
    #[test]
    fn atomicity_implies_regularity(
        gaps in prop::collection::vec(0u64..6, 0..8),
        reads in prop::collection::vec((0u64..200, 0u64..5, 0usize..8), 0..40),
    ) {
        let h = legal_history(&gaps, &reads);
        if AtomicityChecker::check(&h).is_ok() {
            prop_assert!(RegularityChecker::check(&h).is_ok());
        }
    }

    /// The inversion counter is consistent with the atomicity verdict for
    /// regular histories: zero inversions ⇔ atomic-clean (since the
    /// construction is already regular).
    #[test]
    fn inversion_count_matches_atomic_verdict(
        gaps in prop::collection::vec(0u64..6, 0..8),
        reads in prop::collection::vec((0u64..200, 0u64..5, 0usize..8), 0..40),
    ) {
        let h = legal_history(&gaps, &reads);
        let report = AtomicityChecker::check(&h);
        let inversions = AtomicityChecker::count_inversions(&h);
        prop_assert_eq!(report.inversions, inversions);
        prop_assert_eq!(report.is_ok(), inversions == 0);
    }
}
