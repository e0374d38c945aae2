//! Lamport's *safe* register semantics: the weakest rung of the ladder.
//!
//! §1 of the paper: a read **not** concurrent with any write must return the
//! register's current value; a read concurrent with a write may return
//! *anything in the value domain* — even a value never written. The checker
//! therefore only judges quiescent reads.

use std::hash::Hash;

use crate::history::{History, OpKind, OpRecord};
use crate::regular::{write_index, write_precedes, WriteSweep};
use crate::report::{ConsistencyReport, Violation};

/// Checks a history against **safe register** semantics.
///
/// Quiescent reads (no concurrent write) must return a current completed
/// write's value — one no later write (hybrid order, see
/// [`crate::RegularityChecker`]) had replaced by the read's invocation; for
/// a single writer that is exactly the last completed write. The initial
/// value is expected when no write completed yet. Concurrent reads are
/// uncheckable by definition and are skipped (but still counted in
/// `checked_reads`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SafeChecker;

impl SafeChecker {
    /// Runs the check.
    ///
    /// Sweep-line over the write intervals (`WriteSweep`): quiescence is
    /// one binary search per read (does *any* write interval intersect the
    /// read?) and the expected value another — O((R+W) log W) total,
    /// versus the test-only `check_naive` oracle's O(R·W).
    pub fn check<V: Clone + Eq + Hash + std::fmt::Debug>(
        history: &History<V>,
    ) -> ConsistencyReport<V> {
        let sweep = WriteSweep::build(history);
        let mut violations = Vec::new();
        let mut checked = 0;

        for read in history.completed_reads() {
            checked += 1;
            let comp = read
                .completed_at
                .expect("completed_reads yields completed reads");
            if sweep.any_concurrent(read.invoked_at, comp) {
                continue; // any value allowed, even fabricated
            }
            let returned = match &read.kind {
                OpKind::Read { returned: Some(v) } => v,
                _ => unreachable!(),
            };
            let legal = match history.provenance(returned) {
                Err(_) => false,
                Ok(None) => !sweep.any_completed_before(read.invoked_at),
                Ok(Some(i)) => sweep.unsuperseded_before(i, read.invoked_at),
            };
            if !legal {
                // Rare path: enumerate the expected set for the report.
                let expected = Self::expected_desc(&sweep.by_index, read);
                violations.push(Self::quiescent_violation(read, returned, expected));
            }
        }

        ConsistencyReport {
            semantics: "safe",
            checked_reads: checked,
            violations,
            inversions: 0,
        }
    }

    /// Human description of the current-value set a quiescent read may
    /// return: the unsuperseded completed writes, or the initial value.
    fn expected_desc<V: Clone + Eq + Hash + std::fmt::Debug>(
        writes: &[&OpRecord<V>],
        read: &OpRecord<V>,
    ) -> String {
        let before: Vec<&&OpRecord<V>> = writes
            .iter()
            .filter(|w| w.completed_at.is_some_and(|c| c < read.invoked_at))
            .collect();
        if before.is_empty() {
            return "initial".to_string();
        }
        let mut idxs: Vec<usize> = before
            .iter()
            .filter(|w| !before.iter().any(|w2| write_precedes(**w, **w2)))
            .map(|w| write_index(**w))
            .collect();
        idxs.sort_unstable();
        match idxs.as_slice() {
            [i] => format!("write#{i}"),
            _ => {
                let names: Vec<String> = idxs.iter().map(|i| format!("write#{i}")).collect();
                format!("one of {{{}}}", names.join(", "))
            }
        }
    }

    fn quiescent_violation<V: Clone>(
        read: &OpRecord<V>,
        returned: &V,
        expected: String,
    ) -> Violation<V> {
        Violation {
            read: read.op,
            node: read.node,
            returned: returned.clone(),
            explanation: format!(
                "quiescent read must return {expected} (no write concurrent with it)"
            ),
        }
    }

    /// The original O(R·W) implementation, retained verbatim as the *test
    /// oracle* for the sweep-line [`SafeChecker::check`].
    #[cfg(test)]
    pub(crate) fn check_naive<V: Clone + Eq + Hash + std::fmt::Debug>(
        history: &History<V>,
    ) -> ConsistencyReport<V> {
        let writes: Vec<&OpRecord<V>> = history.writes().collect();
        let mut violations = Vec::new();
        let mut checked = 0;

        for read in history.completed_reads() {
            checked += 1;
            let concurrent = writes.iter().any(|w| w.overlaps(read));
            if concurrent {
                continue; // any value allowed, even fabricated
            }
            let returned = match &read.kind {
                OpKind::Read { returned: Some(v) } => v,
                _ => unreachable!(),
            };
            let before: Vec<&&OpRecord<V>> = writes
                .iter()
                .filter(|w| w.completed_at.is_some_and(|c| c < read.invoked_at))
                .collect();
            let legal = match history.provenance(returned) {
                Err(_) => false,
                Ok(None) => before.is_empty(),
                Ok(Some(i)) => before.iter().any(|w| {
                    write_index(**w) == i && !before.iter().any(|w2| write_precedes(**w, **w2))
                }),
            };
            if !legal {
                let expected = Self::expected_desc(&writes, read);
                violations.push(Self::quiescent_violation(read, returned, expected));
            }
        }

        ConsistencyReport {
            semantics: "safe",
            checked_reads: checked,
            violations,
            inversions: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynareg_sim::{NodeId, Time};

    fn n(i: u64) -> NodeId {
        NodeId::from_raw(i)
    }

    fn base() -> History<u64> {
        let mut h: History<u64> = History::new(0);
        let w = h.invoke_write(n(0), Time::at(5), 10);
        h.complete_write(w, Time::at(8));
        h
    }

    #[test]
    fn quiescent_read_must_see_current_value() {
        let mut h = base();
        let r = h.invoke_read(n(1), Time::at(9));
        h.complete_read(r, Time::at(10), 10);
        assert!(SafeChecker::check(&h).is_ok());

        let mut h2 = base();
        let r2 = h2.invoke_read(n(1), Time::at(9));
        h2.complete_read(r2, Time::at(10), 0);
        let report = SafeChecker::check(&h2);
        assert_eq!(report.violation_count(), 1);
        assert!(report.violations[0].explanation.contains("quiescent"));
    }

    #[test]
    fn concurrent_read_may_return_garbage() {
        let mut h = base();
        let r = h.invoke_read(n(1), Time::at(6));
        h.complete_read(r, Time::at(7), 424242); // fabricated — fine for safe
        assert!(SafeChecker::check(&h).is_ok());
    }

    #[test]
    fn quiescent_fabricated_value_is_flagged() {
        let mut h = base();
        let r = h.invoke_read(n(1), Time::at(20));
        h.complete_read(r, Time::at(21), 424242);
        assert!(!SafeChecker::check(&h).is_ok());
    }

    #[test]
    fn read_before_all_writes_sees_initial() {
        let mut h = base();
        let r = h.invoke_read(n(1), Time::at(1));
        h.complete_read(r, Time::at(2), 0);
        assert!(SafeChecker::check(&h).is_ok());
    }

    #[test]
    fn quiescent_read_accepts_any_unsuperseded_concurrent_write() {
        // Two cross-node writes overlap each other ([1,5] and [2,6]), then
        // complete: a quiescent read after both may return either value —
        // neither superseded the other — but not the initial value.
        let mut h: History<u64> = History::new(0);
        let wa = h.invoke_write(n(0), Time::at(1), 10);
        let wb = h.invoke_write(n(1), Time::at(2), 20);
        h.complete_write(wa, Time::at(5));
        h.complete_write(wb, Time::at(6));
        for v in [10, 20] {
            let mut h2 = h.clone();
            let r = h2.invoke_read(n(2), Time::at(8));
            h2.complete_read(r, Time::at(9), v);
            assert!(SafeChecker::check(&h2).is_ok(), "value {v} legal");
            assert!(SafeChecker::check_naive(&h2).is_ok());
        }
        let mut h0 = h;
        let r = h0.invoke_read(n(2), Time::at(8));
        h0.complete_read(r, Time::at(9), 0);
        let report = SafeChecker::check(&h0);
        assert_eq!(report.violation_count(), 1);
        assert!(report.violations[0].explanation.contains("one of"));
        assert_eq!(SafeChecker::check_naive(&h0).violation_count(), 1);
    }

    #[test]
    fn checked_reads_counts_concurrent_ones_too() {
        let mut h = base();
        let r1 = h.invoke_read(n(1), Time::at(6));
        h.complete_read(r1, Time::at(7), 5);
        let r2 = h.invoke_read(n(1), Time::at(9));
        h.complete_read(r2, Time::at(10), 10);
        let report = SafeChecker::check(&h);
        assert_eq!(report.checked_reads, 2);
        assert!(report.is_ok());
    }
}
