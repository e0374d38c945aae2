//! # dynareg-verify — histories and consistency checkers
//!
//! The paper specifies the register by two properties (§2.2):
//!
//! * **Liveness** — *"If a process invokes a read or a write operation and
//!   does not leave the system, it eventually returns from that operation."*
//! * **Safety** — *"A read operation returns the last value written before
//!   the read invocation, or a value written by a write operation concurrent
//!   with it."*
//!
//! This crate makes both *checkable*: a [`History`] records every join,
//! read and write with its invocation/response instants, and the checkers
//! render verdicts with explainable violations:
//!
//! | checker | semantics | paper reference |
//! |---|---|---|
//! | [`RegularityChecker`] | the Safety property above | §2.2, Theorems 1 & 4 |
//! | [`AtomicityChecker`] | regularity + no new/old inversion | §1 (the inversion figure) |
//! | [`SafeChecker`] | Lamport's *safe* register (weakest) | §1 |
//! | [`LivenessChecker`] | the Liveness property above | §2.2, Theorems 1 & 3 |
//!
//! Histories follow the paper's concurrency structure: **writes are totally
//! ordered** (single writer, or serialized writers as assumed in §5.3); the
//! checkers exploit this for a linear-time legal-value computation.
//!
//! Keyed register spaces generalize the history to one [`History`] per key
//! ([`SpaceHistory`]); every checker runs unchanged per key and
//! [`SpaceReport`] aggregates the verdicts (totals + worst key).

#![warn(missing_docs)]

mod atomic;
mod history;
mod liveness;
mod regular;
mod report;
mod safe;
mod space;

pub use atomic::AtomicityChecker;
pub use history::{FabricatedValue, History, OpKind, OpRecord};
pub use liveness::{LivenessChecker, LivenessReport};
pub use regular::RegularityChecker;
pub use report::{ConsistencyReport, Violation};
pub use safe::SafeChecker;
pub use space::{KeyVerdict, SpaceHistory, SpaceReport};

#[cfg(test)]
mod tests {
    use super::*;
    use dynareg_sim::{NodeId, Time};
    use proptest::prelude::*;

    /// Builds an *arbitrary* history — legal or not: serialized writes with
    /// random gaps/durations (some abandoned by a departing writer, so they
    /// stay pending forever), and reads returning an arbitrary choice among
    /// the initial value, any written value, or a fabricated one. Tight time
    /// ranges force endpoint collisions, the closed-interval edge cases the
    /// sweep/naive equivalence must cover.
    fn arbitrary_history(
        writes: &[(u64, u64, u8)], // (gap before invoke, duration, abandon?)
        reads: &[(u64, u64, u8)],  // (invoke offset, duration, value choice)
    ) -> History<u64> {
        let mut h: History<u64> = History::new(0);
        let mut t = 1u64;
        let mut values: Vec<u64> = Vec::new();
        for (i, &(gap, dur, abandon)) in writes.iter().enumerate() {
            // A fresh writer per write keeps abandonment simple (a departed
            // writer unblocks the next write, as the history rules require).
            let writer = NodeId::from_raw(100 + i as u64);
            t += gap;
            let value = (i as u64 + 1) * 10;
            let w = h.invoke_write(writer, Time::at(t), value);
            if abandon % 4 == 0 {
                h.note_left(writer, Time::at(t)); // never completes
            } else {
                t += dur;
                h.complete_write(w, Time::at(t));
            }
            values.push(value);
        }
        let horizon = t + 12;
        for (j, &(off, dur, choice)) in reads.iter().enumerate() {
            let inv = off % horizon;
            let comp = inv + dur % 6;
            let value = match choice % 8 {
                0 => 0,                                     // initial
                7 => 424_242,                               // fabricated
                c if values.is_empty() => u64::from(c),     // fabricated too
                c => values[usize::from(c) % values.len()], // some write's value
            };
            let r = h.invoke_read(NodeId::from_raw(1 + (j as u64 % 5)), Time::at(inv));
            h.complete_read(r, Time::at(comp), value);
        }
        h
    }

    proptest! {
        // Bounded case count, as in `tests/proptest_checkers.rs`, so CI
        // runtime stays predictable; override with PROPTEST_CASES.
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The sweep-line checkers agree with the retained naive oracles on
        /// arbitrary histories — not just on the ok/err verdict but on the
        /// full reports: same checked-read counts, same violations (reads,
        /// nodes, values, explanations, order) and same inversion tallies.
        #[test]
        fn sweep_checkers_match_naive_oracles(
            writes in prop::collection::vec((0u64..4, 0u64..4, 0u8..8), 0..10),
            reads in prop::collection::vec((0u64..80, 0u64..6, 0u8..8), 0..60),
        ) {
            let h = arbitrary_history(&writes, &reads);
            prop_assert_eq!(RegularityChecker::check(&h), RegularityChecker::check_naive(&h));
            prop_assert_eq!(SafeChecker::check(&h), SafeChecker::check_naive(&h));
            prop_assert_eq!(AtomicityChecker::check(&h), AtomicityChecker::check_naive(&h));
        }
    }
}
