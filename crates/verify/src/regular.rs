//! The paper's Safety property, §2.2: *"A read operation returns the last
//! value written before the read invocation, or a value written by a write
//! operation concurrent with it."*

use std::collections::BTreeMap;
use std::hash::Hash;

use dynareg_sim::{NodeId, Time};

use crate::history::{History, OpKind, OpRecord};
use crate::report::{ConsistencyReport, Violation};

/// The hybrid write order `a < b` used by every checker: `a` completed
/// strictly before `b` was invoked (real time), or both were issued by the
/// same node and `a` was invoked first. On a single-writer history this is
/// the total invocation order; with concurrent writers it is the partial
/// order that real time and per-process seriality actually justify —
/// mutually concurrent cross-node writes stay unordered.
pub(crate) fn write_precedes<V>(a: &OpRecord<V>, b: &OpRecord<V>) -> bool {
    if a.completed_at.is_some_and(|c| c < b.invoked_at) {
        return true;
    }
    a.node == b.node && write_index(a) < write_index(b)
}

/// The invocation index of a write record.
pub(crate) fn write_index<V>(w: &OpRecord<V>) -> usize {
    match w.kind {
        OpKind::Write { index, .. } => index,
        _ => unreachable!("not a write record"),
    }
}

/// One node's completed writes in index order, with the suffix-minimum of
/// their completion instants: "does this node complete a later write
/// before `t`" is then two binary-search-free lookups.
struct NodeChain {
    indices: Vec<usize>,
    suffix_min_comp: Vec<Time>,
}

/// Shared sweep-line machinery over a history's writes (ordered by the
/// hybrid relation [`write_precedes`]): answers "is write `i` a legal
/// quiescent value at `t`" and "is any write concurrent with `[inv,
/// comp]`" in O(log W) each, after an O(W log W) build. Used by both the
/// regularity and safe checkers.
pub(crate) struct WriteSweep<'h, V> {
    /// Write records addressable by invocation index.
    pub by_index: Vec<&'h OpRecord<V>>,
    /// `(completed_at, index)` for every completed write, sorted by
    /// completion instant (ties by index).
    completions: Vec<(Time, usize)>,
    /// `prefix_max_inv[k]` = latest invocation among `completions[..=k]` —
    /// a write is real-time-superseded at `t` iff some write invoked after
    /// its completion has itself completed before `t`.
    prefix_max_inv: Vec<Time>,
    /// `suffix_min_inv[k]` = earliest invocation among `completions[k..]`;
    /// invocation times of later-completing writes are what decides
    /// concurrency existence for the safe checker.
    suffix_min_inv: Vec<Time>,
    /// Earliest invocation among never-completed writes (pending writes
    /// are concurrent with everything after their invocation).
    pending_min_inv: Option<Time>,
    /// Per-writer completed-write chains for the same-node clause of
    /// [`write_precedes`].
    node_chains: BTreeMap<NodeId, NodeChain>,
}

impl<'h, V: Clone + Eq + Hash + std::fmt::Debug> WriteSweep<'h, V> {
    pub fn build(history: &'h History<V>) -> WriteSweep<'h, V> {
        let mut by_index: Vec<&OpRecord<V>> = history.writes().collect();
        by_index.sort_unstable_by_key(|w| match w.kind {
            OpKind::Write { index, .. } => index,
            _ => unreachable!("writes() yields writes"),
        });
        let mut completions: Vec<(Time, usize)> = by_index
            .iter()
            .enumerate()
            .filter_map(|(i, w)| w.completed_at.map(|c| (c, i)))
            .collect();
        completions.sort_unstable();
        let mut prefix_max_inv = Vec::with_capacity(completions.len());
        let mut m = Time::ZERO;
        for &(_, i) in &completions {
            m = m.max(by_index[i].invoked_at);
            prefix_max_inv.push(m);
        }
        let mut suffix_min_inv = vec![Time::MAX; completions.len()];
        let mut inv_min = Time::MAX;
        for (k, &(_, i)) in completions.iter().enumerate().rev() {
            inv_min = inv_min.min(by_index[i].invoked_at);
            suffix_min_inv[k] = inv_min;
        }
        let pending_min_inv = by_index
            .iter()
            .filter(|w| !w.is_complete())
            .map(|w| w.invoked_at)
            .min();
        let mut node_chains: BTreeMap<NodeId, NodeChain> = BTreeMap::new();
        for (i, w) in by_index.iter().enumerate() {
            if let Some(c) = w.completed_at {
                let chain = node_chains.entry(w.node).or_insert_with(|| NodeChain {
                    indices: Vec::new(),
                    suffix_min_comp: Vec::new(),
                });
                chain.indices.push(i);
                chain.suffix_min_comp.push(c); // rewritten to suffix-min below
            }
        }
        for chain in node_chains.values_mut() {
            for k in (1..chain.suffix_min_comp.len()).rev() {
                let later = chain.suffix_min_comp[k];
                let here = &mut chain.suffix_min_comp[k - 1];
                *here = (*here).min(later);
            }
        }
        WriteSweep {
            by_index,
            completions,
            prefix_max_inv,
            suffix_min_inv,
            pending_min_inv,
            node_chains,
        }
    }

    /// Whether any write at all completed strictly before `t` — the
    /// initial value is a legal quiescent value iff none did.
    pub fn any_completed_before(&self, t: Time) -> bool {
        self.completions.first().is_some_and(|&(c, _)| c < t)
    }

    /// Whether write `i` is a legal *quiescent* value at instant `t`: it
    /// completed strictly before `t` and no write ordered after it under
    /// [`write_precedes`] also completed strictly before `t`. On a
    /// single-writer history exactly one write satisfies this (the
    /// highest-indexed completed one); concurrent cross-node writes can
    /// leave several unsuperseded.
    pub fn unsuperseded_before(&self, i: usize, t: Time) -> bool {
        let w = self.by_index[i];
        let Some(wc) = w.completed_at else {
            return false;
        };
        if wc >= t {
            return false;
        }
        // Real-time successor: a write invoked after `w` completed, itself
        // completed before `t`. (`w` is in the prefix, but its own
        // invocation precedes `wc`, so it never triggers the comparison.)
        let k = self.completions.partition_point(|&(c, _)| c < t);
        debug_assert!(k > 0, "w itself completed before t");
        if self.prefix_max_inv[k - 1] > wc {
            return false;
        }
        // Same-node successor: a later write by `w`'s node completed
        // before `t`.
        let chain = &self.node_chains[&w.node];
        let pos = chain.indices.partition_point(|&j| j <= i);
        !(pos < chain.indices.len() && chain.suffix_min_comp[pos] < t)
    }

    /// Whether any write (completed or pending) is concurrent with the
    /// closed interval `[inv, comp]` under [`OpRecord::overlaps`]
    /// semantics.
    pub fn any_concurrent(&self, inv: Time, comp: Time) -> bool {
        if self.pending_min_inv.is_some_and(|w_inv| w_inv <= comp) {
            return true;
        }
        // A completed write overlaps iff it completes at/after `inv` AND
        // was invoked at/before `comp`: among writes completing at or
        // after `inv`, take the earliest invocation.
        let k = self.completions.partition_point(|&(c, _)| c < inv);
        k < self.completions.len() && self.suffix_min_inv[k] <= comp
    }
}

/// Checks a history against **regular register** semantics.
///
/// For each completed read `r` the legal values are:
///
/// 1. the value of every write completed before `r`'s invocation that no
///    later write (under the hybrid order `write_precedes`) had already
///    replaced by then — for a single writer that is exactly "the *last*
///    value written before the read invocation", the paper's wording; with
///    concurrent writers every still-current completed write qualifies —
///    or the initial value if no write completed before `r`'s invocation,
///    and
/// 2. the value of every write concurrent with `r` (a pending write is
///    concurrent with everything after its invocation).
///
/// Values that were never written are *fabricated* and always illegal —
/// even a safe register may only return domain values; our harness catches
/// protocol bugs this way.
///
/// # Example
///
/// ```
/// use dynareg_verify::{History, RegularityChecker};
/// use dynareg_sim::{NodeId, Time};
///
/// let mut h: History<u64> = History::new(0);
/// let w = h.invoke_write(NodeId::from_raw(0), Time::at(1), 10);
/// h.complete_write(w, Time::at(4));
/// // Read concurrent with the write: may return 0 or 10.
/// let r = h.invoke_read(NodeId::from_raw(1), Time::at(2));
/// h.complete_read(r, Time::at(3), 0);
/// assert!(RegularityChecker::check(&h).is_ok());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RegularityChecker;

impl RegularityChecker {
    /// Runs the check; the report lists every illegal read.
    ///
    /// Single pass over the reads against a `WriteSweep` of the write
    /// intervals: per read, the unsuperseded-before test is two binary
    /// searches and the concurrency test for the returned value's write is
    /// one O(1) interval overlap — O((R+W) log W) overall, versus the
    /// naive oracle's O(R·W²) rescan. Violation *messages* still enumerate
    /// the full legal set (violations are rare; clarity wins there).
    pub fn check<V: Clone + Eq + Hash + std::fmt::Debug>(
        history: &History<V>,
    ) -> ConsistencyReport<V> {
        let sweep = WriteSweep::build(history);
        let mut violations = Vec::new();
        let mut checked = 0;

        for read in history.completed_reads() {
            checked += 1;
            let returned = match &read.kind {
                OpKind::Read { returned: Some(v) } => v,
                _ => unreachable!("completed_reads yields completed reads"),
            };
            let legal = match history.provenance(returned) {
                Err(_) => {
                    violations.push(Violation {
                        read: read.op,
                        node: read.node,
                        returned: returned.clone(),
                        explanation: "fabricated value: never written and not the initial value"
                            .into(),
                    });
                    continue;
                }
                Ok(p) => match p {
                    None => !sweep.any_completed_before(read.invoked_at),
                    Some(i) => {
                        sweep.by_index[i].overlaps(read)
                            || sweep.unsuperseded_before(i, read.invoked_at)
                    }
                },
            };
            if !legal {
                // Rare path: rebuild the naive explanation for the report.
                if let Some(v) = Self::judge(history, &sweep.by_index, read, returned) {
                    violations.push(v);
                }
            }
        }

        ConsistencyReport {
            semantics: "regular",
            checked_reads: checked,
            violations,
            inversions: 0,
        }
    }

    /// The original O(R·W) implementation, retained verbatim as the *test
    /// oracle*: the property suite requires [`RegularityChecker::check`]
    /// to agree with it violation-for-violation on arbitrary histories.
    #[cfg(test)]
    pub(crate) fn check_naive<V: Clone + Eq + Hash + std::fmt::Debug>(
        history: &History<V>,
    ) -> ConsistencyReport<V> {
        let writes: Vec<&OpRecord<V>> = history.writes().collect();
        let mut violations = Vec::new();
        let mut checked = 0;

        for read in history.completed_reads() {
            checked += 1;
            let returned = match &read.kind {
                OpKind::Read { returned: Some(v) } => v,
                _ => unreachable!("completed_reads yields completed reads"),
            };
            if let Some(v) = Self::judge(history, &writes, read, returned) {
                violations.push(v);
            }
        }

        ConsistencyReport {
            semantics: "regular",
            checked_reads: checked,
            violations,
            inversions: 0,
        }
    }

    /// Legal write indices for a read: `None` stands for the initial value.
    pub(crate) fn legal_indices<V: Clone + Eq + Hash + std::fmt::Debug>(
        writes: &[&OpRecord<V>],
        read: &OpRecord<V>,
    ) -> Vec<Option<usize>> {
        let mut legal = Vec::new();
        // Writes completed *strictly* before the read's invocation that no
        // other such write supersedes under the hybrid order. Equal
        // instants count as concurrent, matching `OpRecord::overlaps`
        // (closed intervals): a write completing exactly when a read
        // starts contributes via the concurrency rule instead, and its
        // predecessor stays legal ("the last value … before these
        // concurrent writes"). Single writer: this is {max index}.
        let before: Vec<&&OpRecord<V>> = writes
            .iter()
            .filter(|w| w.completed_at.is_some_and(|c| c < read.invoked_at))
            .collect();
        if before.is_empty() {
            legal.push(None); // initial value
        }
        for w in &before {
            if !before.iter().any(|w2| write_precedes(**w, **w2)) {
                legal.push(Some(write_index(**w)));
            }
        }
        // Writes concurrent with the read.
        for w in writes {
            if w.overlaps(read) {
                if let OpKind::Write { index, .. } = w.kind {
                    legal.push(Some(index));
                }
            }
        }
        legal.sort_unstable();
        legal.dedup();
        legal
    }

    fn judge<V: Clone + Eq + Hash + std::fmt::Debug>(
        history: &History<V>,
        writes: &[&OpRecord<V>],
        read: &OpRecord<V>,
        returned: &V,
    ) -> Option<Violation<V>> {
        let provenance = match history.provenance(returned) {
            Ok(p) => p,
            Err(_) => {
                return Some(Violation {
                    read: read.op,
                    node: read.node,
                    returned: returned.clone(),
                    explanation: "fabricated value: never written and not the initial value".into(),
                });
            }
        };
        let legal = Self::legal_indices(writes, read);
        if legal.contains(&provenance) {
            None
        } else {
            let legal_desc: Vec<String> = legal
                .iter()
                .map(|l| match l {
                    None => "initial".to_string(),
                    Some(i) => format!("write#{i}"),
                })
                .collect();
            let got = match provenance {
                None => "initial".to_string(),
                Some(i) => format!("write#{i}"),
            };
            Some(Violation {
                read: read.op,
                node: read.node,
                returned: returned.clone(),
                explanation: format!(
                    "read [{}..{}] returned {got} but legal values are {{{}}}",
                    read.invoked_at,
                    read.completed_at.expect("completed"),
                    legal_desc.join(", ")
                ),
            })
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

    /// w1 = [1,4] → 10, w2 = [6,9] → 20.
    fn two_write_history() -> History<u64> {
        let mut h: History<u64> = History::new(0);
        let w1 = h.invoke_write(n(0), Time::at(1), 10);
        h.complete_write(w1, Time::at(4));
        let w2 = h.invoke_write(n(0), Time::at(6), 20);
        h.complete_write(w2, Time::at(9));
        h
    }

    fn with_read(mut h: History<u64>, inv: u64, comp: u64, value: u64) -> History<u64> {
        let r = h.invoke_read(n(1), Time::at(inv));
        h.complete_read(r, Time::at(comp), value);
        h
    }

    #[test]
    fn read_after_write_must_see_it() {
        let h = with_read(two_write_history(), 10, 11, 20);
        assert!(RegularityChecker::check(&h).is_ok());
        let stale = with_read(two_write_history(), 10, 11, 10);
        let report = RegularityChecker::check(&stale);
        assert_eq!(report.violation_count(), 1);
        assert!(report.violations[0]
            .explanation
            .contains("legal values are {write#1}"));
    }

    #[test]
    fn read_concurrent_with_write_may_see_old_or_new() {
        for value in [10, 20] {
            let h = with_read(two_write_history(), 7, 8, value);
            assert!(
                RegularityChecker::check(&h).is_ok(),
                "value {value} is legal"
            );
        }
        // But not the ancient initial value.
        let h = with_read(two_write_history(), 7, 8, 0);
        assert!(!RegularityChecker::check(&h).is_ok());
    }

    #[test]
    fn read_before_any_write_sees_initial() {
        let mut h: History<u64> = History::new(0);
        let r = h.invoke_read(n(1), Time::at(0));
        h.complete_read(r, Time::at(0), 0);
        assert!(RegularityChecker::check(&h).is_ok());
    }

    #[test]
    fn fabricated_value_is_flagged() {
        let h = with_read(two_write_history(), 10, 11, 999);
        let report = RegularityChecker::check(&h);
        assert_eq!(report.violation_count(), 1);
        assert!(report.violations[0].explanation.contains("fabricated"));
    }

    #[test]
    fn pending_write_is_concurrent_forever() {
        let mut h: History<u64> = History::new(0);
        h.invoke_write(n(0), Time::at(1), 10); // never completes (writer stays? crashed)
        let r = h.invoke_read(n(1), Time::at(100));
        h.complete_read(r, Time::at(101), 10);
        assert!(RegularityChecker::check(&h).is_ok());
        // The initial value is also still legal: no write ever *completed*.
        let r2 = h.invoke_read(n(1), Time::at(102));
        h.complete_read(r2, Time::at(103), 0);
        assert!(RegularityChecker::check(&h).is_ok());
    }

    #[test]
    fn read_spanning_both_writes_accepts_either_but_not_initial() {
        let h = with_read(two_write_history(), 2, 8, 10);
        assert!(RegularityChecker::check(&h).is_ok());
        let h = with_read(two_write_history(), 2, 8, 20);
        assert!(RegularityChecker::check(&h).is_ok());
        // Read invoked at 2 overlaps w1 (concurrent) → initial no longer
        // last-before? Last write completed before t=2: none → initial IS
        // legal via rule 1.
        let h = with_read(two_write_history(), 2, 8, 0);
        assert!(RegularityChecker::check(&h).is_ok());
    }

    #[test]
    fn new_old_inversion_is_legal_for_regular() {
        // r1 = [6,7] returns 20 (new), r2 = [8,8] returns 10 (old, but w2
        // is still concurrent? No: w2 = [6,9], r2 = [8,8] overlaps w2, so 10
        // = value before the concurrent write → legal. This is exactly the
        // §1 inversion figure.
        let h = with_read(two_write_history(), 6, 7, 20);
        let h = with_read(h, 8, 8, 10);
        assert!(RegularityChecker::check(&h).is_ok());
    }

    #[test]
    fn touching_endpoints_count_as_concurrent() {
        // Write completes at 4; read invoked at 4 → w completed_at <= inv,
        // so w is "before" AND overlapping. Both old (if later write) and
        // new legal; with single write, both initial? Check: read [4,5]
        // returning 10 is legal (last-before), returning 0 is not (w1
        // completed at exactly 4 — it is last-before … but also concurrent
        // by our closed-interval overlap, making 0 the value before the
        // concurrent write → legal).
        let mut h: History<u64> = History::new(0);
        let w1 = h.invoke_write(n(0), Time::at(1), 10);
        h.complete_write(w1, Time::at(4));
        let h1 = with_read(h.clone(), 4, 5, 10);
        assert!(RegularityChecker::check(&h1).is_ok());
        let h0 = with_read(h, 4, 5, 0);
        assert!(RegularityChecker::check(&h0).is_ok());
    }

    #[test]
    fn concurrent_cross_node_writes_are_both_legal_until_superseded() {
        // wa = [1,5] by n0 → 10, wb = [2,6] by n1 → 20: mutually
        // concurrent, so *both* stay legal quiescent values after they
        // complete — until a later write supersedes the pair.
        let mut h: History<u64> = History::new(0);
        let wa = h.invoke_write(n(0), Time::at(1), 10);
        let wb = h.invoke_write(n(1), Time::at(2), 20);
        h.complete_write(wa, Time::at(5));
        h.complete_write(wb, Time::at(6));
        for v in [10, 20] {
            let h2 = with_read(h.clone(), 8, 9, v);
            assert!(RegularityChecker::check(&h2).is_ok(), "value {v} legal");
            assert!(RegularityChecker::check_naive(&h2).is_ok());
        }
        let h0 = with_read(h.clone(), 8, 9, 0);
        assert_eq!(RegularityChecker::check(&h0).violation_count(), 1);
        assert_eq!(RegularityChecker::check_naive(&h0).violation_count(), 1);
        // A third write invoked after both completed supersedes both.
        let mut h3 = h;
        let wc = h3.invoke_write(n(0), Time::at(10), 30);
        h3.complete_write(wc, Time::at(11));
        let stale = with_read(h3.clone(), 12, 13, 20);
        assert_eq!(RegularityChecker::check(&stale).violation_count(), 1);
        assert_eq!(RegularityChecker::check_naive(&stale).violation_count(), 1);
        let fresh = with_read(h3, 12, 13, 30);
        assert!(RegularityChecker::check(&fresh).is_ok());
    }

    #[test]
    fn same_node_chain_orders_writes_even_at_touching_instants() {
        // n0 writes 10 over [1,3] then 20 over [3,5]: the second invocation
        // touches the first completion, so real time alone leaves them
        // unordered — the same-node clause of the hybrid order still
        // serializes them, keeping single-writer verdicts unchanged.
        let mut h: History<u64> = History::new(0);
        let w1 = h.invoke_write(n(0), Time::at(1), 10);
        h.complete_write(w1, Time::at(3));
        let w2 = h.invoke_write(n(0), Time::at(3), 20);
        h.complete_write(w2, Time::at(5));
        let stale = with_read(h.clone(), 6, 7, 10);
        assert_eq!(RegularityChecker::check(&stale).violation_count(), 1);
        assert_eq!(RegularityChecker::check_naive(&stale).violation_count(), 1);
        let fresh = with_read(h, 6, 7, 20);
        assert!(RegularityChecker::check(&fresh).is_ok());
    }

    #[test]
    fn report_counts_all_reads() {
        let mut h = two_write_history();
        for t in [10, 12, 14] {
            let r = h.invoke_read(n(2), Time::at(t));
            h.complete_read(r, Time::at(t + 1), 20);
        }
        let report = RegularityChecker::check(&h);
        assert_eq!(report.checked_reads, 3);
        assert!(report.is_ok());
    }
}
