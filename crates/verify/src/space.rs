//! Per-key histories and verdicts for keyed register spaces.
//!
//! A register space is `k` independent registers over one membership
//! substrate, so its observable behaviour is `k` independent [`History`]s:
//! every key's writes are serialized *within that key*, every checker runs
//! unchanged per key, and the space-level verdict aggregates the per-key
//! reports (totals plus the worst key). A 1-key [`SpaceHistory`] is
//! exactly one [`History`] — the single-register path is the anchor-key
//! special case.

use std::fmt;
use std::hash::Hash;

use dynareg_sim::{NodeId, OpId, RegisterId, Time};

use crate::atomic::AtomicityChecker;
use crate::history::{History, OpKind};
use crate::liveness::{LivenessChecker, LivenessReport};
use crate::regular::RegularityChecker;
use crate::report::ConsistencyReport;

/// The recorded behaviour of one run of a `k`-key register space: one
/// [`History`] per key. Joins are membership-level events and appear in
/// *every* key's history (a joiner joins all registers at once), so each
/// per-key history is self-contained for the liveness checker.
#[derive(Debug, Clone)]
pub struct SpaceHistory<V> {
    keys: Vec<History<V>>,
}

impl<V: Clone + Eq + Hash + fmt::Debug> SpaceHistory<V> {
    /// A space of `keys` registers, each initialized to `initial` (the
    /// paper initializes every `register_k` to a common value, §3.3).
    ///
    /// # Panics
    /// Panics if `keys` is zero.
    pub fn new(keys: u32, initial: V) -> SpaceHistory<V> {
        assert!(keys > 0, "a register space needs at least one key");
        SpaceHistory {
            keys: (0..keys).map(|_| History::new(initial.clone())).collect(),
        }
    }

    /// Number of keys.
    pub fn key_count(&self) -> u32 {
        self.keys.len() as u32
    }

    /// The history of one key.
    pub fn key(&self, key: RegisterId) -> &History<V> {
        &self.keys[key.as_raw() as usize]
    }

    /// Mutable access to one key's history (the runtime's append path).
    pub fn key_mut(&mut self, key: RegisterId) -> &mut History<V> {
        &mut self.keys[key.as_raw() as usize]
    }

    /// Iterates `(key, history)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (RegisterId, &History<V>)> + '_ {
        self.keys
            .iter()
            .enumerate()
            .map(|(i, h)| (RegisterId::from_raw(i as u32), h))
    }

    /// Records the invocation of a join in **every** key's history,
    /// returning the per-key op ids in key order.
    pub fn invoke_join_all(&mut self, node: NodeId, t: Time) -> Vec<OpId> {
        self.keys
            .iter_mut()
            .map(|h| h.invoke_join(node, t))
            .collect()
    }

    /// Marks the per-key join ops (as returned by
    /// [`invoke_join_all`](SpaceHistory::invoke_join_all)) complete at `t`.
    ///
    /// # Panics
    /// Panics if `ops` does not carry one op per key.
    pub fn complete_join_all(&mut self, ops: &[OpId], t: Time) {
        assert_eq!(ops.len(), self.keys.len(), "one join op per key");
        for (h, &op) in self.keys.iter_mut().zip(ops) {
            h.complete_join(op, t);
        }
    }

    /// Records that `node` left the system at `t`, in every key's history.
    pub fn note_left(&mut self, node: NodeId, t: Time) {
        for h in &mut self.keys {
            h.note_left(node, t);
        }
    }

    /// Decomposes the space into its per-key histories, in key order.
    pub fn into_histories(self) -> Vec<History<V>> {
        self.keys
    }

    /// Shard-quorum join liveness: a space join is live **iff every shard
    /// answered**, i.e. the space activates all keys atomically, so each
    /// node's join stream — `(node, invoked, completed)` in order — must
    /// be identical in every key's history. A key whose join completed at
    /// a different instant (or not at all) means some shard's quorum was
    /// never folded into the single `JoinComplete`, which the runtime
    /// promises never happens: sharded joiners hold the *whole* join open
    /// until the last shard meets quorum.
    pub fn joins_consistent(&self) -> bool {
        let join_stream = |h: &History<V>| -> Vec<(NodeId, Time, Option<Time>)> {
            h.ops()
                .iter()
                .filter(|r| matches!(r.kind, OpKind::Join))
                .map(|r| (r.node, r.invoked_at, r.completed_at))
                .collect()
        };
        let anchor = join_stream(&self.keys[0]);
        self.keys.iter().skip(1).all(|h| join_stream(h) == anchor)
    }
}

/// The verdicts of one key of a space.
#[derive(Debug, Clone)]
pub struct KeyVerdict<V> {
    /// The key.
    pub key: RegisterId,
    /// Regular-register verdict (the paper's Safety property).
    pub regularity: ConsistencyReport<V>,
    /// Atomic-register verdict (regularity + inversion-freedom).
    pub atomicity: ConsistencyReport<V>,
    /// Liveness verdict and latency statistics.
    pub liveness: LivenessReport,
}

impl<V> KeyVerdict<V> {
    /// Badness order: violations first, then stuck operations (used to
    /// pick the worst key; ties resolve to the lowest key).
    fn badness(&self) -> (usize, usize) {
        (
            self.regularity.violation_count(),
            self.liveness.incomplete_stayer_count(),
        )
    }
}

/// The space-level verdict: per-key reports plus aggregates.
///
/// # Example
///
/// ```
/// use dynareg_verify::{SpaceHistory, SpaceReport};
/// use dynareg_sim::{NodeId, RegisterId, Time};
///
/// let mut space: SpaceHistory<u64> = SpaceHistory::new(2, 0);
/// let w = space
///     .key_mut(RegisterId::from_raw(1))
///     .invoke_write(NodeId::from_raw(0), Time::at(1), 7);
/// space.key_mut(RegisterId::from_raw(1)).complete_write(w, Time::at(3));
/// let report = SpaceReport::check(&space);
/// assert!(report.all_regular() && report.all_live());
/// assert_eq!(report.key_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SpaceReport<V> {
    /// One verdict per key, in key order.
    pub keys: Vec<KeyVerdict<V>>,
    /// Whether every node's join completed in all keys at one instant —
    /// the shard-quorum liveness invariant ("a join is live iff all shards
    /// answered"); see [`SpaceHistory::joins_consistent`].
    pub joins_consistent: bool,
}

impl<V: Clone + Eq + Hash + fmt::Debug> SpaceReport<V> {
    /// Runs every checker on every key, plus the space-level join
    /// consistency check.
    pub fn check(space: &SpaceHistory<V>) -> SpaceReport<V> {
        SpaceReport {
            keys: space
                .iter()
                .map(|(key, h)| KeyVerdict {
                    key,
                    regularity: RegularityChecker::check(h),
                    atomicity: AtomicityChecker::check(h),
                    liveness: LivenessChecker::check(h),
                })
                .collect(),
            joins_consistent: space.joins_consistent(),
        }
    }
}

impl<V> SpaceReport<V> {
    /// Number of keys checked.
    pub fn key_count(&self) -> u32 {
        self.keys.len() as u32
    }

    /// Whether every key satisfies regularity.
    pub fn all_regular(&self) -> bool {
        self.keys.iter().all(|k| k.regularity.is_ok())
    }

    /// Whether every key satisfies liveness — including the space-level
    /// join invariant (a join is live iff all shards answered, so it must
    /// complete in every key at once).
    pub fn all_live(&self) -> bool {
        self.joins_consistent && self.keys.iter().all(|k| k.liveness.is_ok())
    }

    /// Total reads checked across keys.
    pub fn total_reads_checked(&self) -> usize {
        self.keys.iter().map(|k| k.regularity.checked_reads).sum()
    }

    /// Total regularity violations across keys.
    pub fn total_violations(&self) -> usize {
        self.keys
            .iter()
            .map(|k| k.regularity.violation_count())
            .sum()
    }

    /// Total new/old inversion pairs across keys.
    pub fn total_inversions(&self) -> usize {
        self.keys.iter().map(|k| k.atomicity.inversions).sum()
    }

    /// Total stuck (liveness-violating) operations across keys.
    pub fn total_stuck(&self) -> usize {
        self.keys
            .iter()
            .map(|k| k.liveness.incomplete_stayer_count())
            .sum()
    }

    /// The worst key: most regularity violations, ties broken by stuck
    /// operations, then lowest key.
    ///
    /// # Panics
    /// Panics if the report is empty (a space has ≥ 1 key).
    pub fn worst_key(&self) -> &KeyVerdict<V> {
        self.keys
            .iter()
            .max_by(|a, b| {
                // Equal badness resolves to the LOWER key (`max_by` keeps
                // the later element, so reverse the key order in the tie).
                a.badness().cmp(&b.badness()).then(b.key.cmp(&a.key))
            })
            .expect("a space has at least one key")
    }

    /// One-line aggregate summary: totals per key count plus the worst key.
    pub fn summary(&self) -> String {
        let worst = self.worst_key();
        format!(
            "{} keys: reads={} violations={} inversions={} stuck={} | worst {}: violations={} stuck={}",
            self.key_count(),
            self.total_reads_checked(),
            self.total_violations(),
            self.total_inversions(),
            self.total_stuck(),
            worst.key,
            worst.regularity.violation_count(),
            worst.liveness.incomplete_stayer_count(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u64) -> NodeId {
        NodeId::from_raw(i)
    }

    fn k(i: u32) -> RegisterId {
        RegisterId::from_raw(i)
    }

    #[test]
    fn keys_are_independent_histories() {
        let mut s: SpaceHistory<u64> = SpaceHistory::new(3, 0);
        // The same value may be written to different keys (uniqueness is
        // per key), and write serialization is per key too.
        let w0 = s.key_mut(k(0)).invoke_write(n(0), Time::at(1), 7);
        s.key_mut(k(0)).complete_write(w0, Time::at(2));
        let w2 = s.key_mut(k(2)).invoke_write(n(0), Time::at(3), 7);
        s.key_mut(k(2)).complete_write(w2, Time::at(4));
        assert_eq!(s.key(k(0)).write_count(), 1);
        assert_eq!(s.key(k(1)).write_count(), 0);
        assert_eq!(s.key(k(2)).write_count(), 1);
    }

    #[test]
    fn joins_appear_in_every_key() {
        let mut s: SpaceHistory<u64> = SpaceHistory::new(2, 0);
        let ops = s.invoke_join_all(n(9), Time::at(5));
        assert_eq!(ops.len(), 2);
        s.complete_join_all(&ops, Time::at(8));
        for (_, h) in s.iter() {
            assert_eq!(h.ops().len(), 1);
            assert!(h.ops()[0].is_complete());
        }
    }

    #[test]
    fn note_left_excuses_on_every_key() {
        let mut s: SpaceHistory<u64> = SpaceHistory::new(2, 0);
        s.key_mut(k(0)).invoke_read(n(3), Time::at(1));
        s.key_mut(k(1)).invoke_read(n(3), Time::at(1));
        s.note_left(n(3), Time::at(2));
        let report = SpaceReport::check(&s);
        assert!(report.all_live(), "departed reader is excused on both keys");
    }

    #[test]
    fn worst_key_ranks_by_violations_then_stuck() {
        let mut s: SpaceHistory<u64> = SpaceHistory::new(3, 0);
        // Key 1: a fabricated read (regularity violation).
        let r = s.key_mut(k(1)).invoke_read(n(1), Time::at(1));
        s.key_mut(k(1)).complete_read(r, Time::at(2), 999);
        // Key 2: a stuck stayer.
        s.key_mut(k(2)).invoke_read(n(2), Time::at(1));
        let report = SpaceReport::check(&s);
        assert!(!report.all_regular());
        assert!(!report.all_live());
        assert_eq!(report.worst_key().key, k(1));
        assert_eq!(report.total_violations(), 1);
        assert_eq!(report.total_stuck(), 1);
        let summary = report.summary();
        assert!(summary.contains("worst r1"), "{summary}");
    }

    #[test]
    fn worst_key_ties_resolve_to_the_lowest_key() {
        let s: SpaceHistory<u64> = SpaceHistory::new(3, 0);
        let report = SpaceReport::check(&s);
        assert_eq!(report.worst_key().key, k(0), "clean space → anchor key");
    }

    #[test]
    fn join_missing_from_one_key_breaks_consistency_and_liveness() {
        let mut s: SpaceHistory<u64> = SpaceHistory::new(2, 0);
        // A join recorded (and completed) in key 0 only: some shard never
        // answered, yet the runtime claimed completion — the invariant the
        // space-level check exists to catch.
        let op = s.key_mut(k(0)).invoke_join(n(9), Time::at(1));
        s.key_mut(k(0)).complete_join(op, Time::at(4));
        assert!(!s.joins_consistent());
        let report = SpaceReport::check(&s);
        assert!(!report.joins_consistent);
        assert!(
            !report.all_live(),
            "inconsistent joins are a liveness defect"
        );
    }

    #[test]
    fn join_completing_at_different_instants_breaks_consistency() {
        let mut s: SpaceHistory<u64> = SpaceHistory::new(2, 0);
        let ops = s.invoke_join_all(n(9), Time::at(1));
        assert!(s.joins_consistent(), "pending everywhere is consistent");
        s.key_mut(k(0)).complete_join(ops[0], Time::at(3));
        assert!(!s.joins_consistent(), "one shard answered, one did not");
        s.key_mut(k(1)).complete_join(ops[1], Time::at(5));
        assert!(!s.joins_consistent(), "staggered completion is not atomic");
    }

    #[test]
    fn atomic_joins_are_consistent() {
        let mut s: SpaceHistory<u64> = SpaceHistory::new(3, 0);
        let ops = s.invoke_join_all(n(9), Time::at(1));
        s.complete_join_all(&ops, Time::at(4));
        let pending = s.invoke_join_all(n(10), Time::at(6));
        assert!(s.joins_consistent(), "pending in every key is consistent");
        s.complete_join_all(&pending, Time::at(9));
        assert!(s.joins_consistent());
        let report = SpaceReport::check(&s);
        assert!(report.joins_consistent);
        assert!(report.all_live(), "{}", report.summary());
    }

    #[test]
    fn one_key_space_is_a_single_history() {
        let mut s: SpaceHistory<u64> = SpaceHistory::new(1, 0);
        let w = s.key_mut(k(0)).invoke_write(n(0), Time::at(1), 5);
        s.key_mut(k(0)).complete_write(w, Time::at(2));
        let histories = s.into_histories();
        assert_eq!(histories.len(), 1);
        assert_eq!(histories[0].write_count(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one key")]
    fn zero_keys_rejected() {
        let _ = SpaceHistory::<u64>::new(0, 0);
    }
}
