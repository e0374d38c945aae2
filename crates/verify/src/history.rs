//! Operation histories.
//!
//! A [`History`] is the observable behaviour of one run: for every join,
//! read and write, who invoked it, when, when it returned (if it did) and
//! with what value. The simulation runtime appends to the history as
//! operations progress; checkers consume it read-only afterwards.

use std::hash::Hash;

use dynareg_sim::{LookupMap, NodeId, OpId, Time};

/// What kind of operation a record describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind<V> {
    /// A `join` operation (returns no value).
    Join,
    /// A `read`; carries the returned value once completed.
    Read {
        /// The value the read returned, `None` while pending.
        returned: Option<V>,
    },
    /// A `write` of the given value.
    Write {
        /// The value written.
        value: V,
        /// Invocation index among all writes (0 = first write invoked).
        /// For a single writer this is the serialization order; with
        /// concurrent writers it only orders each node's own writes (the
        /// checkers use the hybrid real-time ∪ same-node order).
        index: usize,
    },
}

/// One operation in a history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord<V> {
    /// Unique operation id.
    pub op: OpId,
    /// The process that invoked it.
    pub node: NodeId,
    /// Kind and (for completed reads) result.
    pub kind: OpKind<V>,
    /// Invocation instant.
    pub invoked_at: Time,
    /// Response instant; `None` if still pending at end of run.
    pub completed_at: Option<Time>,
}

impl<V> OpRecord<V> {
    /// Whether the operation completed.
    pub fn is_complete(&self) -> bool {
        self.completed_at.is_some()
    }

    /// Whether this record overlaps in real time with `[inv, comp]` of
    /// another operation; pending operations extend to infinity.
    pub fn overlaps(&self, other: &OpRecord<V>) -> bool {
        let self_end_after_other_start = match self.completed_at {
            Some(c) => c >= other.invoked_at,
            None => true,
        };
        let other_end_after_self_start = match other.completed_at {
            Some(c) => c >= self.invoked_at,
            None => true,
        };
        self_end_after_other_start && other_end_after_self_start
    }
}

/// The recorded behaviour of one run.
///
/// # Write ordering
///
/// Each *process's* writes to the register must be serial
/// ([`History::invoke_write`] asserts it); writes by *different* processes
/// may overlap — the multi-writer setting the ES protocol's `(sn, writer)`
/// timestamps serialize. Checkers order writes by the hybrid relation
/// `w < w′ iff w completed before w′ was invoked, or both are by the same
/// node and w was invoked first`; on a single-writer history that relation
/// is exactly the total invocation order, so the classic checks are a
/// special case. Write values must be unique across the run — the paper's
/// proofs make the same no-duplicate assumption ("without loss of
/// generality", Theorem 4) and it is what lets checkers recover the
/// reads-from mapping.
///
/// # Example
///
/// ```
/// use dynareg_verify::History;
/// use dynareg_sim::{NodeId, Time};
///
/// let mut h: History<u64> = History::new(0);
/// let writer = NodeId::from_raw(0);
/// let w = h.invoke_write(writer, Time::at(1), 10);
/// h.complete_write(w, Time::at(5));
/// let r = h.invoke_read(NodeId::from_raw(1), Time::at(6));
/// h.complete_read(r, Time::at(6), 10);
/// assert_eq!(h.completed_reads().count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct History<V> {
    initial: V,
    /// Every op in invocation order. Ids are handed out as `0, 1, 2, …` in
    /// push order, so an op is found by its id (`ops[op.as_raw()]`) and
    /// needs no index of its own.
    ops: Vec<OpRecord<V>>,
    // The remaining indexes — writes per node, write per value, departures
    // — are inserted and probed by key; `LookupMap` cannot be iterated, and
    // `value_writer_index` is keyed by the generic `V: Hash`, which has no
    // `Ord` bound — a BTreeMap cannot back it.
    write_count: usize,
    last_write_by_node: LookupMap<NodeId, OpId>,
    value_writer_index: LookupMap<V, usize>,
    left_at: LookupMap<NodeId, Time>,
}

impl<V: Clone + Eq + Hash + std::fmt::Debug> History<V> {
    /// A history over a register whose initial value is `initial` (the
    /// paper initializes every `register_k` to a common value, §3.3).
    pub fn new(initial: V) -> History<V> {
        History {
            initial,
            ops: Vec::new(),
            write_count: 0,
            last_write_by_node: LookupMap::new(),
            value_writer_index: LookupMap::new(),
            left_at: LookupMap::new(),
        }
    }

    /// The register's initial value.
    pub fn initial(&self) -> &V {
        &self.initial
    }

    /// The id the next pushed op gets: its index in `ops`.
    fn fresh_op(&self) -> OpId {
        OpId::from_raw(self.ops.len() as u64)
    }

    fn push(&mut self, rec: OpRecord<V>) -> OpId {
        let id = rec.op;
        debug_assert_eq!(
            id.as_raw(),
            self.ops.len() as u64,
            "ops are pushed in id order"
        );
        self.ops.push(rec);
        id
    }

    /// Records the invocation of a join by `node` at `t`.
    pub fn invoke_join(&mut self, node: NodeId, t: Time) -> OpId {
        let op = self.fresh_op();
        self.push(OpRecord {
            op,
            node,
            kind: OpKind::Join,
            invoked_at: t,
            completed_at: None,
        })
    }

    /// Records the invocation of a read by `node` at `t`.
    pub fn invoke_read(&mut self, node: NodeId, t: Time) -> OpId {
        let op = self.fresh_op();
        self.push(OpRecord {
            op,
            node,
            kind: OpKind::Read { returned: None },
            invoked_at: t,
            completed_at: None,
        })
    }

    /// Records the invocation of a write of `value` by `node` at `t`.
    ///
    /// # Panics
    ///
    /// Panics if `node`'s own previous write is still pending (a process's
    /// writes to one register are serial; writes by *different* processes
    /// may overlap — the multi-writer setting). Also panics if `value`
    /// repeats an earlier write's value.
    pub fn invoke_write(&mut self, node: NodeId, t: Time, value: V) -> OpId {
        if let Some(&prev) = self.last_write_by_node.get(&node) {
            let rec = self.get(prev).expect("recorded write");
            assert!(
                rec.is_complete(),
                "a process's writes on one register must be serial"
            );
        }
        assert!(
            value != self.initial && !self.value_writer_index.contains_key(&value),
            "write values must be unique (got duplicate {value:?})"
        );
        let index = self.write_count;
        self.write_count += 1;
        self.value_writer_index.insert(value.clone(), index);
        let op = self.fresh_op();
        self.last_write_by_node.insert(node, op);
        self.push(OpRecord {
            op,
            node,
            kind: OpKind::Write { value, index },
            invoked_at: t,
            completed_at: None,
        })
    }

    fn rec_mut(&mut self, op: OpId) -> &mut OpRecord<V> {
        usize::try_from(op.as_raw())
            .ok()
            .and_then(|i| self.ops.get_mut(i))
            .expect("unknown op id")
    }

    /// Marks join `op` complete at `t`.
    ///
    /// # Panics
    /// Panics if `op` is not a pending join.
    pub fn complete_join(&mut self, op: OpId, t: Time) {
        let rec = self.rec_mut(op);
        assert!(matches!(rec.kind, OpKind::Join), "{op} is not a join");
        assert!(rec.completed_at.is_none(), "{op} completed twice");
        assert!(t >= rec.invoked_at);
        rec.completed_at = Some(t);
    }

    /// Marks read `op` complete at `t`, returning `value`.
    ///
    /// # Panics
    /// Panics if `op` is not a pending read.
    pub fn complete_read(&mut self, op: OpId, t: Time, value: V) {
        let rec = self.rec_mut(op);
        match &mut rec.kind {
            OpKind::Read { returned } => {
                assert!(
                    returned.is_none() && rec.completed_at.is_none(),
                    "{op} completed twice"
                );
                *returned = Some(value);
            }
            _ => panic!("{op} is not a read"),
        }
        assert!(t >= rec.invoked_at);
        rec.completed_at = Some(t);
    }

    /// Marks write `op` complete at `t`.
    ///
    /// # Panics
    /// Panics if `op` is not a pending write.
    pub fn complete_write(&mut self, op: OpId, t: Time) {
        let rec = self.rec_mut(op);
        assert!(
            matches!(rec.kind, OpKind::Write { .. }),
            "{op} is not a write"
        );
        assert!(rec.completed_at.is_none(), "{op} completed twice");
        assert!(t >= rec.invoked_at);
        rec.completed_at = Some(t);
    }

    /// Records that `node` left the system at `t` (used by the liveness
    /// checker to excuse its pending operations).
    pub fn note_left(&mut self, node: NodeId, t: Time) {
        self.left_at.insert_if_absent(node, t);
    }

    /// When `node` left, if it did.
    pub fn left_at(&self, node: NodeId) -> Option<Time> {
        self.left_at.get(&node).copied()
    }

    /// All records, in invocation order.
    pub fn ops(&self) -> &[OpRecord<V>] {
        &self.ops
    }

    /// Looks up a record by id.
    pub fn get(&self, op: OpId) -> Option<&OpRecord<V>> {
        self.ops.get(usize::try_from(op.as_raw()).ok()?)
    }

    /// All write records (complete and pending), in invocation order.
    pub fn writes(&self) -> impl Iterator<Item = &OpRecord<V>> + '_ {
        self.ops
            .iter()
            .filter(|r| matches!(r.kind, OpKind::Write { .. }))
    }

    /// All completed reads.
    pub fn completed_reads(&self) -> impl Iterator<Item = &OpRecord<V>> + '_ {
        self.ops
            .iter()
            .filter(|r| matches!(r.kind, OpKind::Read { .. }) && r.is_complete())
    }

    /// Number of writes ever invoked.
    pub fn write_count(&self) -> usize {
        self.write_count
    }

    /// The invocation index of the write that produced `value`:
    /// `None` for the initial value (conceptually index −1 / "write 0" in
    /// the paper's v₀ convention), `Some(i)` for the i-th write.
    ///
    /// Returns `Err` if `value` was never written nor initial — a read
    /// returning it is a *fabricated value* violation.
    pub fn provenance(&self, value: &V) -> Result<Option<usize>, FabricatedValue> {
        if *value == self.initial {
            Ok(None)
        } else {
            self.value_writer_index
                .get(value)
                .copied()
                .map(Some)
                .ok_or(FabricatedValue)
        }
    }
}

/// Error from [`History::provenance`]: the value was never written and is
/// not the register's initial value, so any read returning it fabricated it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricatedValue;

impl std::fmt::Display for FabricatedValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("value was never written and is not the initial value")
    }
}

impl std::error::Error for FabricatedValue {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn n(i: u64) -> NodeId {
        NodeId::from_raw(i)
    }

    #[test]
    fn write_indices_are_serial() {
        let mut h: History<u64> = History::new(0);
        let w1 = h.invoke_write(n(0), Time::at(1), 10);
        h.complete_write(w1, Time::at(2));
        let w2 = h.invoke_write(n(0), Time::at(3), 20);
        h.complete_write(w2, Time::at(4));
        let idx: Vec<usize> = h
            .writes()
            .map(|r| match r.kind {
                OpKind::Write { index, .. } => index,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(idx, vec![0, 1]);
        assert_eq!(h.write_count(), 2);
    }

    #[test]
    #[should_panic(expected = "serial")]
    fn same_node_concurrent_writes_rejected() {
        let mut h: History<u64> = History::new(0);
        h.invoke_write(n(0), Time::at(1), 10);
        h.invoke_write(n(0), Time::at(2), 20); // node 0's write still pending
    }

    #[test]
    fn cross_node_concurrent_writes_allowed() {
        let mut h: History<u64> = History::new(0);
        let w1 = h.invoke_write(n(0), Time::at(1), 10);
        let w2 = h.invoke_write(n(1), Time::at(2), 20); // overlaps w1: fine
        h.complete_write(w2, Time::at(3));
        h.complete_write(w1, Time::at(4));
        assert_eq!(h.write_count(), 2);
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn duplicate_values_rejected() {
        let mut h: History<u64> = History::new(0);
        let w = h.invoke_write(n(0), Time::at(1), 10);
        h.complete_write(w, Time::at(2));
        h.invoke_write(n(0), Time::at(3), 10);
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn writing_the_initial_value_rejected() {
        let mut h: History<u64> = History::new(0);
        h.invoke_write(n(0), Time::at(1), 0);
    }

    #[test]
    fn provenance_resolves_initial_written_and_fabricated() {
        let mut h: History<u64> = History::new(0);
        let w = h.invoke_write(n(0), Time::at(1), 10);
        h.complete_write(w, Time::at(2));
        assert_eq!(h.provenance(&0), Ok(None));
        assert_eq!(h.provenance(&10), Ok(Some(0)));
        assert_eq!(h.provenance(&99), Err(FabricatedValue));
    }

    #[test]
    fn overlap_semantics_with_pending_ops() {
        let a = OpRecord::<u64> {
            op: OpId::from_raw(0),
            node: n(0),
            kind: OpKind::Join,
            invoked_at: Time::at(1),
            completed_at: Some(Time::at(5)),
        };
        let b = OpRecord::<u64> {
            op: OpId::from_raw(1),
            node: n(1),
            kind: OpKind::Join,
            invoked_at: Time::at(5),
            completed_at: None,
        };
        let c = OpRecord::<u64> {
            op: OpId::from_raw(2),
            node: n(2),
            kind: OpKind::Join,
            invoked_at: Time::at(6),
            completed_at: Some(Time::at(9)),
        };
        assert!(a.overlaps(&b), "touching endpoints count as concurrent");
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c), "pending op extends forever");
    }

    #[test]
    fn read_completion_stores_value() {
        let mut h: History<u64> = History::new(0);
        let r = h.invoke_read(n(1), Time::at(3));
        h.complete_read(r, Time::at(4), 0);
        let rec = h.get(r).unwrap();
        assert_eq!(rec.kind, OpKind::Read { returned: Some(0) });
        assert_eq!(rec.completed_at, Some(Time::at(4)));
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_completion_rejected() {
        let mut h: History<u64> = History::new(0);
        let r = h.invoke_read(n(1), Time::at(3));
        h.complete_read(r, Time::at(4), 0);
        h.complete_read(r, Time::at(5), 0);
    }

    /// Two histories built by the same calls render identically: the
    /// lookup indexes print their length, never their (hash-ordered) entries.
    #[test]
    fn debug_rendering_is_the_same_for_identical_histories() {
        let build = || {
            let mut h: History<u64> = History::new(0);
            for i in 0..12 {
                let w = h.invoke_write(n(i % 4), Time::at(3 * i + 1), 10 * (i + 1));
                h.complete_write(w, Time::at(3 * i + 2));
                let r = h.invoke_read(n(4 + i), Time::at(3 * i + 2));
                h.complete_read(r, Time::at(3 * i + 3), 10 * (i + 1));
                h.note_left(n(4 + i), Time::at(3 * i + 3));
            }
            h
        };
        let (a, b) = (format!("{:?}", build()), format!("{:?}", build()));
        assert_eq!(a, b);
        assert_eq!(a.matches("LookupMap { len: ").count(), 3, "{a}");
        assert!(a.contains("left_at: LookupMap { len: 12 }"), "{a}");
    }

    /// What a run's op log costs per op: the record itself, found by id.
    #[test]
    fn an_op_record_is_at_most_64_bytes() {
        assert!(std::mem::size_of::<OpRecord<u64>>() <= 64);
    }

    #[test]
    fn get_past_the_last_op_is_none() {
        let mut h: History<u64> = History::new(0);
        assert_eq!(h.get(OpId::from_raw(0)), None);
        let r = h.invoke_read(n(1), Time::at(3));
        assert_eq!(h.get(r).map(|rec| rec.op), Some(r));
        assert_eq!(h.get(OpId::from_raw(1)), None);
        assert_eq!(h.get(OpId::from_raw(u64::MAX)), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Ops are found by their id: after any mix of invocations and
        /// completions, record `i` carries id `i` and `get` returns it.
        #[test]
        fn ops_are_found_by_their_id(
            steps in prop::collection::vec((0u8..5, 0u64..6, 0usize..64), 0..60),
        ) {
            let mut h: History<u64> = History::new(0);
            let mut pending: Vec<OpId> = Vec::new();
            let mut writing = [false; 6];
            let mut next_value = 1;
            for (i, &(kind, node, pick)) in steps.iter().enumerate() {
                let t = Time::at(i as u64);
                match kind {
                    0 => pending.push(h.invoke_join(n(node), t)),
                    1 => pending.push(h.invoke_read(n(node), t)),
                    2 if !writing[node as usize] => {
                        writing[node as usize] = true;
                        pending.push(h.invoke_write(n(node), t, next_value));
                        next_value += 1;
                    }
                    _ if !pending.is_empty() => {
                        let op = pending.swap_remove(pick % pending.len());
                        let rec = h.get(op).expect("invoked").clone();
                        match rec.kind {
                            OpKind::Join => h.complete_join(op, t),
                            OpKind::Read { .. } => h.complete_read(op, t, 0),
                            OpKind::Write { .. } => {
                                writing[rec.node.as_raw() as usize] = false;
                                h.complete_write(op, t);
                            }
                        }
                    }
                    _ => {}
                }
            }
            for (i, rec) in h.ops().iter().enumerate() {
                prop_assert_eq!(rec.op.as_raw(), i as u64);
                prop_assert_eq!(h.get(rec.op), Some(rec));
            }
            let past = OpId::from_raw(h.ops().len() as u64);
            prop_assert_eq!(h.get(past), None);
        }
    }

    #[test]
    fn departures_are_first_wins() {
        let mut h: History<u64> = History::new(0);
        h.note_left(n(4), Time::at(7));
        h.note_left(n(4), Time::at(9));
        assert_eq!(h.left_at(n(4)), Some(Time::at(7)));
        assert_eq!(h.left_at(n(5)), None);
    }
}
