//! Process lifecycle tracking and the paper's active-set queries.
//!
//! §2.1 of the paper, Definition 1: *"A process is active from the time it
//! returns from the join operation until the time it leaves the system.
//! `A(τ)` denotes the set of processes that are active at time `τ`, while
//! `A(τ₁, τ₂)` denotes the set of processes that are active during the whole
//! interval `[τ₁, τ₂]`."*
//!
//! [`Presence`] keeps two things:
//!
//! - the **present table**: one row per process now in the system, in id
//!   order, carrying its entry time and whether it is active, with the
//!   active count beside it. Message routing (`is_present`,
//!   [`Presence::present_iter`]), the counts, the snapshots, churn victim
//!   selection and the migrating writer roster all read this table, so a
//!   departure's victim is one pass over contiguous rows and none of them
//!   touches the history below;
//! - the full per-node [`LifeRecord`] history, for `A(τ)` / `A(τ₁, τ₂)`
//!   measurements after the fact (the Lemma 2 experiment). Under the
//!   infinite-arrival model every process that ever existed keeps its
//!   record, so this history grows with the run, not with `n`: it is kept
//!   as packed id-ordered rows of 32 B each (id and three instants), and a
//!   fresh id above every earlier one — all that an `IdSource` hands out —
//!   is appended.

use dynareg_sim::{NodeId, Time};

/// Lifecycle phase of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeStatus {
    /// Entered the system and executing `join`: receives and processes
    /// messages (the paper's *listening mode*) but has not yet returned from
    /// `join`.
    Listening,
    /// Returned from `join`; may invoke `read`/`write` and answers inquiries.
    Active,
    /// Left the system (voluntarily or crashed — indistinguishable in the
    /// model). Never comes back under this identity.
    Left,
}

/// Immutable-once-complete lifecycle record of one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifeRecord {
    /// Instant the process entered the system (start of `join`).
    pub entered_at: Time,
    /// Instant `join` returned, if it ever did.
    pub activated_at: Option<Time>,
    /// Instant the process left, if it has.
    pub left_at: Option<Time>,
}

impl LifeRecord {
    /// Whether the process was *present* (listening or active) at `t`.
    pub fn present_at(&self, t: Time) -> bool {
        self.entered_at <= t && self.left_at.is_none_or(|l| t < l)
    }

    /// Whether the process was *active* at `t` (the paper's `p ∈ A(t)`).
    pub fn active_at(&self, t: Time) -> bool {
        self.activated_at.is_some_and(|a| a <= t) && self.left_at.is_none_or(|l| t < l)
    }

    /// Whether the process was active during the whole `[t1, t2]` interval
    /// (the paper's `p ∈ A(t1, t2)`).
    pub fn active_throughout(&self, t1: Time, t2: Time) -> bool {
        debug_assert!(t1 <= t2);
        self.activated_at.is_some_and(|a| a <= t1) && self.left_at.is_none_or(|l| t2 < l)
    }
}

/// One row of the present table: a process now in the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PresentRow {
    /// The process.
    pub id: NodeId,
    /// Instant it entered the system.
    pub entered_at: Time,
    /// Whether its join has returned (active) rather than still listening.
    pub active: bool,
}

/// The instant a packed [`Life`] row stores for "never activated" or
/// "never left"; [`Presence::activate`] and [`Presence::leave`] refuse it.
const NEVER: Time = Time::MAX;

/// One lifecycle record as the history stores it: 32 B, with [`NEVER`]
/// standing for an absent instant instead of an `Option` tag.
#[derive(Debug, Clone, Copy)]
struct Life {
    id: NodeId,
    entered_at: Time,
    activated_at: Time,
    left_at: Time,
}

impl Life {
    fn record(&self) -> LifeRecord {
        let known = |t: Time| (t != NEVER).then_some(t);
        LifeRecord {
            entered_at: self.entered_at,
            activated_at: known(self.activated_at),
            left_at: known(self.left_at),
        }
    }
}

/// The non-id columns of one present-table row.
#[derive(Debug, Clone, Copy)]
struct Member {
    entered_at: Time,
    active: bool,
}

/// Tracks which processes are in the system, their mode, and the full
/// lifecycle history of the run.
///
/// The processes now present live in one id-ordered table: ids in one
/// column (which [`Presence::present_slice`] lends out), entry time and
/// active bit in a second. Membership tests binary-search the ids;
/// broadcast snapshots, victim selection and [`Presence::oldest_active`]
/// walk the rows. The lifecycle history ([`Presence::records`]) backs
/// [`Presence::status`] and the after-the-fact `A(τ)` queries; it is one
/// id-ordered vector of 32 B rows, one per process that ever entered,
/// appended to whenever ids arrive in increasing order. The totals are
/// its length and the present table's.
///
/// # Example
///
/// ```
/// use dynareg_net::{Presence, NodeStatus};
/// use dynareg_sim::{NodeId, Time};
///
/// let mut p = Presence::new();
/// let a = NodeId::from_raw(0);
/// p.enter(a, Time::at(1));
/// assert_eq!(p.status(a), Some(NodeStatus::Listening));
/// p.activate(a, Time::at(4));
/// assert_eq!(p.active_count(), 1);
/// p.leave(a, Time::at(9));
/// assert_eq!(p.status(a), Some(NodeStatus::Left));
/// assert_eq!(p.active_set_at(Time::at(5)).len(), 1);
/// assert_eq!(p.active_set_at(Time::at(9)).len(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Presence {
    // Ordered containers throughout, so iteration order (and thus the whole
    // simulation, and every history report derived from it) is
    // deterministic. Record access is one binary search per lifecycle
    // event; the history queries below iterate, which a hash map must never
    // back.
    /// Every process that ever entered, sorted by id. Those not in the
    /// present table have left.
    records: Vec<Life>,
    /// The present table's id column, sorted; `members[i]` is row `i`'s
    /// other columns.
    present: Vec<NodeId>,
    members: Vec<Member>,
    /// Rows of the table whose `active` bit is set.
    active_count: usize,
}

impl Presence {
    /// An empty system.
    pub fn new() -> Presence {
        Presence::default()
    }

    /// Bootstraps the initial population: `ids` are present *and active* at
    /// `t0`, as in the paper's initialization ("Initially, n processes
    /// compose the system … `active_k = true`").
    pub fn bootstrap<I: IntoIterator<Item = NodeId>>(&mut self, ids: I, t0: Time) {
        for id in ids {
            self.enter(id, t0);
            self.activate(id, t0);
        }
    }

    /// Records that `node` entered the system at `t` (listening mode).
    ///
    /// # Panics
    /// Panics if `node` was ever in the system before: the infinite-arrival
    /// model forbids identity reuse.
    pub fn enter(&mut self, node: NodeId, t: Time) {
        let life = Life {
            id: node,
            entered_at: t,
            activated_at: NEVER,
            left_at: NEVER,
        };
        if self.records.last().is_none_or(|last| last.id < node) {
            self.records.push(life);
        } else {
            let Err(i) = self.life(node) else {
                panic!("{node} re-entered the system; ids are single-use");
            };
            self.records.insert(i, life);
        }
        let i = self
            .present
            .binary_search(&node)
            .expect_err("fresh id cannot already be present");
        self.present.insert(i, node);
        self.members.insert(
            i,
            Member {
                entered_at: t,
                active: false,
            },
        );
    }

    /// Records that `node`'s join returned at `t`.
    ///
    /// # Panics
    /// Panics if `node` is not currently listening, or if `t` is
    /// [`Time::MAX`] (the stored "never").
    pub fn activate(&mut self, node: NodeId, t: Time) {
        assert!(t != NEVER, "{node} activated at Time::MAX");
        let member = self
            .row(node)
            .map(|i| &mut self.members[i])
            .filter(|m| !m.active)
            .unwrap_or_else(|| panic!("{node} activated while not listening"));
        member.active = true;
        self.active_count += 1;
        self.life_mut(node).activated_at = t;
    }

    /// Records that `node` left at `t`. Idempotence is *not* provided: a
    /// node leaves at most once.
    ///
    /// # Panics
    /// Panics if `node` is not currently present, or if `t` is
    /// [`Time::MAX`] (the stored "never").
    pub fn leave(&mut self, node: NodeId, t: Time) {
        assert!(t != NEVER, "{node} left at Time::MAX");
        let i = self
            .row(node)
            .unwrap_or_else(|| panic!("{node} left while not present"));
        self.present.remove(i);
        if self.members.remove(i).active {
            self.active_count -= 1;
        }
        self.life_mut(node).left_at = t;
    }

    /// Index of `node`'s row in the present table.
    fn row(&self, node: NodeId) -> Option<usize> {
        self.present.binary_search(&node).ok()
    }

    /// Index of `node`'s lifecycle record, or where it would go.
    fn life(&self, node: NodeId) -> Result<usize, usize> {
        self.records.binary_search_by_key(&node, |l| l.id)
    }

    /// The record of a present `node`, which always has one.
    fn life_mut(&mut self, node: NodeId) -> &mut Life {
        let i = self.life(node).expect("a present node has a record");
        &mut self.records[i]
    }

    /// Current status of `node`, or `None` if it never entered.
    pub fn status(&self, node: NodeId) -> Option<NodeStatus> {
        let rec = self.record(node)?;
        Some(if rec.left_at.is_some() {
            NodeStatus::Left
        } else if rec.activated_at.is_some() {
            NodeStatus::Active
        } else {
            NodeStatus::Listening
        })
    }

    /// Whether `node` is currently in the system (listening or active).
    pub fn is_present(&self, node: NodeId) -> bool {
        self.row(node).is_some()
    }

    /// Whether `node` is currently active.
    pub fn is_active(&self, node: NodeId) -> bool {
        self.row(node).is_some_and(|i| self.members[i].active)
    }

    /// The present table, row by row in id order, without allocating —
    /// what victim selection and the writer roster scan.
    pub fn present_rows(&self) -> impl Iterator<Item = PresentRow> + '_ {
        self.present
            .iter()
            .zip(&self.members)
            .map(|(&id, m)| PresentRow {
                id,
                entered_at: m.entered_at,
                active: m.active,
            })
    }

    /// The up to `k` active processes that entered earliest, ordered by
    /// `(entered_at, id)`: one pass over the present table keeping the `k`
    /// best so far.
    pub fn oldest_active(&self, k: usize) -> Vec<NodeId> {
        let mut best: Vec<(Time, NodeId)> = Vec::with_capacity(k + 1);
        for row in self.present_rows().filter(|r| r.active) {
            let key = (row.entered_at, row.id);
            if best.len() == k && best.last().is_none_or(|&worst| key > worst) {
                continue;
            }
            best.insert(best.partition_point(|&b| b < key), key);
            best.truncate(k);
        }
        best.into_iter().map(|(_, id)| id).collect()
    }

    /// Currently present processes as a sorted slice, without allocating —
    /// the broadcast-snapshot and random-victim hot path.
    pub fn present_slice(&self) -> &[NodeId] {
        &self.present
    }

    /// Iterates currently present processes (listening ∪ active) in id
    /// order without allocating.
    pub fn present_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.present.iter().copied()
    }

    /// Currently active processes, in id order.
    pub fn active_nodes(&self) -> Vec<NodeId> {
        self.present_rows()
            .filter(|r| r.active)
            .map(|r| r.id)
            .collect()
    }

    /// Currently listening (joining) processes, in id order.
    pub fn listening_nodes(&self) -> Vec<NodeId> {
        self.present_rows()
            .filter(|r| !r.active)
            .map(|r| r.id)
            .collect()
    }

    /// Number of present processes (the paper's constant `n`, if churn is
    /// balanced).
    pub fn present_count(&self) -> usize {
        self.present.len()
    }

    /// Number of active processes, `|A(now)|`.
    pub fn active_count(&self) -> usize {
        self.active_count
    }

    /// Lifecycle record for `node`, if it ever entered.
    pub fn record(&self, node: NodeId) -> Option<LifeRecord> {
        self.life(node).ok().map(|i| self.records[i].record())
    }

    /// Historical `A(τ)`: processes active at instant `t`, in node-id order
    /// (free: `records` is ordered).
    pub fn active_set_at(&self, t: Time) -> Vec<NodeId> {
        self.records()
            .filter(|(_, r)| r.active_at(t))
            .map(|(id, _)| id)
            .collect()
    }

    /// Historical `A(τ₁, τ₂)`: processes active during the whole interval,
    /// in node-id order.
    ///
    /// # Panics
    /// Panics if `t1 > t2`.
    pub fn active_set_throughout(&self, t1: Time, t2: Time) -> Vec<NodeId> {
        assert!(t1 <= t2, "interval must be ordered");
        self.records()
            .filter(|(_, r)| r.active_throughout(t1, t2))
            .map(|(id, _)| id)
            .collect()
    }

    /// `|A(τ₁, τ₂)|` without materializing the set.
    pub fn active_count_throughout(&self, t1: Time, t2: Time) -> usize {
        assert!(t1 <= t2, "interval must be ordered");
        self.records()
            .filter(|(_, r)| r.active_throughout(t1, t2))
            .count()
    }

    /// Iterates over every lifecycle record of the run (including departed
    /// processes), in node-id order.
    pub fn records(&self) -> impl Iterator<Item = (NodeId, LifeRecord)> + '_ {
        self.records.iter().map(|l| (l.id, l.record()))
    }

    /// Total number of processes that ever entered over the run.
    pub fn total_arrivals(&self) -> usize {
        self.records.len()
    }

    /// Total number of processes that have left over the run: every one
    /// that entered and is no longer present.
    pub fn total_departures(&self) -> usize {
        self.records.len() - self.present.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u64) -> NodeId {
        NodeId::from_raw(i)
    }

    fn system_with_three() -> Presence {
        let mut p = Presence::new();
        p.bootstrap([n(0), n(1), n(2)], Time::ZERO);
        p
    }

    #[test]
    fn bootstrap_makes_everyone_active() {
        let p = system_with_three();
        assert_eq!(p.active_count(), 3);
        assert_eq!(p.present_count(), 3);
        assert_eq!(p.listening_nodes(), Vec::<NodeId>::new());
    }

    #[test]
    fn lifecycle_transitions() {
        let mut p = system_with_three();
        p.enter(n(7), Time::at(5));
        assert_eq!(p.status(n(7)), Some(NodeStatus::Listening));
        assert!(p.is_present(n(7)));
        assert!(!p.is_active(n(7)));
        p.activate(n(7), Time::at(8));
        assert_eq!(p.status(n(7)), Some(NodeStatus::Active));
        p.leave(n(7), Time::at(12));
        assert_eq!(p.status(n(7)), Some(NodeStatus::Left));
        assert!(!p.is_present(n(7)));
    }

    #[test]
    fn leaving_while_listening_is_allowed() {
        // Joins are not guaranteed to complete if the process leaves (the
        // liveness property only covers processes that stay).
        let mut p = system_with_three();
        p.enter(n(9), Time::at(3));
        p.leave(n(9), Time::at(4));
        assert_eq!(p.status(n(9)), Some(NodeStatus::Left));
        assert_eq!(p.record(n(9)).unwrap().activated_at, None);
    }

    #[test]
    #[should_panic(expected = "re-entered")]
    fn identity_reuse_is_rejected() {
        // An id below the highest re-enters: the insert path's search
        // finds its record.
        let mut p = system_with_three();
        p.leave(n(0), Time::at(1));
        p.enter(n(0), Time::at(2));
    }

    #[test]
    #[should_panic(expected = "re-entered")]
    fn reentry_on_the_append_path_is_rejected() {
        // The highest id re-enters: the append check sends it to the
        // search, which finds it.
        let mut p = system_with_three();
        p.enter(n(2), Time::at(2));
    }

    #[test]
    #[should_panic(expected = "Time::MAX")]
    fn activation_at_the_reserved_instant_is_rejected() {
        let mut p = Presence::new();
        p.enter(n(1), Time::at(1));
        p.activate(n(1), Time::MAX);
    }

    #[test]
    #[should_panic(expected = "Time::MAX")]
    fn departure_at_the_reserved_instant_is_rejected() {
        let mut p = system_with_three();
        p.leave(n(1), Time::MAX);
    }

    /// One row per process that ever entered: the history's whole cost.
    #[test]
    fn a_lifecycle_row_is_at_most_32_bytes() {
        assert!(std::mem::size_of::<Life>() <= 32);
    }

    #[test]
    #[should_panic(expected = "not listening")]
    fn double_activation_is_rejected() {
        let mut p = system_with_three();
        p.activate(n(0), Time::at(1)); // already active from bootstrap
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn leave_of_absent_node_is_rejected() {
        let mut p = Presence::new();
        p.leave(n(3), Time::at(1));
    }

    #[test]
    fn historical_active_at_queries() {
        let mut p = Presence::new();
        p.enter(n(1), Time::at(0));
        p.activate(n(1), Time::at(3));
        p.leave(n(1), Time::at(10));
        assert!(!p.record(n(1)).unwrap().active_at(Time::at(2)));
        assert!(p.record(n(1)).unwrap().active_at(Time::at(3)));
        assert!(p.record(n(1)).unwrap().active_at(Time::at(9)));
        // Departure instant is exclusive: at t=10 the process is gone.
        assert!(!p.record(n(1)).unwrap().active_at(Time::at(10)));
    }

    #[test]
    fn interval_query_requires_whole_interval() {
        let mut p = Presence::new();
        // n1 active [2, 20); n2 active [5, 8)
        p.enter(n(1), Time::at(0));
        p.activate(n(1), Time::at(2));
        p.leave(n(1), Time::at(20));
        p.enter(n(2), Time::at(4));
        p.activate(n(2), Time::at(5));
        p.leave(n(2), Time::at(8));
        assert_eq!(
            p.active_set_throughout(Time::at(5), Time::at(7)),
            vec![n(1), n(2)]
        );
        assert_eq!(
            p.active_set_throughout(Time::at(5), Time::at(8)),
            vec![n(1)]
        );
        assert_eq!(p.active_count_throughout(Time::at(3), Time::at(4)), 1);
    }

    #[test]
    fn present_at_includes_listening_period() {
        let mut p = Presence::new();
        p.enter(n(1), Time::at(5));
        let r = p.record(n(1)).unwrap();
        assert!(!r.present_at(Time::at(4)));
        assert!(r.present_at(Time::at(5)));
        assert!(!r.active_at(Time::at(5)));
    }

    #[test]
    fn arrival_departure_totals() {
        let mut p = system_with_three();
        p.enter(n(5), Time::at(1));
        p.leave(n(0), Time::at(2));
        assert_eq!(p.total_arrivals(), 4);
        assert_eq!(p.total_departures(), 1);
    }

    #[test]
    fn present_nodes_sorted_and_complete() {
        let mut p = Presence::new();
        p.bootstrap([n(3), n(1)], Time::ZERO);
        p.enter(n(2), Time::at(1));
        assert_eq!(p.present_slice(), [n(1), n(2), n(3)]);
        assert_eq!(p.active_nodes(), vec![n(1), n(3)]);
    }
}
