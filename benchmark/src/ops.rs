//! Classifies every client operation of a run against the paper's latency
//! bounds — the source of `ops_in_bound_share` and `ops_ok_share`.
//!
//! An operation that fails or is refused misses every latency limit by
//! construction, and a pending operation counts as failed as soon as it
//! has been pending for longer than its limit — whether or not its invoker
//! later left. So a fix that turns wedged operations into late ones can
//! only help both shares, and a wedge cannot hide behind a departure (no
//! survivorship trap, as a p99 over completed operations would have).

use dynareg_sim::Time;
use dynareg_verify::{ConsistencyReport, History, OpKind};

/// The latency limit of each operation kind, in ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Read limit.
    pub read: u64,
    /// Write limit.
    pub write: u64,
    /// Join limit.
    pub join: u64,
}

impl Limits {
    /// The synchronous protocol's bounds: reads are local, a write takes
    /// `δ`, a join `3δ` (§3 of the paper).
    pub fn sync(delta: u64) -> Limits {
        Limits {
            read: 0,
            write: delta,
            join: 3 * delta,
        }
    }

    /// The eventually synchronous protocol after GST: every operation is
    /// at most two round trips, `4δ` — the benchmark's own limit (the
    /// paper bounds ES operations only "eventually").
    pub fn es(delta: u64) -> Limits {
        Limits {
            read: 4 * delta,
            write: 4 * delta,
            join: 4 * delta,
        }
    }
}

/// Where every operation of a run ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpsTally {
    /// Operations the world accepted (reads + writes + joins).
    pub invoked: u64,
    /// Operations the world refused to start (`workload.skipped` +
    /// `ops.skipped_busy`).
    pub refused: u64,
    /// Completed within the limit.
    pub in_bound: u64,
    /// Completed, but after the limit.
    pub late: u64,
    /// Never completed and pending for longer than the limit (up to the
    /// invoker's departure, or the end of the run if it stayed).
    pub wedged: u64,
    /// Never completed, but the invoker left (or the run ended) before the
    /// limit had elapsed — nothing can be said about them.
    pub excused: u64,
    /// Completed reads the regularity checker rejected.
    pub violating: u64,
}

impl OpsTally {
    /// Operations attempted: accepted plus refused (the denominator of
    /// both shares).
    pub fn attempted(&self) -> u64 {
        self.invoked + self.refused
    }

    /// Operations that failed: wedged, regularity-violating or refused.
    pub fn failed(&self) -> u64 {
        self.wedged + self.violating + self.refused
    }

    /// Share of attempted operations that did not fail.
    pub fn ok_share(&self) -> f64 {
        1.0 - self.failed() as f64 / self.attempted().max(1) as f64
    }

    /// Share of attempted operations that completed, correctly, within
    /// their limit.
    pub fn in_bound_share(&self) -> f64 {
        self.in_bound as f64 / self.attempted().max(1) as f64
    }
}

/// Classifies every operation of one key's `history` that ran up to `end`
/// and adds it to `t`.
///
/// A join is one membership event recorded in every key's history, so a
/// keyed caller passes `count_joins` for the anchor key only. `violating`
/// reads come from the key's `regularity` verdict; a violating read is
/// moved out of `in_bound` / `late` into `violating`.
pub fn tally_key<V>(
    history: &History<V>,
    regularity: &ConsistencyReport<V>,
    limits: Limits,
    end: Time,
    count_joins: bool,
    t: &mut OpsTally,
) where
    V: Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    let latency_of = |op: &dynareg_verify::OpRecord<V>| {
        op.completed_at
            .map(|done| (done - op.invoked_at).as_ticks())
    };
    for op in history.ops() {
        let limit = match op.kind {
            OpKind::Join if !count_joins => continue,
            OpKind::Join => limits.join,
            OpKind::Read { .. } => limits.read,
            OpKind::Write { .. } => limits.write,
        };
        t.invoked += 1;
        match latency_of(op) {
            Some(latency) if latency <= limit => t.in_bound += 1,
            Some(_) => t.late += 1,
            None => {
                let until = history.left_at(op.node).unwrap_or(end).min(end);
                if until.ticks().saturating_sub(op.invoked_at.ticks()) > limit {
                    t.wedged += 1;
                } else {
                    t.excused += 1;
                }
            }
        }
    }
    for v in &regularity.violations {
        let read = history
            .get(v.read)
            .expect("a violation names a recorded read");
        t.violating += 1;
        if latency_of(read).is_some_and(|l| l <= limits.read) {
            t.in_bound -= 1;
        } else {
            t.late -= 1;
        }
    }
}
