//! `ops_ok_share` / `ops_in_bound_share` on hand-built histories.

use dynabench::ops::{tally_key, Limits, OpsTally};
use dynareg_sim::{NodeId, Time};
use dynareg_verify::{History, RegularityChecker};

fn n(i: u64) -> NodeId {
    NodeId::from_raw(i)
}

fn tally(history: &History<Option<u64>>, limits: Limits, end: u64, refused: u64) -> OpsTally {
    let mut t = OpsTally {
        refused,
        ..OpsTally::default()
    };
    tally_key(
        history,
        &RegularityChecker::check(history),
        limits,
        Time::at(end),
        true,
        &mut t,
    );
    t
}

#[test]
fn one_stuck_one_late_one_refused() {
    // δ = 4: read limit 0, write limit 4, join limit 12.
    let limits = Limits::sync(4);
    let mut h: History<Option<u64>> = History::new(Some(0));
    let w = h.invoke_write(n(0), Time::at(1), Some(10));
    h.complete_write(w, Time::at(5)); // in bound (δ)
    let r = h.invoke_read(n(1), Time::at(6));
    h.complete_read(r, Time::at(6), Some(10)); // in bound (local)
    let j = h.invoke_join(n(2), Time::at(10));
    h.complete_join(j, Time::at(30)); // late: 20 > 3δ
    h.invoke_join(n(3), Time::at(20)); // stuck: still pending at t=100
    let t = tally(&h, limits, 100, 1); // plus one op the world refused

    assert_eq!(
        t,
        OpsTally {
            invoked: 4,
            refused: 1,
            in_bound: 2,
            late: 1,
            wedged: 1,
            excused: 0,
            violating: 0,
        }
    );
    assert_eq!((t.attempted(), t.failed()), (5, 2));
    assert_eq!(t.ok_share(), 1.0 - 2.0 / 5.0);
    assert_eq!(t.in_bound_share(), 2.0 / 5.0);
}

#[test]
fn a_departure_excuses_only_within_the_limit() {
    let limits = Limits::es(4); // every limit 16
    let mut h: History<Option<u64>> = History::new(Some(0));
    h.invoke_read(n(1), Time::at(10));
    h.note_left(n(1), Time::at(20)); // pending 10 ≤ 16 when it left: excused
    h.invoke_read(n(2), Time::at(10));
    h.note_left(n(2), Time::at(40)); // pending 30 > 16 when it left: wedged
    let t = tally(&h, limits, 100, 0);
    assert_eq!((t.excused, t.wedged), (1, 1));
    // A fix that turns the wedged read into a late one helps ok_share and
    // cannot hurt in_bound_share.
    assert_eq!(t.ok_share(), 0.5);
    assert_eq!(t.in_bound_share(), 0.0);
}

#[test]
fn a_regularity_violation_is_failed_even_when_fast() {
    let limits = Limits::sync(4);
    let mut h: History<Option<u64>> = History::new(Some(0));
    let w = h.invoke_write(n(0), Time::at(1), Some(10));
    h.complete_write(w, Time::at(5));
    let r = h.invoke_read(n(1), Time::at(8));
    h.complete_read(r, Time::at(8), Some(0)); // stale: the write completed at 5
    let t = tally(&h, limits, 20, 0);
    assert_eq!((t.in_bound, t.violating, t.failed()), (1, 1, 1));
}

#[test]
fn keyed_callers_count_a_join_once() {
    let limits = Limits::sync(4);
    let mut h: History<Option<u64>> = History::new(Some(0));
    let j = h.invoke_join(n(2), Time::at(0));
    h.complete_join(j, Time::at(12));
    let mut t = OpsTally::default();
    let verdict = RegularityChecker::check(&h);
    tally_key(&h, &verdict, limits, Time::at(20), true, &mut t);
    tally_key(&h, &verdict, limits, Time::at(20), false, &mut t);
    assert_eq!((t.invoked, t.in_bound), (1, 1));
}
