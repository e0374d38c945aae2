//! Property tests for the presence table's interval algebra — the Lemma 2
//! measurements are only as good as `A(τ)` / `A(τ₁, τ₂)`.

use std::collections::BTreeMap;

use dynareg_net::{LifeRecord, NodeStatus, Presence, PresentRow};
use dynareg_sim::{NodeId, Time};
use proptest::prelude::*;

/// A random but well-formed lifecycle: enter ≤ activate ≤ leave, with
/// optional activation/departure.
#[derive(Debug, Clone)]
struct Life {
    enter: u64,
    activate: Option<u64>,
    leave: Option<u64>,
}

fn life_strategy() -> impl Strategy<Value = Life> {
    (
        0u64..100,
        0u64..50,
        0u64..50,
        prop::bool::ANY,
        prop::bool::ANY,
    )
        .prop_map(|(enter, d1, d2, has_activate, has_leave)| {
            let activate = has_activate.then_some(enter + d1);
            let leave = has_leave.then_some(enter + d1 + d2 + 1);
            Life {
                enter,
                activate,
                leave,
            }
        })
}

fn build(lives: &[Life]) -> Presence {
    let mut p = Presence::new();
    for (i, l) in lives.iter().enumerate() {
        let id = NodeId::from_raw(i as u64);
        p.enter(id, Time::at(l.enter));
        if let Some(a) = l.activate {
            p.activate(id, Time::at(a));
        }
        if let Some(d) = l.leave {
            p.leave(id, Time::at(d));
        }
    }
    p
}

proptest! {
    // Bounded case count so CI runtime stays predictable; override with
    // the PROPTEST_CASES environment variable for deeper local runs.
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `A(τ₁, τ₂)` is the intersection of the per-instant sets: a process is
    /// active throughout the interval iff it is active at every integer
    /// instant inside it.
    #[test]
    fn interval_set_is_pointwise_intersection(
        lives in prop::collection::vec(life_strategy(), 1..30),
        t1 in 0u64..150,
        width in 0u64..20,
    ) {
        let p = build(&lives);
        let (a, b) = (Time::at(t1), Time::at(t1 + width));
        let via_interval = p.active_set_throughout(a, b);
        let via_pointwise: Vec<NodeId> = p
            .active_set_at(a)
            .into_iter()
            .filter(|&id| (t1..=t1 + width).all(|t| p.active_set_at(Time::at(t)).contains(&id)))
            .collect();
        prop_assert_eq!(via_interval, via_pointwise);
    }

    /// Widening the interval can only shrink the set (antitone in width).
    #[test]
    fn interval_sets_are_antitone_in_width(
        lives in prop::collection::vec(life_strategy(), 1..30),
        t1 in 0u64..150,
        w1 in 0u64..20,
        extra in 0u64..20,
    ) {
        let p = build(&lives);
        let narrow = p.active_count_throughout(Time::at(t1), Time::at(t1 + w1));
        let wide = p.active_count_throughout(Time::at(t1), Time::at(t1 + w1 + extra));
        prop_assert!(wide <= narrow);
    }

    /// Current-set accessors agree with the historical query evaluated at
    /// a time past every recorded event.
    #[test]
    fn live_sets_agree_with_history(
        lives in prop::collection::vec(life_strategy(), 1..30),
    ) {
        let p = build(&lives);
        let far = Time::at(10_000);
        prop_assert_eq!(p.active_nodes(), p.active_set_at(far));
        prop_assert_eq!(
            p.present_count(),
            p.records().filter(|(_, r)| r.present_at(far)).count()
        );
    }

    /// The present table after any enter/activate/leave sequence is
    /// exactly the history's present processes: `records` filtered by
    /// `present_at(now)`, each row's active bit its status, and the
    /// active count the number of set bits.
    #[test]
    fn present_table_matches_history(
        steps in prop::collection::vec((0u8..3, 0usize..1000, 0u64..80, 0u64..3), 0..60),
    ) {
        let mut p = Presence::new();
        let mut now = 0;
        for (op, pick, raw, dt) in steps {
            now += dt;
            let t = Time::at(now);
            match op {
                0 => {
                    let id = NodeId::from_raw(raw);
                    if p.record(id).is_none() {
                        p.enter(id, t);
                    }
                }
                1 => {
                    let listening = p.listening_nodes();
                    if !listening.is_empty() {
                        p.activate(listening[pick % listening.len()], t);
                    }
                }
                _ => {
                    let present = p.present_slice();
                    if !present.is_empty() {
                        p.leave(present[pick % present.len()], t);
                    }
                }
            }
        }
        let now = Time::at(now);
        let rows: Vec<PresentRow> = p.present_rows().collect();
        let expect: Vec<PresentRow> = p
            .records()
            .filter(|(_, r)| r.present_at(now))
            .map(|(id, r)| PresentRow {
                id,
                entered_at: r.entered_at,
                active: r.activated_at.is_some(),
            })
            .collect();
        prop_assert_eq!(&rows, &expect);
        let ids: Vec<NodeId> = rows.iter().map(|r| r.id).collect();
        prop_assert_eq!(p.present_slice(), &ids[..]);
        for r in &rows {
            let status = if r.active { NodeStatus::Active } else { NodeStatus::Listening };
            prop_assert_eq!(p.status(r.id), Some(status));
            prop_assert!(p.is_present(r.id));
            prop_assert_eq!(p.is_active(r.id), r.active);
        }
        prop_assert_eq!(p.active_count(), rows.iter().filter(|r| r.active).count());
        prop_assert_eq!(p.present_count(), rows.len());
    }

    /// Arrivals/departures bookkeeping is conserved.
    #[test]
    fn arrival_departure_conservation(
        lives in prop::collection::vec(life_strategy(), 1..30),
    ) {
        let p = build(&lives);
        prop_assert_eq!(p.total_arrivals(), lives.len());
        let departed = lives.iter().filter(|l| l.leave.is_some()).count();
        prop_assert_eq!(p.total_departures(), departed);
        prop_assert_eq!(p.present_count(), lives.len() - departed);
    }

    /// The packed, id-ordered history behaves as the ordered map of
    /// records it replaced. Ids are drawn out of order (so below the
    /// highest one as often as above it); each step enters a fresh id,
    /// activates a listening one or removes a present one, and the model
    /// applies the same step to a `BTreeMap<NodeId, LifeRecord>`. Every
    /// accessor of the history then reads the same as the model.
    #[test]
    fn history_matches_ordered_map_model(
        steps in prop::collection::vec((0u8..3, 0u64..64, 0u64..3), 0..80),
        probes in prop::collection::vec((0u64..120, 0u64..20), 1..6),
    ) {
        let mut p = Presence::new();
        let mut model: BTreeMap<NodeId, LifeRecord> = BTreeMap::new();
        let mut now = 0;
        for (op, raw, dt) in steps {
            now += dt;
            let (id, t) = (NodeId::from_raw(raw), Time::at(now));
            match (op, model.get_mut(&id)) {
                (0, None) => {
                    p.enter(id, t);
                    model.insert(id, LifeRecord { entered_at: t, activated_at: None, left_at: None });
                }
                (1, Some(r)) if r.activated_at.is_none() && r.left_at.is_none() => {
                    p.activate(id, t);
                    r.activated_at = Some(t);
                }
                (2, Some(r)) if r.left_at.is_none() => {
                    p.leave(id, t);
                    r.left_at = Some(t);
                }
                _ => {}
            }
        }
        for raw in 0..64 {
            let id = NodeId::from_raw(raw);
            let want = model.get(&id).copied();
            prop_assert_eq!(p.record(id), want);
            let status = want.map(|r| match (r.activated_at, r.left_at) {
                (_, Some(_)) => NodeStatus::Left,
                (Some(_), None) => NodeStatus::Active,
                (None, None) => NodeStatus::Listening,
            });
            prop_assert_eq!(p.status(id), status);
        }
        let records: Vec<(NodeId, LifeRecord)> = p.records().collect();
        let expect: Vec<(NodeId, LifeRecord)> = model.iter().map(|(&id, &r)| (id, r)).collect();
        prop_assert_eq!(records, expect);
        for (t1, width) in probes {
            let (a, b) = (Time::at(t1), Time::at(t1 + width));
            let at: Vec<NodeId> = model.iter().filter(|(_, r)| r.active_at(a)).map(|(&id, _)| id).collect();
            prop_assert_eq!(p.active_set_at(a), at);
            let throughout = model.values().filter(|r| r.active_throughout(a, b)).count();
            prop_assert_eq!(p.active_count_throughout(a, b), throughout);
        }
        prop_assert_eq!(p.total_arrivals(), model.len());
        let departed = model.values().filter(|r| r.left_at.is_some()).count();
        prop_assert_eq!(p.total_departures(), departed);
        prop_assert_eq!(p.total_departures(), p.records().filter(|(_, r)| r.left_at.is_some()).count());
    }
}
