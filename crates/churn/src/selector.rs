//! Departure victim selection policies.
//!
//! The churn model fixes *how many* processes leave per time unit; the
//! selector fixes *which*. The paper's proofs are adversary-agnostic ("In
//! the worst case, the `nc` processes that left the system are processes
//! that were present at time τ", Lemma 2), so experiments sweep selectors to
//! probe both the average and the worst case.

use dynareg_net::Presence;
use dynareg_sim::{DetRng, NodeId};

/// Policy choosing which present process leaves next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LeaveSelector {
    /// Uniformly random among eligible present processes.
    #[default]
    Random,
    /// The process that entered earliest leaves first — steadily erodes the
    /// long-lived core that holds the register state (Lemma 2's worst case:
    /// departures always hit processes active since before the window).
    OldestFirst,
    /// The process that entered latest leaves first — churns the joiners,
    /// leaving the stable core intact (the paper's benign case).
    NewestFirst,
    /// Prefer *active* processes (oldest first among them), falling back to
    /// listeners only when no active process is eligible. The sharpest
    /// adversary against the active-set bounds.
    ActiveFirst,
}

impl LeaveSelector {
    /// Picks a victim among present processes, excluding `protected` ids.
    /// Returns `None` if nobody is eligible.
    ///
    /// Determinism: candidates are scanned in id order and random choices
    /// use the run's seeded stream.
    pub fn pick(
        &self,
        presence: &Presence,
        protected: &[NodeId],
        rng: &mut DetRng,
    ) -> Option<NodeId> {
        if let LeaveSelector::Random = self {
            // Hot path (the default selector, invoked once per departure):
            // index the k-th eligible process straight off the sorted
            // present slice in O(1) — plus O(p log n) to locate the `p`
            // protected ids (a handful: the writer and this tick's earlier
            // victims), instead of the former O(present) filter-and-nth
            // scan. The pool (eligible ids in id order) and the single RNG
            // draw are unchanged, so picks are bit-identical to the old
            // scan for every seed.
            let present = presence.present_slice();
            // Positions of protected ids inside the present slice, sorted.
            let mut blocked: Vec<usize> = protected
                .iter()
                .filter_map(|p| present.binary_search(p).ok())
                .collect();
            blocked.sort_unstable();
            blocked.dedup();
            let eligible_count = present.len() - blocked.len();
            if eligible_count == 0 {
                return None;
            }
            // Map "k-th eligible" to its position in `present`: every
            // blocked position at or before the cursor shifts it right by
            // one (order-statistics adjustment over the sorted positions).
            let mut k = rng.pick_index(eligible_count);
            for &pos in &blocked {
                if pos <= k {
                    k += 1;
                } else {
                    break;
                }
            }
            return Some(present[k]);
        }
        // One pass over the present table: the key is read off the row, so
        // no per-candidate lookup and no copy of the present set.
        let eligible = presence
            .present_rows()
            .filter(|r| !protected.contains(&r.id));
        let victim = match self {
            LeaveSelector::Random => unreachable!("handled above"),
            LeaveSelector::OldestFirst => eligible.min_by_key(|r| (r.entered_at, r.id)),
            LeaveSelector::NewestFirst => eligible.max_by_key(|r| (r.entered_at, r.id)),
            LeaveSelector::ActiveFirst => eligible.min_by_key(|r| (!r.active, r.entered_at, r.id)),
        };
        victim.map(|r| r.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynareg_sim::Time;
    use proptest::prelude::*;

    fn n(i: u64) -> NodeId {
        NodeId::from_raw(i)
    }

    /// n0 active since t0, n1 active since t0, n2 listening since t5.
    fn world() -> Presence {
        let mut p = Presence::new();
        p.bootstrap([n(0), n(1)], Time::ZERO);
        p.enter(n(2), Time::at(5));
        p
    }

    #[test]
    fn oldest_first_picks_earliest_arrival() {
        let p = world();
        let mut rng = DetRng::seed(1);
        assert_eq!(
            LeaveSelector::OldestFirst.pick(&p, &[], &mut rng),
            Some(n(0))
        );
    }

    #[test]
    fn newest_first_picks_latest_arrival() {
        let p = world();
        let mut rng = DetRng::seed(1);
        assert_eq!(
            LeaveSelector::NewestFirst.pick(&p, &[], &mut rng),
            Some(n(2))
        );
    }

    #[test]
    fn active_first_prefers_actives_over_listeners() {
        let p = world();
        let mut rng = DetRng::seed(1);
        assert_eq!(
            LeaveSelector::ActiveFirst.pick(&p, &[], &mut rng),
            Some(n(0))
        );
    }

    #[test]
    fn active_first_falls_back_to_listeners() {
        let mut p = Presence::new();
        p.enter(n(7), Time::ZERO); // listening only
        let mut rng = DetRng::seed(1);
        assert_eq!(
            LeaveSelector::ActiveFirst.pick(&p, &[], &mut rng),
            Some(n(7))
        );
    }

    #[test]
    fn protection_excludes_victims() {
        let p = world();
        let mut rng = DetRng::seed(1);
        assert_eq!(
            LeaveSelector::OldestFirst.pick(&p, &[n(0)], &mut rng),
            Some(n(1))
        );
    }

    #[test]
    fn empty_pool_returns_none() {
        let p = Presence::new();
        let mut rng = DetRng::seed(1);
        assert_eq!(LeaveSelector::Random.pick(&p, &[], &mut rng), None);
        let w = world();
        assert_eq!(
            LeaveSelector::Random.pick(&w, &[n(0), n(1), n(2)], &mut rng),
            None
        );
    }

    #[test]
    fn random_pick_matches_filter_nth_reference() {
        // The O(1) indexed pick must agree with the reference "k-th
        // eligible in id order" scan for every (pool, protected, seed)
        // combination — same draw, same victim (seed-stability contract).
        let mut p = Presence::new();
        p.bootstrap((0..12).map(n), Time::ZERO);
        let protections: Vec<Vec<NodeId>> = vec![
            vec![],
            vec![n(0)],
            vec![n(11), n(0), n(5)],
            vec![n(3), n(3), n(99)], // duplicates and absent ids
            (0..11).map(n).collect(),
        ];
        for protected in &protections {
            for seed in 0..40 {
                let mut rng_fast = DetRng::seed(seed);
                let mut rng_ref = DetRng::seed(seed);
                let got = LeaveSelector::Random.pick(&p, protected, &mut rng_fast);
                let eligible: Vec<NodeId> = p
                    .present_slice()
                    .iter()
                    .filter(|id| !protected.contains(id))
                    .copied()
                    .collect();
                let expect = if eligible.is_empty() {
                    None
                } else {
                    Some(eligible[rng_ref.pick_index(eligible.len())])
                };
                assert_eq!(got, expect, "protected={protected:?} seed={seed}");
            }
        }
    }

    /// The collect-and-look-up selection the one-pass pick replaced: copy
    /// the present set, then one `record()` / `is_active()` lookup per
    /// candidate.
    fn lookup_pick(sel: LeaveSelector, p: &Presence, protected: &[NodeId]) -> Option<NodeId> {
        let entered = |id: NodeId| p.record(id).expect("present").entered_at;
        let eligible: Vec<NodeId> = p
            .present_slice()
            .iter()
            .copied()
            .filter(|id| !protected.contains(id))
            .collect();
        match sel {
            LeaveSelector::Random => unreachable!("not a lookup pick"),
            LeaveSelector::OldestFirst => eligible.into_iter().min_by_key(|&id| (entered(id), id)),
            LeaveSelector::NewestFirst => eligible.into_iter().max_by_key(|&id| (entered(id), id)),
            LeaveSelector::ActiveFirst => {
                let actives: Vec<NodeId> = eligible
                    .iter()
                    .copied()
                    .filter(|&id| p.is_active(id))
                    .collect();
                let pool = if actives.is_empty() {
                    eligible
                } else {
                    actives
                };
                pool.into_iter().min_by_key(|&id| (entered(id), id))
            }
        }
    }

    /// The sort-everything `OldestActive` writer roster the one-pass
    /// `Presence::oldest_active` replaced.
    fn lookup_roster(p: &Presence, k: usize) -> Vec<NodeId> {
        let mut active: Vec<(Time, NodeId)> = p
            .active_nodes()
            .into_iter()
            .map(|id| (p.record(id).expect("active").entered_at, id))
            .collect();
        active.sort_unstable();
        active.into_iter().take(k).map(|(_, id)| id).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-pass picks and roster equal the lookup oracles. Ids are
        /// drawn out of entry order and entry times collide, so both halves
        /// of every `(…, entered_at, id)` key decide some picks; protected
        /// lists carry duplicates, absent ids, or every present id.
        #[test]
        fn one_pass_pick_matches_lookup_reference(
            lives in prop::collection::vec(
                (0u64..48, 0u64..6, prop::bool::ANY, prop::bool::ANY),
                0..24,
            ),
            guard in prop::collection::vec(0u64..56, 0..8),
            everyone in prop::bool::ANY,
            k in 0usize..6,
        ) {
            let mut p = Presence::new();
            for &(raw, entered, activates, leaves) in &lives {
                let id = n(raw);
                if p.record(id).is_some() {
                    continue;
                }
                p.enter(id, Time::at(entered));
                if activates {
                    p.activate(id, Time::at(entered + 1));
                }
                if leaves {
                    p.leave(id, Time::at(entered + 2));
                }
            }
            let protected: Vec<NodeId> = if everyone {
                p.present_slice().to_vec()
            } else {
                guard.into_iter().map(n).collect()
            };
            let mut rng = DetRng::seed(0);
            for sel in [
                LeaveSelector::OldestFirst,
                LeaveSelector::NewestFirst,
                LeaveSelector::ActiveFirst,
            ] {
                prop_assert_eq!(
                    sel.pick(&p, &protected, &mut rng),
                    lookup_pick(sel, &p, &protected),
                    "{:?} protecting {:?}", sel, protected
                );
            }
            prop_assert_eq!(p.oldest_active(k), lookup_roster(&p, k), "k = {}", k);
        }
    }

    #[test]
    fn random_is_deterministic_per_seed_and_covers_pool() {
        let p = world();
        let picks: Vec<_> = (0..50)
            .map(|_| {
                let mut rng = DetRng::seed(9);
                LeaveSelector::Random.pick(&p, &[], &mut rng).unwrap()
            })
            .collect();
        assert!(
            picks.windows(2).all(|w| w[0] == w[1]),
            "same seed, same pick"
        );
        // Different draws from one stream cover the whole pool eventually.
        let mut rng = DetRng::seed(10);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            seen.insert(LeaveSelector::Random.pick(&p, &[], &mut rng).unwrap());
        }
        assert_eq!(seen.len(), 3);
    }
}
