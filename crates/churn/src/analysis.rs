//! Post-run membership analytics: the measured side of Lemma 2.
//!
//! Lemma 2 of the paper states that under constant churn `c ≤ 1/(3δ)`,
//! for every `τ`: `|A(τ, τ+3δ)| ≥ n(1 − 3δc) > 0` — there is always at
//! least one process that stays active across any join window, so inquiries
//! are always answered by an up-to-date process. [`window_active_minimum`]
//! measures the left-hand side from a finished run's [`Presence`] record and
//! [`lemma2_bound`] computes the right-hand side, letting experiments plot
//! measured-vs-bound across `c` and `δ` sweeps.
//!
//! Both time-series queries are one sweep over the life records, not one
//! scan per tick: a record active over `[a, l)` is in `A(τ, τ+w)` exactly
//! for window starts `τ ∈ [a, l − w − 1]` (to the end of the run if it
//! never left), so each record adds `+1`/`−1` at the two ends of that
//! range in a difference array and one prefix-sum pass reads every
//! window's count. That is O(records + ticks) for the whole run, where a
//! per-start scan is O(records × ticks): every fleet worker pays it once
//! per run.

use dynareg_net::Presence;
use dynareg_sim::{Span, Time};

/// Per-tick time series of `|A(τ)|` over `[start, end]` (inclusive).
pub fn active_series(presence: &Presence, start: Time, end: Time) -> Vec<usize> {
    assert!(start <= end, "interval must be ordered");
    window_counts(presence, start.ticks(), end.ticks(), 0).collect()
}

/// The minimum of `|A(τ, τ+window)|` over all `τ` in `[start, end − window]`:
/// the measured quantity Lemma 2 lower-bounds.
///
/// Returns `None` if the interval is shorter than the window.
pub fn window_active_minimum(
    presence: &Presence,
    start: Time,
    end: Time,
    window: Span,
) -> Option<usize> {
    assert!(start <= end, "interval must be ordered");
    let last_start = end.ticks().checked_sub(window.as_ticks())?;
    if last_start < start.ticks() {
        return None;
    }
    window_counts(presence, start.ticks(), last_start, window.as_ticks()).min()
}

/// `|A(τ, τ+w)|` for every window start `τ ∈ [first, last]`, in order: the
/// difference-array sweep of the module docs (`w = 0` is `|A(τ)|`).
fn window_counts(
    presence: &Presence,
    first: u64,
    last: u64,
    w: u64,
) -> impl Iterator<Item = usize> {
    let len = (last - first + 1) as usize;
    let mut diff = vec![0isize; len + 1];
    for (_, r) in presence.records() {
        let Some(a) = r.activated_at else { continue };
        let lo = a.ticks().max(first);
        let hi = match r.left_at {
            Some(l) => match l.ticks().checked_sub(w + 1) {
                Some(h) => h.min(last),
                None => continue,
            },
            None => last,
        };
        if lo <= hi {
            diff[(lo - first) as usize] += 1;
            diff[(hi - first) as usize + 1] -= 1;
        }
    }
    diff.truncate(len);
    diff.into_iter().scan(0isize, |active, d| {
        *active += d;
        Some(*active as usize)
    })
}

/// Lemma 2's analytical lower bound `n(1 − 3δc)`, clamped at zero.
///
/// Note: the paper's derivation assumes all `n` processes are *active* at
/// the window start, which is exact at `τ = 0` but not in steady state —
/// see [`lemma2_steady_bound`] for the pipeline-corrected floor our
/// experiments measure against.
pub fn lemma2_bound(n: usize, delta: Span, c: f64) -> f64 {
    (n as f64 * (1.0 - 3.0 * delta.as_ticks() as f64 * c)).max(0.0)
}

/// The **pipeline-corrected** steady-state floor `n(1 − 2·3δc)`, clamped
/// at zero.
///
/// In steady state, `3δ·c·n` processes are permanently inside the `3δ`-long
/// join pipeline (listening, not yet active), so a window starting at an
/// arbitrary `τ` opens with only `n(1 − 3δc)` active processes, of which
/// churn may remove another `3δ·c·n` before the window closes:
///
/// ```text
/// |A(τ, τ+3δ)| ≥ n − 3δcn (in pipeline) − 3δcn (departures) = n(1 − 6δc)
/// ```
///
/// The paper's Lemma 2 derivation computes the second deduction only
/// (starting from `|A(τ)| = n`, exact at `τ = 0`); our measured minima
/// track this corrected bound instead — one of the reproduction's findings
/// (`docs/REPRODUCTION.md#e4`). Positivity then requires `c < 1/(6δ)`, half the
/// paper's stated `1/(3δ)` threshold, under worst-case victim selection.
pub fn lemma2_steady_bound(n: usize, delta: Span, c: f64) -> f64 {
    (n as f64 * (1.0 - 6.0 * delta.as_ticks() as f64 * c)).max(0.0)
}

/// The paper's synchronous-protocol churn threshold `1/(3δ)` (Theorem 1).
pub fn sync_churn_threshold(delta: Span) -> f64 {
    1.0 / (3.0 * delta.as_ticks() as f64)
}

/// The paper's eventually-synchronous churn threshold `1/(3δn)` (§5.2).
pub fn es_churn_threshold(delta: Span, n: usize) -> f64 {
    1.0 / (3.0 * delta.as_ticks() as f64 * n as f64)
}

/// Realized churn rate of a finished run: departures per tick divided by
/// nominal population, measured over `[start, end]`.
pub fn realized_churn_rate(presence: &Presence, n: usize, start: Time, end: Time) -> f64 {
    assert!(start < end, "interval must be non-empty");
    let departures = presence_departures_in(presence, start, end);
    let ticks = (end - start).as_ticks() as f64;
    departures as f64 / (ticks * n as f64)
}

fn presence_departures_in(presence: &Presence, start: Time, end: Time) -> usize {
    presence
        .records()
        .filter(|(_, r)| r.left_at.is_some_and(|l| start <= l && l <= end))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynareg_sim::NodeId;
    use proptest::prelude::*;

    fn n(i: u64) -> NodeId {
        NodeId::from_raw(i)
    }

    /// The per-window scan the sweep replaced: every record examined once
    /// per window start.
    fn scan_minimum(presence: &Presence, start: Time, end: Time, window: Span) -> Option<usize> {
        let last_start = end.ticks().checked_sub(window.as_ticks())?;
        if last_start < start.ticks() {
            return None;
        }
        (start.ticks()..=last_start)
            .map(|t| presence.active_count_throughout(Time::at(t), Time::at(t) + window))
            .min()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The difference-array sweep equals the per-window scan, and
        /// `active_series` equals `|A(t)|` tick by tick. Lives draw
        /// records that never activate, that leave while still listening,
        /// that never leave, and departures in the same tick as the
        /// activation; window 0 and windows longer than `[start, end]`
        /// are checked on every case.
        #[test]
        fn sweep_equals_per_window_scan(
            lives in prop::collection::vec(
                (0u64..60, 0u64..30, 0u64..30, prop::bool::ANY, prop::bool::ANY),
                0..25,
            ),
            start in 0u64..40,
            len in 0u64..80,
            window in 0u64..40,
        ) {
            let mut p = Presence::new();
            for (i, &(enter, d1, d2, activates, leaves)) in lives.iter().enumerate() {
                let id = n(i as u64);
                p.enter(id, Time::at(enter));
                let mut last = enter;
                if activates {
                    last += d1;
                    p.activate(id, Time::at(last));
                }
                if leaves {
                    p.leave(id, Time::at(last + d2));
                }
            }
            let (s, e) = (Time::at(start), Time::at(start + len));
            for w in [window, 0] {
                let swept = window_active_minimum(&p, s, e, Span::ticks(w));
                prop_assert_eq!(swept, scan_minimum(&p, s, e, Span::ticks(w)), "window {}", w);
                prop_assert_eq!(swept.is_none(), w > len, "window {} over {} ticks", w, len);
            }
            let per_tick: Vec<usize> = (start..=start + len)
                .map(|t| p.active_set_at(Time::at(t)).len())
                .collect();
            prop_assert_eq!(active_series(&p, s, e), per_tick);
        }
    }

    /// Build: 4 bootstrap nodes; n1 leaves at t5; n10 enters t3, activates
    /// t6; n2 leaves t8.
    fn sample_presence() -> Presence {
        let mut p = Presence::new();
        p.bootstrap([n(0), n(1), n(2), n(3)], Time::ZERO);
        p.enter(n(10), Time::at(3));
        p.leave(n(1), Time::at(5));
        p.activate(n(10), Time::at(6));
        p.leave(n(2), Time::at(8));
        p
    }

    #[test]
    fn active_series_tracks_transitions() {
        let p = sample_presence();
        let series = active_series(&p, Time::ZERO, Time::at(9));
        assert_eq!(series, vec![4, 4, 4, 4, 4, 3, 4, 4, 3, 3]);
    }

    #[test]
    fn window_minimum_is_tightest_interval() {
        let p = sample_presence();
        // Window of 3: worst interval [5,8] or [4,7]… compute explicitly:
        let w = window_active_minimum(&p, Time::ZERO, Time::at(9), Span::ticks(3)).unwrap();
        // A(5,8): active throughout [5,8] = {0,3} (1 left at 5 — not active
        // at 5; 2 leaves at 8 — not active at 8; 10 activates at 6 — not at 5).
        assert_eq!(w, 2);
    }

    #[test]
    fn window_longer_than_run_is_none() {
        let p = sample_presence();
        assert_eq!(
            window_active_minimum(&p, Time::ZERO, Time::at(4), Span::ticks(10)),
            None
        );
    }

    #[test]
    fn lemma2_bound_matches_formula_and_clamps() {
        assert_eq!(lemma2_bound(100, Span::ticks(5), 0.02), 100.0 * (1.0 - 0.3));
        assert_eq!(lemma2_bound(100, Span::ticks(5), 0.2), 0.0);
    }

    #[test]
    fn thresholds_match_paper_formulas() {
        assert!((sync_churn_threshold(Span::ticks(5)) - 1.0 / 15.0).abs() < 1e-12);
        assert!((es_churn_threshold(Span::ticks(5), 100) - 1.0 / 1500.0).abs() < 1e-12);
    }

    #[test]
    fn realized_churn_counts_departures() {
        let p = sample_presence();
        // Two departures (t5, t8) in [0,10], n = 4 → 2/(10·4) = 0.05.
        let rate = realized_churn_rate(&p, 4, Time::ZERO, Time::at(10));
        assert!((rate - 0.05).abs() < 1e-12, "rate={rate}");
    }
}
