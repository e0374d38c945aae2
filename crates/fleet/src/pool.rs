//! The run-level thread pool.
//!
//! A sweep is an array of independent, internally deterministic worlds, so
//! the pool is a classic work-stealing loop over a shared atomic cursor:
//! every worker steals the next unclaimed run index, executes that world
//! to completion on its own thread, summarizes it (into a
//! [`PointOutcome`], for a sweep), and goes back for more. Long points
//! (high-`δ`, high-churn worlds are much slower than quiet ones) therefore
//! never convoy behind a static partition.
//!
//! Determinism: each world's randomness is fully determined by its
//! [`RunPoint`]'s derived seed, and outcomes are stored by run index —
//! which thread ran a point, and in which order points finished, is
//! unobservable in the result. `run_points(points, 1)` and
//! `run_points(points, 64)` return identical vectors.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use dynareg_testkit::RunReport;

use crate::aggregate::PointOutcome;
use crate::spec::RunPoint;

/// Executes every point, using up to `threads` worker threads, and
/// returns the outcomes in run-index order regardless of scheduling.
///
/// # Panics
/// Propagates a panic from any world (a panicking protocol invariant is a
/// bug worth crashing the sweep for), and panics if `threads` is zero.
pub fn run_points(points: &[RunPoint], threads: usize) -> Vec<PointOutcome> {
    run_points_with(points, threads, PointOutcome::from_run)
}

/// The pool loop itself: executes every point on up to `threads` workers
/// and returns, in run-index order, what `summarise` read off each
/// finished run. [`run_points`] is the [`PointOutcome`] instance; a caller
/// that needs a per-run fact `PointOutcome` lacks returns it next to one.
///
/// # Panics
/// As [`run_points`].
pub fn run_points_with<S, F>(points: &[RunPoint], threads: usize, summarise: F) -> Vec<S>
where
    S: Send,
    F: Fn(&RunPoint, &RunReport) -> S + Sync,
{
    assert!(threads > 0, "the pool needs at least one thread");
    if points.is_empty() {
        return Vec::new();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<S>>> = points.iter().map(|_| Mutex::new(None)).collect();
    let workers = threads.min(points.len());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(point) = points.get(i) else {
                    break;
                };
                let summary = summarise(point, &point.spec.run());
                // The report (and its full history) drops here, worker-side:
                // fleet memory is O(points), not O(events).
                *slots[i].lock().expect("no poisoned outcome slot") = Some(summary);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no poisoned outcome slot")
                .expect("every claimed index was executed")
        })
        .collect()
}

/// The machine's available parallelism (≥ 1), the default worker count.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;
    use dynareg_sim::Span;

    fn tiny_sweep() -> Vec<RunPoint> {
        let spec = SweepSpec {
            domain: crate::spec::SweepDomain::Grid {
                deltas: vec![2, 3],
                fractions: vec![0.4, 0.8],
            },
            populations: vec![8],
            duration: Span::ticks(120),
            reads_per_tick: 1.0,
            ..SweepSpec::theorem1_default()
        };
        spec.points()
    }

    #[test]
    fn thread_count_does_not_change_outcomes() {
        let points = tiny_sweep();
        let one = run_points(&points, 1);
        let four = run_points(&points, 4);
        assert_eq!(one.len(), four.len());
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.digest, b.digest, "point {} diverged", a.index);
            assert_eq!(a.messages, b.messages);
            assert_eq!(a.joins_completed, b.joins_completed);
        }
        // Any summary comes back in run-index order at any thread count.
        let fact = |p: &RunPoint, r: &RunReport| (p.index, r.seed, r.liveness.completed);
        let facts = run_points_with(&points, 1, fact);
        assert_eq!(facts, run_points_with(&points, 3, fact));
        for ((index, seed, _), p) in facts.iter().zip(&points) {
            assert_eq!((*index, *seed), (p.index, p.seed));
        }
    }

    #[test]
    fn keyed_points_run_and_reduce_deterministically() {
        let spec = SweepSpec {
            domain: crate::spec::SweepDomain::Grid {
                deltas: vec![2],
                fractions: vec![0.4],
            },
            populations: vec![8],
            keys: vec![4],
            duration: Span::ticks(100),
            ..SweepSpec::theorem1_default()
        };
        let points = spec.points();
        let one = run_points(&points, 1);
        let two = run_points(&points, 2);
        assert_eq!(one[0].keys, 4);
        assert!(one[0].reads_checked > 0, "keyed reads were checked");
        assert_eq!(
            one[0].digest, two[0].digest,
            "keyed digests are thread-stable"
        );
    }

    #[test]
    fn surplus_threads_are_harmless() {
        let points = tiny_sweep();
        let many = run_points(&points, 64);
        assert_eq!(many.len(), points.len());
    }

    #[test]
    fn empty_point_list_is_fine() {
        assert!(run_points(&[], 4).is_empty());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
