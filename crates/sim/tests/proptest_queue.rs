//! Property tests for the deterministic event queue — the simulator's
//! correctness rests on its ordering guarantees. (The two properties that
//! compare the wheel against the heap reference model live in
//! `src/event.rs`'s unit tests, next to the test-only oracle.)

use dynareg_sim::{DetRng, EventQueue, Span, Time};
use proptest::prelude::*;

proptest! {
    // Bounded case count so CI runtime stays predictable; override with
    // the PROPTEST_CASES environment variable for deeper local runs.
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Pop order is non-decreasing in time, and FIFO within (time, class).
    #[test]
    fn pops_are_time_class_seq_ordered(
        events in prop::collection::vec((0u64..1000, 0u8..3), 1..200)
    ) {
        let mut q = EventQueue::new();
        for (i, &(t, class)) in events.iter().enumerate() {
            q.schedule_class(Time::at(t), class, i);
        }
        let mut prev: Option<(Time, u8, u64)> = None;
        while let Some(e) = q.pop() {
            let key = (e.time, e.class, e.seq);
            if let Some(p) = prev {
                prop_assert!(p <= key, "popped {key:?} after {p:?}");
            }
            prev = Some(key);
        }
    }

    /// Every scheduled event is popped exactly once (no loss, no
    /// duplication), whatever the schedule.
    #[test]
    fn queue_is_lossless(
        times in prop::collection::vec(0u64..500, 1..300)
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Time::at(t), i);
        }
        let mut seen = vec![false; times.len()];
        while let Some(e) = q.pop() {
            prop_assert!(!seen[e.payload], "event {e:?} popped twice");
            seen[e.payload] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Interleaving schedules with pops (never into the past) preserves
    /// the watermark invariant: now() never decreases.
    #[test]
    fn watermark_is_monotone(
        script in prop::collection::vec((0u64..50, prop::bool::ANY), 1..200)
    ) {
        let mut q = EventQueue::new();
        let mut watermark = Time::ZERO;
        for (delay, do_pop) in script {
            q.schedule(watermark + Span::ticks(delay), ());
            if do_pop {
                if let Some(e) = q.pop() {
                    prop_assert!(e.time >= watermark);
                    watermark = e.time;
                    prop_assert_eq!(q.now(), watermark);
                }
            }
        }
    }

    /// DetRng streams are reproducible and forks are independent of later
    /// parent draws.
    #[test]
    fn rng_fork_isolation(seed in 0u64..u64::MAX, label in 0u64..u64::MAX) {
        let mut a = DetRng::seed(seed);
        let mut b = DetRng::seed(seed);
        let mut fa = a.fork(label);
        let mut fb = b.fork(label);
        // Perturb parent `a` only — child streams must still agree.
        let _ = a.pick(17);
        for _ in 0..8 {
            prop_assert_eq!(fa.pick(1_000_003), fb.pick(1_000_003));
        }
    }

    /// Histogram quantiles are order statistics: the q-quantile is ≤ the
    /// q'-quantile for q ≤ q', and both are actual samples.
    #[test]
    fn histogram_quantiles_are_monotone_samples(
        samples in prop::collection::vec(0u64..10_000, 1..200),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let mut h = dynareg_sim::metrics::Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = h.quantile(lo).unwrap();
        let b = h.quantile(hi).unwrap();
        prop_assert!(a <= b);
        prop_assert!(samples.contains(&a) && samples.contains(&b));
    }
}
