//! Property tests for the deterministic event queue — the simulator's
//! correctness rests on its ordering guarantees.

use dynareg_sim::{DetRng, EventQueue, HeapEventQueue, Span, Time};
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

    /// The tick-wheel queue is behaviorally identical to the original
    /// `BinaryHeap` implementation (kept as [`HeapEventQueue`], the
    /// reference model): identical pop sequences — (time, class, seq,
    /// payload) — for arbitrary interleaved `schedule`/`schedule_class`/
    /// `pop` scripts. Delays reach far beyond the wheel's 256-slot near
    /// window so overflow parking, migration and cursor jumps are all on
    /// the exercised path.
    #[test]
    fn wheel_matches_heap_reference_model(
        script in prop::collection::vec(
            (0u64..600, 0u8..3, prop::bool::ANY, prop::bool::ANY),
            1..300,
        )
    ) {
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        for (i, &(delay, class, classed, do_pop)) in script.iter().enumerate() {
            // Schedule relative to the wheel's watermark (the reference
            // model's watermark tracks it in lockstep) so no event lands
            // in the past.
            let t = wheel.now() + Span::ticks(delay);
            if classed {
                wheel.schedule_class(t, class, i);
                heap.schedule_class(t, class, i);
            } else {
                wheel.schedule(t, i);
                heap.schedule(t, i);
            }
            prop_assert_eq!(wheel.len(), heap.len());
            if do_pop {
                prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                prop_assert_eq!(wheel.pop(), heap.pop());
                prop_assert_eq!(wheel.now(), heap.now());
            }
        }
        // Drain both: the tails must agree event-for-event.
        loop {
            prop_assert_eq!(wheel.peek_time(), heap.peek_time());
            let (a, b) = (wheel.pop(), heap.pop());
            prop_assert_eq!(&a, &b);
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(wheel.delivered(), heap.delivered());
    }

    /// Appending to the lane tail that [`EventQueue::back_mut`] names is
    /// invisible in the order: a wheel whose payloads are *runs* (append
    /// when the tail is there, schedule a one-item run otherwise) pops,
    /// run by run and item by item, exactly what the per-item reference
    /// queue pops — for arbitrary interleavings, classes, and delays on
    /// both sides of the wheel horizon (overflow events never merge).
    #[test]
    fn runs_appended_at_the_lane_tail_keep_the_per_item_order(
        script in prop::collection::vec(
            (0u64..6, 200u64..600, 0u8..5, 0u8..3, prop::bool::ANY),
            1..300,
        )
    ) {
        let mut wheel: EventQueue<Vec<usize>> = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut merged = 0;
        let check_run = |wheel: &mut EventQueue<Vec<usize>>, heap: &mut HeapEventQueue<usize>| {
            let Some(run) = wheel.pop() else {
                prop_assert!(heap.pop().is_none());
                return Ok(false);
            };
            prop_assert!(!run.payload.is_empty());
            for item in run.payload {
                let single = heap.pop().expect("the reference holds every item");
                prop_assert_eq!((run.time, run.class, item), (single.time, single.class, single.payload));
            }
            prop_assert_eq!(wheel.now(), heap.now());
            Ok(true)
        };
        for (i, &(near, far, pick, class, do_pop)) in script.iter().enumerate() {
            // Mostly a few ticks ahead (so lanes collide and runs form),
            // one in five past the wheel horizon.
            let delay = if pick == 0 { far } else { near };
            let t = wheel.now() + Span::ticks(delay);
            match wheel.back_mut(t, class) {
                Some(run) => {
                    run.push(i);
                    merged += 1;
                }
                None => {
                    wheel.schedule_class(t, class, vec![i]);
                }
            }
            heap.schedule_class(t, class, i);
            if do_pop {
                prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                check_run(&mut wheel, &mut heap)?;
            }
        }
        while check_run(&mut wheel, &mut heap)? {}
        prop_assert!(script.len() < 100 || merged > 0, "runs actually formed");
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
