//! The deterministic event queue at the heart of the simulator.
//!
//! Determinism contract: events are delivered in non-decreasing [`Time`]
//! order, and events scheduled for the *same* instant are delivered in the
//! order they were scheduled (FIFO). Together with [`crate::DetRng`] this
//! makes a whole run a pure function of `(scenario, seed)`, which is what
//! lets the experiment harness attribute every safety violation to a
//! reproducible schedule.
//!
//! # Implementation: a tick wheel
//!
//! The paper's time model is integer ticks and message delays are bounded
//! by `δ`, so almost every event lands within a few dozen ticks of the
//! current instant. [`EventQueue`] exploits that shape: a *tick wheel* of
//! [`WHEEL_SLOTS`] one-tick buckets covers the near future, giving O(1)
//! schedule and pop on the hot path (a `BinaryHeap` pays O(log n) per
//! operation against a three-way comparator). Each bucket keeps per-class
//! FIFO lanes, so the (time, class, seq) total order is positional rather
//! than compared. A bucket that drains hands its lane buffers to a free
//! list the next bucket to fill takes from, so the queue's memory follows
//! the *live horizon* (the handful of buckets that hold events), not the
//! wheel's size. The rare far-future event (long timers, `Time::MAX`
//! sentinels) parks in a sorted overflow map and migrates into the wheel
//! as the cursor approaches — a two-level hierarchy in the style of
//! hashed-and-hierarchical timing wheels.
//!
//! The original heap implementation survives as a test-only reference
//! model (`HeapEventQueue` in this module's tests) for the equivalence
//! property tests.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};

use crate::time::Time;

/// Number of one-tick buckets in the near wheel. Events further than this
/// from the cursor go to the overflow level. 256 comfortably covers the
/// protocols' `3δ` horizons for any realistic `δ`. The wheel's size does
/// not set the queue's memory: an empty bucket owns no lane buffer (see
/// [`Bucket`]), so 256 buckets cost their headers and a lane index of a
/// few entries each, and the buffers are as many as the lanes that hold
/// events right now.
const WHEEL_SLOTS: u64 = 256;

/// An event drawn from the queue: the instant it fires at and its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// The instant at which the event fires.
    pub time: Time,
    /// Ordering class within the instant (lower fires first).
    pub class: u8,
    /// Monotone sequence number assigned at scheduling time; exposes the
    /// deterministic tie-break order for debugging.
    pub seq: u64,
    /// The event payload.
    pub payload: E,
}

/// A lane's buffer: `(seq, payload)` in FIFO order.
type Lane<E> = VecDeque<(u64, E)>;

/// One wheel bucket: per-class FIFO lanes, kept sorted by class.
///
/// A bucket owns lane buffers only while it holds events. Its first push
/// per class takes a buffer from the queue's free list, and the pop that
/// empties the bucket puts every buffer back — last in, first out, so the
/// buffer the next bucket picks up is the one just drained and still in
/// cache. A simulation whose events land within `h` ticks of the cursor
/// therefore keeps about `h + 1` buckets' worth of buffers, each grown to
/// the longest lane it has held, instead of [`WHEEL_SLOTS`] high-water
/// buffers that every new queue must page in afresh.
#[derive(Debug)]
struct Bucket<E> {
    lanes: Vec<(u8, Lane<E>)>,
    len: usize,
}

impl<E> Default for Bucket<E> {
    fn default() -> Self {
        Bucket {
            lanes: Vec::new(),
            len: 0,
        }
    }
}

impl<E> Bucket<E> {
    /// Appends to `class`'s lane, opening it with a buffer from `free`.
    fn push(&mut self, class: u8, seq: u64, payload: E, free: &mut Vec<Lane<E>>) {
        self.len += 1;
        // Deliveries (class 0) dominate and sort first: hit lane 0 without
        // a search.
        if let Some((c, lane)) = self.lanes.first_mut() {
            if *c == class {
                lane.push_back((seq, payload));
                return;
            }
        }
        match self.lanes.binary_search_by_key(&class, |&(c, _)| c) {
            Ok(i) => self.lanes[i].1.push_back((seq, payload)),
            Err(i) => {
                let mut lane = free.pop().unwrap_or_default();
                lane.push_back((seq, payload));
                self.lanes.insert(i, (class, lane));
            }
        }
    }

    /// Removes the earliest (class, seq) event; the bucket must be
    /// non-empty. The pop that empties it returns its buffers to `free`.
    fn pop(&mut self, free: &mut Vec<Lane<E>>) -> (u8, u64, E) {
        debug_assert!(self.len > 0);
        self.len -= 1;
        let (class, lane) = self
            .lanes
            .iter_mut()
            .find(|(_, lane)| !lane.is_empty())
            .expect("bucket len counted an event, so a lane holds one");
        let (seq, payload) = lane.pop_front().expect("found non-empty");
        let class = *class;
        if self.len == 0 {
            free.extend(self.lanes.drain(..).map(|(_, lane)| lane));
        }
        (class, seq, payload)
    }

    /// The last event of `class`'s lane, if it holds one.
    fn back_mut(&mut self, class: u8) -> Option<&mut E> {
        let (_, lane) = self.lanes.iter_mut().find(|(c, _)| *c == class)?;
        lane.back_mut().map(|(_, payload)| payload)
    }
}

/// A priority queue of timestamped events with stable FIFO ordering at equal
/// timestamps, refinable by an *ordering class*.
///
/// Classes solve a semantic boundary problem of discrete time: the paper's
/// `wait(2δ)` must observe messages whose worst-case latency lands them at
/// *exactly* the deadline. The runtime therefore schedules message
/// deliveries in a lower class than timer expiries (and timer expiries lower
/// than the once-per-unit churn/workload tick), so at any single instant
/// the order is: deliveries → timers → tick. Within a class, FIFO.
///
/// # Example
///
/// ```
/// use dynareg_sim::{EventQueue, Time};
///
/// let mut q = EventQueue::new();
/// q.schedule(Time::at(5), "b");
/// q.schedule(Time::at(5), "c"); // same instant: FIFO after "b"
/// q.schedule(Time::at(1), "a");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The near level: `WHEEL_SLOTS` one-tick buckets; the bucket for
    /// instant `t` is `wheel[t % WHEEL_SLOTS]`.
    wheel: Vec<Bucket<E>>,
    /// Events in the wheel (cheap emptiness/`len` bookkeeping).
    wheel_len: usize,
    /// Lane buffers of drained buckets, reused last in, first out.
    free_lanes: Vec<Lane<E>>,
    /// Absolute tick of the start of the wheel's window. Invariants:
    /// `cursor == watermark` between operations, every queued event at
    /// `t < cursor + WHEEL_SLOTS` is in the wheel, and everything at or
    /// beyond that horizon is in `overflow`.
    cursor: u64,
    /// The far level: events at or beyond the wheel horizon, in exact
    /// (time, class, seq) order.
    overflow: BTreeMap<(u64, u8, u64), E>,
    next_seq: u64,
    /// Largest time ever popped; used to enforce the no-time-travel check.
    watermark: Time,
    popped: u64,
    /// Memo for [`EventQueue::peek_time`]: `Some(t)` means the earliest
    /// pending event fires at `t`; `None` means "recompute".
    peek_cache: Cell<Option<Time>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            wheel: (0..WHEEL_SLOTS).map(|_| Bucket::default()).collect(),
            wheel_len: 0,
            free_lanes: Vec::new(),
            cursor: 0,
            overflow: BTreeMap::new(),
            next_seq: 0,
            watermark: Time::ZERO,
            popped: 0,
            peek_cache: Cell::new(None),
        }
    }

    /// First instant *not* covered by the wheel's current window.
    fn horizon(&self) -> u64 {
        self.cursor.saturating_add(WHEEL_SLOTS)
    }

    /// Schedules `payload` to fire at `time` in the default class (0).
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the latest popped event: scheduling
    /// into the past would break the simulation's causal order. (Scheduling
    /// *at* the current instant is allowed and common: zero-delay local
    /// computation, the paper's "processing times … are negligible".)
    pub fn schedule(&mut self, time: Time, payload: E) -> u64 {
        self.schedule_class(time, 0, payload)
    }

    /// Schedules `payload` to fire at `time` in ordering class `class`
    /// (lower classes fire first within an instant).
    ///
    /// # Panics
    /// Panics if `time` is in the past (see [`EventQueue::schedule`]).
    pub fn schedule_class(&mut self, time: Time, class: u8, payload: E) -> u64 {
        assert!(
            time >= self.watermark,
            "event scheduled at {time} before current time {}",
            self.watermark
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let t = time.ticks();
        if t < self.horizon() {
            self.wheel[(t % WHEEL_SLOTS) as usize].push(class, seq, payload, &mut self.free_lanes);
            self.wheel_len += 1;
        } else {
            self.overflow.insert((t, class, seq), payload);
        }
        if let Some(cached) = self.peek_cache.get() {
            if time < cached {
                self.peek_cache.set(Some(time));
            }
        } else if self.len() == 1 {
            self.peek_cache.set(Some(time));
        }
        seq
    }

    /// The event that a [`schedule_class`](EventQueue::schedule_class) at
    /// `(time, class)` would queue directly behind: the last one of that
    /// wheel lane, or `None` when the lane is empty or `time` lies at or
    /// beyond the wheel's horizon (overflow events have no lane).
    ///
    /// A caller whose payloads are *runs* of items may append to the
    /// returned payload instead of scheduling a new event: the item keeps
    /// the place in the (time, class, seq) order that its own event would
    /// have taken, because nothing can be queued between a lane's last
    /// event and the next one scheduled there.
    pub fn back_mut(&mut self, time: Time, class: u8) -> Option<&mut E> {
        let t = time.ticks();
        if time < self.watermark || t >= self.horizon() {
            return None;
        }
        self.wheel[(t % WHEEL_SLOTS) as usize].back_mut(class)
    }

    /// Moves overflow events that now fit the window into the wheel.
    /// Migrated events land in slots the cursor has not reached yet, and
    /// arrive in (time, class, seq) order, so lane FIFO order is preserved.
    fn migrate_overflow(&mut self) {
        let horizon = self.horizon();
        while let Some((&(t, class, seq), _)) = self.overflow.first_key_value() {
            if t >= horizon {
                break;
            }
            let payload = self.overflow.pop_first().expect("head exists").1;
            self.wheel[(t % WHEEL_SLOTS) as usize].push(class, seq, payload, &mut self.free_lanes);
            self.wheel_len += 1;
        }
    }

    /// Removes and returns the earliest event, or `None` when the queue is
    /// empty.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        if self.wheel_len == 0 {
            if self.overflow.is_empty() {
                return None;
            }
            // Nothing near: jump the cursor straight to the first far event
            // and pull everything that fits into the window.
            self.cursor = self.overflow.first_key_value().expect("non-empty").0 .0;
            self.migrate_overflow();
        }
        if self.wheel_len == 0 {
            // Only reachable when the horizon saturates at `Time::MAX` and
            // the head event sits exactly on it: serve overflow directly.
            let ((t, class, seq), payload) = self.overflow.pop_first().expect("non-empty");
            return Some(self.emit(Time::at(t), class, seq, payload));
        }
        // A preceding peek_time() already located the next event: jump the
        // cursor straight there instead of re-walking empty buckets (the
        // runtime peeks before every pop to honour its end-of-run bound).
        // Any overflow event earlier than the new horizon migrates in one
        // batch; nothing can land behind the jump target because the wheel
        // held an event at it.
        if let Some(t) = self.peek_cache.get() {
            if t < Time::at(self.horizon()) && t.ticks() > self.cursor {
                self.cursor = t.ticks();
                self.migrate_overflow();
            }
        }
        // The wheel holds the earliest event within WHEEL_SLOTS of the
        // cursor: walk to the first non-empty bucket, migrating far events
        // as the window slides.
        loop {
            let slot = (self.cursor % WHEEL_SLOTS) as usize;
            if self.wheel[slot].len > 0 {
                let (class, seq, payload) = self.wheel[slot].pop(&mut self.free_lanes);
                self.wheel_len -= 1;
                return Some(self.emit(Time::at(self.cursor), class, seq, payload));
            }
            self.cursor += 1;
            self.migrate_overflow();
        }
    }

    fn emit(&mut self, time: Time, class: u8, seq: u64, payload: E) -> ScheduledEvent<E> {
        debug_assert!(time >= self.watermark);
        self.watermark = time;
        self.popped += 1;
        self.peek_cache.set(None);
        ScheduledEvent {
            time,
            class,
            seq,
            payload,
        }
    }

    /// The instant of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        if self.is_empty() {
            return None;
        }
        if let Some(t) = self.peek_cache.get() {
            return Some(t);
        }
        let t = if self.wheel_len > 0 {
            // Scan the window from the cursor; bounded by WHEEL_SLOTS and
            // in practice by the gap to the next event.
            let mut t = self.cursor;
            loop {
                if self.wheel[(t % WHEEL_SLOTS) as usize].len > 0 {
                    break Time::at(t);
                }
                t += 1;
            }
        } else {
            Time::at(self.overflow.first_key_value().expect("non-empty").0 .0)
        };
        self.peek_cache.set(Some(t));
        Some(t)
    }

    /// Current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> Time {
        self.watermark
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.popped
    }

    /// Lane buffers the queue owns: those of buckets holding events plus
    /// the free list.
    #[cfg(test)]
    fn lane_buffers(&self) -> usize {
        let live: usize = self.wheel.iter().map(|b| b.lanes.len()).sum();
        live + self.free_lanes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Span;
    use proptest::prelude::*;

    /// The original `BinaryHeap`-backed event queue, kept as the *reference
    /// model* for the tick wheel: the property tests below drive both with
    /// identical schedule/pop scripts and require identical pop sequences.
    /// Every method mirrors the `EventQueue` method of the same name.
    #[derive(Debug)]
    struct HeapEventQueue<E> {
        heap: std::collections::BinaryHeap<HeapEntry<E>>,
        next_seq: u64,
        watermark: Time,
        popped: u64,
    }

    #[derive(Debug)]
    struct HeapEntry<E> {
        time: Time,
        class: u8,
        seq: u64,
        payload: E,
    }

    impl<E> PartialEq for HeapEntry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.class == other.class && self.seq == other.seq
        }
    }
    impl<E> Eq for HeapEntry<E> {}

    impl<E> PartialOrd for HeapEntry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<E> Ord for HeapEntry<E> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reversed: earliest (time, class, seq) pops first.
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.class.cmp(&self.class))
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    impl<E> HeapEventQueue<E> {
        fn new() -> HeapEventQueue<E> {
            HeapEventQueue {
                heap: std::collections::BinaryHeap::new(),
                next_seq: 0,
                watermark: Time::ZERO,
                popped: 0,
            }
        }

        fn schedule(&mut self, time: Time, payload: E) -> u64 {
            self.schedule_class(time, 0, payload)
        }

        fn schedule_class(&mut self, time: Time, class: u8, payload: E) -> u64 {
            assert!(
                time >= self.watermark,
                "event scheduled at {time} before current time {}",
                self.watermark
            );
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(HeapEntry {
                time,
                class,
                seq,
                payload,
            });
            seq
        }

        fn pop(&mut self) -> Option<ScheduledEvent<E>> {
            let entry = self.heap.pop()?;
            self.watermark = entry.time;
            self.popped += 1;
            Some(ScheduledEvent {
                time: entry.time,
                class: entry.class,
                seq: entry.seq,
                payload: entry.payload,
            })
        }

        fn peek_time(&self) -> Option<Time> {
            self.heap.peek().map(|e| e.time)
        }

        fn now(&self) -> Time {
            self.watermark
        }

        fn len(&self) -> usize {
            self.heap.len()
        }

        fn delivered(&self) -> u64 {
            self.popped
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::at(10), 'x');
        q.schedule(Time::at(2), 'y');
        q.schedule(Time::at(7), 'z');
        let order: Vec<char> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, ['y', 'z', 'x']);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Time::at(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        q.schedule(Time::at(4), ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time::at(4));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Time::at(9), ());
        q.pop();
        q.schedule(Time::at(3), ());
    }

    #[test]
    fn zero_delay_rescheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(Time::at(5), 1);
        q.pop();
        q.schedule(Time::at(5), 2); // same instant: fine
        assert_eq!(q.pop().unwrap().payload, 2);
    }

    #[test]
    fn classes_order_within_an_instant() {
        let mut q = EventQueue::new();
        q.schedule_class(Time::at(5), 2, "tick");
        q.schedule_class(Time::at(5), 1, "timer");
        q.schedule_class(Time::at(5), 0, "deliver-late-seq");
        q.schedule_class(Time::at(4), 2, "earlier-tick");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, ["earlier-tick", "deliver-late-seq", "timer", "tick"]);
    }

    #[test]
    fn same_class_stays_fifo() {
        let mut q = EventQueue::new();
        q.schedule_class(Time::at(5), 1, 1);
        q.schedule_class(Time::at(5), 1, 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, [1, 2]);
    }

    #[test]
    fn len_and_delivered_track_counts() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Time::at(1), ());
        q.schedule(Time::at(2), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.delivered(), 1);
    }

    #[test]
    fn far_events_cross_the_wheel_horizon() {
        let mut q = EventQueue::new();
        q.schedule(Time::at(WHEEL_SLOTS * 10 + 3), "far");
        q.schedule(Time::at(2), "near");
        q.schedule(Time::at(WHEEL_SLOTS + 1), "mid");
        assert_eq!(q.peek_time(), Some(Time::at(2)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, ["near", "mid", "far"]);
        assert_eq!(q.now(), Time::at(WHEEL_SLOTS * 10 + 3));
    }

    #[test]
    fn same_slot_different_cycles_do_not_collide() {
        // t and t + WHEEL_SLOTS map to the same slot index; the horizon
        // check must keep the later event in overflow until the window
        // slides past the earlier one.
        let mut q = EventQueue::new();
        q.schedule(Time::at(7), "now");
        q.schedule(Time::at(7 + WHEEL_SLOTS), "next-cycle");
        q.schedule(Time::at(7 + 2 * WHEEL_SLOTS), "cycle-after");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, ["now", "next-cycle", "cycle-after"]);
    }

    #[test]
    fn time_max_sentinel_is_schedulable() {
        let mut q = EventQueue::new();
        q.schedule(Time::MAX, "never");
        q.schedule(Time::at(1), "soon");
        assert_eq!(q.pop().unwrap().payload, "soon");
        assert_eq!(q.peek_time(), Some(Time::MAX));
        let e = q.pop().unwrap();
        assert_eq!(e.payload, "never");
        assert_eq!(e.time, Time::MAX);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_pop_keeps_fifo_across_migration() {
        let mut q = EventQueue::new();
        let far = Time::at(WHEEL_SLOTS + 50);
        q.schedule_class(far, 1, "scheduled-first"); // parks in overflow
        q.schedule(Time::at(WHEEL_SLOTS + 20), "advancer");
        q.pop(); // cursor jumps; far event migrates into the wheel
        q.schedule_class(far, 1, "scheduled-second"); // direct wheel insert
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, ["scheduled-first", "scheduled-second"]);
    }

    #[test]
    fn peek_cache_tracks_cheaper_schedules() {
        let mut q = EventQueue::new();
        q.schedule(Time::at(100), 1);
        assert_eq!(q.peek_time(), Some(Time::at(100)));
        q.schedule(Time::at(40), 2); // cheaper than the cached peek
        assert_eq!(q.peek_time(), Some(Time::at(40)));
        q.schedule(Time::at(60), 3); // later than the cached peek
        assert_eq!(q.peek_time(), Some(Time::at(40)));
    }

    #[test]
    fn lane_buffers_follow_the_live_horizon_not_the_wheel() {
        // Every tick schedules a wave at each offset in [1, δ] and drains
        // the current instant, for several turns of the wheel: the buffers
        // in use never exceed the δ buckets ahead plus the one draining,
        // and the free list never holds more than was once live.
        const DELTA: u64 = 5;
        const WAVE: usize = 64;
        let mut q = EventQueue::new();
        for offset in 1..=DELTA {
            q.schedule(Time::at(offset), 0);
        }
        for tick in 1..=(4 * WHEEL_SLOTS + 7) {
            for offset in 1..=DELTA {
                for i in 0..WAVE {
                    q.schedule(Time::at(tick + offset), i);
                }
            }
            while q.peek_time() == Some(Time::at(tick)) {
                q.pop();
            }
            assert!(
                q.lane_buffers() <= DELTA as usize + 2,
                "{} buffers at tick {tick}",
                q.lane_buffers()
            );
        }
        while q.pop().is_some() {}
        assert_eq!(q.lane_buffers(), q.free_lanes.len(), "all returned");
        assert!(q.free_lanes.len() <= DELTA as usize + 2);
    }

    #[test]
    fn back_mut_names_the_lane_tail_and_never_an_overflow_event() {
        let mut q = EventQueue::new();
        assert!(q.back_mut(Time::at(5), 0).is_none(), "empty lane");
        q.schedule(Time::at(5), vec![1]);
        q.schedule_class(Time::at(5), 1, vec![10]);
        q.schedule(Time::at(5), vec![2]);
        q.back_mut(Time::at(5), 0).expect("lane tail").push(3);
        assert!(q.back_mut(Time::at(5), 2).is_none(), "no such class");
        assert!(q.back_mut(Time::at(6), 0).is_none(), "other instant");
        // Beyond the horizon events park in overflow and are never named,
        // even after they migrate behind nothing.
        q.schedule(Time::at(WHEEL_SLOTS + 9), vec![7]);
        assert!(q.back_mut(Time::at(WHEEL_SLOTS + 9), 0).is_none());
        let order: Vec<Vec<i32>> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, [vec![1], vec![2, 3], vec![10], vec![7]]);
        assert!(q.back_mut(Time::at(3), 0).is_none(), "the past");
    }

    #[test]
    fn reference_heap_queue_matches_on_a_smoke_script() {
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let script = [(5u64, 2u8), (5, 0), (1, 1), (700, 0), (5, 0), (1, 1)];
        for (i, &(t, class)) in script.iter().enumerate() {
            wheel.schedule_class(Time::at(t), class, i);
            heap.schedule_class(Time::at(t), class, i);
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn watermark_equals_cursor_between_operations() {
        let mut q = EventQueue::new();
        q.schedule(Time::at(30), ());
        q.schedule(Time::at(600), ());
        q.pop();
        // Scheduling at the watermark must land in a valid wheel slot even
        // though the first pop advanced the cursor.
        q.schedule(Time::at(30) + Span::ticks(0), ());
        assert_eq!(q.pop().unwrap().time, Time::at(30));
        assert_eq!(q.pop().unwrap().time, Time::at(600));
    }

    proptest! {
        // Bounded case count, as in `tests/proptest_queue.rs`, so CI runtime
        // stays predictable; override with PROPTEST_CASES.
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The tick-wheel queue is behaviorally identical to the original
        /// `BinaryHeap` implementation (kept as `HeapEventQueue`, the
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
    }
}
