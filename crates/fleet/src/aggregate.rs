//! Per-run summarization and order-independent reduction.
//!
//! Workers summarize each finished world into a compact [`PointOutcome`]
//! (dropping the full history — the *streaming* part: fleet memory stays
//! bounded by the number of points, not by the event volume) and the
//! reducer folds outcomes into per-`(δ, c)` [`Cell`]s.
//!
//! **Determinism contract:** every accumulator here is an integer counter,
//! an exact [`Histogram`] merge, or an `f64` min/max — all commutative and
//! associative — so reducing outcomes in *any* completion order yields
//! bit-identical cells. This is what lets the pool run at any thread count
//! and still produce byte-identical reports; never add an `f64` running
//! sum to a cell.

use dynareg_churn::analysis;
use dynareg_sim::metrics::Histogram;
use dynareg_sim::Span;
use dynareg_testkit::RunReport;

use crate::spec::RunPoint;

/// FNV-1a 64-bit over a byte stream.
pub(crate) fn fnv1a(bytes: impl IntoIterator<Item = u8>, seed: u64) -> u64 {
    let mut h = seed;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

pub(crate) const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Digest of everything observable about a run: the full operation history
/// (invocations, responses, values), the membership totals and the message
/// count. Two runs with equal digests executed the same event stream for
/// every purpose the checkers care about; the fleet determinism suite
/// compares fleet-run digests against standalone [`Scenario`] runs of the
/// same point.
///
/// [`Scenario`]: dynareg_testkit::Scenario
pub fn run_digest(report: &RunReport) -> u64 {
    let ops = format!("{:?}", report.history.ops());
    let mut h = fnv1a(ops.bytes(), FNV_OFFSET);
    // Keyed runs fold every further key's op stream in key order (a 1-key
    // run folds nothing extra, so single-register digests are unchanged).
    for key in &report.extra_keys {
        h = fnv1a(format!("{:?}", key.history.ops()).bytes(), h);
    }
    for v in [
        report.presence.total_arrivals() as u64,
        report.presence.total_departures() as u64,
        report.total_messages,
        report.total_violations() as u64,
        report.total_inversions() as u64,
        report.total_stuck() as u64,
    ] {
        h = fnv1a(v.to_le_bytes(), h);
    }
    h
}

/// The compact, plain-data summary of one finished run.
#[derive(Debug, Clone)]
pub struct PointOutcome {
    /// Run index in sweep expansion order.
    pub index: u64,
    /// Delay bound `δ` (ticks).
    pub delta: u64,
    /// Churn fraction `c / c*`.
    pub fraction: f64,
    /// Nominal churn rate `c` the world actually ran with.
    pub churn_rate: f64,
    /// Population size `n`.
    pub n: usize,
    /// Register-space key count of the run.
    pub keys: u32,
    /// Join-reply shard groups of the run (1, the default = full replies).
    pub shards: u32,
    /// Writer-roster size (and per-key write cap) of the run.
    pub writers: u32,
    /// The run's derived seed.
    pub seed: u64,
    /// Safety (regularity) violations, summed over every key.
    pub safety_violations: u64,
    /// Reads the safety checker examined, summed over every key.
    pub reads_checked: u64,
    /// New/old inversion pairs, summed over every key.
    pub inversions: u64,
    /// Genuine liveness violations (stuck stayers), over every key.
    pub stuck_ops: u64,
    /// Churn arrivals (joiners; bootstrap members excluded).
    pub arrivals: u64,
    /// Joins that completed.
    pub joins_completed: u64,
    /// Reads that completed.
    pub reads_completed: u64,
    /// Writes that completed.
    pub writes_completed: u64,
    /// Messages sent.
    pub messages: u64,
    /// `INQUIRY_FULL` messages sent (sharded-join starvation escalation
    /// traffic; 0 for unsharded runs).
    pub inquiry_full: u64,
    /// Silence-triggered join-inquiry retransmissions (the loss-tolerant
    /// handshake; 0 whenever every handshake completes in time).
    pub join_retransmits: u64,
    /// Deliveries whose effective latency broke the configured `δ` after
    /// the synchrony guarantee began.
    pub delta_overruns: u64,
    /// Per-tick `|A(τ)|` samples.
    pub active: Histogram,
    /// Measured `min_τ |A(τ, τ+3δ)|` (Lemma 2's left-hand side), if the
    /// run is long enough.
    pub min_window_active: Option<u64>,
    /// The pipeline-corrected Lemma 2 floor `n(1 − 6δc)` for this point.
    pub lemma2_steady_bound: f64,
    /// Join latency (completed joins).
    pub join_latency: Histogram,
    /// Read latency (completed reads).
    pub read_latency: Histogram,
    /// Write latency (completed writes).
    pub write_latency: Histogram,
    /// Event-stream digest ([`run_digest`]).
    pub digest: u64,
}

impl PointOutcome {
    /// Summarizes a finished run (the worker-side reduction step).
    pub fn from_run(point: &RunPoint, report: &RunReport) -> PointOutcome {
        let delta_span = Span::ticks(point.delta);
        let c = report.churn_rate;
        PointOutcome {
            index: point.index,
            delta: point.delta,
            fraction: point.fraction,
            churn_rate: c,
            n: point.n,
            keys: point.keys,
            shards: point.shards,
            writers: point.writers as u32,
            seed: point.seed,
            safety_violations: report.total_violations() as u64,
            reads_checked: report.total_reads_checked() as u64,
            inversions: report.total_inversions() as u64,
            stuck_ops: report.total_stuck() as u64,
            arrivals: (report.presence.total_arrivals().saturating_sub(point.n)) as u64,
            joins_completed: report.metrics.counter("ops.join_completed"),
            reads_completed: report.metrics.counter("ops.read_completed"),
            writes_completed: report.metrics.counter("ops.write_completed"),
            messages: report.total_messages,
            inquiry_full: report.inquiry_full(),
            join_retransmits: report.join_retransmits(),
            delta_overruns: report.delta_overruns,
            active: report
                .metrics
                .histogram("gauge.active")
                .cloned()
                .unwrap_or_default(),
            min_window_active: report
                .min_window_active(delta_span.times(3))
                .map(|m| m as u64),
            lemma2_steady_bound: analysis::lemma2_steady_bound(point.n, delta_span, c),
            join_latency: report.liveness.join_latency.clone(),
            read_latency: report.liveness.read_latency.clone(),
            write_latency: report.liveness.write_latency.clone(),
            digest: run_digest(report),
        }
    }
}

/// One `(δ, c/c*)` cell of the phase diagram: all runs of all seeds (and
/// populations) at that coordinate, reduced.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Register-space key count.
    pub keys: u32,
    /// Join-reply shard groups.
    pub shards: u32,
    /// Writer-roster size (and per-key write cap).
    pub writers: u32,
    /// Delay bound `δ` (ticks).
    pub delta: u64,
    /// Churn fraction `c / c*`.
    pub fraction: f64,
    /// Smallest nominal churn rate reduced into the cell (they differ
    /// across populations only for the ES threshold `1/(3δn)`).
    pub churn_rate: f64,
    /// Runs reduced into this cell.
    pub runs: u64,
    /// Runs with ≥ 1 safety violation.
    pub unsafe_runs: u64,
    /// Total safety violations.
    pub safety_violations: u64,
    /// Total reads checked.
    pub reads_checked: u64,
    /// Total inversions.
    pub inversions: u64,
    /// Runs with ≥ 1 stuck stayer.
    pub stuck_runs: u64,
    /// Total stuck operations.
    pub stuck_ops: u64,
    /// Total churn arrivals.
    pub arrivals: u64,
    /// Total completed joins.
    pub joins_completed: u64,
    /// Total completed reads.
    pub reads_completed: u64,
    /// Total completed writes.
    pub writes_completed: u64,
    /// Total messages sent.
    pub messages: u64,
    /// Total `INQUIRY_FULL` escalation messages.
    pub inquiry_full: u64,
    /// Total silence-triggered join-inquiry retransmissions.
    pub join_retransmits: u64,
    /// Total δ-overrun deliveries (non-zero marks the cell's `δ`-derived
    /// verdicts as timing-suspect).
    pub delta_overruns: u64,
    /// Merged per-tick `|A(τ)|` samples.
    pub active: Histogram,
    /// Minimum measured `|A(τ, τ+3δ)|` across runs, if any run measured it.
    pub min_window_active: Option<u64>,
    /// Largest Lemma 2 steady-state floor across the cell's runs.
    pub lemma2_steady_bound: f64,
    /// Merged join latency.
    pub join_latency: Histogram,
    /// Merged read latency.
    pub read_latency: Histogram,
    /// Merged write latency.
    pub write_latency: Histogram,
}

impl Cell {
    /// An empty cell at the given `(keys, shards, writers, δ, fraction)`
    /// coordinate.
    pub fn new(keys: u32, shards: u32, writers: u32, delta: u64, fraction: f64) -> Cell {
        Cell {
            keys,
            shards,
            writers,
            delta,
            fraction,
            churn_rate: f64::INFINITY,
            runs: 0,
            unsafe_runs: 0,
            safety_violations: 0,
            reads_checked: 0,
            inversions: 0,
            stuck_runs: 0,
            stuck_ops: 0,
            arrivals: 0,
            joins_completed: 0,
            reads_completed: 0,
            writes_completed: 0,
            messages: 0,
            inquiry_full: 0,
            join_retransmits: 0,
            delta_overruns: 0,
            active: Histogram::new(),
            min_window_active: None,
            lemma2_steady_bound: 0.0,
            join_latency: Histogram::new(),
            read_latency: Histogram::new(),
            write_latency: Histogram::new(),
        }
    }

    /// Folds one run into the cell (commutative and associative; see the
    /// module's determinism contract).
    pub fn absorb(&mut self, o: &PointOutcome) {
        debug_assert_eq!(
            (
                u64::from(self.keys),
                u64::from(self.shards),
                u64::from(self.writers),
                self.delta,
                self.fraction.to_bits()
            ),
            cell_key(o)
        );
        self.churn_rate = self.churn_rate.min(o.churn_rate);
        self.runs += 1;
        self.unsafe_runs += u64::from(o.safety_violations > 0);
        self.safety_violations += o.safety_violations;
        self.reads_checked += o.reads_checked;
        self.inversions += o.inversions;
        self.stuck_runs += u64::from(o.stuck_ops > 0);
        self.stuck_ops += o.stuck_ops;
        self.arrivals += o.arrivals;
        self.joins_completed += o.joins_completed;
        self.reads_completed += o.reads_completed;
        self.writes_completed += o.writes_completed;
        self.messages += o.messages;
        self.inquiry_full += o.inquiry_full;
        self.join_retransmits += o.join_retransmits;
        self.delta_overruns += o.delta_overruns;
        self.active.merge(&o.active);
        self.min_window_active = match (self.min_window_active, o.min_window_active) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.lemma2_steady_bound = self.lemma2_steady_bound.max(o.lemma2_steady_bound);
        self.join_latency.merge(&o.join_latency);
        self.read_latency.merge(&o.read_latency);
        self.write_latency.merge(&o.write_latency);
    }

    /// Fraction of churn arrivals whose join completed (`1.0` when no
    /// churn ran). The availability signal: under the Theorem 1 bound
    /// joins complete within `3δ` (Lemma 1), beyond it the join pipeline
    /// starves and the ratio collapses.
    pub fn join_ratio(&self) -> f64 {
        if self.arrivals == 0 {
            1.0
        } else {
            self.joins_completed as f64 / self.arrivals as f64
        }
    }

    /// The empirical feasibility verdict: every run safe, every run live,
    /// and the system stayed *available* (joins kept completing — at least
    /// half of all arrivals, which cleanly separates the sub-threshold
    /// regime, where Lemma 1 completes essentially all of them, from the
    /// collapsed one).
    pub fn feasible(&self) -> bool {
        self.unsafe_runs == 0 && self.stuck_runs == 0 && self.join_ratio() >= 0.5
    }
}

/// The reduction key of an outcome: `(keys, shards, writers, δ, fraction)`.
/// Fractions are keyed by bit pattern — exact, and ordered like the
/// numbers for non-negative floats.
pub fn cell_key(o: &PointOutcome) -> (u64, u64, u64, u64, u64) {
    (
        u64::from(o.keys),
        u64::from(o.shards),
        u64::from(o.writers),
        o.delta,
        o.fraction.to_bits(),
    )
}

/// Reduces outcomes into phase-diagram cells, sorted by
/// `(keys, shards, writers, δ, fraction)`. Input order does not matter
/// (see the module docs).
pub fn reduce_cells(outcomes: &[PointOutcome]) -> Vec<Cell> {
    let mut cells: std::collections::BTreeMap<(u64, u64, u64, u64, u64), Cell> =
        std::collections::BTreeMap::new();
    for o in outcomes {
        cells
            .entry(cell_key(o))
            .or_insert_with(|| Cell::new(o.keys, o.shards, o.writers, o.delta, o.fraction))
            .absorb(o);
    }
    cells.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynareg_sim::Span;
    use dynareg_testkit::Scenario;
    use proptest::prelude::*;

    fn outcome(delta: u64, fraction: f64, stuck: u64, joins: u64, arrivals: u64) -> PointOutcome {
        PointOutcome {
            index: 0,
            delta,
            fraction,
            churn_rate: fraction / (3.0 * delta as f64),
            n: 10,
            keys: 1,
            shards: 1,
            writers: 1,
            seed: 1,
            safety_violations: 0,
            reads_checked: 10,
            inversions: 0,
            stuck_ops: stuck,
            arrivals,
            joins_completed: joins,
            reads_completed: 10,
            writes_completed: 2,
            messages: 100,
            inquiry_full: 0,
            join_retransmits: 0,
            delta_overruns: 0,
            active: Histogram::new(),
            min_window_active: Some(5),
            lemma2_steady_bound: 1.0,
            join_latency: Histogram::new(),
            read_latency: Histogram::new(),
            write_latency: Histogram::new(),
            digest: 0,
        }
    }

    /// Every field of a cell: the three floats by bit pattern, then the
    /// derived `Debug` of the whole (which covers any field added later and
    /// renders a finite `f64` by its shortest round-trip decimal).
    fn cell_bits(c: &Cell) -> ([u64; 3], String) {
        let floats = [c.fraction, c.churn_rate, c.lemma2_steady_bound];
        (floats.map(f64::to_bits), format!("{c:?}"))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The module's determinism contract, stated dynamically: reducing
        /// any outcome set in any order yields bit-identical cells. An
        /// `f64` running sum or mean in `Cell::absorb` fails this (float
        /// addition is not associative); so does any accumulator that
        /// remembers which outcome came first.
        #[test]
        fn reduction_is_order_independent(
            runs in prop::collection::vec(
                (
                    (2u64..4, 0usize..3, 1u32..3),
                    (0u64..3, 0u64..20, 0u64..3),
                    (0.0f64..1.0, 0.0f64..24.0, 0u64..12),
                    prop::collection::vec(0u64..400, 0..6),
                    0u64..u64::MAX,
                ),
                0..24,
            )
        ) {
            let fractions = [0.1, 0.7, 1.3];
            let mut keyed: Vec<(u64, PointOutcome)> = Vec::new();
            for &((delta, f, keys), (stuck, joins, unsafe_), (rate, bound, window), ref samples, order) in &runs {
                let mut o = outcome(delta, fractions[f], stuck, joins, joins + stuck);
                o.keys = keys;
                o.safety_violations = unsafe_;
                o.churn_rate = rate;
                o.lemma2_steady_bound = bound;
                o.min_window_active = (window > 0).then_some(window);
                for &v in samples {
                    // One in forty lands past the histogram's dense range.
                    let v = if v % 40 == 0 { v + (1 << 16) } else { v };
                    o.active.record(v);
                    o.join_latency.record(v / 7);
                }
                keyed.push((order, o));
            }
            let given: Vec<PointOutcome> = keyed.iter().map(|(_, o)| o.clone()).collect();
            keyed.sort_by_key(|&(order, _)| order);
            let permuted: Vec<PointOutcome> = keyed.into_iter().map(|(_, o)| o).collect();

            let (a, b) = (reduce_cells(&given), reduce_cells(&permuted));
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(cell_bits(x), cell_bits(y));
            }
            // And the integer folds are the plain sums over the set.
            let total = |f: fn(&Cell) -> u64| a.iter().map(f).sum::<u64>();
            prop_assert_eq!(total(|c| c.runs), given.len() as u64);
            prop_assert_eq!(total(|c| c.stuck_ops), given.iter().map(|o| o.stuck_ops).sum::<u64>());
            prop_assert_eq!(
                total(|c| c.stuck_runs),
                given.iter().filter(|o| o.stuck_ops > 0).count() as u64
            );
        }
    }

    #[test]
    fn feasibility_requires_safety_liveness_and_availability() {
        let mut healthy = Cell::new(1, 1, 1, 3, 0.5);
        healthy.absorb(&outcome(3, 0.5, 0, 9, 10));
        assert!(healthy.feasible());

        let mut stuck = Cell::new(1, 1, 1, 3, 0.5);
        stuck.absorb(&outcome(3, 0.5, 3, 9, 10));
        assert!(!stuck.feasible());

        let mut starved = Cell::new(1, 1, 1, 3, 0.5);
        starved.absorb(&outcome(3, 0.5, 0, 2, 10));
        assert!(!starved.feasible(), "join ratio 0.2 < 0.5");

        let mut quiet = Cell::new(1, 1, 1, 3, 0.5);
        quiet.absorb(&outcome(3, 0.5, 0, 0, 0));
        assert!(quiet.feasible(), "no churn → availability is vacuous");
    }

    #[test]
    fn digest_separates_runs_and_is_stable() {
        let run = |seed| {
            Scenario::synchronous(8, Span::ticks(2))
                .churn_fraction_of_bound(0.4)
                .duration(Span::ticks(120))
                .seed(seed)
                .run()
        };
        let a1 = run_digest(&run(1));
        let a2 = run_digest(&run(1));
        let b = run_digest(&run(2));
        assert_eq!(a1, a2, "same run, same digest");
        assert_ne!(a1, b, "different seed, different stream");
    }
}
