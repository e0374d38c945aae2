//! Multi-seed experiment aggregation.
//!
//! Every row of `docs/REPRODUCTION.md` is a parameter sweep where each
//! cell aggregates several seeded runs. [`run_seeds`] executes the runs
//! (in parallel across OS threads — each run is single-threaded and
//! deterministic, so parallelism cannot perturb results) and [`Aggregate`]
//! summarizes the verdicts.

use std::thread;

use crate::scenario::RunReport;

/// Cross-seed summary of a batch of runs with identical parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Number of runs.
    pub runs: usize,
    /// Runs with at least one safety (regularity) violation.
    pub unsafe_runs: usize,
    /// Total safety violations across runs.
    pub safety_violations: usize,
    /// Total reads checked across runs.
    pub reads_checked: usize,
    /// Total new/old inversions across runs.
    pub inversions: usize,
    /// Runs with at least one stuck operation (liveness violation).
    pub stuck_runs: usize,
    /// Total stuck operations across runs.
    pub stuck_ops: usize,
    /// Mean read latency (ticks) over all completed reads of all runs.
    pub mean_read_latency: f64,
    /// Mean write latency (ticks).
    pub mean_write_latency: f64,
    /// Mean join latency (ticks).
    pub mean_join_latency: f64,
    /// Mean messages sent per run.
    pub mean_messages: f64,
}

impl Aggregate {
    /// Builds the summary from individual reports.
    pub fn from_reports(reports: &[RunReport]) -> Aggregate {
        let runs = reports.len();
        let mut agg = Aggregate {
            runs,
            unsafe_runs: 0,
            safety_violations: 0,
            reads_checked: 0,
            inversions: 0,
            stuck_runs: 0,
            stuck_ops: 0,
            mean_read_latency: 0.0,
            mean_write_latency: 0.0,
            mean_join_latency: 0.0,
            mean_messages: 0.0,
        };
        let (mut read_sum, mut read_n) = (0.0, 0u64);
        let (mut write_sum, mut write_n) = (0.0, 0u64);
        let (mut join_sum, mut join_n) = (0.0, 0u64);
        let mut msg_sum = 0.0;
        for r in reports {
            if !r.safety.is_ok() {
                agg.unsafe_runs += 1;
            }
            agg.safety_violations += r.safety.violation_count();
            agg.reads_checked += r.safety.checked_reads;
            agg.inversions += r.inversions();
            if !r.liveness.is_ok() {
                agg.stuck_runs += 1;
            }
            agg.stuck_ops += r.liveness.incomplete_stayer_count();
            if let Some(m) = r.liveness.read_latency.mean() {
                read_sum += m * r.liveness.read_latency.count() as f64;
                read_n += r.liveness.read_latency.count();
            }
            if let Some(m) = r.liveness.write_latency.mean() {
                write_sum += m * r.liveness.write_latency.count() as f64;
                write_n += r.liveness.write_latency.count();
            }
            if let Some(m) = r.liveness.join_latency.mean() {
                join_sum += m * r.liveness.join_latency.count() as f64;
                join_n += r.liveness.join_latency.count();
            }
            msg_sum += r.total_messages as f64;
        }
        agg.mean_read_latency = if read_n > 0 {
            read_sum / read_n as f64
        } else {
            0.0
        };
        agg.mean_write_latency = if write_n > 0 {
            write_sum / write_n as f64
        } else {
            0.0
        };
        agg.mean_join_latency = if join_n > 0 {
            join_sum / join_n as f64
        } else {
            0.0
        };
        agg.mean_messages = if runs > 0 { msg_sum / runs as f64 } else { 0.0 };
        agg
    }

    /// Fraction of runs with a safety violation.
    pub fn unsafe_fraction(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.unsafe_runs as f64 / self.runs as f64
        }
    }

    /// Fraction of runs with a liveness violation.
    pub fn stuck_fraction(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.stuck_runs as f64 / self.runs as f64
        }
    }
}

/// Runs `make_run(seed)` for each seed, in parallel across threads, and
/// returns the reports in seed order.
///
/// The closure builds and runs a scenario; since every run is internally
/// deterministic, thread scheduling cannot change any result.
pub fn run_seeds<F>(seeds: std::ops::Range<u64>, make_run: F) -> Vec<RunReport>
where
    F: Fn(u64) -> RunReport + Send + Sync,
{
    thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .clone()
            .map(|seed| {
                let make_run = &make_run;
                scope.spawn(move || make_run(seed))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("run panicked"))
            .collect()
    })
}

/// Convenience: run seeds and aggregate in one call.
pub fn aggregate_seeds<F>(seeds: std::ops::Range<u64>, make_run: F) -> Aggregate
where
    F: Fn(u64) -> RunReport + Send + Sync,
{
    Aggregate::from_reports(&run_seeds(seeds, make_run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioSpec;
    use dynareg_sim::Span;

    fn quick(seed: u64) -> RunReport {
        ScenarioSpec {
            duration: Span::ticks(80),
            seed,
            ..ScenarioSpec::synchronous(8, Span::ticks(2))
        }
        .run()
    }

    #[test]
    fn run_seeds_is_ordered_and_deterministic() {
        let a = run_seeds(0..4, quick);
        let b = run_seeds(0..4, quick);
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.total_messages, y.total_messages);
            assert_eq!(x.reads_checked(), y.reads_checked());
        }
        assert_eq!(a[2].seed, 2);
    }

    #[test]
    fn aggregate_counts_clean_runs() {
        let agg = aggregate_seeds(0..3, quick);
        assert_eq!(agg.runs, 3);
        assert_eq!(agg.unsafe_runs, 0);
        assert_eq!(agg.stuck_runs, 0);
        assert!(agg.reads_checked > 0);
        assert_eq!(agg.unsafe_fraction(), 0.0);
        assert_eq!(agg.mean_read_latency, 0.0, "sync reads are local");
        assert!(agg.mean_messages > 0.0);
    }

    #[test]
    fn empty_aggregate_is_well_defined() {
        let agg = Aggregate::from_reports(&[]);
        assert_eq!(agg.runs, 0);
        assert_eq!(agg.unsafe_fraction(), 0.0);
        assert_eq!(agg.stuck_fraction(), 0.0);
    }
}
