//! Phase-diagram reports: the reduced output of a sweep.
//!
//! A [`PhaseReport`] holds the `(δ, c/c*)` cells, the per-`δ` empirical
//! feasibility frontier compared against the analytic threshold (Theorem
//! 1's `c = 1/(3δ)`, or `1/(3δn)` for the ES protocol), and a fleet digest
//! folding every run's event-stream digest in index order. Everything in
//! the report — including the rendered JSON and tables — is a pure
//! function of the outcomes, so any two sweeps of the same spec are
//! byte-identical however many threads ran them.

use dynareg_churn::analysis;
use dynareg_sim::metrics::Histogram;
use dynareg_sim::Span;
use dynareg_testkit::table::Table;
use dynareg_testkit::ProtocolChoice;

use crate::aggregate::{reduce_cells, Cell, PointOutcome};
use crate::spec::SweepSpec;

/// The empirical feasibility frontier along one `δ` row, in churn-fraction
/// coordinates (`1.0` = the analytic bound).
#[derive(Debug, Clone, PartialEq)]
pub struct Frontier {
    /// Register-space key count of the row.
    pub keys: u32,
    /// Join-reply shard groups of the row.
    pub shards: u32,
    /// Writer-roster size of the row.
    pub writers: u32,
    /// Delay bound `δ` (ticks).
    pub delta: u64,
    /// Largest feasible fraction, if any cell was feasible.
    pub last_feasible: Option<f64>,
    /// Smallest infeasible fraction, if any cell was infeasible.
    pub first_infeasible: Option<f64>,
    /// The analytic churn threshold `c*` in rate units (per tick).
    /// `None` when the row has no single threshold — an ES sweep over
    /// several populations merges runs whose `1/(3δn)` differ; fraction
    /// space (where `1.0` is every run's own bound) is then the only
    /// meaningful frontier coordinate.
    pub analytic_threshold: Option<f64>,
    /// Whether feasibility is monotone along the row (no feasible cell
    /// above an infeasible one).
    pub monotone: bool,
    /// Whether the empirical transition interval
    /// `[last_feasible, first_infeasible]` brackets the analytic bound
    /// (fraction `1.0`), within [`BRACKET_TOL`].
    pub brackets_bound: bool,
}

/// Relative tolerance of the bracket verdict: the measured feasibility
/// collapse must sit within 10% of the analytic threshold. The transition
/// is discretization-sharp, not asymptotically exact — at small `δ·n` the
/// integer-granular join pipeline survives a grid step past `c*` (e.g.
/// `c/c* = 1.05` at `δ = 2, n = 24`) before availability collapses.
pub const BRACKET_TOL: f64 = 0.1;

/// Schema tag of the rendered phase-diagram JSON (`BENCH_phase.json`).
/// Version history: `/4` added `inquiry_full`/`delta_overruns` cell
/// columns; `/5` added `join_retransmits`. The format is specified in
/// `docs/FORMATS.md`, whose doc-sync test pins this constant.
pub const PHASE_SCHEMA: &str = "dynareg-phase-diagram/5";

impl Frontier {
    fn from_row(
        keys: u32,
        shards: u32,
        writers: u32,
        delta: u64,
        analytic_threshold: Option<f64>,
        row: &[&Cell],
    ) -> Frontier {
        debug_assert!(row.windows(2).all(|w| w[0].fraction <= w[1].fraction));
        let last_feasible = row
            .iter()
            .filter(|c| c.feasible())
            .map(|c| c.fraction)
            .fold(None, |acc: Option<f64>, f| {
                Some(acc.map_or(f, |a| a.max(f)))
            });
        let first_infeasible = row
            .iter()
            .filter(|c| !c.feasible())
            .map(|c| c.fraction)
            .fold(None, |acc: Option<f64>, f| {
                Some(acc.map_or(f, |a| a.min(f)))
            });
        let monotone = match (last_feasible, first_infeasible) {
            (Some(lf), Some(fi)) => lf < fi,
            _ => true,
        };
        let brackets_bound = match (last_feasible, first_infeasible) {
            (Some(lf), Some(fi)) => lf <= 1.0 + BRACKET_TOL && fi >= 1.0 - BRACKET_TOL,
            _ => false,
        };
        Frontier {
            keys,
            shards,
            writers,
            delta,
            last_feasible,
            first_infeasible,
            analytic_threshold,
            monotone,
            brackets_bound,
        }
    }
}

/// The reduced result of a whole sweep.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Protocol name ("sync", "sync-nowait", "es", "es-atomic").
    pub protocol: &'static str,
    /// The sweep's master seed.
    pub master_seed: u64,
    /// Total runs executed.
    pub total_runs: u64,
    /// Cells sorted by `(keys, shards, writers, δ, fraction)`.
    pub cells: Vec<Cell>,
    /// One frontier per distinct `(keys, shards, writers, δ)` row, in that order.
    pub frontiers: Vec<Frontier>,
    /// FNV fold of every run's event-stream digest, in run-index order —
    /// equal digests mean equal fleets, whatever the thread count.
    pub fleet_digest: u64,
}

impl PhaseReport {
    /// Reduces a sweep's outcomes (already in run-index order, as
    /// [`crate::pool::run_points`] returns them).
    pub fn from_outcomes(spec: &SweepSpec, outcomes: &[PointOutcome]) -> PhaseReport {
        let protocol = match spec.protocol {
            ProtocolChoice::Synchronous => "sync",
            ProtocolChoice::SynchronousNoWait => "sync-nowait",
            ProtocolChoice::EventuallySynchronous => "es",
            ProtocolChoice::EsAtomic => "es-atomic",
        };
        let cells = reduce_cells(outcomes);
        let mut frontiers = Vec::new();
        let mut rows: Vec<(u32, u32, u32, u64)> = cells
            .iter()
            .map(|c| (c.keys, c.shards, c.writers, c.delta))
            .collect();
        rows.dedup(); // cells are sorted by (keys, shards, writers, δ, fraction)
        for (keys, shards, writers, delta) in rows {
            let row: Vec<&Cell> = cells
                .iter()
                .filter(|c| {
                    c.keys == keys && c.shards == shards && c.writers == writers && c.delta == delta
                })
                .collect();
            let analytic = match spec.protocol {
                ProtocolChoice::Synchronous | ProtocolChoice::SynchronousNoWait => {
                    Some(analysis::sync_churn_threshold(Span::ticks(delta)))
                }
                // The ES threshold 1/(3δn) depends on n: a single
                // population names it exactly; several merged into one
                // row have no common threshold (see Frontier docs).
                ProtocolChoice::EventuallySynchronous | ProtocolChoice::EsAtomic => {
                    match spec.populations.as_slice() {
                        [n0] => Some(analysis::es_churn_threshold(Span::ticks(delta), *n0)),
                        _ => None,
                    }
                }
            };
            frontiers.push(Frontier::from_row(
                keys, shards, writers, delta, analytic, &row,
            ));
        }
        let fleet_digest = crate::aggregate::fnv1a(
            outcomes.iter().flat_map(|o| o.digest.to_le_bytes()),
            crate::aggregate::FNV_OFFSET,
        );
        PhaseReport {
            protocol,
            master_seed: spec.master_seed,
            total_runs: outcomes.len() as u64,
            cells,
            frontiers,
            fleet_digest,
        }
    }

    /// Whether every `δ` row's empirical frontier brackets the analytic
    /// bound.
    pub fn frontier_brackets_bound(&self) -> bool {
        !self.frontiers.is_empty() && self.frontiers.iter().all(|f| f.brackets_bound)
    }

    /// The compact phase diagram: one row per `δ`, one column per churn
    /// fraction; `#` = feasible (safe + live + available), `!` = a safety
    /// violation occurred, `.` = infeasible (unavailable or stuck), `|`
    /// marks the analytic boundary `c/c* = 1`.
    pub fn phase_grid(&self) -> String {
        let mut fraction_bits: Vec<u64> = self.cells.iter().map(|c| c.fraction.to_bits()).collect();
        fraction_bits.sort_unstable();
        fraction_bits.dedup();
        let col = |bits: u64| fraction_bits.binary_search(&bits).expect("known fraction");
        let boundary = fraction_bits.partition_point(|&b| f64::from_bits(b) <= 1.0);
        let mut out = String::new();
        out.push_str(&format!(
            "phase diagram ({} cells): '#' feasible  '.' infeasible  '!' unsafe  '|' c=c*\n",
            self.cells.len()
        ));
        let lo = self.cells.first().map(|c| c.fraction).unwrap_or(0.0);
        let hi = self.cells.last().map(|c| c.fraction).unwrap_or(0.0);
        out.push_str(&format!(
            "        c/c* from {lo:.2} (left) to {hi:.2} (right)\n"
        ));
        let multi_key = self.cells.iter().any(|c| c.keys > 1);
        let multi_shard = self.cells.iter().any(|c| c.shards > 1);
        let multi_writer = self.cells.iter().any(|c| c.writers > 1);
        let mut rows: Vec<(u32, u32, u32, u64)> = self
            .cells
            .iter()
            .map(|c| (c.keys, c.shards, c.writers, c.delta))
            .collect();
        rows.dedup();
        for (keys, shards, writers, delta) in rows {
            let mut row: Vec<char> = vec![' '; fraction_bits.len()];
            for cell in self.cells.iter().filter(|c| {
                c.keys == keys && c.shards == shards && c.writers == writers && c.delta == delta
            }) {
                row[col(cell.fraction.to_bits())] = if cell.unsafe_runs > 0 {
                    '!'
                } else if cell.feasible() {
                    '#'
                } else {
                    '.'
                };
            }
            let mut line: String = String::new();
            for (i, ch) in row.iter().enumerate() {
                if i == boundary {
                    line.push('|');
                }
                line.push(*ch);
            }
            if boundary == row.len() {
                line.push('|');
            }
            let mut tag = String::new();
            if multi_key || multi_shard {
                tag.push_str(&format!("k={keys:<4} "));
            }
            if multi_shard {
                tag.push_str(&format!("g={shards:<3} "));
            }
            if multi_writer {
                tag.push_str(&format!("w={writers:<2} "));
            }
            out.push_str(&format!("{tag}δ={delta:<3} {line}\n"));
        }
        out
    }

    /// The detailed per-cell table (markdown-rendered).
    pub fn cell_table(&self) -> Table {
        let mut t = Table::new([
            "keys",
            "G",
            "W",
            "δ",
            "c/c*",
            "c",
            "runs",
            "unsafe",
            "stuck",
            "join%",
            "reads",
            "min|A|",
            "mean|A|",
            "min|A(τ,τ+3δ)|",
            "floor n(1−6δc)",
            "feasible",
        ]);
        for c in &self.cells {
            t.row([
                c.keys.to_string(),
                c.shards.to_string(),
                c.writers.to_string(),
                c.delta.to_string(),
                format!("{:.3}", c.fraction),
                format!("{:.5}", c.churn_rate),
                c.runs.to_string(),
                c.unsafe_runs.to_string(),
                c.stuck_runs.to_string(),
                format!("{:.0}", c.join_ratio() * 100.0),
                c.reads_checked.to_string(),
                c.active.min().unwrap_or(0).to_string(),
                format!("{:.1}", c.active.mean().unwrap_or(0.0)),
                c.min_window_active.map_or("-".into(), |m| m.to_string()),
                format!("{:.1}", c.lemma2_steady_bound),
                if c.feasible() { "yes" } else { "no" }.to_string(),
            ]);
        }
        t
    }

    /// The per-`δ` frontier table (markdown-rendered).
    pub fn frontier_table(&self) -> Table {
        let mut t = Table::new([
            "keys",
            "G",
            "W",
            "δ",
            "analytic c*",
            "last feasible c/c*",
            "first infeasible c/c*",
            "monotone",
            "brackets c*",
        ]);
        for f in &self.frontiers {
            t.row([
                f.keys.to_string(),
                f.shards.to_string(),
                f.writers.to_string(),
                f.delta.to_string(),
                f.analytic_threshold
                    .map_or("-".into(), |v| format!("{v:.5}")),
                f.last_feasible.map_or("-".into(), |v| format!("{v:.3}")),
                f.first_infeasible.map_or("-".into(), |v| format!("{v:.3}")),
                if f.monotone { "yes" } else { "no" }.to_string(),
                if f.brackets_bound { "yes" } else { "no" }.to_string(),
            ]);
        }
        t
    }

    /// Machine-readable JSON (`BENCH_phase.json`). Deliberately free of
    /// wall-clock or thread-count fields: two sweeps of the same spec
    /// must serialize byte-identically at any parallelism.
    pub fn json(&self) -> String {
        fn hist(h: &Histogram) -> String {
            format!(
                "{{\"count\": {}, \"min\": {}, \"mean\": {:.4}, \"p50\": {}, \"p99\": {}, \"max\": {}}}",
                h.count(),
                h.min().unwrap_or(0),
                h.mean().unwrap_or(0.0),
                h.median().unwrap_or(0),
                h.quantile(0.99).unwrap_or(0),
                h.max().unwrap_or(0),
            )
        }
        let mut out = String::new();
        out.push_str(&format!("{{\n  \"schema\": \"{PHASE_SCHEMA}\",\n"));
        out.push_str(&format!("  \"protocol\": \"{}\",\n", self.protocol));
        out.push_str(&format!("  \"master_seed\": {},\n", self.master_seed));
        out.push_str(&format!("  \"total_runs\": {},\n", self.total_runs));
        out.push_str(&format!(
            "  \"fleet_digest\": \"{:#018x}\",\n",
            self.fleet_digest
        ));
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str(&format!(
                concat!(
                    "    {{\"keys\": {}, \"shards\": {}, \"writers\": {}, \"delta\": {}, \"fraction\": {:.6}, \"churn_rate\": {:.8}, ",
                    "\"runs\": {}, \"unsafe_runs\": {}, \"safety_violations\": {}, ",
                    "\"stuck_runs\": {}, \"stuck_ops\": {}, \"inversions\": {}, ",
                    "\"arrivals\": {}, \"joins_completed\": {}, \"join_ratio\": {:.4}, ",
                    "\"reads_checked\": {}, \"reads_completed\": {}, \"writes_completed\": {}, ",
                    "\"messages\": {}, \"inquiry_full\": {}, \"join_retransmits\": {}, \"delta_overruns\": {}, ",
                    "\"min_active\": {}, \"mean_active\": {:.4}, ",
                    "\"min_window_active\": {}, \"lemma2_steady_floor\": {:.4}, ",
                    "\"feasible\": {}, \"join_latency\": {}, \"read_latency\": {}, ",
                    "\"write_latency\": {}}}{}\n",
                ),
                c.keys,
                c.shards,
                c.writers,
                c.delta,
                c.fraction,
                c.churn_rate,
                c.runs,
                c.unsafe_runs,
                c.safety_violations,
                c.stuck_runs,
                c.stuck_ops,
                c.inversions,
                c.arrivals,
                c.joins_completed,
                c.join_ratio(),
                c.reads_checked,
                c.reads_completed,
                c.writes_completed,
                c.messages,
                c.inquiry_full,
                c.join_retransmits,
                c.delta_overruns,
                c.active.min().unwrap_or(0),
                c.active.mean().unwrap_or(0.0),
                c.min_window_active
                    .map_or("null".to_string(), |m| m.to_string()),
                c.lemma2_steady_bound,
                c.feasible(),
                hist(&c.join_latency),
                hist(&c.read_latency),
                hist(&c.write_latency),
                if i + 1 < self.cells.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n  \"frontier\": [\n");
        for (i, f) in self.frontiers.iter().enumerate() {
            out.push_str(&format!(
                concat!(
                    "    {{\"keys\": {}, \"shards\": {}, \"writers\": {}, \"delta\": {}, \"analytic_threshold\": {}, ",
                    "\"last_feasible_fraction\": {}, \"first_infeasible_fraction\": {}, ",
                    "\"monotone\": {}, \"brackets_bound\": {}}}{}\n",
                ),
                f.keys,
                f.shards,
                f.writers,
                f.delta,
                f.analytic_threshold
                    .map_or("null".to_string(), |v| format!("{v:.8}")),
                f.last_feasible
                    .map_or("null".to_string(), |v| format!("{v:.6}")),
                f.first_infeasible
                    .map_or("null".to_string(), |v| format!("{v:.6}")),
                f.monotone,
                f.brackets_bound,
                if i + 1 < self.frontiers.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        // `out` grew by doubling, so up to half its buffer is slack; the
        // copy is allocated at the text's exact length (`shrink_to_fit`
        // may leave the block's size to the allocator).
        out.as_str().to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::run_points;
    use crate::spec::SweepDomain;

    fn small_spec() -> SweepSpec {
        SweepSpec {
            domain: SweepDomain::Grid {
                deltas: vec![2, 3],
                fractions: vec![0.4, 0.8, 1.6, 3.0],
            },
            populations: vec![10],
            duration: Span::ticks(150),
            reads_per_tick: 1.0,
            ..SweepSpec::theorem1_default()
        }
    }

    fn small_report() -> PhaseReport {
        let spec = small_spec();
        let points = spec.points();
        let outcomes = run_points(&points, 2);
        PhaseReport::from_outcomes(&spec, &outcomes)
    }

    #[test]
    fn report_shape_matches_grid() {
        let report = small_report();
        assert_eq!(report.total_runs, 8);
        assert_eq!(report.cells.len(), 8);
        assert_eq!(report.frontiers.len(), 2);
        // Cells sorted by (δ, fraction).
        for w in report.cells.windows(2) {
            assert!(
                (
                    w[0].keys,
                    w[0].shards,
                    w[0].writers,
                    w[0].delta,
                    w[0].fraction.to_bits()
                ) < (
                    w[1].keys,
                    w[1].shards,
                    w[1].writers,
                    w[1].delta,
                    w[1].fraction.to_bits()
                )
            );
        }
    }

    #[test]
    fn json_is_schema_tagged_and_free_of_wall_clock() {
        let report = small_report();
        let json = report.json();
        assert!(json.contains(&format!("\"schema\": \"{PHASE_SCHEMA}\"")));
        assert!(json.contains("\"inquiry_full\""));
        assert!(json.contains("\"join_retransmits\""));
        assert!(json.contains("\"delta_overruns\""));
        assert!(json.contains("\"fleet_digest\""));
        assert!(
            !json.contains("secs"),
            "no wall-clock in deterministic output"
        );
        assert!(
            !json.contains("threads"),
            "no thread count in deterministic output"
        );
    }

    #[test]
    fn json_is_allocated_at_its_exact_length() {
        // A caller that keeps several reports' JSON (a benchmark comparing
        // repeats) would otherwise hold up to twice the text per report,
        // and its memory would grow with the repeat count.
        let json = small_report().json();
        assert_eq!(json.capacity(), json.len());
    }

    #[test]
    fn renders_cover_every_cell() {
        let report = small_report();
        assert_eq!(report.cell_table().len(), report.cells.len());
        assert_eq!(report.frontier_table().len(), report.frontiers.len());
        let grid = report.phase_grid();
        assert!(grid.contains("δ=2") && grid.contains("δ=3"));
        assert!(grid.contains('|'), "analytic boundary is marked");
    }

    #[test]
    fn frontier_brackets_the_theorem1_bound_on_a_coarse_grid() {
        let report = small_report();
        for f in &report.frontiers {
            assert!(f.monotone, "feasibility not monotone at δ={}", f.delta);
            assert!(
                f.brackets_bound,
                "frontier misses the bound at δ={}: last_feasible={:?} first_infeasible={:?}",
                f.delta, f.last_feasible, f.first_infeasible
            );
        }
        assert!(report.frontier_brackets_bound());
    }

    #[test]
    fn frontier_row_logic_handles_all_shapes() {
        let mk = |delta, fraction, stuck| {
            let mut cell = Cell::new(1, 1, 1, delta, fraction);
            cell.absorb(&PointOutcome {
                index: 0,
                delta,
                fraction,
                churn_rate: 0.1,
                n: 10,
                keys: 1,
                shards: 1,
                writers: 1,
                seed: 0,
                safety_violations: 0,
                reads_checked: 1,
                inversions: 0,
                stuck_ops: stuck,
                arrivals: 10,
                joins_completed: 10,
                reads_completed: 1,
                writes_completed: 1,
                messages: 1,
                inquiry_full: 0,
                join_retransmits: 0,
                delta_overruns: 0,
                active: Histogram::new(),
                min_window_active: None,
                lemma2_steady_bound: 0.0,
                join_latency: Histogram::new(),
                read_latency: Histogram::new(),
                write_latency: Histogram::new(),
                digest: 0,
            });
            cell
        };
        // Feasible below 1, infeasible above: brackets.
        let a = mk(4, 0.8, 0);
        let b = mk(4, 1.2, 5);
        let f = Frontier::from_row(1, 1, 1, 4, Some(1.0 / 12.0), &[&a, &b]);
        assert!(f.monotone && f.brackets_bound);
        assert_eq!(f.last_feasible, Some(0.8));
        assert_eq!(f.first_infeasible, Some(1.2));
        // All feasible: no bracket (frontier not observed).
        let f = Frontier::from_row(1, 1, 1, 4, Some(1.0 / 12.0), &[&a]);
        assert!(f.monotone && !f.brackets_bound);
        // Infeasible below the bound: monotone but no bracket.
        let c = mk(4, 0.5, 3);
        let f = Frontier::from_row(1, 1, 1, 4, Some(1.0 / 12.0), &[&c, &b]);
        assert!(!f.brackets_bound);
        // Non-monotone: feasible above an infeasible cell.
        let d = mk(4, 2.0, 0);
        let f = Frontier::from_row(1, 1, 1, 4, Some(1.0 / 12.0), &[&c, &d]);
        assert!(!f.monotone);
    }
}
