//! `dynabench compare A.json B.json`: are two result sets the same within
//! the benchmark's own bounds?
//!
//! Host-time metrics compare medians under the metric's bound, every ratio
//! given with its base (`B/A`). Simulated metrics, counts and digests must
//! be exactly equal — a change meant only to speed the simulator up must
//! leave every simulated statistic identical. A pair whose inter-quartile
//! ranges are wider than the bound is reported as `unresolved`, never as
//! equal.

use std::fmt::Write as _;

use crate::results::{Metric, Results, WorkloadResult};
use crate::spec::{Kind, END_TO_END, PER_LAYER};
use crate::stats::{judge, Verdict};

/// The comparison's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The printed report.
    pub report: String,
    /// Host-time metrics of `B` worse than `A` by more than the bound.
    pub regressed: usize,
    /// Exact metrics, counts or digests that differ.
    pub mismatched: usize,
    /// Pairs too noisy to call.
    pub unresolved: usize,
}

impl Comparison {
    /// 0 when nothing regressed and nothing exact differs, 1 otherwise.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.regressed > 0 || self.mismatched > 0)
    }
}

fn find<'a>(metrics: &'a [Metric], name: &str) -> Option<&'a Metric> {
    metrics.iter().find(|m| m.name == name)
}

/// Compares `b` against the base `a`. `Err` when the files cannot be
/// compared at all (different seeds or workload sets).
pub fn compare(a: &Results, b: &Results) -> Result<Comparison, String> {
    if a.seed != b.seed {
        return Err(format!(
            "seeds differ ({} vs {}): exact metrics are only comparable for one seed",
            a.seed, b.seed
        ));
    }
    let names = |r: &Results| {
        r.workloads
            .iter()
            .map(|w| w.name.clone())
            .collect::<Vec<_>>()
    };
    if names(a) != names(b) {
        return Err(format!(
            "workload sets differ: {:?} vs {:?}",
            names(a),
            names(b)
        ));
    }
    let mut out = Comparison {
        report: String::new(),
        regressed: 0,
        mismatched: 0,
        unresolved: 0,
    };
    let _ = writeln!(
        out.report,
        "base A: {} (rustc {}, {} threads) | B: {} (rustc {}, {} threads) | seed {}",
        a.env.git_head,
        a.env.rustc,
        a.env.threads,
        b.env.git_head,
        b.env.rustc,
        b.env.threads,
        a.seed
    );
    for (wa, wb) in a.workloads.iter().zip(&b.workloads) {
        compare_workload(wa, wb, &mut out);
    }
    let _ = writeln!(
        out.report,
        "\n{} regressed, {} exact mismatches, {} unresolved",
        out.regressed, out.mismatched, out.unresolved
    );
    Ok(out)
}

fn compare_workload(a: &WorkloadResult, b: &WorkloadResult, out: &mut Comparison) {
    let _ = writeln!(out.report, "\n== {}", a.name);
    let exact = |what: &str, va: String, vb: String, out: &mut Comparison| {
        if va != vb {
            out.mismatched += 1;
            let _ = writeln!(out.report, "  {what:<28} A {va} != B {vb}   MISMATCH");
        }
    };
    exact("correct", a.correct.to_string(), b.correct.to_string(), out);
    exact(
        "attempted",
        a.attempted.to_string(),
        b.attempted.to_string(),
        out,
    );
    exact("failed", a.failed.to_string(), b.failed.to_string(), out);
    exact(
        "digest",
        format!("{:#x}", a.digest),
        format!("{:#x}", b.digest),
        out,
    );
    exact(
        "counts",
        format!("{:?}", a.counts),
        format!("{:?}", b.counts),
        out,
    );

    for spec in END_TO_END {
        let (Some(ma), Some(mb)) = (
            find(&a.end_to_end, spec.name),
            find(&b.end_to_end, spec.name),
        ) else {
            out.mismatched += 1;
            let _ = writeln!(
                out.report,
                "  {:<28} missing on one side   MISMATCH",
                spec.name
            );
            continue;
        };
        let (sa, sb) = (&ma.summary, &mb.summary);
        let verdict = match spec.kind {
            Kind::Exact(_) if sa.median == sb.median => "equal",
            Kind::Exact(_) => {
                out.mismatched += 1;
                "MISMATCH"
            }
            Kind::Host(bound) => match judge(sa, sb, spec.better, bound) {
                Verdict::Within => "within bound",
                Verdict::Improved => "improved",
                Verdict::Regressed => {
                    out.regressed += 1;
                    "REGRESSED"
                }
                Verdict::Unresolved => {
                    out.unresolved += 1;
                    "unresolved (spread wider than bound)"
                }
            },
        };
        let _ = writeln!(
            out.report,
            "  {:<20} A {:>14.6} [{:.6}, {:.6}] n={:<3} B {:>14.6} [{:.6}, {:.6}] n={:<3} B/A {:.4} {} ({} better, bound {:.0}%)  {}",
            spec.name,
            sa.median,
            sa.q1,
            sa.q3,
            sa.n,
            sb.median,
            sb.q1,
            sb.q3,
            sb.n,
            sb.median / sa.median,
            ma.unit,
            spec.better.as_str(),
            spec.kind.bound() * 100.0,
            verdict
        );
    }

    // Per-layer numbers carry no bound: exact ones must agree, the rest
    // are shown as ratios for reading, not judged.
    for spec in PER_LAYER {
        let (Some(ma), Some(mb)) = (find(&a.per_layer, spec.name), find(&b.per_layer, spec.name))
        else {
            continue;
        };
        let (va, vb) = (ma.summary.median, mb.summary.median);
        if spec.exact && va != vb {
            out.mismatched += 1;
            let _ = writeln!(
                out.report,
                "  {:<32} A {va} != B {vb} {}   MISMATCH",
                spec.name, ma.unit
            );
        } else if !spec.exact && va != 0.0 {
            let _ = writeln!(
                out.report,
                "  {:<32} A {va:>14.6} B {vb:>14.6} B/A {:.4} {}",
                spec.name,
                vb / va,
                ma.unit
            );
        }
    }
}
