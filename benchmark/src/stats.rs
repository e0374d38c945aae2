//! Median, quartile and regression-bound arithmetic shared by `run`,
//! `compare` and the tests.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughputs, shares of good outcomes).
    Higher,
    /// Smaller values are better (times, memory).
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Median, quartiles and sample count of one metric's repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median (p50).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`.
    ///
    /// # Panics
    /// Panics on an empty slice or a NaN sample — both are harness bugs.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "a summary needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
        Summary {
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            n: sorted.len(),
        }
    }

    /// A summary of one exact value (counts, shares, digests-as-numbers).
    pub fn exact(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Inter-quartile range as a share of the median (0 for a zero
    /// median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `p`-quantile of an ascending slice by the exclusive method, the one
/// Python's `statistics.quantiles(values, n=4)` uses: 1-based position
/// `p·(len+1)`, interpolated linearly between the neighbours `j` and `j+1`
/// with `j` clamped to `1..len-1` (so two- and three-sample quartiles
/// extrapolate exactly as Python's do). One sample is its own quantile.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    let len = sorted.len();
    if len == 1 {
        return sorted[0];
    }
    let pos = p * (len as f64 + 1.0);
    let j = (pos.floor() as usize).clamp(1, len - 1);
    let delta = pos - j as f64;
    sorted[j - 1] + delta * (sorted[j] - sorted[j - 1])
}

/// How much worse `candidate` is than `base`, as a share of `base`
/// (positive = worse, negative = better), given the metric's direction.
pub fn worsening(base: f64, candidate: f64, better: Better) -> f64 {
    if base == 0.0 {
        return if candidate == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (candidate - base) / base.abs(),
        Better::Higher => (base - candidate) / base.abs(),
    }
}

/// The verdict of comparing one metric across two result sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Medians within the bound and the spreads narrow enough to say so.
    Within,
    /// `B` is better than `A` by more than the bound (not a failure).
    Improved,
    /// `B` is worse than `A` by more than the bound.
    Regressed,
    /// A spread is wider than the bound, so neither "equal" nor "changed"
    /// can be claimed — unless every quartile of one side beats the other.
    Unresolved,
}

/// Compares two summaries of a host-time metric under `bound` (a share of
/// `a`'s median). A pair whose inter-quartile ranges are wider than the
/// bound is `Unresolved`, except when the ranges do not overlap at all (then
/// the direction is clear whatever the width).
pub fn judge(a: &Summary, b: &Summary, better: Better, bound: f64) -> Verdict {
    let worse = worsening(a.median, b.median, better);
    let disjoint = a.q3 < b.q1 || b.q3 < a.q1;
    if !disjoint && (a.spread() > bound || b.spread() > bound) {
        return Verdict::Unresolved;
    }
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Within
    }
}
